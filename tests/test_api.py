"""The public API, and the one admissibility gate behind all its callers."""

import inspect

import numpy as np
import pytest

import acbm
from acbm import fileio, tensors
from acbm.cli import main
from acbm.decomposition import classify, decompose, satisfies_class
from acbm.errors import PreconditionError
from acbm.structure import DEFAULT_ABS_FLOOR, DEFAULT_RTOL, StructureData, canonical_structure
from acbm.tensors import _max_abs, is_structure_tensor, membership_residuals, random_structure_tensor

PUBLIC = [
    "CLASS_NAMES", "ClassReport", "Decomposition", "Dim3Coefficients", "LieAlgebraSpec",
    "NUM_CLASSES", "PreconditionError", "StructureData",
    "act", "canonical_structure", "check_jacobi", "classify", "component",
    "connection_residuals", "decompose", "dim3_coefficients", "dim3_decompose",
    "dim3_lee_forms", "embed_structure_tensor", "group_element_from_blocks",
    "in_w_subspace", "inner_product", "is_canonical_basis", "is_structure_tensor",
    "koszul_connection", "lee_forms", "lie_family", "membership_residuals", "project_w",
    "random_group_element", "random_structure_tensor", "satisfies_class",
    "sphere_structure_tensor", "structure_tensor_from_connection",
    "validate_group_element", "validate_structure", "w2_involution",
]


def test_public_api():
    assert sorted(acbm.__all__) == PUBLIC
    namespace = {}
    exec(f"from acbm import {', '.join(PUBLIC)}", namespace)
    assert all(namespace[name] is getattr(acbm, name) for name in PUBLIC)


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
@pytest.mark.parametrize("ratio", [0.5, 2.0])
def test_gate_parity(tmp_path, capsys, scale, ratio):
    """is_structure_tensor, decompose and `acbm project` agree on a tensor
    whose worst membership residual is ratio times the bound."""
    s = canonical_structure(1)
    f = scale * random_structure_tensor(s, 0)
    vertical = np.zeros((3, 3, 3))
    vertical[0, 0, 0] = 1.0  # F(xi, xi, xi): phi_relation residual 1, slot symmetry 0
    t = f + ratio * DEFAULT_RTOL * max(_max_abs(f), DEFAULT_ABS_FLOOR) * vertical
    bound = DEFAULT_RTOL * max(_max_abs(t), DEFAULT_ABS_FLOOR)
    assert max(membership_residuals(s, t).values()) == pytest.approx(ratio * bound, rel=1e-6)

    admissible = ratio < 1.0
    assert is_structure_tensor(s, t) is admissible
    path = tmp_path / "t.json"
    path.write_text(fileio.dumps(fileio.tensor_to_doc(s, t)))
    if admissible:
        decompose(s, t)
        assert main(["project", str(path), "--w", "1"]) == 0
    else:
        with pytest.raises(PreconditionError, match="not an admissible") as exc:
            decompose(s, t)
        capsys.readouterr()
        assert main(["project", str(path), "--w", "1"]) == 3
        assert capsys.readouterr().err == f"error: {exc.value}\n"


def test_nan_residual_refuses(monkeypatch):
    """A NaN residual fails the gate closed: no comparison with NaN is true."""
    s = canonical_structure(1)
    f = random_structure_tensor(s, 0)
    nan = float("nan")
    monkeypatch.setattr(tensors, "_membership_residuals", lambda *a: {"phi_relation": nan})
    assert not is_structure_tensor(s, f)
    with pytest.raises(PreconditionError, match="not an admissible"):
        decompose(s, f)


def _count_entry_checks(monkeypatch) -> list:
    """Record each tensor entry check: tensors._tensor through the one array check."""
    calls = []
    original = tensors._as_float_array
    monkeypatch.setattr(tensors, "_as_float_array", lambda *a: calls.append(1) or original(*a))
    return calls


@pytest.mark.parametrize(
    "command, checks",
    [(["classify"], 1), (["project", "--class-index", "4"], 2), (["project", "--w", "2"], 2)],
)
def test_cli_checks_each_tensor_once(tmp_path, capsys, monkeypatch, command, checks):
    """The document's tensor is checked once where it enters the library;
    `project` checks one more, the result it writes out."""
    src = str(tmp_path / "rand.json")
    main(["gen", "random", "--dim", "5", "--seed", "2", "--out", src])
    calls = _count_entry_checks(monkeypatch)
    assert main([command[0], src, *command[1:]]) == 0
    assert len(calls) == checks


@pytest.mark.parametrize(
    "call",
    [decompose, classify, is_structure_tensor, lambda s, f: satisfies_class(s, f, 2)],
    ids=["decompose", "classify", "is_structure_tensor", "satisfies_class"],
)
def test_library_checks_each_tensor_once(monkeypatch, call):
    s = canonical_structure(2)
    f = random_structure_tensor(s, 0)
    calls = _count_entry_checks(monkeypatch)
    call(s, f)
    assert len(calls) == 1


def test_only_classify_takes_a_tolerance():
    """Every precondition compares against the fixed DEFAULT_* constants; the
    class threshold of classify is the one settable tolerance. ClassReport
    only records the threshold classify was given."""
    takers = set()
    for name in acbm.__all__:
        obj = getattr(acbm, name)
        if not callable(obj) or obj is PreconditionError:  # an exception type has no signature
            continue
        if any("tol" in p for p in inspect.signature(obj).parameters):
            takers.add(name)
    assert takers == {"classify", "ClassReport"}


def test_inverse_metric_is_always_computed():
    s = canonical_structure(1)
    with pytest.raises(TypeError):
        StructureData(n=1, g=s.g, phi=s.phi, xi=s.xi, eta=s.eta, g_inv=s.g)
