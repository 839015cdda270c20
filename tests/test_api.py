"""The public API, and the one admissibility gate behind all its callers."""

import importlib
import inspect
import re

import numpy as np
import pytest

import acbm
from acbm import fileio, tensors
from acbm.cli import main
from acbm.decomposition import classify, component, decompose, project_w
from acbm.errors import PreconditionError
from acbm.structure import DEFAULT_RTOL, MAX_DIM, StructureData, _max_abs, canonical_structure
from acbm.tensors import _membership_residuals, is_structure_tensor, random_structure_tensor
from acbm.verify import run_suite

from conftest import random_structure

PUBLIC = [
    "ClassReport", "Decomposition",
    "NUM_CLASSES", "PreconditionError", "StructureData",
    "act", "canonical_structure", "check_jacobi", "classify", "component",
    "connection_residuals", "decompose",
    "group_element_from_blocks", "inner_product", "is_structure_tensor",
    "koszul_connection", "lee_forms", "lie_family", "project_w",
    "random_group_element", "random_structure_tensor",
    "sphere_structure_tensor", "structure_tensor_from_connection",
    "validate_group_element",
]
LIBRARY = ("cli", "fileio", "structure", "tensors", "decomposition", "group", "models", "verify")


def _library_public(kind) -> dict:
    """{name: object} of each public object of the kind (inspect.isfunction or
    inspect.isclass) defined in a library module, as bench/spans.py finds the
    functions it wraps: whether or not acbm.__all__ lists it."""
    found = {}
    for layer in LIBRARY:
        module = importlib.import_module(f"acbm.{layer}")
        for attr, obj in vars(module).items():
            if not attr.startswith("_") and kind(obj) and obj.__module__ == module.__name__:
                assert attr not in found, f"{attr} is defined in two library modules"
                found[attr] = obj
    return found


def test_public_api():
    assert sorted(acbm.__all__) == PUBLIC
    namespace = {}
    exec(f"from acbm import {', '.join(PUBLIC)}", namespace)
    assert all(namespace[name] is getattr(acbm, name) for name in PUBLIC)


@pytest.mark.parametrize("scale", [1e-300, 1e-25, 1e-10, 1.0, 1e10, 1e300])
@pytest.mark.parametrize("ratio", [0.5, 2.0])
def test_gate_parity(tmp_path, capsys, scale, ratio):
    """is_structure_tensor, every map on the admissible space and `acbm project`
    agree on a tensor whose worst membership residual is ratio times the bound."""
    s = canonical_structure(1)
    f = scale * random_structure_tensor(s, 0)
    vertical = np.zeros((3, 3, 3))
    vertical[0, 0, 0] = 1.0  # F(xi, xi, xi): phi_relation residual 1, slot symmetry 0
    t = f + ratio * DEFAULT_RTOL * tensors._scale(f) * vertical
    bound = DEFAULT_RTOL * tensors._scale(t)
    assert max(_membership_residuals(s, t).values()) == pytest.approx(ratio * bound, rel=1e-6)

    admissible = ratio < 1.0
    assert is_structure_tensor(s, t) is admissible
    path = tmp_path / "t.json"
    path.write_text(fileio.dumps(fileio.tensor_to_doc(s, t)))
    maps = (
        decompose, classify, lambda s, t: component(s, t, 1), lambda s, t: project_w(s, t, 1),
    )
    if admissible:
        for call in maps:
            call(s, t)
        assert main(["project", str(path), "--w", "1"]) == 0
    else:
        messages = set()
        for call in maps:
            with pytest.raises(PreconditionError, match="not an admissible") as exc:
                call(s, t)
            messages.add(str(exc.value))
        assert len(messages) == 1
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
    [decompose, classify, is_structure_tensor],
    ids=["decompose", "classify", "is_structure_tensor"],
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
    only records the threshold classify was given, and CheckResult the fixed
    tolerance of a suite check."""
    takers = set()
    for name, obj in {**_library_public(inspect.isfunction), **_library_public(inspect.isclass)}.items():
        if inspect.isclass(obj) and issubclass(obj, BaseException):
            continue  # an exception type has no signature
        if any("tol" in p for p in inspect.signature(obj).parameters):
            takers.add(name)
    assert takers == {"classify", "ClassReport", "CheckResult"}


def test_inverse_metric_is_always_computed():
    s = canonical_structure(1)
    with pytest.raises(TypeError):
        StructureData(n=1, g=s.g, phi=s.phi, xi=s.xi, eta=s.eta, g_inv=s.g)


# The public functions that do arithmetic on values from their caller, each
# with an input whose arithmetic leaves the float range. Tensors are taken
# over a non-canonical structure s, so that every contraction sums products.
_S1 = canonical_structure(1)


def _near_max(s, seed=0) -> np.ndarray:
    """A random inadmissible tensor of max-abs about 1.5e308."""
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(s.dim,) * 3) * 1.5e308


def _near_max_admissible(s) -> np.ndarray:
    f = random_structure_tensor(s, 0)
    return f / _max_abs(f) * 1.5e308


OVERFLOWING_CALLS = {
    "StructureData": lambda s: StructureData(n=1, g=_S1.g, phi=1e200 * _S1.phi, xi=_S1.xi, eta=_S1.eta),
    "is_structure_tensor": lambda s: acbm.is_structure_tensor(s, _near_max(s)),
    "embed_structure_tensor": lambda s: tensors.embed_structure_tensor(s, _near_max(s)),
    "inner_product": lambda s: acbm.inner_product(s, _near_max(s), _near_max(s, 1)),
    "lee_forms": lambda s: acbm.lee_forms(s, _near_max(s)),
    "project_w": lambda s: acbm.project_w(s, _near_max(s), 2),
    "component": lambda s: acbm.component(s, _near_max_admissible(s), 2),
    "decompose": lambda s: acbm.decompose(s, _near_max_admissible(s)),
    "classify": lambda s: acbm.classify(s, _near_max_admissible(s)),
    "validate_group_element": lambda s: acbm.validate_group_element(_S1, 1.5e308 * np.eye(3)),
    "act": lambda s: acbm.act(_S1, np.diag([1.0, 1.0, 1e-300]), random_structure_tensor(_S1, 0)),
    "koszul_connection": lambda s: acbm.koszul_connection(*acbm.lie_family(1, [1e308, 1e308])),
    "connection_residuals": lambda s: acbm.connection_residuals(
        *acbm.lie_family(1, [1.0, 1.0]), _near_max(_S1)
    ),
    "structure_tensor_from_connection": lambda s: acbm.structure_tensor_from_connection(
        _S1, _near_max(_S1)
    ),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING_CALLS))
def test_overflow_is_one_value_error(name):
    """The one float-range rule: one plain ValueError naming the overflow, and
    no RuntimeWarning (pyproject makes one an error)."""
    with pytest.raises(ValueError) as info:
        OVERFLOWING_CALLS[name](random_structure(1, 0))
    assert type(info.value) is ValueError
    assert str(info.value).startswith("result overflows the floating-point range")
    assert "\n" not in str(info.value)


def test_check_jacobi_stays_in_range():
    """check_jacobi divides the table by its max-abs entry before any product,
    so even a table at the float maximum leaves no operation out of range."""
    assert acbm.check_jacobi(*acbm.lie_family(1, [1.7e308, -1.7e308])) is True


def test_float_range_rule_is_on_every_arithmetic_entry():
    """Exactly the functions above and check_jacobi carry _in_float_range."""
    carriers = {
        name for name, fn in _library_public(inspect.isfunction).items()
        if hasattr(fn, "__wrapped__")
    }
    if hasattr(StructureData.__post_init__, "__wrapped__"):
        carriers.add("StructureData")
    assert carriers == set(OVERFLOWING_CALLS) | {"check_jacobi"}


# Every public function that takes a scalar, by parameter: the call on a value v,
# the name its ValueError gives, and the rule. An integer rule is (minimum,
# maximum or None); n's maximum is where 2n + 1 passes MAX_DIM. A real rule is
# positive (> 0) or not.
_F1 = random_structure_tensor(_S1, 0)
_N_MAX = (MAX_DIM - 1) // 2
_STRUCTURE_1 = {k: getattr(_S1, k) for k in ("g", "phi", "xi", "eta")}
INTEGER_TAKERS = {
    "canonical_structure n": (canonical_structure, "n", 1, _N_MAX),
    "StructureData n": (lambda v: StructureData(n=v, **_STRUCTURE_1), "n", 1, _N_MAX),
    "random_group_element n": (lambda v: acbm.random_group_element(v, 0), "n", 1, _N_MAX),
    "group_element_from_blocks n": (
        lambda v: acbm.group_element_from_blocks(v, np.eye(1), np.zeros((1, 1))), "n", 1, _N_MAX
    ),
    "lie_family n": (lambda v: acbm.lie_family(v, [1.0, 1.0]), "n", 1, _N_MAX),
    "sphere_structure_tensor n": (lambda v: acbm.sphere_structure_tensor(v, 0.3), "n", 1, _N_MAX),
    "random_structure_tensor seed": (lambda v: random_structure_tensor(_S1, v), "seed", 0, None),
    "random_group_element seed": (lambda v: acbm.random_group_element(1, v), "seed", 0, None),
    "run_suite seeds": (lambda v: run_suite("dim3", v), "seeds", 1, None),
    "component i": (lambda v: acbm.component(_S1, _F1, v), "class index", 1, 11),
    "project_w i": (lambda v: acbm.project_w(_S1, _F1, v), "block index", 1, 4),
}
REAL_TAKERS = {
    "classify rel_tol": (lambda v: classify(_S1, _F1, rel_tol=v), "rel_tol", True),
    "sphere_structure_tensor t": (lambda v: acbm.sphere_structure_tensor(1, v), "t", False),
}
SCALAR_CASES = [
    pytest.param(call, name, bad, id=f"{taker}-{bad!r}")
    for taker, (call, name, minimum, maximum) in INTEGER_TAKERS.items()
    for bad in (True, float(minimum), minimum - 1, *(() if maximum is None else (maximum + 1,)))
] + [
    pytest.param(call, name, bad, id=f"{taker}-{bad!r}")
    for taker, (call, name, positive) in REAL_TAKERS.items()
    for bad in (True, float("nan"), float("inf"), *((0.0,) if positive else ()))
] + [
    # a suite name that is not a string, hashable or not, is an unknown suite
    pytest.param(lambda v: run_suite(v, 1), "unknown suite", bad, id=f"run_suite name-{bad!r}")
    for bad in (3, ["dim3"], {})
]


@pytest.mark.parametrize("call, name, bad", SCALAR_CASES)
def test_scalar_parameters_follow_one_rule(call, name, bad):
    """One integer rule and one real rule: a bool, a float where an integer is
    due, a value out of range, a non-finite real and a suite name that is not
    one are each one ValueError naming the parameter, not a numpy error, a
    TypeError, a NaN report or a silent 1."""
    with pytest.raises(ValueError, match=f"^{re.escape(name)}[ :]") as info:
        call(bad)
    assert type(info.value) is ValueError


@pytest.mark.parametrize("n", [_N_MAX + 1, 10**9])
def test_oversize_rank_is_refused_before_allocating(monkeypatch, n):
    def refuse(*args, **kwargs):
        raise AssertionError(f"allocated for canonical_structure({n})")

    monkeypatch.setattr(np, "zeros", refuse)
    monkeypatch.setattr(np, "ones", refuse)
    with pytest.raises(ValueError, match=f"^n: dimension {2 * n + 1} exceeds the maximum {MAX_DIM} "):
        canonical_structure(n)
