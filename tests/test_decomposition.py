import json

import numpy as np
import pytest

from acbm import decomposition as dec
from acbm import fileio
from acbm.cli import main
from acbm.decomposition import (
    CLASS_NAMES,
    NUM_CLASSES,
    classify,
    component,
    decompose,
    project_w,
)
from acbm.errors import PreconditionError
from acbm.models import lie_family, koszul_connection, sphere_structure_tensor, structure_tensor_from_connection
from acbm.structure import DEFAULT_RTOL, _max_abs, canonical_structure
from acbm.tensors import (
    _membership_residuals, _scale, embed_structure_tensor, inner_product, is_structure_tensor, random_structure_tensor,
)

from conftest import f1_form, f4_form, f8_form, f10_form, f11_form, push_structure, random_structure


@pytest.mark.parametrize(
    "call",
    [lambda s, f: component(s, f, 1), decompose, classify, embed_structure_tensor],
    ids=["component", "decompose", "classify", "embed_structure_tensor"],
)
def test_overflowing_result_is_one_error(call):
    """An admissible tensor of max-abs 1.5e308 whose result overflows: one
    ValueError that says so, and no RuntimeWarning (pyproject makes it an error)."""
    s = canonical_structure(2)
    f = random_structure_tensor(s, 0)
    with pytest.raises(ValueError, match=r"^result overflows the floating-point range \(overflow encountered in add\)$"):
        call(s, f * (1.5e308 / _max_abs(f)))


@pytest.mark.filterwarnings("error")
def test_einsum_overflow_is_refused_by_the_seal(tmp_path, capsys):
    """np.einsum overflows to inf without a floating-point error, so the seal of the
    result, structure._sealed, refuses it: the same message without the parenthesis,
    and no warning. The case is the n = 1 basis of test_stretched_basis_up_to_the_signature_limit
    at k = 1e4 and its seed-0 tensor at max-abs 10^304.21, inside a narrow window: below
    about 10^304.18 nothing overflows, and from about 10^304.24 a matmul overflows
    first and its error carries the parenthesis."""
    t = np.diag([1.0, 1e4, 1.0])
    t[1, 2], t[2, 1] = 0.37e4, 0.11
    s = push_structure(canonical_structure(1), t)
    f = random_structure_tensor(s, 0)
    f = f * (10**304.21 / _max_abs(f))
    for call in (lambda: component(s, f, 2), lambda: decompose(s, f), lambda: classify(s, f)):
        with pytest.raises(ValueError, match=r"^result overflows the floating-point range$"):
            call()
    path = tmp_path / "f.json"
    path.write_text(json.dumps(fileio.tensor_to_doc(s, f)))
    assert main(["classify", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: result overflows the floating-point range\n")


@pytest.mark.parametrize(
    "call, index",
    [
        pytest.param(call, index, id=f"{call.__name__}-{index}")
        for call, indices in ((component, (0, 12, 1.5)), (project_w, (0, 5, 1.5)))
        for index in indices
    ],
)
def test_gate_precedes_index_check(call, index):
    """A bad index is judged only on an admissible tensor: on an inadmissible
    one the admissibility gate speaks first, as decompose's does."""
    s = canonical_structure(1)
    with pytest.raises(PreconditionError, match="^tensor is not an admissible structure tensor:"):
        call(s, np.arange(27.0).reshape(3, 3, 3), index)
    with pytest.raises(ValueError, match="index must be an integer") as info:
        call(s, random_structure_tensor(s, 0), index)
    assert type(info.value) is ValueError


class TestProjectW:
    def test_p1_kills_f11(self, s1):
        assert _max_abs(project_w(s1, f11_form(), 1)) == 0.0

    def test_p3_fixes_f10(self, s1):
        f = f10_form(2.5)
        assert _max_abs(project_w(s1, f, 3) - f) <= 1e-15

    def test_mutual_annihilation(self, s2):
        f = random_structure_tensor(s2, 5)
        for i in range(1, 5):
            p = project_w(s2, f, i)
            for j in range(1, 5):
                if j != i:
                    assert _max_abs(project_w(s2, p, j)) <= 1e-12


class TestW2Involutions:
    @pytest.mark.parametrize("j", [1, 2])
    @pytest.mark.parametrize("seed", range(5))
    def test_involutive_on_w2(self, j, seed):
        s = canonical_structure(2)
        f = project_w(s, random_structure_tensor(s, seed), 2)
        twice = dec._involution(s, dec._involution(s, f, j), j)
        assert _max_abs(twice - f) <= 1e-12

    def test_isometry_on_w2(self, s2):
        f = project_w(s2, random_structure_tensor(s2, 1), 2)
        g = project_w(s2, random_structure_tensor(s2, 2), 2)
        for j in (1, 2):
            lhs = inner_product(s2, dec._involution(s2, f, j), dec._involution(s2, g, j))
            assert lhs == pytest.approx(inner_product(s2, f, g), rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("j", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("pushed", [False, True], ids=["canonical", "pushed"])
    def test_acts_on_the_w2_part(self, pushed, n, j):
        """On an admissible f outside W2 the result is L_j(p2 f): L1 and L2
        read f only through the brackets that p2 keeps."""
        s = random_structure(n, n) if pushed else canonical_structure(n)
        f = random_structure_tensor(s, n)
        want = dec._involution(s, project_w(s, f, 2), j)
        assert _max_abs(dec._involution(s, f, j) - want) <= 1e-15 * _max_abs(f)


_ITEM_17 = pytest.mark.xfail(strict=True, reason="ROADMAP item 17")


class TestComponent:
    def test_lie_family_pure_f10(self):
        s, c = lie_family(1, [0.0, 1.0])
        f = structure_tensor_from_connection(s, koszul_connection(s, c))
        assert _max_abs(component(s, f, 10) - f) <= 1e-12
        for i in range(1, NUM_CLASSES + 1):
            if i != 10:
                assert _max_abs(component(s, f, i)) <= 1e-12

    def test_f8_projection_is_identity_on_own_class(self, s1):
        f = f8_form()
        assert _max_abs(component(s1, f, 8) - f) <= 1e-12
        for i in range(1, NUM_CLASSES + 1):
            if i != 8:
                assert _max_abs(component(s1, f, i)) <= 1e-12

    @pytest.mark.parametrize("pushed, n, i", [
        pytest.param(
            pushed, n, i, id=f"{'pushed' if pushed else 'canonical'}-{n}-{i}",
            marks=_ITEM_17 if pushed and i in (2, 3, 6, 7, 8, 10) else (),
        )
        for pushed in (False, True) for n in (1, 2, 3) for i in range(1, NUM_CLASSES + 1)
    ])
    def test_gate_admits_every_component_of_a_component(self, pushed, n, i):
        """Each component of the F9 component of a tensor is a tensor every map reads.
        In a changed basis the classes F9 lacks come out as rounding noise, which the
        gate judges against its own max-abs and refuses for i = 2, 3, 6, 7, 8 and 10."""
        s = random_structure(n, 0) if pushed else canonical_structure(n)
        f9 = component(s, random_structure_tensor(s, 0), 9)
        assert is_structure_tensor(s, component(s, f9, i))


class TestDecompose:
    def test_zero_tensor(self, s1):
        d = decompose(s1, np.zeros((3, 3, 3)))
        assert all(_max_abs(t) == 0.0 for t in d.components)
        assert d.reconstruction_residual == 0.0

    def test_sphere_quarter_pi(self):
        s, f = sphere_structure_tensor(1, np.pi / 4)
        d = decompose(s, f)
        for i in range(1, NUM_CLASSES + 1):
            if i in (4, 5):
                assert d.magnitudes[i - 1] > 1e-9
            else:
                assert d.magnitudes[i - 1] <= 1e-9
        assert _max_abs(d.components[3] + d.components[4] - f) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_residual_gate(self, n, monkeypatch):
        """Component formulas that do not sum back are refused, naming the residual."""
        s = random_structure(n, 0)
        f = random_structure_tensor(s, 0)
        original = dec._component_arrays

        def broken(*args):
            arrays = original(*args)
            arrays[10] = arrays[10] + 0.5 * _max_abs(f)
            return arrays

        monkeypatch.setattr(dec, "_component_arrays", broken)
        with pytest.raises(PreconditionError) as info:
            decompose(s, f)
        assert str(info.value) == (
            "components do not sum back to the tensor: reconstruction residual 5.000e-01"
        )

    @pytest.mark.xfail(strict=True, raises=PreconditionError, reason="ROADMAP item 16")
    @pytest.mark.parametrize("n, k", [(1, 65), (2, 18)], ids=["n1-k65", "n2-k18"])
    def test_decomposes_what_the_gate_admits(self, n, k):
        """A tensor the gate admits, off the admissible space by just under its
        bound: the kernel enlarges that part past the same bound, 1e-9 of the
        tensor, on the reconstruction."""
        s = random_structure(n, 0)
        f = random_structure_tensor(s, k)
        delta = np.random.default_rng(k).uniform(-1.0, 1.0, (s.dim,) * 3)
        t = f + delta * (0.95e-9 * _max_abs(f) / max(_membership_residuals(s, delta).values()))
        assert is_structure_tensor(s, t)
        decompose(s, t)

    @pytest.mark.parametrize("n", [1, 2])
    def test_components_are_read_only_and_apart_from_input(self, n):
        s = canonical_structure(n)
        f = random_structure_tensor(s, n)
        d = decompose(s, f)
        for t, mag in zip(d.components, d.magnitudes):
            assert not t.flags.writeable
            assert not np.shares_memory(t, f)
            assert mag == _max_abs(t)
        with pytest.raises(ValueError):
            d.components[0][0, 0, 0] = 1.0


class TestClassDimensions:
    @pytest.mark.parametrize("n", [1, 2])
    def test_traces_are_the_class_dimensions(self, n):
        """embed_structure_tensor projects onto the admissible space A and
        component_i after it onto F_i, so their traces over the unit tensors
        are dim A = n(n+2)(2n+1) and dim F_i; in dimension 3, F2, F3, F6 and
        F7 vanish."""
        s = canonical_structure(n)
        size = s.dim**3
        embedded = [embed_structure_tensor(s, e) for e in np.eye(size).reshape((size,) + (s.dim,) * 3)]
        trace_a = sum(f.ravel()[k] for k, f in enumerate(embedded))
        traces = sum(decompose(s, f).components.reshape(NUM_CLASSES, size)[:, k]
                     for k, f in enumerate(embedded))
        m = n * n
        expected = [2 * n, n * (n - 1) * (n + 2), m * (n - 1), 1, 1, (n - 1) * (n + 2),
                    n * (n - 1), m, m, m, 2 * n]
        assert abs(trace_a - n * (n + 2) * (2 * n + 1)) <= 1e-9
        np.testing.assert_allclose(traces, expected, rtol=0, atol=1e-9)


def _satisfies(s, c, i) -> bool:
    """The class predicate verify asks: the defining identities of F_i hold for c
    within DEFAULT_RTOL of its own max-abs."""
    return dec._class_residual(s, c, i) <= DEFAULT_RTOL * _scale(c)


def _in_w_subspace(s, f, i) -> bool:
    """An oracle of the block W_i independent of project_w, by the h/v slot
    characterization: W1 tensors vanish whenever any slot is vertical; W2
    whenever the first slot is vertical or the last two are both horizontal;
    W3 and W4 are the mirror conditions on the first slot. Within DEFAULT_RTOL
    of max-abs(f)."""
    xi, h = s.xi, -s.phi2
    maxima = np.array([
        np.max(np.abs(np.einsum("ajk,a->jk", f, xi))),
        np.max(np.abs(np.einsum("iak,a->ik", f, xi))),
        np.max(np.abs(np.einsum("ija,a->ij", f, xi))),
        np.max(np.abs(np.einsum("ajk,ai->ijk", f, h))),
        np.max(np.abs(np.einsum("iab,aj,bk->ijk", f, h, h))),
    ])
    assert np.all(np.isfinite(maxima))  # np.einsum returns inf or NaN where @ would raise
    v1, v2, v3, h1, h23 = maxima
    worst = {1: max(v1, v2, v3), 2: max(v1, h23), 3: max(h1, v2, v3), 4: max(h1, h23)}[i]
    return worst <= DEFAULT_RTOL * _scale(f)


class TestClassPredicates:
    def test_zero_tensor_in_every_class(self, s1):
        for i in range(1, NUM_CLASSES + 1):
            assert _satisfies(s1, np.zeros((3, 3, 3)), i)

    def test_f8_fails_f4_predicate(self, s1):
        assert not _satisfies(s1, f8_form(), 4)
        assert _satisfies(s1, f8_form(), 8)

    def test_f4_passes_own_fails_f8(self, s1):
        assert _satisfies(s1, f4_form(), 4)
        assert not _satisfies(s1, f4_form(), 8)

    @pytest.mark.parametrize("lam", [1e-300, 1e-25, 1e-12, 1.0, 1e10])
    def test_verdict_does_not_depend_on_scale(self, lam):
        """lam F, F with all eleven classes, satisfies none of them, and each of
        its components its own class, at every scale lam."""
        s = random_structure(2, 0)
        f = random_structure_tensor(s, 0)
        parts = decompose(s, f).components
        assert not any(_satisfies(s, lam * f, i) for i in range(1, NUM_CLASSES + 1))
        assert all(_satisfies(s, lam * parts[i - 1], i) for i in range(1, NUM_CLASSES + 1))

    @pytest.mark.parametrize("i", [2, 3, 6, 7])
    def test_a_vanishing_component_is_judged_against_its_tensor(self, i):
        """At n = 1 the F2, F3, F6 and F7 components are rounding noise of F.
        Judged alone, by its own size, the noise fails its class; judged
        against F, as classify does, it passes and the class is absent."""
        s = random_structure(1, 0)
        f = random_structure_tensor(s, 0)
        c = decompose(s, f).components[i - 1]
        assert 0.0 < _max_abs(c) <= 1e-15 * _max_abs(f)
        assert not _satisfies(s, c, i)
        assert dec._class_residual(s, c, i) <= DEFAULT_RTOL * _max_abs(f)
        assert i not in classify(s, f).present


class TestWSubspaces:
    def test_f10_in_w3(self, s1):
        f = f10_form()
        assert _in_w_subspace(s1, f, 3)
        assert not _in_w_subspace(s1, f, 1)
        assert not _in_w_subspace(s1, f, 2)
        assert not _in_w_subspace(s1, f, 4)

    def test_f4_in_w2(self, s1):
        assert _in_w_subspace(s1, f4_form(), 2)
        assert not _in_w_subspace(s1, f4_form(), 1)

    def test_f1_in_w1_not_w2(self, s1):
        f = f1_form(1.0, 0.5)
        assert _in_w_subspace(s1, f, 1)
        assert not _in_w_subspace(s1, f, 2)

    def test_f11_in_w4(self, s1):
        assert _in_w_subspace(s1, f11_form(), 4)

    @pytest.mark.parametrize("i", range(1, 5))
    def test_blocks_contain_their_projections(self, i, s2):
        f = random_structure_tensor(s2, 9)
        assert _in_w_subspace(s2, project_w(s2, f, i), i)

    @pytest.mark.parametrize("i", range(1, 5))
    def test_membership_is_scale_relative(self, i, s2):
        f = random_structure_tensor(s2, 9)
        assert not _in_w_subspace(s2, 1e-10 * f, i)
        assert _in_w_subspace(s2, 1e-10 * project_w(s2, f, i), i)


class TestClassify:
    def test_zero_tensor_is_f0(self, s1):
        report = classify(s1, np.zeros((3, 3, 3)))
        assert report.is_F0
        assert report.present == ()
        assert report.class_names() == ()

    def test_lie_family_both_classes(self):
        s, c = lie_family(1, [1.0, 1.0])
        f = structure_tensor_from_connection(s, koszul_connection(s, c))
        report = classify(s, f)
        assert report.present == (9, 10)
        assert report.class_names() == ("F9", "F10")

    def test_report_carries_tolerances(self, s1):
        report = classify(s1, f8_form(), rel_tol=1e-6)
        assert report.rel_tol == 1e-6
        assert report.input_magnitude == pytest.approx(1.0)
        assert len(report.magnitudes) == NUM_CLASSES

    @pytest.mark.parametrize(
        "name, value",
        [("rel_tol", v) for v in (np.nan, np.inf, 0.0, -1.0, "a", True, 1j)]
        + [pytest.param("rel_tol", np.True_, id="rel_tol-numpy-bool"),
           pytest.param("rel_tol", 10**400, id="rel_tol-huge-integer")],
    )
    def test_refuses_a_bad_threshold(self, s1, name, value):
        """The rule of `classify --tol`, named by the parameter: a NaN threshold
        would report F0 and a negative one every class, even F2 and F3; a bool
        is not read as 1.0, nor a string or a complex number compared."""
        with pytest.raises(ValueError, match=f"^{name} must be a finite number") as info:
            classify(s1, random_structure_tensor(s1, 0), **{name: value})
        assert type(info.value) is ValueError

    def test_class_names_tuple(self):
        assert CLASS_NAMES[0] == "F1"
        assert CLASS_NAMES[-1] == "F11"

