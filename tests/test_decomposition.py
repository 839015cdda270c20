import numpy as np
import pytest

from acbm import decomposition as dec
from acbm.decomposition import (
    CLASS_NAMES,
    NUM_CLASSES,
    classify,
    component,
    decompose,
    in_w_subspace,
    project_w,
    satisfies_class,
    w2_involution,
)
from acbm.errors import PreconditionError
from acbm.models import lie_family, koszul_connection, sphere_structure_tensor, structure_tensor_from_connection
from acbm.structure import canonical_structure
from acbm.tensors import (
    _max_abs,
    embed_structure_tensor,
    inner_product,
    is_structure_tensor,
    lee_forms,
    random_structure_tensor,
)

from conftest import random_structure
from test_tensors import f4_form, f8_form


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


def f10_form(nu: float = 1.0) -> np.ndarray:
    c = np.zeros((3, 3, 3))
    c[0, 1, 1] = c[0, 2, 2] = nu
    return c


def f11_form(w1: float = 1.0, w2: float = 0.0) -> np.ndarray:
    c = np.zeros((3, 3, 3))
    c[0, 1, 0] = c[0, 0, 1] = w1
    c[0, 2, 0] = c[0, 0, 2] = w2
    return c


def f1_form(th1: float = 1.0, th2: float = 0.0) -> np.ndarray:
    c = np.zeros((3, 3, 3))
    c[1, 1, 1] = c[1, 2, 2] = th1
    c[2, 1, 1] = c[2, 2, 2] = -th2
    return c


class TestProjectW:
    def test_p1_kills_f11(self, s1):
        assert _max_abs(project_w(s1, f11_form(), 1)) == 0.0

    def test_p3_fixes_f10(self, s1):
        f = f10_form(2.5)
        assert _max_abs(project_w(s1, f, 3) - f) <= 1e-15

    @pytest.mark.parametrize("seed", range(20))
    def test_projector_sum_is_identity(self, seed):
        n = 1 + seed % 3
        s = canonical_structure(n)
        f = random_structure_tensor(s, seed)
        total = np.zeros((s.dim,) * 3)
        for i in range(1, 5):
            total = total + project_w(s, f, i)
        assert _max_abs(total - f) <= 1e-9 * max(1.0, _max_abs(f))

    @pytest.mark.parametrize("i", range(1, 5))
    @pytest.mark.parametrize("seed", range(3))
    def test_idempotent_and_self_adjoint(self, i, seed):
        s = canonical_structure(2)
        f = random_structure_tensor(s, seed)
        g = random_structure_tensor(s, seed + 40)
        p = project_w(s, f, i)
        assert _max_abs(project_w(s, p, i) - p) <= 1e-12
        lhs = inner_product(s, p, g)
        rhs = inner_product(s, f, project_w(s, g, i))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    def test_mutual_annihilation(self, s2):
        f = random_structure_tensor(s2, 5)
        for i in range(1, 5):
            p = project_w(s2, f, i)
            for j in range(1, 5):
                if j != i:
                    assert _max_abs(project_w(s2, p, j)) <= 1e-12

    def test_rejects_bad_index(self, s1):
        with pytest.raises(ValueError):
            project_w(s1, np.zeros((3, 3, 3)), 5)


class TestW2Involutions:
    @pytest.mark.parametrize("j", [1, 2])
    @pytest.mark.parametrize("seed", range(5))
    def test_involutive_on_w2(self, j, seed):
        s = canonical_structure(2)
        f = project_w(s, random_structure_tensor(s, seed), 2)
        twice = w2_involution(s, w2_involution(s, f, j), j)
        assert _max_abs(twice - f) <= 1e-12

    def test_isometry_on_w2(self, s2):
        f = project_w(s2, random_structure_tensor(s2, 1), 2)
        g = project_w(s2, random_structure_tensor(s2, 2), 2)
        for j in (1, 2):
            lhs = inner_product(s2, w2_involution(s2, f, j), w2_involution(s2, g, j))
            assert lhs == pytest.approx(inner_product(s2, f, g), rel=1e-9, abs=1e-12)

    def test_eigenvalues_on_components(self, s2):
        f = random_structure_tensor(s2, 7)
        comps = {i: component(s2, f, i) for i in range(4, 10)}
        for i in comps:
            assert _max_abs(comps[i]) > 1e-12, f"component {i} unexpectedly zero"
        # L1 fixes F4, F5, F6, F8 and negates F7, F9
        for i in (4, 5, 6, 8):
            assert _max_abs(w2_involution(s2, comps[i], 1) - comps[i]) <= 1e-12
        for i in (7, 9):
            assert _max_abs(w2_involution(s2, comps[i], 1) + comps[i]) <= 1e-12
        # L2 fixes F8, F9 and negates F4, F5, F6, F7
        for i in (8, 9):
            assert _max_abs(w2_involution(s2, comps[i], 2) - comps[i]) <= 1e-12
        for i in (4, 5, 6, 7):
            assert _max_abs(w2_involution(s2, comps[i], 2) + comps[i]) <= 1e-12

    def test_rejects_operand_outside_w2(self, s1):
        with pytest.raises(PreconditionError):
            w2_involution(s1, f10_form(), 1)

    def test_rejects_bad_index(self, s2):
        f = project_w(s2, random_structure_tensor(s2, 0), 2)
        with pytest.raises(ValueError):
            w2_involution(s2, f, 3)

    @pytest.mark.parametrize("j", [1, 2])
    def test_precondition_is_scale_relative(self, s2, j):
        f = random_structure_tensor(s2, 4)
        with pytest.raises(PreconditionError):
            w2_involution(s2, 1e-10 * f, j)
        p2f = project_w(s2, f, 2)
        got = w2_involution(s2, 1e-10 * p2f, j)
        assert _max_abs(got - 1e-10 * w2_involution(s2, p2f, j)) <= 1e-24


class TestComponent:
    def test_lie_family_pure_f10(self):
        spec = lie_family(1, [0.0, 1.0])
        f = structure_tensor_from_connection(spec, koszul_connection(spec))
        s = spec.structure
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

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_idempotency_across_classes(self, n, seed):
        s = canonical_structure(n)
        f = random_structure_tensor(s, seed)
        scale = max(1.0, _max_abs(f))
        for i in range(1, NUM_CLASSES + 1):
            ci = component(s, f, i)
            assert _max_abs(component(s, ci, i) - ci) <= 1e-9 * scale
            for j in range(1, NUM_CLASSES + 1):
                if j != i:
                    assert _max_abs(component(s, ci, j)) <= 1e-9 * scale

    @pytest.mark.parametrize("seed", range(5))
    def test_closure(self, seed):
        s = canonical_structure(2)
        f = random_structure_tensor(s, seed)
        for i in range(1, NUM_CLASSES + 1):
            assert is_structure_tensor(s, component(s, f, i))

    def test_rejects_bad_index(self, s1):
        with pytest.raises(ValueError):
            component(s1, np.zeros((3, 3, 3)), 12)


class TestDecompose:
    def test_zero_tensor(self, s1):
        d = decompose(s1, np.zeros((3, 3, 3)))
        assert all(_max_abs(t) == 0.0 for t in d.components)
        assert d.reconstruction_residual == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_reconstruction_dim5(self, seed):
        s = canonical_structure(2)
        f = random_structure_tensor(s, seed)
        d = decompose(s, f)
        assert d.reconstruction_residual <= 1e-9

    def test_sphere_quarter_pi(self):
        s, f = sphere_structure_tensor(1, np.pi / 4)
        d = decompose(s, f)
        for i in range(1, NUM_CLASSES + 1):
            if i in (4, 5):
                assert d.magnitudes[i - 1] > 1e-9
            else:
                assert d.magnitudes[i - 1] <= 1e-9

    def test_rejects_inadmissible(self, s1):
        c = np.zeros((3, 3, 3))
        c[0, 0, 0] = 1.0
        with pytest.raises(PreconditionError, match="phi_relation"):
            decompose(s1, c)

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

    @pytest.mark.parametrize("seed", range(6))
    def test_orthogonality(self, seed):
        n = 1 + seed % 3
        s = canonical_structure(n)
        f = random_structure_tensor(s, seed)
        d = decompose(s, f)
        bound = 1e-9 * max(1.0, abs(inner_product(s, f, f)))
        for i in range(NUM_CLASSES):
            for j in range(i + 1, NUM_CLASSES):
                assert abs(inner_product(s, d.components[i], d.components[j])) <= bound


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


class TestClassPredicates:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("seed", range(3))
    def test_components_satisfy_own_class(self, n, seed):
        s = canonical_structure(n)
        f = random_structure_tensor(s, seed)
        for i in range(1, NUM_CLASSES + 1):
            assert satisfies_class(s, component(s, f, i), i)

    def test_zero_tensor_in_every_class(self, s1):
        for i in range(1, NUM_CLASSES + 1):
            assert satisfies_class(s1, np.zeros((3, 3, 3)), i)

    def test_f8_fails_f4_predicate(self, s1):
        assert not satisfies_class(s1, f8_form(), 4)
        assert satisfies_class(s1, f8_form(), 8)

    def test_f4_passes_own_fails_f8(self, s1):
        assert satisfies_class(s1, f4_form(), 4)
        assert not satisfies_class(s1, f4_form(), 8)

    def test_rejects_bad_index(self, s1):
        with pytest.raises(ValueError):
            satisfies_class(s1, np.zeros((3, 3, 3)), 0)


class TestWSubspaces:
    def test_f10_in_w3(self, s1):
        f = f10_form()
        assert in_w_subspace(s1, f, 3)
        assert not in_w_subspace(s1, f, 1)
        assert not in_w_subspace(s1, f, 2)
        assert not in_w_subspace(s1, f, 4)

    def test_f4_in_w2(self, s1):
        assert in_w_subspace(s1, f4_form(), 2)
        assert not in_w_subspace(s1, f4_form(), 1)

    def test_f1_in_w1_not_w2(self, s1):
        f = f1_form(1.0, 0.5)
        assert in_w_subspace(s1, f, 1)
        assert not in_w_subspace(s1, f, 2)

    def test_f11_in_w4(self, s1):
        assert in_w_subspace(s1, f11_form(), 4)

    @pytest.mark.parametrize("i", range(1, 5))
    def test_blocks_contain_their_projections(self, i, s2):
        f = random_structure_tensor(s2, 9)
        assert in_w_subspace(s2, project_w(s2, f, i), i)

    @pytest.mark.parametrize("i", range(1, 5))
    def test_membership_is_scale_relative(self, i, s2):
        f = random_structure_tensor(s2, 9)
        assert not in_w_subspace(s2, 1e-10 * f, i)
        assert in_w_subspace(s2, 1e-10 * project_w(s2, f, i), i)


class TestLeeFormVanishingTable:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_vanishing_table(self, n, seed):
        s = canonical_structure(n)
        f = random_structure_tensor(s, seed)
        h = -(s.phi @ s.phi)
        tol = 1e-12 * max(1.0, _max_abs(f))
        p1, p2, p3, p4 = (project_w(s, f, i) for i in range(1, 5))
        lf1 = lee_forms(s, p1)
        assert abs(lf1.theta @ s.xi) <= tol
        assert abs(lf1.theta_star @ s.xi) <= tol
        assert np.max(np.abs(lf1.omega)) <= tol
        lf2 = lee_forms(s, p2)
        assert np.max(np.abs(h.T @ lf2.theta)) <= tol
        assert np.max(np.abs(h.T @ lf2.theta_star)) <= tol
        assert np.max(np.abs(lf2.omega)) <= tol
        lf3 = lee_forms(s, p3)
        assert np.max(np.abs(lf3.theta)) <= tol
        assert np.max(np.abs(lf3.theta_star)) <= tol
        assert np.max(np.abs(lf3.omega)) <= tol
        lf4 = lee_forms(s, p4)
        assert np.max(np.abs(lf4.theta)) <= tol
        assert np.max(np.abs(lf4.theta_star)) <= tol

    @pytest.mark.parametrize("seed", range(4))
    def test_w21_refinement(self, seed):
        s = canonical_structure(2)
        f = random_structure_tensor(s, seed)
        tol = 1e-12 * max(1.0, _max_abs(f))
        assert abs(lee_forms(s, component(s, f, 4)).theta_star @ s.xi) <= tol
        assert abs(lee_forms(s, component(s, f, 5)).theta @ s.xi) <= tol
        lf6 = lee_forms(s, component(s, f, 6))
        assert abs(lf6.theta @ s.xi) <= tol
        assert abs(lf6.theta_star @ s.xi) <= tol


class TestClassify:
    def test_zero_tensor_is_f0(self, s1):
        report = classify(s1, np.zeros((3, 3, 3)))
        assert report.is_F0
        assert report.present == ()
        assert report.class_names() == ()

    def test_lie_family_both_classes(self):
        spec = lie_family(1, [1.0, 1.0])
        f = structure_tensor_from_connection(spec, koszul_connection(spec))
        report = classify(spec.structure, f)
        assert report.present == (9, 10)
        assert report.class_names() == ("F9", "F10")

    def test_sphere_at_zero(self):
        s, f = sphere_structure_tensor(1, 0.0)
        assert classify(s, f).present == (4,)

    def test_report_carries_tolerances(self, s1):
        report = classify(s1, f8_form(), rel_tol=1e-6, abs_floor=1e-10)
        assert report.rel_tol == 1e-6
        assert report.abs_floor == 1e-10
        assert report.input_magnitude == pytest.approx(1.0)
        assert len(report.magnitudes) == NUM_CLASSES

    @pytest.mark.parametrize(
        "name, value",
        [("rel_tol", v) for v in (np.nan, np.inf, 0.0, -1.0)]
        + [("abs_floor", v) for v in (np.nan, np.inf, -1.0)],
    )
    def test_refuses_a_bad_threshold(self, s1, name, value):
        """The rule of `classify --tol/--abs-floor`, named by the parameter: a NaN
        threshold would report F0 and a negative one every class, even F2 and F3."""
        with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
            classify(s1, random_structure_tensor(s1, 0), **{name: value})

    def test_class_names_tuple(self):
        assert CLASS_NAMES[0] == "F1"
        assert CLASS_NAMES[-1] == "F11"

    @pytest.mark.parametrize("seed", range(3))
    def test_membership_check_is_scale_relative(self, seed):
        s = canonical_structure(2)
        raw = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(5, 5, 5))
        with pytest.raises(PreconditionError):
            classify(s, 1e-10 * raw)
        f = random_structure_tensor(s, seed)
        assert classify(s, 1e-10 * f).present == classify(s, f).present


class TestCrossRouteOracle:
    """The involution route to the W2,1 component must agree with the
    printed component formulas: (F + L1 F - L2 F - L2 L1 F)/4 applied
    to p2(F) equals F4 + F5 + F6."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("seed", range(5))
    def test_w21_projection_two_routes(self, n, seed):
        s = canonical_structure(n)
        f = random_structure_tensor(s, seed)
        p2f = project_w(s, f, 2)
        l1 = w2_involution(s, p2f, 1)
        l2 = w2_involution(s, p2f, 2)
        l2l1 = w2_involution(s, l1, 2)
        via_involutions = 0.25 * (p2f + l1 - l2 - l2l1)
        via_formulas = component(s, f, 4) + component(s, f, 5) + component(s, f, 6)
        scale = max(1.0, _max_abs(f))
        assert _max_abs(via_involutions - via_formulas) <= 1e-9 * scale
