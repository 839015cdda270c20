import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from acbm import models
from acbm.decomposition import classify, decompose
from acbm.errors import PreconditionError
from acbm.models import (
    Dim3Coefficients,
    LieAlgebraSpec,
    check_jacobi,
    connection_residuals,
    dim3_coefficients,
    dim3_decompose,
    dim3_lee_forms,
    koszul_connection,
    lie_family,
    sphere_structure_tensor,
    structure_tensor_from_connection,
)
from acbm.structure import DEFAULT_ABS_FLOOR, DEFAULT_RTOL, canonical_structure
from acbm.tensors import (
    _max_abs,
    _require_structure_tensor,
    is_structure_tensor,
    lee_forms,
    random_structure_tensor,
)
from acbm.verify import run_suite

from conftest import random_structure

from test_tensors import f8_form
from test_decomposition import f11_form


def family_tensor(n, params):
    spec = lie_family(n, params)
    return spec, structure_tensor_from_connection(spec, koszul_connection(spec))


class TestLieFamily:
    def test_bracket_values_n1(self):
        spec = lie_family(1, [2.0, 3.0])
        c = spec.c
        # [E0, E1] = -a1 E1 - a2 E2
        np.testing.assert_array_equal(c[0, 1], [0.0, -2.0, -3.0])
        # [E0, E2] = -a2 E1 + a1 E2
        np.testing.assert_array_equal(c[0, 2], [0.0, -3.0, 2.0])
        # [E1, E2] = 0, antisymmetry elsewhere
        np.testing.assert_array_equal(c[1, 2], np.zeros(3))
        np.testing.assert_array_equal(c[1, 0], -c[0, 1])

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("seed", range(5))
    def test_jacobi_holds(self, n, seed):
        rng = np.random.default_rng(seed)
        spec = lie_family(n, rng.uniform(-2.0, 2.0, 2 * n))
        assert check_jacobi(spec)

    def test_rejects_wrong_parameter_count(self):
        with pytest.raises(ValueError, match=r"^parameter vector must have shape \(4,\), got \(2,\)$"):
            lie_family(2, [1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_parameters(self, bad):
        with pytest.raises(ValueError, match="^parameter vector contains non-finite entries$"):
            lie_family(1, [bad, 1.0])


class TestCheckJacobi:
    def test_solvable_family(self):
        assert check_jacobi(lie_family(1, [2.0, 3.0]))

    def test_abelian(self, s1):
        assert check_jacobi(LieAlgebraSpec(structure=s1, c=np.zeros((3, 3, 3))))

    def test_violating_table(self, s1):
        c = np.zeros((3, 3, 3))
        c[1, 2, 1] = 1.0
        c[2, 1, 1] = -1.0
        c[0, 1, 2] = 1.0
        c[1, 0, 2] = -1.0
        assert not check_jacobi(LieAlgebraSpec(structure=s1, c=c))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-7, 1.0, 1e200])
    def test_scale_free(self, scale):
        s = canonical_structure(2)
        c = np.random.default_rng(3).uniform(-1.0, 1.0, size=(5, 5, 5))
        c = c - c.transpose(1, 0, 2)  # antisymmetric, but violates Jacobi
        assert not check_jacobi(LieAlgebraSpec(structure=s, c=scale * c))
        assert check_jacobi(lie_family(2, [scale, -scale, 0.5 * scale, scale]))

    def test_rejects_non_antisymmetric(self, s1):
        c = np.zeros((3, 3, 3))
        c[1, 2, 0] = 1.0  # no compensating c[2, 1, 0]
        with pytest.raises(PreconditionError):
            check_jacobi(LieAlgebraSpec(structure=s1, c=c))


class TestKoszulConnection:
    def test_connection_values_n1(self):
        a1, a2 = 1.5, -0.5
        spec = lie_family(1, [a1, a2])
        gamma = koszul_connection(spec)
        np.testing.assert_allclose(gamma[1, 1], [-a1, 0, 0], atol=1e-12)
        np.testing.assert_allclose(gamma[2, 2], [-a1, 0, 0], atol=1e-12)
        np.testing.assert_allclose(gamma[0, 1], [0, 0, -a2], atol=1e-12)
        np.testing.assert_allclose(gamma[0, 2], [0, -a2, 0], atol=1e-12)
        np.testing.assert_allclose(gamma[1, 0], [0, a1, 0], atol=1e-12)
        np.testing.assert_allclose(gamma[2, 0], [0, 0, -a1], atol=1e-12)
        # the two values the Koszul solve determines beyond the listed ones
        np.testing.assert_allclose(gamma[1, 2], np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(gamma[2, 1], np.zeros(3), atol=1e-12)

    def test_abelian_gives_zero(self, s1):
        spec = LieAlgebraSpec(structure=s1, c=np.zeros((3, 3, 3)))
        assert np.max(np.abs(koszul_connection(spec))) == 0.0

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("seed", range(5))
    def test_torsion_free_metric_compatible(self, n, seed):
        rng = np.random.default_rng(seed + 1000)
        spec = lie_family(n, rng.uniform(-2.0, 2.0, 2 * n))
        conn = koszul_connection(spec)
        torsion, compat = connection_residuals(spec, conn)
        assert torsion <= 1e-12
        assert compat <= 1e-12


class TestFamilyStructureTensor:
    def test_components_n1(self):
        a1, a2 = 2.0, 3.0
        _, c = family_tensor(1, [a1, a2])
        assert c[0, 1, 1] == pytest.approx(-2 * a2)
        assert c[0, 2, 2] == pytest.approx(-2 * a2)
        assert c[1, 0, 2] == pytest.approx(a1)
        assert c[1, 2, 0] == pytest.approx(a1)
        assert c[2, 0, 1] == pytest.approx(-a1)
        assert c[2, 1, 0] == pytest.approx(-a1)

    def test_flat_case_is_zero(self):
        _, f = family_tensor(1, [0.0, 0.0])
        assert _max_abs(f) == 0.0

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("seed", range(5))
    def test_always_admissible(self, n, seed):
        rng = np.random.default_rng(seed + 2000)
        spec, f = family_tensor(n, rng.uniform(-2.0, 2.0, 2 * n))
        assert is_structure_tensor(spec.structure, f)

    @pytest.mark.parametrize(
        "params,expected",
        [
            ((1.0, 1.0), (9, 10)),
            ((2.0, 3.0), (9, 10)),
            ((0.0, 1.0), (10,)),
            ((1.0, 0.0), (9,)),
            ((0.0, 0.0), ()),
        ],
    )
    def test_classification_table(self, params, expected):
        spec, f = family_tensor(1, params)
        report = classify(spec.structure, f)
        assert report.present == expected
        assert report.is_F0 == (not expected)

    def test_class_coefficients(self):
        # F9 coefficient mu = a1, F10 coefficient nu = -2 a2
        a1, a2 = 0.7, -1.2
        spec, f = family_tensor(1, [a1, a2])
        q = dim3_coefficients(spec.structure, f)
        assert q.mu == pytest.approx(a1)
        assert q.nu == pytest.approx(-2 * a2)


class TestSphere:
    def test_t_zero_pure_f4(self):
        s, f = sphere_structure_tensor(1, 0.0)
        report = classify(s, f)
        assert report.present == (4,)
        lf = lee_forms(s, f)
        assert lf.theta @ s.xi == pytest.approx(2.0)
        assert lf.theta_star @ s.xi == pytest.approx(0.0, abs=1e-15)

    def test_t_half_pi_pure_f5(self):
        s, f = sphere_structure_tensor(1, math.pi / 2)
        report = classify(s, f)
        assert report.present == (5,)
        assert lee_forms(s, f).theta_star @ s.xi == pytest.approx(2.0)

    def test_n2_lee_values(self):
        s, f = sphere_structure_tensor(2, 0.7)
        report = classify(s, f)
        assert set(report.present) <= {4, 5}
        lf = lee_forms(s, f)
        assert abs(lf.theta @ s.xi - 4 * math.cos(0.7)) <= 1e-12
        assert abs(lf.theta_star @ s.xi - 4 * math.sin(0.7)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_grid_lee_values(self, n):
        for t in np.linspace(-math.pi / 2, math.pi / 2, 20):
            s, f = sphere_structure_tensor(n, float(t))
            lf = lee_forms(s, f)
            assert abs(lf.theta @ s.xi - 2 * n * math.cos(t)) <= 1e-12
            assert abs(lf.theta_star @ s.xi - 2 * n * math.sin(t)) <= 1e-12

    def test_membership(self):
        for n in (1, 2):
            s, f = sphere_structure_tensor(n, 0.3)
            assert is_structure_tensor(s, f)


class TestDim3LeeForms:
    def test_f8_form_all_zero(self, s1):
        lf = dim3_lee_forms(s1, f8_form())
        assert np.max(np.abs(lf.theta)) == 0.0
        assert np.max(np.abs(lf.theta_star)) == 0.0
        assert np.max(np.abs(lf.omega)) == 0.0

    def test_f11_form_omega(self, s1):
        lf = dim3_lee_forms(s1, f11_form(w1=1.0, w2=0.0))
        np.testing.assert_array_equal(lf.omega, [0.0, 1.0, 0.0])
        assert np.max(np.abs(lf.theta)) == 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_general_contraction(self, seed, s1):
        f = random_structure_tensor(s1, seed)
        fast = dim3_lee_forms(s1, f)
        general = lee_forms(s1, f)
        np.testing.assert_allclose(fast.theta, general.theta, atol=1e-12)
        np.testing.assert_allclose(fast.theta_star, general.theta_star, atol=1e-12)
        np.testing.assert_allclose(fast.omega, general.omega, atol=1e-12)

    def test_rejects_wrong_dim(self, s1, s2):
        with pytest.raises(ValueError, match="expected a dimension-3 structure"):
            dim3_lee_forms(s2, np.zeros((5, 5, 5)))
        with pytest.raises(ValueError):
            dim3_lee_forms(s1, np.zeros((5, 5, 5)))


# The eighteen entry relations of an admissible tensor in dimension 3 over the
# canonical structure, slot symmetry and the phi relation written out: nine
# pairs of index triples that agree and nine triples that vanish. They involve
# 27 distinct entries and are independent, so they cut out a space of
# dimension 9, the admissible space at n = 1. An oracle independent of the
# membership gate that dim3_coefficients asks.
_DIM3_EQUAL_PAIRS = (
    ((1, 0, 1), (1, 1, 0)),
    ((2, 0, 2), (2, 2, 0)),
    ((1, 0, 2), (1, 2, 0)),
    ((2, 0, 1), (2, 1, 0)),
    ((0, 1, 1), (0, 2, 2)),
    ((0, 0, 1), (0, 1, 0)),
    ((0, 0, 2), (0, 2, 0)),
    ((1, 1, 1), (1, 2, 2)),
    ((2, 1, 1), (2, 2, 2)),
)
_DIM3_ZERO_TRIPLES = (
    (0, 0, 0),
    (1, 0, 0),
    (2, 0, 0),
    (0, 1, 2),
    (0, 2, 1),
    (1, 1, 2),
    (1, 2, 1),
    (2, 2, 1),
    (2, 1, 2),
)


def _dim3_oracle_admits(c: np.ndarray) -> bool:
    """The eighteen relations, each within DEFAULT_RTOL relative to max-abs(c)
    floored at DEFAULT_ABS_FLOOR: the bound of the membership gate."""
    bound = DEFAULT_RTOL * max(_max_abs(c), DEFAULT_ABS_FLOOR)
    pairs_agree = all(abs(c[left] - c[right]) <= bound for left, right in _DIM3_EQUAL_PAIRS)
    return pairs_agree and all(abs(c[triple]) <= bound for triple in _DIM3_ZERO_TRIPLES)


def _gate_message(s, c) -> str:
    with pytest.raises(PreconditionError) as info:
        _require_structure_tensor(s, c)
    return str(info.value)


def _inadmissible_dim3() -> np.ndarray:
    return np.random.default_rng(5).uniform(-1.0, 1.0, size=(3, 3, 3))


class TestDim3Components:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_general_path(self, seed, s1):
        f = random_structure_tensor(s1, seed)
        fast, general = dim3_decompose(s1, f), decompose(s1, f)
        for c_fast, c_general in zip(fast.components, general.components):
            assert _max_abs(c_fast - c_general) <= 1e-12
        np.testing.assert_allclose(fast.magnitudes, general.magnitudes, rtol=0, atol=1e-12)
        assert fast.reconstruction_residual <= 1e-15

    @pytest.mark.parametrize("seed", range(20))
    def test_vanishing_classes(self, seed, s1):
        f = random_structure_tensor(s1, seed)
        fast, general = dim3_decompose(s1, f), decompose(s1, f)
        for i in (2, 3, 6, 7):
            assert _max_abs(fast.components[i - 1]) == 0.0
            assert _max_abs(general.components[i - 1]) <= 1e-12

    def test_sphere_splits_into_f4_f5(self):
        s, f = sphere_structure_tensor(1, math.pi / 4)
        comps = dim3_decompose(s, f).components
        recon = comps[3] + comps[4]
        assert _max_abs(recon - f) <= 1e-12

    def test_rejects_inconsistent_tensor(self, s1):
        c = np.zeros((3, 3, 3))
        c[1, 0, 1] = 1.0  # missing the symmetric partner F110
        with pytest.raises(PreconditionError):
            dim3_decompose(s1, c)

    @pytest.mark.parametrize("k", range(len(_DIM3_EQUAL_PAIRS)))
    def test_names_the_unequal_pair(self, k, s1):
        left, right = _DIM3_EQUAL_PAIRS[k]
        c = np.zeros((3, 3, 3))
        c[left] = 0.5
        c[_DIM3_ZERO_TRIPLES[-1]] = 0.25  # also broken
        for fn in (dim3_coefficients, dim3_decompose):
            with pytest.raises(PreconditionError) as info:
                fn(s1, c)
            assert str(info.value) == _gate_message(s1, c)

    @pytest.mark.parametrize("triple", _DIM3_ZERO_TRIPLES)
    def test_names_the_nonzero_triple(self, triple, s1):
        c = np.zeros((3, 3, 3))
        c[triple] = -0.5
        for fn in (dim3_coefficients, dim3_decompose):
            with pytest.raises(PreconditionError) as info:
                fn(s1, c)
            assert str(info.value) == _gate_message(s1, c)

    def test_names_the_first_of_two_unequal_pairs(self, s1):
        c = np.zeros((3, 3, 3))
        c[_DIM3_EQUAL_PAIRS[5][0]] = 1.0
        c[_DIM3_EQUAL_PAIRS[2][1]] = 1.0
        want = "tensor is not an admissible structure tensor: slot_symmetry residual 1.000e+00"
        with pytest.raises(PreconditionError) as info:
            dim3_coefficients(s1, c)
        assert str(info.value) == want == _gate_message(s1, c)

    def test_rejects_wrong_dim(self, s1, s2):
        with pytest.raises(ValueError, match="expected a dimension-3 structure"):
            dim3_decompose(s2, np.zeros((5, 5, 5)))
        with pytest.raises(ValueError):
            dim3_decompose(s1, np.zeros((5, 5, 5)))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("fn", [dim3_lee_forms, dim3_coefficients, dim3_decompose])
    def test_rejects_non_canonical_structure(self, fn, seed):
        s = random_structure(1, seed)
        f = random_structure_tensor(s, seed)  # admissible for s
        with pytest.raises(PreconditionError, match="^structure is not canonical;"):
            fn(s, f)

    @pytest.mark.parametrize("scale", [1e-10, 1.0, 1e10])
    def test_rejects_inadmissible_at_any_scale(self, s1, scale):
        c = scale * _inadmissible_dim3()
        with pytest.raises(PreconditionError) as info:
            dim3_coefficients(s1, c)
        assert str(info.value) == _gate_message(s1, c)

    @pytest.mark.parametrize("scale", [1e-10, 1e-300, 1e-315, 1e10])
    def test_accepts_admissible_at_any_scale(self, s1, scale):
        f = scale * random_structure_tensor(s1, 0)
        fast, general = dim3_decompose(s1, f), decompose(s1, f)
        for c_fast, c_general in zip(fast.components, general.components):
            assert _max_abs(c_fast - c_general) <= 1e-12 * scale

    def test_residual_gate(self, s1, monkeypatch):
        """Closed forms that do not sum back are refused, naming the residual."""
        f = random_structure_tensor(s1, 0)
        q = dim3_coefficients(s1, f)
        wrong = Dim3Coefficients(**{**vars(q), "nu": q.nu + 1.0})
        monkeypatch.setattr(models, "dim3_coefficients", lambda *args, **kwargs: wrong)
        residual = 1.0 / _max_abs(f)
        with pytest.raises(PreconditionError) as info:
            dim3_decompose(s1, f)
        assert str(info.value) == (
            f"components do not sum back to the tensor: reconstruction residual {residual:.3e}"
        )

    def test_dim3_suite_checks_each_seed_once(self, monkeypatch):
        calls = []
        original = models.dim3_coefficients
        monkeypatch.setattr(models, "dim3_coefficients", lambda *a, **k: calls.append(1) or original(*a, **k))
        assert all(check.passed for check in run_suite("dim3", 3))
        assert len(calls) == 3


@pytest.mark.parametrize("entry", list(np.ndindex(3, 3, 3)))
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    exponent=st.integers(-12, 12),
    size=st.floats(-11.0, -6.0),
    negative=st.booleans(),
)
def test_dim3_gate_agrees_with_the_eighteen_relations(entry, seed, exponent, size, negative):
    """One entry of an admissible tensor of max-abs about 10^exponent, moved by
    10^size of that magnitude: dim3_coefficients refuses it, with the gate's
    message, exactly when one of the eighteen relations exceeds the bound."""
    s = canonical_structure(1)
    f = random_structure_tensor(s, seed) * 10.0**exponent
    c = np.array(f)
    c[entry] += (-1.0 if negative else 1.0) * 10.0**size * _max_abs(f)
    if _dim3_oracle_admits(c):
        dim3_coefficients(s, c)
    else:
        with pytest.raises(PreconditionError) as info:
            dim3_coefficients(s, c)
        assert str(info.value) == _gate_message(s, c)
