import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from acbm import decomposition, fileio
from acbm.decomposition import classify, decompose, dim3_decompose
from acbm.errors import PreconditionError
from acbm.models import (
    check_jacobi,
    koszul_connection,
    lie_family,
    sphere_structure_tensor,
    structure_tensor_from_connection,
)
from acbm.structure import DEFAULT_RTOL, _max_abs, canonical_structure
from acbm.tensors import (
    _require_structure_tensor,
    _scale,
    is_structure_tensor,
    lee_forms,
    random_structure_tensor,
)

from conftest import basis_change, f8_form, f11_form, random_structure


def family_tensor(n, params):
    s, c = lie_family(n, params)
    return s, structure_tensor_from_connection(s, koszul_connection(s, c))


class TestLieFamily:
    def test_bracket_values_n1(self):
        _, c = lie_family(1, [2.0, 3.0])
        # [E0, E1] = -a1 E1 - a2 E2
        np.testing.assert_array_equal(c[0, 1], [0.0, -2.0, -3.0])
        # [E0, E2] = -a2 E1 + a1 E2
        np.testing.assert_array_equal(c[0, 2], [0.0, -3.0, 2.0])
        # [E1, E2] = 0, antisymmetry elsewhere
        np.testing.assert_array_equal(c[1, 2], np.zeros(3))
        np.testing.assert_array_equal(c[1, 0], -c[0, 1])

    def test_rejects_wrong_parameter_count(self):
        with pytest.raises(ValueError, match=r"^parameter vector must have shape \(4,\), got \(2,\)$"):
            lie_family(2, [1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_parameters(self, bad):
        with pytest.raises(ValueError, match="^parameter vector contains non-finite entries$"):
            lie_family(1, [bad, 1.0])


def _jacobi_oracle(c: np.ndarray) -> float:
    """Max-abs of the Jacobi cyclic sum of the bracket table c, as three einsums."""
    jac = (
        np.einsum("jkm,iml->ijkl", c, c)
        + np.einsum("kim,jml->ijkl", c, c)
        + np.einsum("ijm,kml->ijkl", c, c)
    )
    return _max_abs(jac)


class TestCheckJacobi:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_agrees_with_the_einsum_oracle_in_a_changed_basis(self, n, seed):
        """The family's table in a changed basis is a Lie algebra, and the same
        table with one antisymmetric pair moved by 1e-6 of its largest entry is not.
        The moved pair is the E_1 part of [E_0, E_1], which changes the trace of
        ad E_0: at n = 1 the family is unimodular, and a move that keeps that trace
        zero, such as the E_2 part, leaves a Lie algebra."""
        s, c = lie_family(n, np.random.default_rng(seed).uniform(-2.0, 2.0, 2 * n))
        t = basis_change(n, seed)
        pushed = np.einsum("abm,ai,bj,km->ijk", c, t, t, np.linalg.inv(t))
        m = _max_abs(pushed)
        moved = pushed.copy()
        moved[0, 1, 1] += 1e-6 * m
        moved[1, 0, 1] -= 1e-6 * m
        assert check_jacobi(s, pushed) and _jacobi_oracle(pushed / m) <= 1e-12
        assert not check_jacobi(s, moved) and _jacobi_oracle(moved / m) > 1e-12

    def test_abelian(self, s1):
        assert check_jacobi(s1, np.zeros((3, 3, 3)))

    def test_violating_table(self, s1):
        c = np.zeros((3, 3, 3))
        c[1, 2, 1] = 1.0
        c[2, 1, 1] = -1.0
        c[0, 1, 2] = 1.0
        c[1, 0, 2] = -1.0
        assert not check_jacobi(s1, c)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-7, 1.0, 1e200])
    def test_scale_free(self, scale):
        s = canonical_structure(2)
        c = np.random.default_rng(3).uniform(-1.0, 1.0, size=(5, 5, 5))
        c = c - c.transpose(1, 0, 2)  # antisymmetric, but violates Jacobi
        assert not check_jacobi(s, scale * c)
        assert check_jacobi(*lie_family(2, [scale, -scale, 0.5 * scale, scale]))

    @pytest.mark.parametrize(
        "entry, residual",
        [((1, 2, 0), "1.000e+00"), ((1, 1, 0), "2.000e+00")],
        ids=["no-compensating-entry", "diagonal"],
    )
    def test_rejects_non_antisymmetric(self, s1, entry, residual):
        """check_jacobi and the writer lie_to_doc refuse the same table alike: the
        writer keeps only the i < j brackets, so it would write another table."""
        c = np.zeros((3, 3, 3))
        c[entry] = 1.0
        for call in (check_jacobi, fileio.lie_to_doc):
            with pytest.raises(PreconditionError) as info:
                call(s1, c)
            assert str(info.value) == f"bracket table is not antisymmetric (residual {residual})"


class TestKoszulConnection:
    def test_connection_values_n1(self):
        a1, a2 = 1.5, -0.5
        gamma = koszul_connection(*lie_family(1, [a1, a2]))
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
        assert np.max(np.abs(koszul_connection(s1, np.zeros((3, 3, 3))))) == 0.0


class TestFamilyStructureTensor:
    def test_flat_case_is_f0(self):
        s, f = family_tensor(1, [0.0, 0.0])
        assert _max_abs(f) == 0.0
        report = classify(s, f)
        assert report.present == ()
        assert report.is_F0

    def test_class_coordinates(self):
        # F9 coordinate (F120 - F210) / 2 = a1, F10 coordinate F011 = -2 a2
        a1, a2 = 0.7, -1.2
        s, f = family_tensor(1, [a1, a2])
        comps = dim3_decompose(s, f).components
        assert comps[8][1, 0, 2] == pytest.approx(a1)
        assert comps[9][0, 1, 1] == pytest.approx(-2 * a2)


class TestSphere:
    def test_t_zero_pure_f4(self):
        s, f = sphere_structure_tensor(1, 0.0)
        report = classify(s, f)
        assert report.present == (4,)
        lf = lee_forms(s, f)
        assert lf.theta @ s.xi == pytest.approx(2.0)
        assert lf.theta_star @ s.xi == pytest.approx(0.0, abs=1e-15)

    def test_n2_lee_values(self):
        s, f = sphere_structure_tensor(2, 0.7)
        report = classify(s, f)
        assert set(report.present) <= {4, 5}
        lf = lee_forms(s, f)
        assert abs(lf.theta @ s.xi - 4 * math.cos(0.7)) <= 1e-12
        assert abs(lf.theta_star @ s.xi - 4 * math.sin(0.7)) <= 1e-12

    def test_membership(self):
        for n in (1, 2):
            s, f = sphere_structure_tensor(n, 0.3)
            assert is_structure_tensor(s, f)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, 10**400, "a", True, 1j],
                             ids=["nan", "inf", "-inf", "huge-integer", "string", "bool", "complex"])
    def test_refuses_a_bad_parameter(self, t):
        """Not "result overflows", "math domain error" or a TypeError: one
        ValueError naming t, and a bool is not read as 1.0."""
        with pytest.raises(ValueError, match="^t must be a finite number, got ") as info:
            sphere_structure_tensor(1, t)
        assert type(info.value) is ValueError


def _dim3_lee_forms(c) -> tuple:
    """(theta, theta*, omega) of an admissible tensor at n = 1 over the canonical
    structure, by the index formulas of the README, Fijk = F(e_i, e_j, e_k)."""
    theta = [c[1, 1, 0] - c[2, 2, 0], c[1, 1, 1] - c[2, 2, 1], c[1, 1, 2] - c[2, 1, 1]]
    theta_star = [c[1, 2, 0] + c[2, 1, 0], c[1, 1, 2] + c[2, 1, 1], c[1, 1, 1] + c[2, 2, 1]]
    return theta, theta_star, [0.0, c[0, 0, 1], c[0, 0, 2]]


class TestDim3LeeForms:
    @pytest.mark.parametrize(
        "f",
        [f8_form(), f11_form(w1=1.0, w2=0.0)]
        + [random_structure_tensor(canonical_structure(1), seed) for seed in range(5)],
        ids=["f8_form", "f11_form"] + [f"seed{seed}" for seed in range(5)],
    )
    def test_lee_forms_are_the_index_formulas(self, s1, f):
        lf = lee_forms(s1, f)
        for got, want in zip((lf.theta, lf.theta_star, lf.omega), _dim3_lee_forms(f)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


# The eighteen entry relations of an admissible tensor in dimension 3 over the
# canonical structure, slot symmetry and the phi relation written out: nine
# pairs of index triples that agree and nine triples that vanish. They involve
# 27 distinct entries and are independent, so they cut out a space of
# dimension 9, the admissible space at n = 1. An oracle independent of the
# membership gate that dim3_decompose asks.
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
    """The eighteen relations, each within DEFAULT_RTOL relative to _scale(c):
    the bound of the membership gate."""
    bound = DEFAULT_RTOL * _scale(c)
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
    def test_closed_forms_beyond_the_suite(self, seed, s1):
        """What the dim3 suite does not assert: F2, F3, F6 and F7 of the closed
        forms are exactly 0.0, and they sum back to the tensor within 1e-15."""
        f = random_structure_tensor(s1, seed)
        fast, general = dim3_decompose(s1, f), decompose(s1, f)
        assert _max_abs(fast.components[[1, 2, 5, 6]]) == 0.0
        np.testing.assert_allclose(fast.magnitudes, general.magnitudes, rtol=0, atol=1e-12)
        assert fast.reconstruction_residual <= 1e-15

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
        with pytest.raises(PreconditionError) as info:
            dim3_decompose(s1, c)
        assert str(info.value) == _gate_message(s1, c)

    @pytest.mark.parametrize("triple", _DIM3_ZERO_TRIPLES)
    def test_names_the_nonzero_triple(self, triple, s1):
        c = np.zeros((3, 3, 3))
        c[triple] = -0.5
        with pytest.raises(PreconditionError) as info:
            dim3_decompose(s1, c)
        assert str(info.value) == _gate_message(s1, c)

    def test_names_the_first_of_two_unequal_pairs(self, s1):
        c = np.zeros((3, 3, 3))
        c[_DIM3_EQUAL_PAIRS[5][0]] = 1.0
        c[_DIM3_EQUAL_PAIRS[2][1]] = 1.0
        want = "tensor is not an admissible structure tensor: slot_symmetry residual 1.000e+00"
        with pytest.raises(PreconditionError) as info:
            dim3_decompose(s1, c)
        assert str(info.value) == want == _gate_message(s1, c)

    def test_rejects_wrong_dim(self, s1, s2):
        with pytest.raises(ValueError, match="expected a dimension-3 structure"):
            dim3_decompose(s2, np.zeros((5, 5, 5)))
        with pytest.raises(ValueError):
            dim3_decompose(s1, np.zeros((5, 5, 5)))

    @pytest.mark.parametrize("seed", range(3))
    def test_rejects_non_canonical_structure(self, seed):
        s = random_structure(1, seed)
        f = random_structure_tensor(s, seed)  # admissible for s
        with pytest.raises(PreconditionError, match="^structure is not canonical;"):
            dim3_decompose(s, f)

    @pytest.mark.parametrize("scale", [1e-10, 1.0, 1e10])
    def test_rejects_inadmissible_at_any_scale(self, s1, scale):
        """The closed forms read F222 as F211 and F000 as 0, so on an inadmissible
        tensor they would disagree with the general contractions without a word."""
        for raw in (_inadmissible_dim3(), np.arange(27.0).reshape(3, 3, 3)):
            c = scale * raw
            with pytest.raises(PreconditionError) as info:
                dim3_decompose(s1, c)
            assert str(info.value) == _gate_message(s1, c)

    @pytest.mark.parametrize("scale", [1e-10, 1e-300, 1e-315, 1e10])
    def test_accepts_admissible_at_any_scale(self, s1, scale):
        f = scale * random_structure_tensor(s1, 0)
        fast, general = dim3_decompose(s1, f), decompose(s1, f)
        for c_fast, c_general in zip(fast.components, general.components):
            assert _max_abs(c_fast - c_general) <= 1e-12 * scale

    def test_residual_gate(self, s1, monkeypatch):
        """Closed forms that do not sum back are refused, naming the residual: past
        the gate, F000 moved by 1, an entry no coordinate reads."""
        broken = np.array(random_structure_tensor(s1, 0))
        broken[0, 0, 0] += 1.0
        monkeypatch.setattr(decomposition, "_canonical_dim3", lambda *args, **kwargs: broken)
        residual = 1.0 / _max_abs(broken)
        with pytest.raises(PreconditionError) as info:
            dim3_decompose(s1, random_structure_tensor(s1, 0))
        assert str(info.value) == (
            f"components do not sum back to the tensor: reconstruction residual {residual:.3e}"
        )


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
    10^size of that magnitude: dim3_decompose refuses it, with the gate's
    message, exactly when one of the eighteen relations exceeds the bound."""
    s = canonical_structure(1)
    f = random_structure_tensor(s, seed) * 10.0**exponent
    c = np.array(f)
    c[entry] += (-1.0 if negative else 1.0) * 10.0**size * _max_abs(f)
    if _dim3_oracle_admits(c):
        dim3_decompose(s, c)
    else:
        with pytest.raises(PreconditionError) as info:
            dim3_decompose(s, c)
        assert str(info.value) == _gate_message(s, c)
