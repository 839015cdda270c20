import math

import numpy as np
import pytest

from acbm import fileio
from acbm.decomposition import classify, decompose
from acbm.errors import PreconditionError
from acbm.models import (
    check_jacobi,
    koszul_connection,
    lie_family,
    sphere_structure_tensor,
    structure_tensor_from_connection,
)
from acbm.structure import _max_abs, canonical_structure
from acbm.tensors import is_structure_tensor, lee_forms, random_structure_tensor

from conftest import basis_change, f8_form, f11_form


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
        comps = decompose(s, f).components
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

