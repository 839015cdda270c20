import numpy as np
import pytest

from acbm.structure import canonical_structure
from acbm.tensors import (
    Tensor3,
    embed_structure_tensor,
    inner_product,
    is_structure_tensor,
    lee_forms,
    membership_residuals,
    random_structure_tensor,
)

from conftest import random_structure


def f8_form(lam: float = 1.0) -> Tensor3:
    """Dimension-3 class-F8 tensor with coefficient lam."""
    c = np.zeros((3, 3, 3))
    c[1, 0, 1] = c[1, 1, 0] = c[2, 0, 2] = c[2, 2, 0] = lam
    return Tensor3(c)


def f4_form(theta0: float = 2.0) -> Tensor3:
    """Dimension-3 class-F4 tensor with theta(xi) = theta0."""
    c = np.zeros((3, 3, 3))
    half = 0.5 * theta0
    c[1, 0, 1] = c[1, 1, 0] = half
    c[2, 0, 2] = c[2, 2, 0] = -half
    return Tensor3(c)


class TestMembership:
    def test_zero_tensor(self, s1):
        assert is_structure_tensor(s1, Tensor3.zeros(3))

    def test_f8_form(self, s1):
        assert is_structure_tensor(s1, f8_form())

    def test_single_vertical_entry_fails(self, s1):
        c = np.zeros((3, 3, 3))
        c[0, 0, 0] = 1.0
        # the phi relation forces F(x, xi, xi) = 0
        assert not is_structure_tensor(s1, Tensor3(c))
        assert membership_residuals(s1, Tensor3(c))["phi_relation"] == pytest.approx(1.0)

    def test_verdict_does_not_depend_on_scale(self):
        s = random_structure(2, 0)
        raw = Tensor3(np.random.default_rng(0).uniform(-1.0, 1.0, size=(5, 5, 5)))
        f = random_structure_tensor(s, 0)
        for scale in (1e-10, 1.0, 1e10):
            assert not is_structure_tensor(s, scale * raw)
            assert is_structure_tensor(s, scale * f)

    def test_dimension_mismatch(self, s1):
        with pytest.raises(ValueError):
            is_structure_tensor(s1, Tensor3.zeros(5))

    @pytest.mark.parametrize("seed", range(10))
    def test_forced_vanishing_of_x_xi_xi(self, seed):
        n = 1 + seed % 3
        s = canonical_structure(n)
        f = random_structure_tensor(s, seed)
        slot = np.einsum("iab,a,b->i", f.comps, s.xi, s.xi)
        np.testing.assert_allclose(slot, np.zeros(s.dim), atol=1e-12)


class TestEmbedding:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(17))
    def test_image_is_admissible(self, n, seed):
        s = canonical_structure(n)
        rng = np.random.default_rng(seed)
        raw = Tensor3(rng.uniform(-1.0, 1.0, (s.dim,) * 3))
        assert is_structure_tensor(s, embed_structure_tensor(s, raw))

    @pytest.mark.parametrize("seed", range(10))
    def test_idempotent(self, seed):
        n = 1 + seed % 3
        s = canonical_structure(n)
        f = random_structure_tensor(s, seed)
        again = embed_structure_tensor(s, f)
        assert (again - f).max_abs() <= 1e-12

    def test_preserves_admissible_exemplar(self, s1):
        f = f8_form()
        assert (embed_structure_tensor(s1, f) - f).max_abs() <= 1e-12

    def test_annihilates_pure_vertical(self, s1):
        c = np.zeros((3, 3, 3))
        c[0, 0, 0] = 1.0
        assert embed_structure_tensor(s1, Tensor3(c)).max_abs() == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_non_canonical_structure(self, seed):
        s = random_structure(2, seed)
        rng = np.random.default_rng(seed)
        raw = Tensor3(rng.uniform(-1.0, 1.0, (s.dim,) * 3))
        assert is_structure_tensor(s, embed_structure_tensor(s, raw))


class TestRandomStructureTensor:
    def test_deterministic(self, s2):
        a = random_structure_tensor(s2, 123)
        b = random_structure_tensor(s2, 123)
        np.testing.assert_array_equal(a.comps, b.comps)

    def test_seed_sensitivity(self, s2):
        a = random_structure_tensor(s2, 0)
        b = random_structure_tensor(s2, 1)
        assert (a - b).max_abs() > 1e-6

    def test_hundred_seeds_admissible_and_nonzero(self, s1):
        for seed in range(100):
            f = random_structure_tensor(s1, seed)
            assert is_structure_tensor(s1, f)
            assert f.max_abs() > 1e-6


class TestInnerProduct:
    def test_triple_negative_slot(self, s1):
        c = np.zeros((3, 3, 3))
        c[2, 2, 2] = 1.0
        f = Tensor3(c)
        # three factors of g^22 = -1
        assert inner_product(s1, f, f) == pytest.approx(-1.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_symmetric(self, seed):
        n = 1 + seed % 2
        s = canonical_structure(n)
        f1 = random_structure_tensor(s, seed)
        f2 = random_structure_tensor(s, seed + 50)
        assert inner_product(s, f1, f2) == pytest.approx(inner_product(s, f2, f1), abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_bilinear(self, seed):
        s = canonical_structure(2)
        f1 = random_structure_tensor(s, seed)
        f2 = random_structure_tensor(s, seed + 60)
        f3 = random_structure_tensor(s, seed + 70)
        lhs = inner_product(s, 2.5 * f1 + (-1.25) * f2, f3)
        rhs = 2.5 * inner_product(s, f1, f3) - 1.25 * inner_product(s, f2, f3)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


class TestLeeForms:
    def test_f4_form_theta(self, s1):
        lf = lee_forms(s1, f4_form(theta0=2.0))
        assert lf.theta[0] == pytest.approx(2.0)
        np.testing.assert_allclose(lf.theta_star, np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(lf.omega, np.zeros(3), atol=1e-15)

    def test_f8_form_all_vanish(self, s1):
        lf = lee_forms(s1, f8_form())
        np.testing.assert_allclose(lf.theta, np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(lf.theta_star, np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(lf.omega, np.zeros(3), atol=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_omega_xi_and_theta_star_phi(self, seed):
        n = 1 + seed % 3
        s = canonical_structure(n)
        f = random_structure_tensor(s, seed)
        lf = lee_forms(s, f)
        assert abs(lf.omega @ s.xi) <= 1e-12
        # theta*(phi z) = -theta(phi^2 z) on every basis vector
        phi2 = s.phi @ s.phi
        np.testing.assert_allclose(
            s.phi.T @ lf.theta_star, -(phi2.T @ lf.theta), atol=1e-12
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_linear(self, seed):
        s = canonical_structure(2)
        f1 = random_structure_tensor(s, seed)
        f2 = random_structure_tensor(s, seed + 80)
        combined = lee_forms(s, 2.0 * f1 + 3.0 * f2)
        lf1, lf2 = lee_forms(s, f1), lee_forms(s, f2)
        np.testing.assert_allclose(combined.theta, 2 * lf1.theta + 3 * lf2.theta, atol=1e-12)
        np.testing.assert_allclose(
            combined.theta_star, 2 * lf1.theta_star + 3 * lf2.theta_star, atol=1e-12
        )
        np.testing.assert_allclose(combined.omega, 2 * lf1.omega + 3 * lf2.omega, atol=1e-12)


class TestTensor3:
    def test_rejects_non_cube(self):
        with pytest.raises(ValueError):
            Tensor3(np.zeros((3, 3, 2)))

    def test_rejects_non_finite(self):
        c = np.zeros((3, 3, 3))
        c[0, 1, 1] = np.nan
        with pytest.raises(ValueError):
            Tensor3(c)

    def test_immutable(self, s1):
        f = random_structure_tensor(s1, 0)
        with pytest.raises(ValueError):
            f.comps[0, 0, 0] = 1.0
