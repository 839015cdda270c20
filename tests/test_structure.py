import numpy as np
import pytest

from acbm import structure
from acbm.group import group_element_from_blocks, random_group_element
from acbm.structure import (
    StructureData,
    canonical_structure,
    is_canonical_basis,
    validate_structure,
)

from conftest import random_structure

# Every way to give a contact rank n: each applies the one rank rule.
RANK_TAKERS = {
    "canonical_structure": canonical_structure,
    "StructureData": lambda n: StructureData(
        n=n, **{k: getattr(canonical_structure(1), k) for k in ("g", "phi", "xi", "eta")}
    ),
    "random_group_element": lambda n: random_group_element(n, 0),
    "group_element_from_blocks": lambda n: group_element_from_blocks(n, np.eye(1), np.zeros((1, 1))),
}


class TestCanonicalStructure:
    def test_dim3_values(self, s1):
        np.testing.assert_array_equal(s1.g, np.diag([1.0, 1.0, -1.0]))
        np.testing.assert_array_equal(s1.phi @ [0, 1, 0], [0, 0, 1])  # phi e1 = e2
        np.testing.assert_array_equal(s1.phi @ [0, 0, 1], [0, -1, 0])  # phi e2 = -e1
        np.testing.assert_array_equal(s1.xi, [1, 0, 0])
        np.testing.assert_array_equal(s1.eta, [1, 0, 0])

    def test_dim5_signature(self, s2):
        assert s2.dim == 5
        np.testing.assert_array_equal(s2.g, np.diag([1.0, 1.0, 1.0, -1.0, -1.0]))
        eigvals = np.linalg.eigvalsh(s2.g)
        assert int((eigvals > 0).sum()) == 3
        assert int((eigvals < 0).sum()) == 2

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_always_valid(self, n):
        report = validate_structure(canonical_structure(n))
        assert report.valid
        assert report.violations == ()
        assert max(report.residuals.values()) <= 1e-12

    @pytest.mark.parametrize("taker", RANK_TAKERS)
    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_bad_rank(self, taker, n):
        with pytest.raises(ValueError, match=f"^n must be >= 1, got {n}$"):
            RANK_TAKERS[taker](n)

    @pytest.mark.parametrize("taker", RANK_TAKERS)
    @pytest.mark.parametrize("n", [True, 1.5, "1"])
    def test_rejects_non_integer_rank(self, taker, n):
        canonical_structure(1)  # cached under 1, and True == 1 as a key
        with pytest.raises(ValueError, match="^n must be an integer, got "):
            RANK_TAKERS[taker](n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_built_once_per_rank_and_read_only(self, monkeypatch, n):
        monkeypatch.setattr(structure, "_CANONICAL", {})
        s = canonical_structure(np.int64(n))
        assert type(s.n) is int
        assert canonical_structure(n) is s
        for arr in (s.g, s.phi, s.xi, s.eta, s.g_inv):
            assert not arr.flags.writeable


class TestValidateStructure:
    def test_riemannian_metric_fails_b_metric(self, s1):
        bad = StructureData(n=1, g=np.eye(3), phi=s1.phi, xi=s1.xi, eta=s1.eta)
        report = validate_structure(bad)
        assert not report.valid
        # g(phi e2, phi e2) + g(e2, e2) = 2 at the (2, 2) slot
        assert report.residuals["b_metric"] == pytest.approx(2.0)
        assert report.residuals["signature"] > 0

    def test_zero_phi_fails_phi_squared(self, s1):
        bad = StructureData(n=1, g=s1.g, phi=np.zeros((3, 3)), xi=s1.xi, eta=s1.eta)
        report = validate_structure(bad)
        assert not report.valid
        assert report.residuals["phi_squared"] == pytest.approx(1.0)

    def test_shape_mismatch_is_an_error_not_a_report(self, s1):
        with pytest.raises(ValueError):
            StructureData(n=1, g=np.eye(5), phi=s1.phi, xi=s1.xi, eta=s1.eta)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("n", [1, 2])
    def test_random_conjugated_structures_validate(self, n, seed):
        assert validate_structure(random_structure(n, seed)).valid


def _associated_metric(s: StructureData) -> np.ndarray:
    """The companion B-metric g~(x, y) = g(x, phi y) + eta(x) eta(y).

    For a valid structure the result is symmetric, has the same
    signature (n+1, n), and (phi, xi, eta, g~) is again a valid
    structure.
    """
    return s.g @ s.phi + np.outer(s.eta, s.eta)


class TestAssociatedMetric:
    def test_dim3_matrix(self, s1):
        expected = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, -1.0, 0.0]])
        np.testing.assert_allclose(_associated_metric(s1), expected, atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n", [1, 2])
    def test_g_tilde_of_xi_xi_is_one(self, n, seed):
        s = random_structure(n, seed)
        gt = _associated_metric(s)
        assert s.xi @ gt @ s.xi == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_companion_structure_is_valid(self, seed):
        n = 1 + seed % 3
        s = random_structure(n, seed)
        companion = StructureData(n=n, g=_associated_metric(s), phi=s.phi, xi=s.xi, eta=s.eta)
        assert validate_structure(companion).valid


def _h_project(s: StructureData, x) -> np.ndarray:
    """Projection h(x) = -phi^2 x onto the contact distribution ker(eta)."""
    x = np.asarray(x, dtype=float)
    return -(s.phi @ (s.phi @ x))


def _v_project(s: StructureData, x) -> np.ndarray:
    """Projection v(x) = eta(x) xi onto the Reeb line."""
    x = np.asarray(x, dtype=float)
    return (s.eta @ x) * s.xi


class TestProjectors:
    def test_reeb_vector(self, s1):
        np.testing.assert_allclose(_h_project(s1, s1.xi), np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(_v_project(s1, s1.xi), s1.xi, atol=1e-15)

    def test_contact_vector(self, s1):
        e1 = np.array([0.0, 1.0, 0.0])
        np.testing.assert_allclose(_h_project(s1, e1), e1, atol=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_idempotent_complementary(self, seed):
        n = 1 + seed % 3
        s = random_structure(n, seed)
        rng = np.random.default_rng(seed + 100)
        x = rng.uniform(-1.0, 1.0, s.dim)
        hx, vx = _h_project(s, x), _v_project(s, x)
        np.testing.assert_allclose(hx + vx, x, atol=1e-12)
        np.testing.assert_allclose(_h_project(s, hx), hx, atol=1e-12)
        np.testing.assert_allclose(_v_project(s, vx), vx, atol=1e-12)
        np.testing.assert_allclose(_h_project(s, vx), np.zeros(s.dim), atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_anti_isometry_identity(self, seed):
        n = 1 + seed % 3
        s = random_structure(n, seed)
        rng = np.random.default_rng(seed + 200)
        x = rng.uniform(-1.0, 1.0, s.dim)
        y = rng.uniform(-1.0, 1.0, s.dim)
        lhs = (s.phi @ x) @ s.g @ (s.phi @ y)
        rhs = -(x @ s.g @ y) + (s.eta @ x) * (s.eta @ y)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_is_canonical_basis(s1):
    assert is_canonical_basis(s1)
    assert not is_canonical_basis(random_structure(1, 0))
