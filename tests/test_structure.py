import dataclasses
import itertools

import numpy as np
import pytest

from acbm import structure
from acbm.decomposition import classify, decompose
from acbm.errors import PreconditionError
from acbm.group import group_element_from_blocks, random_group_element
from acbm.structure import (
    StructureData,
    _axiom_residuals,
    _max_abs,
    canonical_structure,
    is_canonical_basis,
)
from acbm.tensors import random_structure_tensor

from conftest import basis_change, push_structure, random_structure

# Every way to give a contact rank n: each applies the one rank rule.
RANK_TAKERS = {
    "canonical_structure": canonical_structure,
    "StructureData": lambda n: StructureData(
        n=n, **{k: getattr(canonical_structure(1), k) for k in ("g", "phi", "xi", "eta")}
    ),
    "random_group_element": lambda n: random_group_element(n, 0),
    "group_element_from_blocks": lambda n: group_element_from_blocks(n, np.eye(1), np.zeros((1, 1))),
}


# The classes of dimension 3; F2, F3, F6 and F7 vanish at n = 1.
_DIM3_CLASSES = (1, 4, 5, 8, 9, 10, 11)


def _worst_axiom(s: StructureData) -> float:
    return max(_axiom_residuals(s).values())


def _contact_inverse(s: StructureData) -> np.ndarray:
    return s.g_inv - np.outer(s.xi, s.xi)


# Each matrix a structure builds on construction, and its defining product.
DERIVED = {
    "g_inv": lambda s: np.linalg.inv(s.g),
    "phi2": lambda s: s.phi @ s.phi,
    "g_phi": lambda s: s.g @ s.phi,
    "phi_g_phi": lambda s: s.phi.T @ s.g @ s.phi,
    "lee_weights": lambda s: np.stack([
        _contact_inverse(s).ravel(),
        (_contact_inverse(s) @ s.phi.T).ravel(),
        np.outer(s.xi, s.xi).ravel(),
    ]),
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
        assert _worst_axiom(canonical_structure(n)) <= 1e-12

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
        for arr in (s.g, s.phi, s.xi, s.eta, s.g_inv, s.phi2, s.g_phi, s.phi_g_phi, s.lee_weights):
            assert not arr.flags.writeable
        again = canonical_structure(n)
        assert all(getattr(again, k) is getattr(s, k) for k in DERIVED)


class TestDerivedMatrices:
    @pytest.mark.parametrize("seed", [None, 0, 1])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equal_to_their_products_bit_for_bit(self, n, seed):
        s = canonical_structure(n) if seed is None else random_structure(n, seed)
        for name, product in DERIVED.items():
            np.testing.assert_array_equal(getattr(s, name), product(s), err_msg=name)

    @pytest.mark.parametrize("name", DERIVED)
    def test_read_only(self, name):
        arr = getattr(random_structure(2, 0), name)
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 1.0

    def test_replace_recomputes_them(self):
        s = random_structure(2, 3)
        flipped = dataclasses.replace(s, phi=-s.phi)
        assert _worst_axiom(flipped) <= 1e-12
        for name, product in DERIVED.items():
            np.testing.assert_array_equal(getattr(flipped, name), product(flipped), err_msg=name)
        np.testing.assert_array_equal(flipped.g_phi, -s.g_phi)


class TestValidateStructure:
    """A structure is checked once, when it is built, each axiom on its own scale."""

    @pytest.mark.parametrize("delta, b_metric", [(1.0, r", b_metric=2\.000e\+00"), (1e-10, ""),
                                                 (1e-13, ""), (1e-15, "")])
    def test_riemannian_metric_is_refused(self, s1, delta, b_metric):
        # g = diag(1, delta, delta): signature (3, 0) counts one eigenvalue too many and one
        # too few against (2, 1), even when delta is far below DEFAULT_RTOL but above d * eps;
        # g(phi e2, phi e2) + g(e2, e2) = 2 delta at the (2, 2) slot
        with pytest.raises(PreconditionError, match=r"^structure violates axioms: signature=2\.000e\+00"
                           + b_metric + "$"):
            StructureData(n=1, g=np.diag([1.0, delta, delta]), phi=s1.phi, xi=s1.xi, eta=s1.eta)

    def test_zero_phi_fails_phi_squared(self, s1):
        with pytest.raises(PreconditionError, match=r"^structure violates axioms: phi_squared=1\.000e\+00,"):
            StructureData(n=1, g=s1.g, phi=np.zeros((3, 3)), xi=s1.xi, eta=s1.eta)

    def test_shape_mismatch_is_a_plain_value_error(self, s1):
        with pytest.raises(ValueError) as info:
            StructureData(n=1, g=np.eye(5), phi=s1.phi, xi=s1.xi, eta=s1.eta)
        assert type(info.value) is ValueError

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("n", [1, 2])
    def test_random_conjugated_structures_validate(self, n, seed):
        assert _worst_axiom(random_structure(n, seed)) <= 1e-12

    @pytest.mark.parametrize("k", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_no_verdict_depends_on_the_scale_of_the_basis(self, n, k):
        """An exact structure in a basis scaled by k is built, and the same
        structure with one phi entry moved by 1e-6 of max-abs(phi) is refused."""
        s = push_structure(canonical_structure(n), k * basis_change(n, 3))
        assert _worst_axiom(s) <= 1e-12
        for entry in [(0, 0), (1, 2), (2 * n, n)]:
            phi = s.phi.copy()
            phi[entry] += 1e-6 * _max_abs(s.phi)
            with pytest.raises(PreconditionError, match="^structure violates axioms: "):
                StructureData(n=n, g=s.g, phi=phi, xi=s.xi, eta=s.eta)

    @pytest.mark.parametrize("k, classes", [
        *(pytest.param(k, _DIM3_CLASSES, id=str(k)) for k in (1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8)),
        *(pytest.param(k, classes, id=f"{k:.0e}-" + "-".join(f"F{i}" for i in classes), marks=(
            [pytest.mark.xfail(strict=True, reason="ROADMAP item 10")] if (k, classes) == (1e7, (9,)) else []
        ))
          for k in (1e5, 1e6, 1e7)
          for classes in [*itertools.combinations(_DIM3_CLASSES, 1), *itertools.combinations(_DIM3_CLASSES, 2)]),
    ])
    def test_stretched_basis_up_to_the_signature_limit(self, s1, k, classes):
        """A basis stretched by k along one axis is built while eigvalsh resolves
        the smallest eigenvalue of g, cond(g) = 8.6e13 at k = 1e7, and the classes
        of seed 0 at n = 1, all seven and each one and pair of them, pushed through
        it in floats keep their set; only the g_inverse residual grows with cond(g).
        Past it that eigenvalue falls under d * eps times the largest and counts as
        zero. At k = 1e7, F9 alone leaks eps sqrt(cond(g)) = 2.1e-9 of F into F4."""
        t = np.diag([1.0, k, 1.0])
        t[1, 2], t[2, 1] = 0.37 * k, 0.11
        if k <= 1e7:
            s = push_structure(s1, t)
            residuals = _axiom_residuals(s)
            assert residuals.pop("g_inverse") <= (1e-12 if k <= 1e5 else 1e-10)
            assert max(residuals.values()) <= 1e-12
            f = decompose(s1, random_structure_tensor(s1, 0)).components[[i - 1 for i in classes]].sum(axis=0)
            t_inv = np.linalg.inv(t)
            pushed = np.einsum("abc,ai,bj,ck->ijk", f, t_inv, t_inv, t_inv)
            assert classify(s, pushed).present == classes
        else:  # cond(g) = 8.6e15
            with pytest.raises(PreconditionError, match="^structure violates axioms: signature=1\\.000e\\+00$"):
                push_structure(s1, t)


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
        assert _worst_axiom(companion) <= 1e-12


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
