import numpy as np
import pytest

from acbm.decomposition import NUM_CLASSES, component
from acbm.group import (
    act,
    group_element_from_blocks,
    random_group_element,
    validate_group_element,
)
from acbm.structure import _max_abs, canonical_structure
from acbm.tensors import random_structure_tensor


class TestRandomGroupElement:
    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("seed", range(20))
    def test_seed_parity_picks_the_component(self, n, seed):
        """det(A + iB) = (-1)^seed; at n = 1 the element is diag(1, +-1, +-1)."""
        a, sign = random_group_element(n, seed), (-1) ** seed
        assert validate_group_element(canonical_structure(n), a)
        q = a[1 : n + 1, 1 : n + 1] + 1j * a[1 : n + 1, n + 1 :]
        assert abs(np.linalg.det(q) - sign) <= 1e-12
        if n == 1:
            np.testing.assert_array_equal(a, group_element_from_blocks(1, sign * np.eye(1), np.zeros((1, 1))))

    @pytest.mark.parametrize("seed", range(10))
    def test_block_conditions(self, seed):
        a = random_group_element(2, seed)
        a_block, b_block = a[1:3, 1:3], a[1:3, 3:5]
        np.testing.assert_allclose(
            a_block.T @ a_block - b_block.T @ b_block, np.eye(2), atol=1e-9
        )
        np.testing.assert_allclose(
            b_block.T @ a_block + a_block.T @ b_block, np.zeros((2, 2)), atol=1e-9
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_structure_preservation(self, seed, s2):
        a = random_group_element(2, seed)
        np.testing.assert_allclose(a @ s2.phi, s2.phi @ a, atol=1e-9)
        np.testing.assert_allclose(a.T @ s2.g @ a, s2.g, atol=1e-9)
        np.testing.assert_allclose(a @ s2.xi, s2.xi, atol=1e-12)

    def test_deterministic(self):
        np.testing.assert_array_equal(random_group_element(3, 99), random_group_element(3, 99))

    def test_read_only(self):
        reflection = group_element_from_blocks(1, -np.eye(1), np.zeros((1, 1)))
        for a in (random_group_element(2, 4), reflection):
            with pytest.raises(ValueError):
                a[0, 0] = 2.0

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            random_group_element(0, 0)


class TestValidateGroupElement:
    def test_identity(self, s2):
        assert validate_group_element(s2, np.eye(5))

    def test_scaled_identity_fails(self, s2):
        assert not validate_group_element(s2, 2.0 * np.eye(5))

    @pytest.mark.parametrize("n", [2, 3])
    def test_fifty_seeds(self, n):
        s = canonical_structure(n)
        for seed in range(50):
            assert validate_group_element(s, random_group_element(n, seed))

    def test_shape_mismatch(self, s2):
        with pytest.raises(ValueError):
            validate_group_element(s2, np.eye(3))

    @pytest.mark.parametrize("entry", [np.inf, np.nan])
    def test_non_finite_matrix_is_refused(self, s2, entry):
        with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
            validate_group_element(s2, np.diag([1.0, 1.0, 1.0, 1.0, entry]))

    def test_discrete_representative(self, s1):
        elem = group_element_from_blocks(1, -np.eye(1), np.zeros((1, 1)))
        assert validate_group_element(s1, elem)
        np.testing.assert_array_equal(elem, np.diag([1.0, -1.0, -1.0]))

    @pytest.mark.parametrize("t", [0.0, 4.0, 10.0, 16.0, 20.0])
    def test_validity_is_relative_to_the_element_size(self, t):
        """(A, B) = (cosh t I, sinh t J), J = [[0, 1], [-1, 0]], is exact: it is
        accepted however large its entries, and 1e-7 of its size added to one
        entry of A is refused. xi and eta are not scaled by the element: 1e-6
        on the xi column or the eta row is refused at every t."""
        s = canonical_structure(2)
        a_block = np.cosh(t) * np.eye(2)
        b_block = np.sinh(t) * np.array([[0.0, 1.0], [-1.0, 0.0]])
        a = group_element_from_blocks(2, a_block, b_block)
        m = max(1.0, _max_abs(a))
        assert validate_group_element(s, a)
        for place, delta in [((0, 0), 1e-6), ((1, 0), 1e-6), ((0, 3), 1e-6), ((4, 4), 1e-7 * m)]:
            moved = np.array(a)
            moved[place] += delta  # xi column, xi column, eta row, second copy of A
            assert not validate_group_element(s, moved), place
        a_block[0, 0] += 1e-7 * m
        with pytest.raises(ValueError, match="structure-group conditions"):
            group_element_from_blocks(2, a_block, b_block)

    def test_from_blocks_rejects_invalid(self):
        with pytest.raises(ValueError):
            group_element_from_blocks(2, 2.0 * np.eye(2), np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "a_block, message",
        [
            (np.eye(2), r"^block A must have shape \(1, 1\), got \(2, 2\)$"),
            ([[np.nan]], "^block A contains non-finite entries$"),
        ],
    )
    def test_from_blocks_refuses_malformed_blocks(self, a_block, message):
        with pytest.raises(ValueError, match=message):
            group_element_from_blocks(1, a_block, np.zeros((1, 1)))

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("place", ["a00", "row0", "col0", "minus_b", "second_a", "orthogonality"])
    def test_block_form_violations_fail(self, n, place):
        """Each block-form condition of the module docstring, broken by 1e-6,
        fails one of the four general residuals."""
        s = canonical_structure(n)
        if n == 1:
            a = np.array(group_element_from_blocks(1, -np.eye(1), np.zeros((1, 1))))
        else:
            a = np.array(random_group_element(n, 5))
        assert validate_group_element(s, a)
        first, second = slice(1, n + 1), slice(n + 1, 2 * n + 1)  # contact halves
        if place == "a00":
            a[0, 0] += 1e-6
        elif place == "row0":
            a[0, 1:] += 1e-6
        elif place == "col0":
            a[1:, 0] += 1e-6
        elif place == "minus_b":
            a[second, first] += 1e-6
        elif place == "second_a":
            a[second, second] += 1e-6
        else:  # A -> (1 + 1e-6) A in both places keeps the block form
            a[first, first] *= 1 + 1e-6
            a[second, second] *= 1 + 1e-6
        assert not validate_group_element(s, a)


class TestAction:
    def test_identity_element(self, s2):
        f = random_structure_tensor(s2, 3)
        ident = group_element_from_blocks(2, np.eye(2), np.zeros((2, 2)))
        assert _max_abs(act(s2, ident, f) - f) == 0.0

    def test_linear_in_tensor(self, s2):
        f1 = random_structure_tensor(s2, 1)
        f2 = random_structure_tensor(s2, 2)
        elem = random_group_element(2, 3)
        lhs = act(s2, elem, 2.0 * f1 + (-0.5) * f2)
        rhs = 2.0 * act(s2, elem, f1) + (-0.5) * act(s2, elem, f2)
        assert _max_abs(lhs - rhs) <= 1e-12

    def test_dimension_mismatch(self, s1):
        elem = random_group_element(2, 0)
        with pytest.raises(ValueError):
            act(s1, elem, np.zeros((3, 3, 3)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_ill_conditioned_matrix_is_named(self, s1):
        # the inverse is finite, but the pullback by it overflows
        with pytest.raises(
            ValueError, match=r"^result overflows the floating-point range \(overflow encountered in matmul\)$"
        ) as info:
            act(s1, np.diag([1.0, 1.0, 1e-300]), random_structure_tensor(s1, 0))
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (np.zeros((5, 5)), "Singular"),
            (np.eye(3), "shape"),
            (np.eye(5)[:, :4], "shape"),
            (np.diag([1.0, 1.0, 1.0, 1.0, np.inf]), "^matrix contains non-finite entries$"),
            (np.diag([1.0, 1.0, 1.0, 1.0, np.nan]), "^matrix contains non-finite entries$"),
        ],
    )
    def test_refuses_singular_or_misshaped_matrix(self, s2, matrix, message):
        with pytest.raises(ValueError, match=message) as info:
            act(s2, matrix, random_structure_tensor(s2, 0))
        assert "\n" not in str(info.value)


class TestEquivariance:
    @pytest.mark.parametrize("n", [2, 3])
    def test_det_minus_one_component_equivariance(self, n):
        """A = diag(-1, 1, ..., 1), B = 0, the explicit representative of the
        component of O(n; C) with det(A + iB) = -1, where random_group_element
        samples at odd seeds."""
        s = canonical_structure(n)
        elem = group_element_from_blocks(n, np.diag([-1.0] + [1.0] * (n - 1)), np.zeros((n, n)))
        assert validate_group_element(s, elem)
        for seed in range(3):
            f = random_structure_tensor(s, seed)
            af = act(s, elem, f)
            scale = max(1.0, _max_abs(f))
            for i in range(1, NUM_CLASSES + 1):
                diff = component(s, af, i) - act(s, elem, component(s, f, i))
                assert _max_abs(diff) <= 1e-12 * scale
