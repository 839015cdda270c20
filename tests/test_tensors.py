import itertools

import numpy as np
import pytest

from acbm import fileio
from acbm.decomposition import (
    classify,
    component,
    decompose,
    project_w,
)
from acbm.errors import PreconditionError
from acbm.group import act, random_group_element
from acbm.models import (
    check_jacobi,
    connection_residuals,
    koszul_connection,
    lie_family,
    sphere_structure_tensor,
    structure_tensor_from_connection,
)
from acbm.structure import _max_abs, canonical_structure
from acbm.tensors import (
    _require_structure_tensor,
    embed_structure_tensor,
    inner_product,
    is_structure_tensor,
    lee_forms,
    random_structure_tensor,
)

from conftest import f4_form, f8_form, random_structure


class TestMembership:
    def test_zero_tensor(self, s1):
        assert is_structure_tensor(s1, np.zeros((3, 3, 3)))

    def test_f8_form(self, s1):
        assert is_structure_tensor(s1, f8_form())

    @pytest.mark.parametrize(
        "entries, detail",
        [
            ({(0, 0, 1): 1.0, (1, 2, 0): 1.0}, "slot_symmetry residual 1.000e+00"),
            ({(0, 0, 0): 1.0, (0, 0, 1): 1e-10}, "phi_relation residual 1.000e+00"),
            ({(0, 0, 0): 1.0, (0, 0, 1): 2.5e-3},
             "slot_symmetry residual 2.500e-03, phi_relation residual 1.000e+00"),
        ],
        ids=["slot-symmetry", "phi-relation", "both"],
    )
    def test_refusal_names_each_residual_above_the_bound(self, s1, entries, detail):
        """The gate's one message: each membership residual above DEFAULT_RTOL
        times the tensor's max-abs, in .3e, and only those. F(xi, xi, xi) = 1
        breaks only the phi relation, which forces F(x, xi, xi) = 0."""
        c = np.zeros((3, 3, 3))
        for entry, value in entries.items():
            c[entry] = value
        assert not is_structure_tensor(s1, c)
        with pytest.raises(PreconditionError) as info:
            _require_structure_tensor(s1, c)
        assert str(info.value) == f"tensor is not an admissible structure tensor: {detail}"

    def test_dimension_mismatch(self, s1):
        with pytest.raises(ValueError):
            is_structure_tensor(s1, np.zeros((5, 5, 5)))

    @pytest.mark.parametrize("seed", range(10))
    def test_forced_vanishing_of_x_xi_xi(self, seed):
        n = 1 + seed % 3
        s = canonical_structure(n)
        f = random_structure_tensor(s, seed)
        slot = np.einsum("iab,a,b->i", f, s.xi, s.xi)
        np.testing.assert_allclose(slot, np.zeros(s.dim), atol=1e-12)


class TestEmbedding:
    @pytest.mark.parametrize("seed", range(100))
    def test_image_is_admissible(self, seed):
        """The embedding of a uniform draw from [-1, 1], which is what
        random_structure_tensor returns, is admissible and not 0, at n = 1..3 on
        canonical_structure(n) and random_structure(n, seed)."""
        for n, pushed in itertools.product((1, 2, 3), (False, True)):
            s = random_structure(n, seed) if pushed else canonical_structure(n)
            f = embed_structure_tensor(s, np.random.default_rng(seed).uniform(-1.0, 1.0, (s.dim,) * 3))
            np.testing.assert_array_equal(random_structure_tensor(s, seed), f)
            assert is_structure_tensor(s, f) and _max_abs(f) > 1e-6

    @pytest.mark.parametrize("seed", range(10))
    def test_idempotent(self, seed):
        n = 1 + seed % 3
        s = canonical_structure(n)
        f = random_structure_tensor(s, seed)
        again = embed_structure_tensor(s, f)
        assert _max_abs(again - f) <= 1e-12

    def test_preserves_admissible_exemplar(self, s1):
        f = f8_form()
        assert _max_abs(embed_structure_tensor(s1, f) - f) <= 1e-12

    def test_annihilates_pure_vertical(self, s1):
        c = np.zeros((3, 3, 3))
        c[0, 0, 0] = 1.0
        assert _max_abs(embed_structure_tensor(s1, c)) == 0.0


class TestRandomStructureTensor:
    def test_deterministic(self, s2):
        a = random_structure_tensor(s2, 123)
        b = random_structure_tensor(s2, 123)
        np.testing.assert_array_equal(a, b)

    def test_seed_sensitivity(self, s2):
        a = random_structure_tensor(s2, 0)
        b = random_structure_tensor(s2, 1)
        assert _max_abs(a - b) > 1e-6


class TestInnerProduct:
    def test_triple_negative_slot(self, s1):
        f = np.zeros((3, 3, 3))
        f[2, 2, 2] = 1.0
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

    @pytest.mark.parametrize(
        "where, message",
        [
            ("sum", r"^result overflows the floating-point range \(overflow encountered in matmul\)$"),
            ("pullback", r"^result overflows the floating-point range \(overflow encountered in matmul\)$"),
        ],
        ids=["sum", "pullback"],
    )
    def test_out_of_range_is_refused(self, where, message):
        """Finite operands whose contraction overflows: one error, no warning
        and no NaN. At max-abs 1e308 the inverse metric of the non-canonical
        structure (entries up to 1.5) already overflows the pullback."""
        if where == "sum":
            s, scale = canonical_structure(2), 1e200
        else:
            s, scale = random_structure(2, 0), 1e308
        f1, f2 = (scale / _max_abs(f) * f for f in (random_structure_tensor(s, i) for i in (0, 1)))
        with pytest.raises(ValueError, match=message):
            inner_product(s, f1, f2)


class TestLeeForms:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_row_product_per_form(self, n):
        """Each form is its own row product with its weights, bit for bit."""
        s = random_structure(n, n)
        f = random_structure_tensor(s, 0)
        c = f.reshape(s.dim**2, s.dim)
        h = s.g_inv - np.outer(s.xi, s.xi)
        lf = lee_forms(s, f)
        np.testing.assert_array_equal(lf.theta, h.ravel() @ c)
        np.testing.assert_array_equal(lf.theta_star, (h @ s.phi.T).ravel() @ c)
        np.testing.assert_array_equal(lf.omega, np.outer(s.xi, s.xi).ravel() @ c)

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


# Every public function that takes a (d, d, d) array, as f -> call on the
# structure s; its ValueError names the array a tensor unless ARRAY_NAMES says otherwise.
TENSOR_TAKERS = {
    "is_structure_tensor": lambda s, f: is_structure_tensor(s, f),
    "embed_structure_tensor": lambda s, f: embed_structure_tensor(s, f),
    "inner_product first": lambda s, f: inner_product(s, f, np.zeros((3, 3, 3))),
    "inner_product second": lambda s, f: inner_product(s, np.zeros((3, 3, 3)), f),
    "lee_forms": lambda s, f: lee_forms(s, f),
    "project_w": lambda s, f: project_w(s, f, 1),
    "component": lambda s, f: component(s, f, 1),
    "decompose": lambda s, f: decompose(s, f),
    "classify": lambda s, f: classify(s, f),
    "act": lambda s, f: act(s, np.eye(3), f),
    "tensor_to_doc": lambda s, f: fileio.tensor_to_doc(s, f),
    "structure_tensor_from_connection": lambda s, f: structure_tensor_from_connection(s, f),
    "connection_residuals connection": lambda s, f: connection_residuals(s, np.zeros((3, 3, 3)), f),
    "connection_residuals constants": lambda s, f: connection_residuals(s, f, np.zeros((3, 3, 3))),
    "koszul_connection": lambda s, f: koszul_connection(s, f),
    "check_jacobi": lambda s, f: check_jacobi(s, f),
    "lie_to_doc": lambda s, f: fileio.lie_to_doc(s, f),
}
ARRAY_NAMES = {
    "structure_tensor_from_connection": "connection",
    "connection_residuals connection": "connection",
    "connection_residuals constants": "structure constants",
    "koszul_connection": "structure constants",
    "check_jacobi": "structure constants",
    "lie_to_doc": "structure constants",
}


def _with(entry):
    c = np.zeros((3, 3, 3))
    c[0, 1, 1] = entry
    return c


def _nested_with(entry):
    """Nested lists of integer zeros with one entry replaced."""
    c = np.zeros((3, 3, 3), dtype=object)
    c[0, 1, 1] = entry
    return c.tolist()


def _nested(depth):
    """0.0 nested in depth lists; a numpy iterator takes at most 32 dimensions."""
    value = 0.0
    for _ in range(depth):
        value = [value]
    return value


class TestTensorInput:
    @pytest.mark.parametrize("name", TENSOR_TAKERS)
    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.zeros((3, 3, 2)), r"^{} must have shape \(3, 3, 3\), got \(3, 3, 2\)$"),
            (np.zeros((5, 5, 5)), r"^{} must have shape \(3, 3, 3\), got \(5, 5, 5\)$"),
            (_with(np.nan), "^{} contains non-finite entries$"),
            (_with(-np.inf), "^{} contains non-finite entries$"),
            (_nested_with("0.5"), "^{} must be an array of numbers$"),
            (_nested_with(True), "^{} must be an array of numbers$"),
            (np.zeros((3, 3, 3), dtype=bool), "^{} must be an array of numbers$"),
            (np.zeros((3, 3, 3), dtype=complex), "^{} must be an array of numbers$"),
            (_nested_with(10**400), "^{} contains an entry outside the float range$"),
            (np.zeros((3, 3)), r"^{} must have shape \(3, 3, 3\), got \(3, 3\)$"),
            (_nested(33), r"^{} must have shape \(3, 3, 3\), got \(1" + ", 1" * 32 + r"\)$"),
        ],
        ids=["not-a-cube", "wrong-dimension", "nan", "minus-inf", "string", "bool-among-integers",
             "bools", "complex", "huge-integer", "matrix", "nested-33-deep"],
    )
    def test_public_functions_refuse_a_malformed_tensor(self, s1, name, bad, message):
        with pytest.raises(ValueError, match=message.format(ARRAY_NAMES.get(name, "tensor"))) as info:
            TENSOR_TAKERS[name](s1, bad)
        assert type(info.value) is ValueError

    def test_array_likes_are_accepted(self, s1):
        f = random_structure_tensor(s1, 0)
        np.testing.assert_array_equal(lee_forms(s1, f.tolist()).theta, lee_forms(s1, f).theta)

    def test_returned_tensors_are_read_only(self, s2):
        f = random_structure_tensor(s2, 0)
        p2 = project_w(s2, f, 2)
        _, c = lie_family(2, [0.5, -1.0, 2.0, 0.25])  # on s2, the canonical structure
        results = [
            f,
            p2,
            component(s2, f, 3),
            embed_structure_tensor(s2, np.ones((5, 5, 5))),
            act(s2, random_group_element(2, 0), f),
            decompose(s2, f).components,
            sphere_structure_tensor(2, 0.3)[1],
            c,
            fileio.lie_from_doc(fileio.lie_to_doc(s2, c))[1],
            koszul_connection(s2, c),
            structure_tensor_from_connection(s2, koszul_connection(s2, c)),
            decompose(s2, f).magnitudes,
            classify(s2, f).magnitudes,
            *vars(lee_forms(s2, f)).values(),
            fileio.tensor_from_doc(fileio.tensor_to_doc(s2, f))[1],
        ]
        for t in results:
            assert not t.flags.writeable
            with pytest.raises(ValueError):
                t[(0,) * t.ndim] = 1.0
