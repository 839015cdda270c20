"""The eleven-class orthogonal decomposition of the admissible space.

Four mutually orthogonal blocks W1..W4 are cut out by projectors built
from phi^2 and the Reeb direction:

    p1(F)(x,y,z) = -F(phi^2 x, phi^2 y, phi^2 z)
    p2(F)(x,y,z) = eta(y) F(phi^2 x, xi, phi^2 z)
                   + eta(z) F(phi^2 x, phi^2 y, xi)
    p3(F)(x,y,z) = eta(x) F(xi, phi^2 y, phi^2 z)
    p4(F)(x,y,z) = -eta(x) { eta(y) F(xi, xi, phi^2 z)
                             + eta(z) F(xi, phi^2 y, xi) }

and p1 + p2 + p3 + p4 is the identity on the admissible space. W1
splits into classes F1, F2, F3 (the traceful part, a cyclic part and
its complement on the contact distribution), W2 splits into F4..F9 via
two commuting involutions, W3 = F10 and W4 = F11. Class F0 is the zero
tensor, contained in every class.

For dimension 3 over the canonical structure the eleven component
formulas collapse to nine coordinates read off the tensor: dim3_decompose,
which the dim3 verify suite checks against decompose.

Component magnitudes are reported as max-abs of entries, never as the
induced inner product: the metric is indefinite and nonzero components
can be null.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .structure import (
    DEFAULT_RTOL, StructureData, _in_float_range, _integer, _max_abs, _real, _sealed, is_canonical_basis,
)
from .tensors import (
    _lee_forms,
    _pullback,
    _require_structure_tensor,
    _scale,
    _sym_pair,
    _tensor,
)

__all__ = [
    "CLASS_NAMES",
    "NUM_CLASSES",
    "Decomposition",
    "ClassReport",
    "project_w",
    "w2_involution",
    "component",
    "decompose",
    "classify",
    "dim3_decompose",
]

NUM_CLASSES = 11
CLASS_NAMES = tuple(f"F{i}" for i in range(1, NUM_CLASSES + 1))


@dataclass(frozen=True, eq=False)
class Decomposition:
    """The eleven components of a tensor with their max-abs magnitudes.

    components is one read-only (11, d, d, d) array; components[i - 1] is
    the F_i component. The components sum back to the input (residual
    recorded relative to the input magnitude, and checked) and are
    pairwise orthogonal under the induced inner product.
    """

    components: np.ndarray
    magnitudes: np.ndarray
    reconstruction_residual: float


@dataclass(frozen=True, eq=False)
class ClassReport:
    """Classification outcome: which basic classes are present.

    A class index is present when its component magnitude exceeds
    rel_tol times the input magnitude (tensors._scale). is_F0 holds exactly
    when no class is present. All magnitudes are retained for auditability.
    """

    present: tuple
    is_F0: bool
    magnitudes: np.ndarray
    rel_tol: float
    input_magnitude: float
    reconstruction_residual: float

    def class_names(self) -> tuple:
        return tuple(CLASS_NAMES[i - 1] for i in self.present)


def _xi_bracket(c: np.ndarray, m1: np.ndarray, m2: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Matrix Q[i,j] = F(m1 e_i, m2 e_j, xi)."""
    return m1.T @ (c @ xi) @ m2


def _xi_first(c: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Matrix M[j,k] = F(xi, e_j, e_k)."""
    d = c.shape[0]
    return (xi @ c.reshape(d, -1)).reshape(d, d)


@_in_float_range
def project_w(s: StructureData, f, i: int) -> np.ndarray:
    """Projection p_i(f) onto the block W_i, i in 1..4.

    Requires f admissible, as decompose does. p4 is computed from its
    explicit formula; it agrees with f - p1(f) - p2(f) - p3(f).
    """
    c = _tensor(s, f)
    _require_structure_tensor(s, c)
    return _sealed(_block(s, c, _integer(i, "block index", 1, 4)))


def _block(s: StructureData, c: np.ndarray, i: int) -> np.ndarray:
    """Components of p_i(F), from the components c of F."""
    xi, eta, P = s.xi, s.eta, s.phi2
    if i == 1:
        return -_pullback(c, P, P, P)
    if i == 2:
        m_x_xi_z = P.T @ (xi @ c) @ P
        m_x_y_xi = _xi_bracket(c, P, P, xi)
        return m_x_xi_z[:, None, :] * eta[:, None] + m_x_y_xi[:, :, None] * eta
    m_xi = _xi_first(c, xi)
    if i == 3:
        return eta[:, None, None] * (P.T @ m_xi @ P)
    u = (xi @ m_xi) @ P
    w = (m_xi @ xi) @ P
    return -eta[:, None, None] * (np.outer(eta, u) + np.outer(w, eta))


@_in_float_range
def w2_involution(s: StructureData, f, j: int) -> np.ndarray:
    """The involutive isometries L1, L2 of the block W2.

    L1 transposes the first two slots through phi^2; L2 replaces them
    by their phi images:

        L1(F)(x,y,z) = F(phi^2 y, phi^2 x, xi) eta(z)
                       + F(phi^2 z, phi^2 x, xi) eta(y)
        L2(F)(x,y,z) = F(phi x, phi y, xi) eta(z)
                       + F(phi x, phi z, xi) eta(y)

    Both read f only through F(phi^2 ., phi^2 ., xi) and F(phi ., phi ., xi),
    which p2 keeps, so the result is L_j(p2 f): it vanishes on W1, W3 and W4,
    and on W2 each operator is an involution. Their joint eigenspaces carve
    W2 into the classes F4..F9: L1 fixes F4+F5+F6+F8 and negates F7+F9; L2
    fixes F8+F9 and negates F4+F5+F6+F7. Requires f admissible, as
    decompose does.
    """
    c = _tensor(s, f)
    _require_structure_tensor(s, c)
    return _sealed(_involution(s, c, _integer(j, "involution index", 1, 2)))


def _involution(s: StructureData, c: np.ndarray, j: int) -> np.ndarray:
    """L_j of the components c, unchecked, so that a suite can measure a broken component."""
    if j == 1:
        return _sym_pair(_xi_bracket(c, s.phi2, s.phi2, s.xi).T, s.eta)
    return _sym_pair(_xi_bracket(c, s.phi, s.phi, s.xi), s.eta)


def _component_arrays(s: StructureData, c: np.ndarray) -> dict:
    """The components of the checked tensor c in F1 and F4..F11, as {i: array}, in one pass:
    the Lee forms and the xi-brackets a and b are each built once, and F2, F3 are _w1_pair's."""
    phi, xi, eta, P = s.phi, s.xi, s.eta, s.phi2
    two_n = 2 * s.n
    lf = _lee_forms(s, c)
    t_phi = phi.T @ lf.theta
    t_phi2 = P.T @ lf.theta
    f1 = s.phi_g_phi[:, :, None] * t_phi2 + s.g_phi[:, :, None] * t_phi
    f1 += s.phi_g_phi[:, None, :] * t_phi2[:, None] + s.g_phi[:, None, :] * t_phi[:, None]
    f4 = -(lf.theta @ xi / two_n) * _sym_pair(s.phi_g_phi, eta)
    f5 = -(lf.theta_star @ xi / two_n) * _sym_pair(s.g_phi, eta)
    a = _xi_bracket(c, P, P, xi)  # F(phi^2 x, phi^2 y, xi)
    b = _xi_bracket(c, phi, phi, xi)  # F(phi x, phi y, xi)
    return {
        1: f1 / two_n,
        4: f4,
        5: f5,
        6: (-f4) - f5 + _sym_pair((a + a.T - b - b.T) / 4, eta),
        7: _sym_pair((a - a.T - b + b.T) / 4, eta),
        8: _sym_pair((a + a.T + b + b.T) / 4, eta),
        9: _sym_pair((a - a.T + b - b.T) / 4, eta),
        10: _block(s, c, 3),
        11: _block(s, c, 4),
    }


def _w1_pair(s: StructureData, c: np.ndarray, f1: np.ndarray) -> tuple:
    """F2 and F3 of the checked tensor c from its F1 and six slot-permuted pullbacks,
    the kernel's one O(d^6) step, so it runs only when F2 or F3 is asked for."""
    phi, P = s.phi, s.phi2
    t_xyz = np.einsum("abc,ai,bj,ck->ijk", c, P, P, P)  # F(p x, p y, p z), p = phi^2
    t_yzx = np.einsum("abc,aj,bk,ci->ijk", c, P, P, P)  # F(p y, p z, p x)
    t_yx = np.einsum("abc,aj,bk,ci->ijk", c, phi, P, phi)  # F(phi y, p z, phi x)
    t_xzy = np.einsum("abc,ai,bk,cj->ijk", c, P, P, P)  # F(p x, p z, p y)
    t_zyx = np.einsum("abc,ak,bj,ci->ijk", c, P, P, P)  # F(p z, p y, p x)
    t_zx = np.einsum("abc,ak,bj,ci->ijk", c, phi, P, phi)  # F(phi z, p y, phi x)
    return (
        -(t_xyz + t_yzx - t_yx + t_xzy + t_zyx - t_zx) / 4 - f1,
        -(t_xyz - t_yzx + t_yx + t_xzy - t_zyx + t_zx) / 4,
    )


@_in_float_range
def component(s: StructureData, f, i: int) -> np.ndarray:
    """The component of f in the basic class F_i, i in 1..11.

    F1, F4, F5, F6 use Lee-form contractions of f; F2, F3 subtract the
    traceful part from slot-permuted pullbacks on the contact
    distribution; F6..F9 are assembled from the symmetrized brackets
    F(phi^2 ., phi^2 ., xi) and F(phi ., phi ., xi); F10 and F11 are
    the W3 and W4 projections. Requires f admissible, as decompose does.
    """
    c = _tensor(s, f)
    _require_structure_tensor(s, c)
    i = _integer(i, "class index", 1, NUM_CLASSES)
    arrays = _component_arrays(s, c)
    if i in (2, 3):
        arrays[2], arrays[3] = _w1_pair(s, c, arrays[1])
    return _sealed(arrays[i])


@_in_float_range
def decompose(s: StructureData, f) -> Decomposition:
    """All eleven components of f with magnitudes and reconstruction residual.

    Requires f admissible (the one gate, _require_structure_tensor): the
    component formulas are only meaningful on the admissible space. The
    recorded residual is max-abs(sum of components - f) relative to
    _scale(f), the max-abs of f; past the fixed bound of _decomposition
    it raises PreconditionError.
    """
    return _decompose(s, _tensor(s, f))


def _decompose(s: StructureData, c: np.ndarray) -> Decomposition:
    _require_structure_tensor(s, c)
    arrays = _component_arrays(s, c)
    arrays[2], arrays[3] = _w1_pair(s, c, arrays[1])
    return _decomposition(c, np.stack([arrays[i] for i in range(1, NUM_CLASSES + 1)]))


def _decomposition(c: np.ndarray, stack: np.ndarray) -> Decomposition:
    """The checked tensor c split into one sealed (11, d, d, d) stack.

    The components must sum back to c within DEFAULT_RTOL relative to
    _scale(c): on admissible input the difference is rounding noise at any
    scale.
    """
    stack = _sealed(stack)
    total = np.zeros_like(c)
    for a in stack:
        total = total + a
    residual = _max_abs(total - c) / _scale(c)
    if residual > DEFAULT_RTOL:
        raise PreconditionError(
            f"components do not sum back to the tensor: reconstruction residual {residual:.3e}"
        )
    return Decomposition(
        components=stack,
        magnitudes=_sealed(np.max(np.abs(stack), axis=(1, 2, 3))),
        reconstruction_residual=residual,
    )


# Per class F6..F9, the signs s, t in the conditions D = s D^T and D = t B
# on D = F(x, y, xi) and B = F(phi x, phi y, xi).
_W2_SIGNS = {6: (1.0, -1.0), 7: (-1.0, -1.0), 8: (1.0, 1.0), 9: (-1.0, 1.0)}


def _class_residual(s: StructureData, c: np.ndarray, i: int) -> float:
    """Worst residual of the defining identities of class F_i for the checked tensor c, with
    the auxiliary ones: vanishing Lee forms of F2 and F6, cyclic sums of F2 and F3."""
    if i in (1, 4, 5):
        return _max_abs(c - _component_arrays(s, c)[i])
    phi, xi, eta = s.phi, s.xi, s.eta
    if i in _W2_SIGNS:
        d_mat = c @ xi  # F(x, y, xi)
        b_mat = _xi_bracket(c, phi, phi, xi)  # F(phi x, phi y, xi)
        sym, phi_sign = _W2_SIGNS[i]
        extra = ()
        if i == 6:
            lf = _lee_forms(s, c)
            extra = (lf.theta, lf.theta_star)
        recon = c - _sym_pair(d_mat, eta)
        return _max_abs(recon, d_mat - sym * d_mat.T, d_mat - phi_sign * b_mat, *extra)
    first = _xi_first(c, xi)  # F(xi, y, z)
    if i in (2, 3):
        cp = c @ phi if i == 2 else c  # F(x, y, phi z) or F
        cyc = cp + cp.transpose(1, 2, 0) + cp.transpose(2, 0, 1)
        extra = (_lee_forms(s, c).theta,) if i == 2 else ()
        return _max_abs(first, xi @ c, cyc, *extra)
    if i == 10:
        return _max_abs(c - eta[:, None, None] * (phi.T @ first @ phi))  # eta(x) F(xi, phi y, phi z)
    omega = xi @ first  # F(xi, xi, z)
    return _max_abs(c - eta[:, None, None] * (np.outer(eta, omega) + np.outer(omega, eta)))


@_in_float_range
def classify(s: StructureData, f, rel_tol: float = DEFAULT_RTOL) -> ClassReport:
    """Classify f into a direct sum of basic classes.

    Class i is reported present iff its component magnitude exceeds
    rel_tol * _scale(f), rel_tol times the max-abs of f, so lam f has the
    classes of f; F0 means nothing is present. rel_tol (finite, > 0) sets
    only this class threshold: the admissibility gate of decompose is
    fixed. It is echoed in the report for reproducibility.
    """
    rel_tol = _real(rel_tol, "rel_tol", positive=True)
    c = _tensor(s, f)
    dec = _decompose(s, c)
    threshold = rel_tol * _scale(c)
    present = tuple(
        i for i in range(1, NUM_CLASSES + 1) if dec.magnitudes[i - 1] > threshold
    )
    return ClassReport(
        present=present,
        is_F0=not present,
        magnitudes=dec.magnitudes,
        rel_tol=rel_tol,
        input_magnitude=_max_abs(c),
        reconstruction_residual=dec.reconstruction_residual,
    )


def _canonical_dim3(s: StructureData, f) -> np.ndarray:
    """f checked by _tensor for a canonical dimension-3 structure s, and admitted by the gate
    decompose asks (_require_structure_tensor): for n = 1 its two identities are the eighteen
    entry relations the closed forms rely on (F101 = F110, F222 = F211, F000 = 0, ...)."""
    if s.dim != 3:
        raise ValueError(f"expected a dimension-3 structure, got dimension {s.dim}")
    if not is_canonical_basis(s):
        raise PreconditionError("structure is not canonical; the dimension-3 closed forms need it")
    c = _tensor(s, f)
    _require_structure_tensor(s, c)
    return c


@_in_float_range
def dim3_decompose(s: StructureData, f) -> Decomposition:
    """decompose(s, f) by the closed forms of dimension 3 over the canonical s.

    With Fijk = F(e_i, e_j, e_k), each class reads its coordinates straight
    from the tensor, nine in all, as the admissible space at n = 1 has
    dimension 9:

        F1:  theta(e_1) = F111 - F221,  theta(e_2) = F112 - F211
        F4:  (F110 - F220) / 2          F8:  (F110 + F220) / 2
        F5:  (F120 + F210) / 2          F9:  (F120 - F210) / 2
        F10: F011                       F11: F001, F002

    F2, F3, F6 and F7 are identically zero in dimension 3. Requires the
    canonical s and f admissible (_canonical_dim3); matches decompose then.
    """
    c = _canonical_dim3(s, f)
    out = np.zeros((NUM_CLASSES, 3, 3, 3))
    f1, _, _, f4, f5, _, _, f8, f9, f10, f11 = out
    th1, th2 = c[1, 1, 1] - c[2, 2, 1], c[1, 1, 2] - c[2, 1, 1]  # theta(e_1), theta(e_2)
    f1[1, 1, 1] = f1[1, 2, 2] = th1
    f1[2, 1, 1] = f1[2, 2, 2] = -th2
    half = 0.5 * (c[1, 1, 0] - c[2, 2, 0])
    f4[1, 0, 1] = f4[1, 1, 0] = half
    f4[2, 0, 2] = f4[2, 2, 0] = -half
    f5[1, 0, 2] = f5[1, 2, 0] = f5[2, 0, 1] = f5[2, 1, 0] = 0.5 * (c[1, 2, 0] + c[2, 1, 0])
    f8[1, 0, 1] = f8[1, 1, 0] = f8[2, 0, 2] = f8[2, 2, 0] = 0.5 * (c[1, 1, 0] + c[2, 2, 0])
    mu = 0.5 * (c[1, 2, 0] - c[2, 1, 0])
    f9[1, 0, 2] = f9[1, 2, 0] = mu
    f9[2, 0, 1] = f9[2, 1, 0] = -mu
    f10[0, 1, 1] = f10[0, 2, 2] = c[0, 1, 1]
    f11[0, 1, 0] = f11[0, 0, 1] = c[0, 0, 1]
    f11[0, 2, 0] = f11[0, 0, 2] = c[0, 0, 2]
    return _decomposition(c, out)
