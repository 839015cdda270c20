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
formulas collapse to nine coordinates read off the tensor; the dim3
verify suite checks decompose against them.

Component magnitudes are reported as max-abs of entries, never as the
induced inner product: the metric is indefinite and nonzero components
can be null.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .structure import (
    DEFAULT_RTOL, StructureData, _in_float_range, _integer, _max_abs, _max_abs_each, _real, _sealed,
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
    "component",
    "decompose",
    "classify",
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
    magnitudes: np.ndarray
    rel_tol: float
    input_magnitude: float
    reconstruction_residual: float

    @property
    def is_F0(self) -> bool:
        return not self.present

    def class_names(self) -> tuple:
        return tuple(CLASS_NAMES[i - 1] for i in self.present)


def _xi_bracket(c: np.ndarray, m1: np.ndarray, m2: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Matrix Q[i,j] = F(m1 e_i, m2 e_j, xi)."""
    return m1.T @ (c @ xi) @ m2


def _xi_first(c: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Matrix M[j,k] = F(xi, e_j, e_k)."""
    d = c.shape[-1]
    return (xi @ c.reshape(*c.shape[:-3], d, -1)).reshape(c.shape[:-1])


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
        return m_x_xi_z[..., :, None, :] * eta[:, None] + m_x_y_xi[..., :, :, None] * eta
    m_xi = _xi_first(c, xi)
    if i == 3:
        return eta[:, None, None] * (P.T @ m_xi @ P)[..., None, :, :]
    u = (xi @ m_xi) @ P
    w = (m_xi @ xi) @ P
    return -eta[:, None, None] * (eta[:, None] * u[..., None, :] + w[..., :, None] * eta)[..., None, :, :]


def _involution(s: StructureData, c: np.ndarray, j: int) -> np.ndarray:
    """The involutive isometry L_j (j = 1, 2) of the block W2, of the components c,
    unchecked, so that a suite can measure a broken component.

    L1 transposes the first two slots through phi^2; L2 replaces them
    by their phi images:

        L1(F)(x,y,z) = F(phi^2 y, phi^2 x, xi) eta(z)
                       + F(phi^2 z, phi^2 x, xi) eta(y)
        L2(F)(x,y,z) = F(phi x, phi y, xi) eta(z)
                       + F(phi x, phi z, xi) eta(y)

    Both read c only through F(phi^2 ., phi^2 ., xi) and F(phi ., phi ., xi),
    which p2 keeps, so on an admissible f the result is L_j(p2 f): it vanishes
    on W1, W3 and W4, and on W2 each operator is an involution. Their
    joint eigenspaces carve W2 into the classes F4..F9: L1 fixes F4+F5+F6+F8
    and negates F7+F9; L2 fixes F8+F9 and negates F4+F5+F6+F7.
    """
    if j == 1:
        return _sym_pair(_xi_bracket(c, s.phi2, s.phi2, s.xi).swapaxes(-1, -2), s.eta)
    return _sym_pair(_xi_bracket(c, s.phi, s.phi, s.xi), s.eta)


def _component_arrays(s: StructureData, c: np.ndarray) -> dict:
    """The components of the checked tensor c in F1 and F4..F11, as {i: array}, in one pass:
    the Lee forms and the xi-brackets a and b are each built once, and F2, F3 are _w1_pair's."""
    phi, xi, eta, P = s.phi, s.xi, s.eta, s.phi2
    two_n = 2 * s.n
    lf = _lee_forms(s, c)
    t_phi = (lf.theta @ phi)[..., None, None, :]  # phi^T theta
    t_phi2 = (lf.theta @ P)[..., None, None, :]
    f1 = s.phi_g_phi[:, :, None] * t_phi2 + s.g_phi[:, :, None] * t_phi
    f1 += s.phi_g_phi[:, None, :] * t_phi2.swapaxes(-1, -2) + s.g_phi[:, None, :] * t_phi.swapaxes(-1, -2)
    # theta(xi) and theta*(xi), one per tensor, kept as (..., 1, 1, 1) by a (d, 1) xi
    f4 = -((lf.theta @ xi[:, None])[..., None, None] / two_n) * _sym_pair(s.phi_g_phi, eta)
    f5 = -((lf.theta_star @ xi[:, None])[..., None, None] / two_n) * _sym_pair(s.g_phi, eta)
    a = _xi_bracket(c, P, P, xi)  # F(phi^2 x, phi^2 y, xi)
    b = _xi_bracket(c, phi, phi, xi)  # F(phi x, phi y, xi)
    a_t, b_t = a.swapaxes(-1, -2), b.swapaxes(-1, -2)
    return {
        1: f1 / two_n,
        4: f4,
        5: f5,
        6: (-f4) - f5 + _sym_pair((a + a_t - b - b_t) / 4, eta),
        7: _sym_pair((a - a_t - b + b_t) / 4, eta),
        8: _sym_pair((a + a_t + b + b_t) / 4, eta),
        9: _sym_pair((a - a_t + b - b_t) / 4, eta),
        10: _block(s, c, 3),
        11: _block(s, c, 4),
    }


def _w1_pair(s: StructureData, c: np.ndarray, f1: np.ndarray) -> tuple:
    """F2 and F3 of the checked tensor c from its F1 and six slot-permuted pullbacks,
    the kernel's one O(d^6) step, so it runs only when F2 or F3 is asked for.

    A stack is copied so that its tensors lie innermost in memory, shape unchanged:
    einsum's inner loop then runs over the tensors, while each sum over (a, b, c)
    keeps its order. One tensor keeps its own layout."""
    phi, P = s.phi, s.phi2
    d = c.shape[-1]
    c = c.reshape(-1, d, d, d).transpose(1, 2, 3, 0).copy().transpose(3, 0, 1, 2).reshape(c.shape)
    t_xyz = np.einsum("...abc,ai,bj,ck->...ijk", c, P, P, P)  # F(p x, p y, p z), p = phi^2
    t_yzx = np.einsum("...abc,aj,bk,ci->...ijk", c, P, P, P)  # F(p y, p z, p x)
    t_yx = np.einsum("...abc,aj,bk,ci->...ijk", c, phi, P, phi)  # F(phi y, p z, phi x)
    t_xzy = np.einsum("...abc,ai,bk,cj->...ijk", c, P, P, P)  # F(p x, p z, p y)
    t_zyx = np.einsum("...abc,ak,bj,ci->...ijk", c, P, P, P)  # F(p z, p y, p x)
    t_zx = np.einsum("...abc,ak,bj,ci->...ijk", c, phi, P, phi)  # F(phi z, p y, phi x)
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
    _scale(f), the max-abs of f; past DEFAULT_RTOL it raises
    PreconditionError. classify passes the same door, _admitted.
    """
    return Decomposition(*_admitted(s, _tensor(s, f)))


def _admitted(s: StructureData, c: np.ndarray) -> tuple:
    """The one door of decompose and classify: the checked tensor c gated, decomposed, and refused
    unless its components sum back to it within DEFAULT_RTOL relative to _scale(c), which on
    admissible input is rounding noise at any scale. Returns (components, magnitudes, residual)."""
    _require_structure_tensor(s, c)
    stack, magnitudes, (residual,) = _decompose_many(s, c[None])
    if not residual <= DEFAULT_RTOL:
        raise PreconditionError(f"components do not sum back to the tensor: reconstruction residual {residual:.3e}")
    return stack[0], magnitudes[0], float(residual)


def _decompose_many(s: StructureData, cs: np.ndarray) -> tuple:
    """The bare kernel: the tensors cs, shape (N, d, d, d), split into the sealed (N, 11, d, d, d)
    stack of their components, the (N, 11) magnitudes and the N reconstruction residuals, each on
    its tensor's own _scale. It gates and refuses nothing, so that a suite measures a tensor
    outside the admissible space as a failed check; _admitted is the public maps' door."""
    arrays = _component_arrays(s, cs)
    arrays[2], arrays[3] = _w1_pair(s, cs, arrays[1])
    # popped, so that the components are not held next to the stack
    stack = _sealed(np.stack([arrays.pop(i) for i in range(1, NUM_CLASSES + 1)], axis=1))
    residuals = np.abs(stack.sum(axis=1) - cs).max(axis=(1, 2, 3)) / _scale(cs)
    return stack, _sealed(np.abs(stack).max(axis=(2, 3, 4))), residuals


# Per class F6..F9, the signs s, t in the conditions D = s D^T and D = t B
# on D = F(x, y, xi) and B = F(phi x, phi y, xi).
_W2_SIGNS = {6: (1.0, -1.0), 7: (-1.0, -1.0), 8: (1.0, 1.0), 9: (-1.0, 1.0)}


def _class_residual(s: StructureData, c: np.ndarray, i: int) -> np.ndarray:
    """Worst residual of the defining identities of class F_i for the checked tensor c, with
    the auxiliary ones: vanishing Lee forms of F2 and F6, cyclic sums of F2 and F3. A stack
    c of shape (N, d, d, d) gets one residual per tensor."""
    lead = c.shape[:-3]
    if i in (1, 4, 5):
        return _max_abs_each(lead, c - _component_arrays(s, c)[i])
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
        return _max_abs_each(lead, recon, d_mat - sym * d_mat.swapaxes(-1, -2), d_mat - phi_sign * b_mat, *extra)
    first = _xi_first(c, xi)  # F(xi, y, z)
    if i in (2, 3):
        cp = c @ phi if i == 2 else c  # F(x, y, phi z) or F
        cyc = cp + np.moveaxis(cp, -3, -1) + np.moveaxis(cp, -1, -3)
        extra = (_lee_forms(s, c).theta,) if i == 2 else ()
        return _max_abs_each(lead, first, xi @ c, cyc, *extra)
    if i == 10:  # eta(x) F(xi, phi y, phi z)
        return _max_abs_each(lead, c - eta[:, None, None] * (phi.T @ first @ phi)[..., None, :, :])
    omega = xi @ first  # F(xi, xi, z)
    pair = eta[:, None] * omega[..., None, :] + omega[..., :, None] * eta
    return _max_abs_each(lead, c - eta[:, None, None] * pair[..., None, :, :])


def _present(magnitudes: np.ndarray, cs: np.ndarray, rel_tol: float) -> list:
    """The class verdict of each tensor of the stack cs, from its (N, 11) magnitudes: the
    tuple of the classes i whose magnitude exceeds rel_tol * _scale of that tensor."""
    over = magnitudes > rel_tol * _scale(cs)[:, None]
    return [tuple(i for i in range(1, NUM_CLASSES + 1) if row[i - 1]) for row in over]


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
    _, magnitudes, residual = _admitted(s, c)
    return ClassReport(
        present=_present(magnitudes[None], c[None], rel_tol)[0],
        magnitudes=magnitudes,
        rel_tol=rel_tol,
        input_magnitude=_max_abs(c),
        reconstruction_residual=residual,
    )
