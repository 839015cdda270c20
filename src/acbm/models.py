"""Example models and the dimension-3 fast path.

Two sources of concrete structure tensors:

* a family of solvable Lie algebras carrying a left-invariant almost
  contact B-metric structure, where the tensor is computed from the
  structure constants through the Koszul formula for the Levi-Civita
  connection. A Lie algebra is passed as (s, c), like a tensor: its structure
  s and its (d, d, d) bracket table, c[i, j, k] the E_k part of [E_i, E_j];
* the unit time-like sphere, realized directly from the closed form of
  its structure tensor at a point (the ambient hypersurface derivation
  is out of scope; the closed form fully exercises the classifier).

For dimension 3 over the canonical structure the eleven component
formulas collapse to nine coordinates read off the tensor; this module
provides that fast path, which the dim3 verify suite checks against
decompose.
"""

from __future__ import annotations

import math

import numpy as np

from .decomposition import NUM_CLASSES, Decomposition, _decomposition
from .errors import PreconditionError
from .structure import (
    DEFAULT_ATOL,
    StructureData,
    _as_float_array,
    _in_float_range,
    _max_abs,
    _real,
    _sealed,
    canonical_structure,
    is_canonical_basis,
)
from .tensors import _require_structure_tensor, _sym_pair, _tensor

__all__ = [
    "lie_family",
    "check_jacobi",
    "koszul_connection",
    "connection_residuals",
    "structure_tensor_from_connection",
    "sphere_structure_tensor",
    "dim3_decompose",
]


def lie_family(n: int, a) -> tuple:
    """(s, c): the 2n-parameter solvable family on the canonical structure s.

    Brackets, for i in 1..n and parameters a_1..a_2n:

        [E_0, E_i]     = -a_i E_i - a_(n+i) E_(n+i)
        [E_0, E_(n+i)] = -a_(n+i) E_i + a_i E_(n+i)

    and zero otherwise. In dimension 3 the resulting structure tensor
    lies in the class F9 + F10, with the F9 coefficient a_1 and the
    F10 coefficient -2 a_2.
    """
    s = canonical_structure(n)
    n, d = s.n, s.dim
    a = _as_float_array(a, (2 * n,), "parameter vector")
    c = np.zeros((d, d, d))
    for i in range(1, n + 1):
        c[0, i, i] = -a[i - 1]
        c[0, i, n + i] = -a[n + i - 1]
        c[0, n + i, i] = -a[n + i - 1]
        c[0, n + i, n + i] = a[i - 1]
    c[1:, 0, :] = -c[0, 1:, :]
    return s, _sealed(c)


def _unit_bracket_table(c: np.ndarray) -> np.ndarray:
    """The checked bracket table c over its max-abs entry m (the zero table as is), refused
    unless antisymmetric within DEFAULT_ATOL relative to m: the precondition of a bracket
    table for check_jacobi and fileio.lie_to_doc alike. No later product overflows."""
    m = float(np.max(np.abs(c)))
    if m == 0.0:
        return c
    c = c / m
    antisym = float(np.max(np.abs(c + c.transpose(1, 0, 2))))
    if antisym > DEFAULT_ATOL:
        raise PreconditionError(f"bracket table is not antisymmetric (residual {antisym:.3e})")
    return c


@_in_float_range
def check_jacobi(s: StructureData, c) -> bool:
    """True iff the Jacobi cyclic sum of the bracket table c vanishes on all basis triples.

    Rejects a non-antisymmetric table outright (_unit_bracket_table). The
    Jacobi sum, quadratic in the table, is judged relative to m^2, m the
    max-abs entry, within DEFAULT_ATOL. The zero table is abelian.
    """
    c = _unit_bracket_table(_tensor(s, c, "structure constants"))
    d = s.dim
    # m[i, j, k, l] = sum_m c[i, j, m] c[k, m, l], the E_l part of [[E_i, E_j], E_k]
    m = (c.reshape(d * d, d) @ c.transpose(1, 0, 2).reshape(d, d * d)).reshape(d, d, d, d)
    jac = m + m.transpose(2, 0, 1, 3) + m.transpose(1, 2, 0, 3)
    return _max_abs(jac) <= DEFAULT_ATOL


@_in_float_range
def koszul_connection(s: StructureData, c) -> np.ndarray:
    """Christoffel array gamma of the left-invariant Levi-Civita connection.

    gamma[i, j, k] is the E_k part of nabla_{E_i} E_j, solved from

        2 g(nabla_{E_i} E_j, E_k) = g([E_i, E_j], E_k)
                                    + g([E_k, E_i], E_j)
                                    + g([E_k, E_j], E_i)

    by one dense linear solve against g for all d^2 pairs (i, j). The
    result is torsion-free and metric-compatible on all basis triples.
    """
    cg = _tensor(s, c, "structure constants") @ s.g  # g([E_i, E_j], E_k)
    rhs = cg + cg.transpose(1, 2, 0) + cg.transpose(2, 1, 0)
    return _sealed(np.linalg.solve(s.g, 0.5 * rhs.reshape(-1, s.dim).T).T.reshape(cg.shape))


@_in_float_range
def connection_residuals(s: StructureData, c, gamma) -> tuple:
    """(torsion, metric-compatibility) worst-case residuals of a Christoffel array
    gamma, against the bracket table c."""
    c, gamma = _tensor(s, c, "structure constants"), _tensor(s, gamma, "connection")
    torsion = gamma - gamma.transpose(1, 0, 2) - c
    gg = gamma @ s.g  # g(nabla_{E_i} E_j, E_k)
    return float(np.max(np.abs(torsion))), float(np.max(np.abs(gg + gg.transpose(0, 2, 1))))


@_in_float_range
def structure_tensor_from_connection(s: StructureData, gamma) -> np.ndarray:
    """F(x, y, z) = g((nabla_x phi) y, z) in the left-invariant frame.

    phi has constant components there, so (nabla_{E_i} phi) E_j =
    nabla_{E_i}(phi E_j) - phi(nabla_{E_i} E_j). The result always
    satisfies the two defining identities of the admissible space.
    """
    gamma = _tensor(s, gamma, "connection")
    return _sealed((s.phi.T @ gamma - gamma @ s.phi.T) @ s.g)


def sphere_structure_tensor(n: int, t: float) -> tuple:
    """Structure data and tensor of the unit time-like sphere at a point.

    The tensor has the closed form

        F(x,y,z) = -cos t { g(phi x, phi y) eta(z) + g(phi x, phi z) eta(y) }
                   -sin t { g(x, phi y) eta(z) + g(x, phi z) eta(y) }

    so the Lee values satisfy theta(xi) = 2n cos t and theta*(xi) =
    2n sin t, and classification always lands in a subset of {F4, F5}.
    Any finite real t is accepted, as the formula is periodic; a bool, a
    non-real or a non-finite t is one ValueError naming t.
    """
    s, t = canonical_structure(n), _real(t, "t")
    comps = -math.cos(t) * _sym_pair(s.phi_g_phi, s.eta) - math.sin(t) * _sym_pair(s.g_phi, s.eta)
    return s, _sealed(comps)


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
