"""Example models: two sources of concrete structure tensors.

* a family of solvable Lie algebras carrying a left-invariant almost
  contact B-metric structure, where the tensor is computed from the
  structure constants through the Koszul formula for the Levi-Civita
  connection. A Lie algebra is passed as (s, c), like a tensor: its structure
  s and its (d, d, d) bracket table, c[i, j, k] the E_k part of [E_i, E_j].
  Each Lie map calls its private body, which takes (K, d, d, d) stacks, on a stack of one;
* the unit time-like sphere, realized directly from the closed form of
  its structure tensor at a point (the ambient hypersurface derivation
  is out of scope; the closed form fully exercises the classifier).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PreconditionError
from .structure import (
    DEFAULT_ATOL,
    StructureData,
    _as_float_array,
    _in_float_range,
    _real,
    _sealed,
    canonical_structure,
)
from .tensors import _sym_pair, _tensor

__all__ = [
    "lie_family",
    "check_jacobi",
    "koszul_connection",
    "structure_tensor_from_connection",
    "sphere_structure_tensor",
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
    a = _as_float_array(a, (2 * s.n,), "parameter vector")
    return s, _sealed(_lie_tables(s.n, a[None]))[0]


def _lie_tables(n: int, params: np.ndarray) -> np.ndarray:
    """lie_family's bracket table of each row of the (K, 2n) parameter stack params."""
    i, a, b = np.arange(1, n + 1), params[:, :n], params[:, n:]
    c = np.zeros((len(params),) + (2 * n + 1,) * 3)
    c[:, 0, i, i], c[:, 0, i, n + i], c[:, 0, n + i, i], c[:, 0, n + i, n + i] = -a, -b, -b, a
    c[:, 1:, 0, :] = -c[:, 0, 1:, :]
    return c


def _unit(cs: np.ndarray) -> np.ndarray:
    """Each table of cs over its max-abs entry m (the zero table as is): no later product overflows."""
    m = np.abs(cs).max(axis=(-3, -2, -1), keepdims=True)
    return cs / np.where(m == 0.0, 1.0, m)


def _unit_bracket_table(c: np.ndarray) -> np.ndarray:
    """The checked bracket table c over its max-abs entry m (_unit), refused unless
    antisymmetric within DEFAULT_ATOL relative to m: the precondition of a bracket
    table for check_jacobi and fileio.lie_to_doc alike."""
    c = _unit(c)
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
    return float(_jacobi(c[None])[0]) <= DEFAULT_ATOL


def _jacobi(cs: np.ndarray) -> np.ndarray:
    """The max-abs Jacobi cyclic sum of each table of the stack cs, taken over its max-abs entry."""
    k, d, u = len(cs), cs.shape[-1], _unit(cs)
    # m[., i, j, k, l] = sum_m c[i, j, m] c[k, m, l], the E_l part of [[E_i, E_j], E_k]
    m = (u.reshape(k, d * d, d) @ u.swapaxes(1, 2).reshape(k, d, d * d)).reshape(k, d, d, d, d)
    jac = m + m.transpose(0, 3, 1, 2, 4)
    jac += m.transpose(0, 2, 3, 1, 4)  # in place: a stack's memory holds two (K, d^4) arrays at most
    return np.abs(jac, out=jac).max(axis=(1, 2, 3, 4))


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
    return _sealed(_koszul(s, _tensor(s, c, "structure constants")[None]))[0]


def _koszul(s: StructureData, cs: np.ndarray) -> np.ndarray:
    """koszul_connection of each table of the stack cs, by one solve for all K d^2 pairs."""
    cg = cs @ s.g  # g([E_i, E_j], E_k)
    rhs = cg + cg.transpose(0, 2, 3, 1) + cg.transpose(0, 3, 2, 1)
    return np.linalg.solve(s.g, 0.5 * rhs.reshape(-1, s.dim).T).T.reshape(cg.shape)


def _connection_residuals(s: StructureData, cs: np.ndarray, gammas: np.ndarray) -> tuple:
    """(torsion, metric-compatibility) worst-case residuals of each Christoffel array of
    the stack gammas against its bracket table of cs, one of each per table."""
    torsion = gammas - gammas.swapaxes(1, 2) - cs
    gg = gammas @ s.g  # g(nabla_{E_i} E_j, E_k)
    return np.abs(torsion).max(axis=(1, 2, 3)), np.abs(gg + gg.swapaxes(2, 3)).max(axis=(1, 2, 3))


@_in_float_range
def structure_tensor_from_connection(s: StructureData, gamma) -> np.ndarray:
    """F(x, y, z) = g((nabla_x phi) y, z) in the left-invariant frame.

    phi has constant components there, so (nabla_{E_i} phi) E_j =
    nabla_{E_i}(phi E_j) - phi(nabla_{E_i} E_j). The result always
    satisfies the two defining identities of the admissible space.
    """
    return _sealed(_from_connection(s, _tensor(s, gamma, "connection")[None]))[0]


def _from_connection(s: StructureData, gammas: np.ndarray) -> np.ndarray:
    """structure_tensor_from_connection of each Christoffel array of the stack gammas."""
    return (s.phi.T @ gammas - gammas @ s.phi.T) @ s.g


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
