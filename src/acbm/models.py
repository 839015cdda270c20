"""Example models and the dimension-3 fast path.

Two sources of concrete structure tensors:

* a family of solvable Lie algebras carrying a left-invariant almost
  contact B-metric structure, where the tensor is computed from the
  structure constants through the Koszul formula for the Levi-Civita
  connection;
* the unit time-like sphere, realized directly from the closed form of
  its structure tensor at a point (the ambient hypersurface derivation
  is out of scope; the closed form fully exercises the classifier).

For dimension 3 over the canonical structure the eleven component
formulas collapse to a handful of scalar coefficients; this module
provides that fast path and the explicit dimension-3 Lee forms, both
cross-checked in the test suite against the general machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decomposition import NUM_CLASSES, Decomposition, _decomposition
from .errors import PreconditionError
from .structure import (
    DEFAULT_ATOL,
    StructureData,
    _as_float_array,
    _in_float_range,
    _sealed,
    canonical_structure,
    is_canonical_basis,
)
from .tensors import LeeForms, _require_structure_tensor, _sym_pair, _tensor

__all__ = [
    "LieAlgebraSpec",
    "Dim3Coefficients",
    "lie_family",
    "check_jacobi",
    "koszul_connection",
    "connection_residuals",
    "structure_tensor_from_connection",
    "sphere_structure_tensor",
    "dim3_lee_forms",
    "dim3_coefficients",
    "dim3_decompose",
]


@dataclass(frozen=True, eq=False)
class LieAlgebraSpec:
    """Structure constants over a structured basis.

    c[i, j, k] is the coefficient of E_k in [E_i, E_j]; c must be
    antisymmetric in (i, j) and satisfy the Jacobi identity.
    """

    structure: StructureData
    c: np.ndarray

    def __post_init__(self):
        d = self.structure.dim
        object.__setattr__(self, "c", _as_float_array(self.c, (d, d, d), "structure constants"))


@dataclass(frozen=True)
class Dim3Coefficients:
    """The scalar data of an admissible tensor in dimension 3.

    Each coefficient is the component combination that isolates one
    basic class: theta0 and lam split the symmetric xi-bracket data,
    theta_star0 and mu the skew part, nu is the W3 coefficient and
    omega1, omega2 the W4 pair. With theta(e_1), theta(e_2) for F1 they are
    nine numbers, as the admissible space at n = 1 has dimension 9.
    """

    theta0: float
    theta_star0: float
    lam: float
    mu: float
    nu: float
    omega1: float
    omega2: float


def lie_family(n: int, a) -> LieAlgebraSpec:
    """The 2n-parameter solvable family on the canonical structure.

    Brackets, for i in 1..n and parameters a_1..a_2n:

        [E_0, E_i]     = -a_i E_i - a_(n+i) E_(n+i)
        [E_0, E_(n+i)] = -a_(n+i) E_i + a_i E_(n+i)

    and zero otherwise. In dimension 3 the resulting structure tensor
    lies in the class F9 + F10, with the F9 coefficient a_1 and the
    F10 coefficient -2 a_2.
    """
    s = canonical_structure(n)
    a = _as_float_array(a, (2 * s.n,), "parameter vector")
    d = s.dim
    c = np.zeros((d, d, d))
    for i in range(1, n + 1):
        c[0, i, i] = -a[i - 1]
        c[0, i, n + i] = -a[n + i - 1]
        c[0, n + i, i] = -a[n + i - 1]
        c[0, n + i, n + i] = a[i - 1]
    c[1:, 0, :] = -c[0, 1:, :]
    return LieAlgebraSpec(structure=s, c=c)


@_in_float_range
def check_jacobi(spec: LieAlgebraSpec) -> bool:
    """True iff the Jacobi cyclic sum vanishes on all basis triples.

    Rejects non-antisymmetric bracket tables outright: antisymmetry is
    a precondition, not a test result. Both checks run on the table
    divided by its max-abs entry m, so antisymmetry is judged relative
    to m and the Jacobi sum, quadratic in the table, relative to m^2,
    both within DEFAULT_ATOL; no intermediate overflows. The zero table
    is abelian.
    """
    m = float(np.max(np.abs(spec.c)))
    if m == 0.0:
        return True
    c = spec.c / m
    antisym = float(np.max(np.abs(c + c.transpose(1, 0, 2))))
    if antisym > DEFAULT_ATOL:
        raise PreconditionError(
            f"bracket table is not antisymmetric (residual {antisym:.3e})"
        )
    jac = (
        np.einsum("jkm,iml->ijkl", c, c)
        + np.einsum("kim,jml->ijkl", c, c)
        + np.einsum("ijm,kml->ijkl", c, c)
    )
    return float(np.max(np.abs(jac))) <= DEFAULT_ATOL


@_in_float_range
def koszul_connection(spec: LieAlgebraSpec) -> np.ndarray:
    """Christoffel array gamma of the left-invariant Levi-Civita connection.

    gamma[i, j, k] is the E_k part of nabla_{E_i} E_j, solved from

        2 g(nabla_{E_i} E_j, E_k) = g([E_i, E_j], E_k)
                                    + g([E_k, E_i], E_j)
                                    + g([E_k, E_j], E_i)

    by one dense linear solve against g for all d^2 pairs (i, j). The
    result is torsion-free and metric-compatible on all basis triples.
    """
    g = spec.structure.g
    d = spec.structure.dim
    cg = spec.c @ g  # g([E_i, E_j], E_k)
    rhs = cg + cg.transpose(1, 2, 0) + cg.transpose(2, 1, 0)
    return np.linalg.solve(g, 0.5 * rhs.reshape(d * d, d).T).T.reshape(d, d, d)


@_in_float_range
def connection_residuals(spec: LieAlgebraSpec, gamma: np.ndarray) -> tuple:
    """(torsion, metric-compatibility) worst-case residuals of a Christoffel array."""
    torsion = gamma - gamma.transpose(1, 0, 2) - spec.c
    gg = gamma @ spec.structure.g  # g(nabla_{E_i} E_j, E_k)
    return float(np.max(np.abs(torsion))), float(np.max(np.abs(gg + gg.transpose(0, 2, 1))))


@_in_float_range
def structure_tensor_from_connection(spec: LieAlgebraSpec, gamma: np.ndarray) -> np.ndarray:
    """F(x, y, z) = g((nabla_x phi) y, z) in the left-invariant frame.

    phi has constant components there, so (nabla_{E_i} phi) E_j =
    nabla_{E_i}(phi E_j) - phi(nabla_{E_i} E_j). The result always
    satisfies the two defining identities of the admissible space.
    """
    s = spec.structure
    return _sealed((s.phi.T @ gamma - gamma @ s.phi.T) @ s.g)


def sphere_structure_tensor(n: int, t: float) -> tuple:
    """Structure data and tensor of the unit time-like sphere at a point.

    The tensor has the closed form

        F(x,y,z) = -cos t { g(phi x, phi y) eta(z) + g(phi x, phi z) eta(y) }
                   -sin t { g(x, phi y) eta(z) + g(x, phi z) eta(y) }

    so the Lee values satisfy theta(xi) = 2n cos t and theta*(xi) =
    2n sin t, and classification always lands in a subset of {F4, F5}.
    Any real t is accepted; the formula is periodic.
    """
    s = canonical_structure(n)
    comps = -math.cos(t) * _sym_pair(s.phi_g_phi, s.eta) - math.sin(t) * _sym_pair(s.g_phi, s.eta)
    return s, _sealed(comps)


def _canonical_dim3(s: StructureData, f) -> np.ndarray:
    """f checked by _tensor, for a canonical dimension-3 structure s."""
    if s.dim != 3:
        raise ValueError(f"expected a dimension-3 structure, got dimension {s.dim}")
    if not is_canonical_basis(s):
        raise PreconditionError("structure is not canonical; the dimension-3 closed forms need it")
    return _tensor(s, f)


@_in_float_range
def dim3_lee_forms(s: StructureData, f) -> LeeForms:
    """Lee forms in dimension 3 by the explicit index formulas.

    Requires the canonical structure s. Agrees entrywise with the general
    contractions for any admissible tensor:

        theta  = (F110 - F220, F111 - F221, F112 - F211)
        theta* = (F120 + F210, F112 + F211, F111 + F221)
        omega  = (0, F001, F002)
    """
    c = _canonical_dim3(s, f)
    theta = np.array([c[1, 1, 0] - c[2, 2, 0], c[1, 1, 1] - c[2, 2, 1], c[1, 1, 2] - c[2, 1, 1]])
    theta_star = np.array(
        [c[1, 2, 0] + c[2, 1, 0], c[1, 1, 2] + c[2, 1, 1], c[1, 1, 1] + c[2, 2, 1]]
    )
    omega = np.array([0.0, c[0, 0, 1], c[0, 0, 2]])
    return LeeForms(theta=theta, theta_star=theta_star, omega=omega)


@_in_float_range
def dim3_coefficients(s: StructureData, f) -> Dim3Coefficients:
    """Extract the seven class coefficients of a dimension-3 tensor.

    Reads the representative components, after separating the
    symmetric and skew parts shared between classes:

        theta0 = F110 - F220        lam = (F110 + F220) / 2
        theta*0 = F120 + F210       mu  = (F120 - F210) / 2
        nu = F011                   omega1 = F001,  omega2 = F002

    Requires f admissible, by the one gate (_require_structure_tensor) that
    decompose also asks: for n = 1 its two identities are the eighteen
    entry relations these reads rely on (F101 = F110, F000 = 0, ...).
    """
    c = _canonical_dim3(s, f)
    _require_structure_tensor(s, c)
    return Dim3Coefficients(
        theta0=float(c[1, 1, 0] - c[2, 2, 0]),
        theta_star0=float(c[1, 2, 0] + c[2, 1, 0]),
        lam=float(0.5 * (c[1, 1, 0] + c[2, 2, 0])),
        mu=float(0.5 * (c[1, 2, 0] - c[2, 1, 0])),
        nu=float(c[0, 1, 1]),
        omega1=float(c[0, 0, 1]),
        omega2=float(c[0, 0, 2]),
    )


@_in_float_range
def dim3_decompose(s: StructureData, f) -> Decomposition:
    """decompose(s, f) by the closed forms, from one dim3_coefficients check.

    F2, F3, F6 and F7 are identically zero in dimension 3. Matches
    decompose entrywise on admissible tensors over the canonical s.
    """
    q = dim3_coefficients(s, f)
    c = np.asarray(f, dtype=float)  # checked by dim3_coefficients
    out = np.zeros((NUM_CLASSES, 3, 3, 3))
    f1, _, _, f4, f5, _, _, f8, f9, f10, f11 = out
    th1, th2 = c[1, 1, 1] - c[2, 2, 1], c[1, 1, 2] - c[2, 1, 1]  # theta(e_1), theta(e_2)
    f1[1, 1, 1] = f1[1, 2, 2] = th1
    f1[2, 1, 1] = f1[2, 2, 2] = -th2
    half = 0.5 * q.theta0
    f4[1, 0, 1] = f4[1, 1, 0] = half
    f4[2, 0, 2] = f4[2, 2, 0] = -half
    f5[1, 0, 2] = f5[1, 2, 0] = f5[2, 0, 1] = f5[2, 1, 0] = 0.5 * q.theta_star0
    f8[1, 0, 1] = f8[1, 1, 0] = f8[2, 0, 2] = f8[2, 2, 0] = q.lam
    f9[1, 0, 2] = f9[1, 2, 0] = q.mu
    f9[2, 0, 1] = f9[2, 1, 0] = -q.mu
    f10[0, 1, 1] = f10[0, 2, 2] = q.nu
    f11[0, 1, 0] = f11[0, 0, 1] = q.omega1
    f11[0, 2, 0] = f11[0, 0, 2] = q.omega2
    return _decomposition(c, out)
