"""Pointwise almost contact B-metric structures.

A structure on a (2n+1)-dimensional real vector space is a quadruple
(phi, xi, eta, g): an endomorphism phi, a distinguished vector xi (the
Reeb vector), its dual 1-form eta, and a symmetric bilinear form g of
signature (n+1, n), tied together by the algebraic relations

    phi xi = 0,        phi^2 = -Id + eta (x) xi,      eta o phi = 0,
    eta(xi) = 1,       g(phi x, phi y) = -g(x, y) + eta(x) eta(y).

Everything in this package is linear algebra over a fixed basis at a
single point: vectors are coordinate arrays, phi and g are matrices.
The canonical basis ordering everywhere is xi first, then e_1..e_n,
then phi e_1..phi e_n, in which g = diag(1, I_n, -I_n).
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DEFAULT_ABS_FLOOR",
    "DEFAULT_ATOL",
    "DEFAULT_RTOL",
    "MAX_DIM",
    "StructureData",
    "canonical_structure",
    "validate_structure",
    "is_canonical_basis",
]

# The tolerances of every check in the package: absolute for algebraic
# identities on exactly representable inputs, relative elsewhere. Only
# the class threshold of classify (rel_tol, abs_floor) can be set.
DEFAULT_ATOL = 1e-12
DEFAULT_RTOL = 1e-9

# Magnitude floor under relative tolerances: a tensor smaller than this
# is measured against the floor, so the zero tensor keeps a positive
# tolerance.
DEFAULT_ABS_FLOOR = 1e-12

# Largest dimension d = 2n + 1 that documents and generators accept;
# larger sizes are refused before anything is allocated. classify costs
# O(d^6) in its W1 terms: at d = 21 one call takes about 4 s with a
# 37 MB peak resident set (2-vCPU x86-64 VM, Python 3.11, numpy 2.4).
MAX_DIM = 21

# Eigenvalues below this magnitude do not count toward the signature.
_SIGNATURE_EIG_TOL = 1e-10

_OUT_OF_RANGE = "result overflows the floating-point range"


def _in_float_range(fn):
    """fn under the one float-range rule, carried by every public function that does arithmetic
    on values from its caller: an overflow or invalid operation is one ValueError, no warning."""
    @functools.wraps(fn)
    def in_range(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise"):
                return fn(*args, **kwargs)
        except FloatingPointError as exc:
            raise ValueError(f"{_OUT_OF_RANGE} ({exc})") from exc

    return in_range


def _sealed(arr: np.ndarray) -> np.ndarray:
    """arr made read-only; the same ValueError when it holds inf or NaN, which
    np.einsum and np.vdot return without raising under _in_float_range."""
    if not np.isfinite(arr).all():
        raise ValueError(_OUT_OF_RANGE)
    arr.flags.writeable = False
    return arr


def _as_float_array(value, shape, name: str) -> np.ndarray:
    """The one array entry check: a read-only float copy of that shape, or a ValueError naming it.

    Entries must be real numbers: a string or a bool is refused, not converted.
    """
    if not isinstance(value, np.ndarray):  # entry by entry: numpy reads [True, 0] as [1, 0]
        value = np.array(value, dtype=object)
    types = set(map(type, value.flat)) if value.dtype == object else {value.dtype.type}
    if not all(t is not bool and issubclass(t, numbers.Real) for t in types):
        raise ValueError(f"{name} must be an array of numbers")
    try:
        arr = value.astype(float)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"{name} contains an entry outside the float range") from exc
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.flags.writeable = False
    return arr


def _rank(n) -> int:
    """The one rank rule: n as an int, or one ValueError unless it is an integer >= 1 (not a bool)."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return int(n)


@dataclass(frozen=True, eq=False)
class StructureData:
    """A point-wise structure (phi, xi, eta, g) and the read-only matrices derived from it.

    Immutable; safe to share across threads. Built once, on construction: dim, g_inv,
    phi2 = phi^2, g_phi[i, j] = g(e_i, phi e_j), phi_g_phi[i, j] = g(phi e_i, phi e_j)
    and lee_weights, the raveled weights h, h phi^T, xi (x) xi (h = g_inv - xi (x) xi)
    of the Lee forms theta, theta*, omega.
    """

    n: int
    g: np.ndarray
    phi: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    dim: int = field(init=False)
    g_inv: np.ndarray = field(init=False)
    phi2: np.ndarray = field(init=False)
    g_phi: np.ndarray = field(init=False)
    phi_g_phi: np.ndarray = field(init=False)
    lee_weights: np.ndarray = field(init=False)

    @_in_float_range
    def __post_init__(self):
        object.__setattr__(self, "n", _rank(self.n))
        d = 2 * self.n + 1
        object.__setattr__(self, "dim", d)
        for name, shape in (("g", (d, d)), ("phi", (d, d)), ("xi", (d,)), ("eta", (d,))):
            object.__setattr__(self, name, _as_float_array(getattr(self, name), shape, name))
        try:
            g_inv = np.linalg.inv(self.g)
        except np.linalg.LinAlgError as exc:
            raise ValueError("metric g is singular") from exc
        object.__setattr__(self, "g_inv", _as_float_array(g_inv, (d, d), "g_inv"))
        xi_xi = np.outer(self.xi, self.xi)
        h = self.g_inv - xi_xi
        for name, value in (
            ("phi2", self.phi @ self.phi),
            ("g_phi", self.g @ self.phi),
            ("phi_g_phi", self.phi.T @ self.g @ self.phi),
            ("lee_weights", np.stack([h.ravel(), (h @ self.phi.T).ravel(), xi_xi.ravel()])),
        ):
            object.__setattr__(self, name, _as_float_array(value, value.shape, name))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the structure-axiom checks.

    ``residuals`` maps every checked axiom to its worst-case residual;
    ``violations`` lists the (axiom, residual) pairs that exceed
    DEFAULT_RTOL. ``valid`` is true iff no axiom is violated.
    """

    valid: bool
    violations: tuple
    residuals: dict


_CANONICAL = {}  # n -> canonical_structure(n), built on first use


def canonical_structure(n: int) -> StructureData:
    """Structure in the canonical basis {xi, e_1..e_n, phi e_1..phi e_n}.

    g = diag(1, I_n, -I_n); phi sends e_i to e_(n+i), e_(n+i) to -e_i
    and kills xi; eta is the first coordinate form. Built once per n
    and shared: the structure is immutable.
    """
    n = _rank(n)  # before the cache: True == 1 as a key
    if n in _CANONICAL:
        return _CANONICAL[n]
    d = 2 * n + 1
    g = np.diag(np.concatenate(([1.0], np.ones(n), -np.ones(n))))
    phi = np.zeros((d, d))
    for i in range(1, n + 1):
        phi[n + i, i] = 1.0
        phi[i, n + i] = -1.0
    xi = np.zeros(d)
    xi[0] = 1.0
    eta = np.zeros(d)
    eta[0] = 1.0
    s = _CANONICAL[n] = StructureData(n=n, g=g, phi=phi, xi=xi, eta=eta)
    return s


def _signature_residual(g: np.ndarray, n: int) -> float:
    eigvals = np.linalg.eigvalsh(0.5 * (g + g.T))
    pos = int(np.sum(eigvals > _SIGNATURE_EIG_TOL))
    neg = int(np.sum(eigvals < -_SIGNATURE_EIG_TOL))
    zero = len(eigvals) - pos - neg
    return float(abs(pos - (n + 1)) + abs(neg - n) + zero)


@_in_float_range
def validate_structure(s: StructureData) -> ValidationReport:
    """Check all structure axioms plus symmetry, invertibility and signature of g.

    Returns a report with the largest residual per axiom; a failing
    axiom is data, not an error. Malformed inputs (inconsistent shapes)
    are rejected at StructureData construction time instead.
    """
    ident = np.eye(s.dim)
    residuals = {}
    residuals["g_symmetric"] = float(np.max(np.abs(s.g - s.g.T)))
    residuals["g_inverse"] = float(np.max(np.abs(s.g @ s.g_inv - ident)))
    residuals["signature"] = _signature_residual(s.g, s.n)
    residuals["phi_xi"] = float(np.max(np.abs(s.phi @ s.xi)))
    residuals["phi_squared"] = float(np.max(np.abs(s.phi2 + ident - np.outer(s.xi, s.eta))))
    residuals["eta_phi"] = float(np.max(np.abs(s.eta @ s.phi)))
    residuals["eta_xi"] = float(abs(s.eta @ s.xi - 1.0))
    residuals["b_metric"] = float(np.max(np.abs(s.phi_g_phi + s.g - np.outer(s.eta, s.eta))))
    violations = tuple((k, v) for k, v in residuals.items() if v > DEFAULT_RTOL)
    return ValidationReport(valid=not violations, violations=violations, residuals=residuals)


def is_canonical_basis(s: StructureData) -> bool:
    """True when the coordinates of s match canonical_structure(s.n) within DEFAULT_ATOL."""
    c = canonical_structure(s.n)
    pairs = ((s.g, c.g), (s.phi, c.phi), (s.xi, c.xi), (s.eta, c.eta))
    return all(np.max(np.abs(a - b)) <= DEFAULT_ATOL for a, b in pairs)
