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
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError

__all__ = [
    "DEFAULT_ATOL",
    "DEFAULT_RTOL",
    "MAX_DIM",
    "StructureData",
    "canonical_structure",
]

# The tolerances of every check in the package: absolute for algebraic
# identities on exactly representable inputs, relative elsewhere (a tensor
# is measured by its own max-abs, tensors._scale). Only the class threshold
# of classify (rel_tol) can be set.
DEFAULT_ATOL = 1e-12
DEFAULT_RTOL = 1e-9

# Largest dimension d = 2n + 1 of a structure (the rank rule, _rank);
# larger sizes are refused before anything is allocated. classify costs
# O(d^6) in its W1 terms: at d = 21 one call takes 2.9-3.5 s with a
# 38 MB peak resident set (2-vCPU x86-64 VM, Python 3.11, numpy 2.4).
MAX_DIM = 21

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
    np.einsum returns without raising under _in_float_range. A comparison, not
    np.isfinite, so that an exact (Fraction) array passes too."""
    if not (np.abs(arr) <= sys.float_info.max).all():
        raise ValueError(_OUT_OF_RANGE)
    arr.flags.writeable = False
    return arr


def _as_float_array(value, shape, name: str) -> np.ndarray:
    """The one array entry check: a read-only float copy of that shape, or a ValueError naming it.

    Entries must be real numbers: a string or a bool is refused, not converted.
    """
    if not isinstance(value, np.ndarray):  # entry by entry: numpy reads [True, 0] as [1, 0]
        value = np.array(value, dtype=object)
    # reshape, not .flat, whose iterator refuses an array nested more than 32 deep
    types = set(map(type, value.reshape(-1))) if value.dtype == object else {value.dtype.type}
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


def _max_abs(*arrays) -> float:
    return max(float(np.max(np.abs(a))) for a in arrays)


def _max_abs_each(lead: tuple, *arrays) -> np.ndarray:
    """The max-abs over several arrays with the leading axes lead, one per index of lead
    (per tensor of a stack). np.max keeps a NaN, which Python's max may drop."""
    return np.max([np.abs(a).reshape(*lead, -1).max(axis=-1) for a in arrays], axis=0)


def _integer(value, name: str, minimum: int, maximum: int | None = None) -> int:
    """The one integer rule: value as an int, or one ValueError naming it unless it is an
    integer (not a bool or a float) from minimum up to maximum, when there is one."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if minimum <= value and (maximum is None or value <= maximum):
            return int(value)
    rule = f">= {minimum}" if maximum is None else f"in {minimum}..{maximum}"
    raise ValueError(f"{name} must be an integer {rule}, got {value!r}")


def _real(value, name: str, positive: bool = False) -> float:
    """The one real rule: value as a float, or one ValueError naming it unless it is a
    finite real number (not a bool), and > 0 when positive."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if abs(value) <= sys.float_info.max and (value > 0 or not positive):
            return float(value)
    raise ValueError(f"{name} must be a finite number{' > 0' if positive else ''}, got {value!r}")


def _rank(n, name: str = "n") -> int:
    """The one rank rule: n as an int, or one ValueError unless it is an integer >= 1
    with 2n + 1 <= MAX_DIM; name is the parameter, flag or field that gave it."""
    n = _integer(n, name, 1)
    if 2 * n + 1 > MAX_DIM:
        raise ValueError(
            f"{name}: dimension {2 * n + 1} exceeds the maximum {MAX_DIM} (n <= {(MAX_DIM - 1) // 2})"
        )
    return n


def _dimension(dim, name: str) -> int:
    """The rank n of a dimension dim = 2n + 1: an odd integer >= 3, then the rank rule."""
    if _integer(dim, name, 3) % 2 == 0:
        raise ValueError(f"{name} must be an odd integer >= 3, got {dim}")
    return _rank((dim - 1) // 2, name)


@dataclass(frozen=True, eq=False)
class StructureData:
    """A point-wise structure (phi, xi, eta, g) and the read-only matrices derived from it.

    Immutable; safe to share across threads. Built once, on construction: dim, g_inv,
    phi2 = phi^2, g_phi[i, j] = g(e_i, phi e_j), phi_g_phi[i, j] = g(phi e_i, phi e_j)
    and lee_weights, the raveled weights gi_h, gi_h phi^T, xi (x) xi (gi_h = g_inv - xi (x) xi)
    of the Lee forms theta, theta*, omega. A structure that violates an axiom
    (_axiom_residuals) is refused with one PreconditionError naming each residual.
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
        for name, value in _derived(self.g, self.phi, self.xi, self.g_inv).items():
            object.__setattr__(self, name, _as_float_array(value, value.shape, name))
        bad = {k: v for k, v in _axiom_residuals(self).items() if v > DEFAULT_RTOL}
        if bad:
            worst = ", ".join(f"{k}={v:.3e}" for k, v in bad.items())
            raise PreconditionError(f"structure violates axioms: {worst}")


def _derived(g, phi, xi, g_inv) -> dict:
    """phi2, g_phi, phi_g_phi and lee_weights, by name, from float or Fraction arrays."""
    xi_xi = np.outer(xi, xi)
    gi_h = g_inv - xi_xi  # the inverse metric on the contact distribution
    return {
        "phi2": phi @ phi,
        "g_phi": g @ phi,
        "phi_g_phi": phi.T @ g @ phi,
        "lee_weights": np.stack([gi_h.ravel(), (gi_h @ phi.T).ravel(), xi_xi.ravel()]),
    }


def _axiom_residuals(s: StructureData) -> dict:
    """The residual of each structure axiom, by name, divided by the size its
    rounding grows with (|.| the max-abs entry), so that no verdict depends on
    the scale of the basis. The signature residual counts the eigenvalues of g
    off (n+1, n); one below d * eps times the largest, what eigvalsh resolves,
    counts as zero.
    """
    ident = np.eye(s.dim)
    # numpy scalars, so that a product of sizes past the float range raises, not turns inf
    g, phi, xi, eta = (np.max(np.abs(a)) for a in (s.g, s.phi, s.xi, s.eta))
    tiny = np.finfo(float).tiny  # a zero phi would give 0 / 0
    eigvals = np.linalg.eigvalsh(0.5 * (s.g + s.g.T))
    floor = s.dim * np.finfo(float).eps * np.max(np.abs(eigvals))
    pos, neg = int(np.sum(eigvals > floor)), int(np.sum(eigvals < -floor))
    return {
        "g_symmetric": _max_abs(s.g - s.g.T) / g,
        "g_inverse": _max_abs(s.g @ s.g_inv - ident),
        "signature": float(abs(pos - (s.n + 1)) + abs(neg - s.n)),
        "phi_xi": _max_abs(s.phi @ s.xi) / max(phi * xi, tiny),
        "phi_squared": _max_abs(s.phi2 + ident - np.outer(s.xi, s.eta)) / max(1.0, phi * phi, xi * eta),
        "eta_phi": _max_abs(s.eta @ s.phi) / max(eta * phi, tiny),
        "eta_xi": abs(s.eta @ s.xi - 1.0) / max(1.0, eta * xi),
        "b_metric": _max_abs(s.phi_g_phi + s.g - np.outer(s.eta, s.eta)) / max(phi * phi * g, g, eta * eta),
    }


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

