"""Rank-3 covariant tensors and the admissible structure-tensor space.

The structure tensor of an almost contact B-metric structure is the
(0,3)-tensor F(x, y, z) = g((nabla_x phi) y, z). Whatever connection it
came from, such a tensor always satisfies two pointwise identities:

    F(x, y, z) = F(x, z, y)
    F(x, y, z) = F(x, phi y, phi z) + eta(y) F(x, xi, z)
                                    + eta(z) F(x, y, xi)

The set of all rank-3 tensors with these properties is the admissible
space decomposed elsewhere into eleven classes. This module provides
membership testing, a canonical surjection onto the space (used to
manufacture admissible test data), seeded random elements, the induced
inner product, and the three Lee forms.

All identity checks quantify over basis vectors only; the identities
are multilinear, so basis verification is exhaustive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .structure import DEFAULT_ABS_FLOOR, DEFAULT_RTOL, StructureData

__all__ = [
    "Tensor3",
    "membership_residuals",
    "is_structure_tensor",
    "embed_structure_tensor",
    "random_structure_tensor",
    "inner_product",
    "lee_forms",
]


def _sealed(arr: np.ndarray) -> np.ndarray:
    """arr made read-only; ValueError when it holds inf or NaN."""
    if not np.all(np.isfinite(arr)):
        raise ValueError("comps contains non-finite entries")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Tensor3:
    """A rank-3 covariant tensor by components over a fixed basis.

    comps[i, j, k] is the value on the basis triple (e_i, e_j, e_k),
    first slot outermost. Instances are immutable; the small algebra
    below (addition, scalar multiples) is what the decomposition needs.
    """

    comps: np.ndarray

    def __post_init__(self):
        arr = np.array(self.comps, dtype=float)
        if arr.ndim != 3 or len(set(arr.shape)) != 1:
            raise ValueError(f"comps must be a cube, got shape {arr.shape}")
        object.__setattr__(self, "comps", _sealed(arr))

    @classmethod
    def _wrap(cls, comps: np.ndarray) -> "Tensor3":
        """A Tensor3 around the float cube comps, not copied; sealed here unless
        read-only, which inside the package means sealed or a view of a sealed array."""
        t = object.__new__(cls)
        object.__setattr__(t, "comps", _sealed(comps) if comps.flags.writeable else comps)
        return t

    @property
    def dim(self) -> int:
        return self.comps.shape[0]

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.comps)))

    @classmethod
    def zeros(cls, dim: int) -> "Tensor3":
        return cls._wrap(np.zeros((dim, dim, dim)))

    def __add__(self, other: "Tensor3") -> "Tensor3":
        return Tensor3._wrap(self.comps + other.comps)

    def __sub__(self, other: "Tensor3") -> "Tensor3":
        return Tensor3._wrap(self.comps - other.comps)

    def __neg__(self) -> "Tensor3":
        return Tensor3._wrap(-self.comps)

    def __mul__(self, scalar) -> "Tensor3":
        return Tensor3._wrap(self.comps * float(scalar))

    __rmul__ = __mul__


@dataclass(frozen=True)
class LeeForms:
    """The three 1-forms theta, theta*, omega associated with a tensor."""

    theta: np.ndarray
    theta_star: np.ndarray
    omega: np.ndarray


def _scale(t: Tensor3) -> float:
    """max(max-abs(t), DEFAULT_ABS_FLOOR): the magnitude every relative
    precondition is measured against, so no verdict depends on the overall
    scale of t and the zero tensor keeps a positive tolerance."""
    return max(t.max_abs(), DEFAULT_ABS_FLOOR)


def _check_dims(s: StructureData, *tensors: Tensor3) -> None:
    for t in tensors:
        if t.dim != s.dim:
            raise ValueError(
                f"tensor dimension {t.dim} does not match structure dimension {s.dim}"
            )


def _pullback(c: np.ndarray, a: np.ndarray, b: np.ndarray, m: np.ndarray) -> np.ndarray:
    """T[i,j,k] = c[p,q,r] a[p,i] b[q,j] m[r,k], as three matrix products.

    Staged one slot at a time this costs O(d^4), against O(d^6) for the
    single four-operand einsum, and it needs no contraction-path search.
    """
    d = c.shape[0]
    t = (a.T @ c.reshape(d, -1)).reshape(d, d, d)
    return (b.T @ t) @ m


def _sym_pair(q: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Assemble T[i,j,k] = q[i,j] eta[k] + q[i,k] eta[j].

    Adding 0.0 turns a -0.0 sum (two negative products with zero eta
    entries) into 0.0, so zero entries are emitted as 0.0.
    """
    return q[:, :, None] * eta + q[:, None, :] * eta[:, None] + 0.0


def membership_residuals(s: StructureData, t: Tensor3) -> dict:
    """Worst-case residuals of the two defining identities, by name."""
    _check_dims(s, t)
    c = t.comps
    sym = float(np.max(np.abs(c - c.transpose(0, 2, 1))))
    phi, xi, eta = s.phi, s.xi, s.eta
    f_xi_z = xi @ c  # F(x, xi, z)
    f_y_xi = c @ xi  # F(x, y, xi)
    rhs = phi.T @ c @ phi
    rhs += eta[:, None] * f_xi_z[:, None, :]
    rhs += f_y_xi[:, :, None] * eta
    rel = float(np.max(np.abs(c - rhs)))
    return {"slot_symmetry": sym, "phi_relation": rel}


def _require_structure_tensor(s: StructureData, t: Tensor3) -> None:
    """PreconditionError naming each membership residual above DEFAULT_RTOL * _scale(t).

    This is the one admissibility verdict: is_structure_tensor, decompose
    (so classify) and the project command all ask it.
    """
    bound = DEFAULT_RTOL * _scale(t)
    # `not <=` so that a NaN residual refuses rather than passes
    bad = {k: v for k, v in membership_residuals(s, t).items() if not v <= bound}
    if bad:
        detail = ", ".join(f"{k} residual {v:.3e}" for k, v in bad.items())
        raise PreconditionError(f"tensor is not an admissible structure tensor: {detail}")


def is_structure_tensor(s: StructureData, t: Tensor3) -> bool:
    """True iff t satisfies both defining identities of the admissible space.

    Within DEFAULT_RTOL relative to the tensor magnitude, with floor
    DEFAULT_ABS_FLOOR, so the verdict does not depend on the tensor's
    overall scale.
    """
    try:
        _require_structure_tensor(s, t)
    except PreconditionError:
        return False
    return True


def embed_structure_tensor(s: StructureData, t: Tensor3) -> Tensor3:
    """Canonical surjection of an arbitrary rank-3 tensor onto the admissible space.

    With S the symmetrization of t in its last two slots and h = -phi^2,

        G(x,y,z) = (1/2) [S(x, h y, h z) + S(x, phi y, phi z)]
                   + eta(y) S(x, h z, xi) + eta(z) S(x, h y, xi).

    G always satisfies both identities, and G = t whenever t already
    does (the map is idempotent; this follows from phi^2 = -Id +
    eta (x) xi and the forced vanishing of F(x, xi, xi)).
    """
    _check_dims(s, t)
    S = 0.5 * (t.comps + t.comps.transpose(0, 2, 1))
    phi, xi, eta = s.phi, s.xi, s.eta
    h = -(phi @ phi)
    s_h_xi = (S @ xi) @ h  # S(x, h y, xi)
    out = 0.5 * (h.T @ S @ h + phi.T @ S @ phi)
    out += eta[:, None] * s_h_xi[:, None, :]
    out += s_h_xi[:, :, None] * eta
    return Tensor3._wrap(out)


def random_structure_tensor(s: StructureData, seed: int) -> Tensor3:
    """Seeded random element of the admissible space.

    Deterministic in (s, seed): entries drawn uniformly from [-1, 1]
    and pushed through embed_structure_tensor.
    """
    rng = np.random.default_rng(seed)
    d = s.dim
    raw = Tensor3._wrap(rng.uniform(-1.0, 1.0, size=(d, d, d)))
    return embed_structure_tensor(s, raw)


def inner_product(s: StructureData, f1: Tensor3, f2: Tensor3) -> float:
    """Full triple contraction <f1, f2> with the inverse metric on all slots.

    Symmetric and bilinear. The metric is indefinite, so <f, f> can be
    negative or zero for nonzero f; magnitudes elsewhere use max-abs of
    components instead.
    """
    _check_dims(s, f1, f2)
    gi_t = s.g_inv.T
    return float(np.vdot(f1.comps, _pullback(f2.comps, gi_t, gi_t, gi_t)))


def lee_forms(s: StructureData, f: Tensor3) -> LeeForms:
    """The Lee forms of f.

    theta and theta* are metric traces of f over the contact
    distribution: the contraction uses g_inv minus the Reeb-Reeb part
    xi (x) xi, which in a phi-basis is the sum over the 2n non-Reeb
    basis directions. omega(z) = F(xi, xi, z). Restricting the trace to
    the contact distribution is what makes theta and theta* vanish on
    the purely vertical classes, as the decomposition requires; theta*
    is unaffected by the restriction since phi xi = 0.
    """
    _check_dims(s, f)
    d = s.dim
    c = f.comps.reshape(d * d, d)
    gi_h = s.g_inv - np.outer(s.xi, s.xi)
    theta = gi_h.ravel() @ c
    theta_star = (gi_h @ s.phi.T).ravel() @ c
    omega = np.outer(s.xi, s.xi).ravel() @ c
    return LeeForms(theta=theta, theta_star=theta_star, omega=omega)
