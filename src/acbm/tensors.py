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
inner product, and the three Lee forms. A tensor is a float array f of
shape (d, d, d), f[i, j, k] its value on the basis triple (e_i, e_j, e_k);
every tensor the package returns is read-only. The private bodies also take
a stack of N tensors, shape (N, d, d, d), and work on each one alone.

All identity checks quantify over basis vectors only; the identities
are multilinear, so basis verification is exhaustive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .structure import (
    DEFAULT_RTOL, StructureData, _as_float_array, _in_float_range, _integer, _sealed,
)

__all__ = [
    "is_structure_tensor",
    "embed_structure_tensor",
    "random_structure_tensor",
    "inner_product",
    "lee_forms",
]


@dataclass(frozen=True)
class LeeForms:
    """The three 1-forms theta, theta*, omega associated with a tensor."""

    theta: np.ndarray
    theta_star: np.ndarray
    omega: np.ndarray


def _tensor(s: StructureData, f, name: str = "tensor") -> np.ndarray:
    """f checked as a (d, d, d) array where it enters, by the name its ValueError gives it
    (a tensor, structure constants, a connection); private bodies take the result as is."""
    return _as_float_array(f, (s.dim,) * 3, name)


def _scale(c: np.ndarray):
    """The one scale of every tensor verdict: max-abs(c), so no verdict depends
    on the overall scale of c, floored at the smallest normal float, below which
    floats keep no relative precision; the zero tensor keeps a positive tolerance.
    Taken per tensor over the last three axes, so a stack gets one scale each."""
    return np.abs(c).max(axis=(-3, -2, -1), initial=np.finfo(float).tiny)


def _pullback(c: np.ndarray, a: np.ndarray, b: np.ndarray, m: np.ndarray) -> np.ndarray:
    """T[i,j,k] = c[p,q,r] a[p,i] b[q,j] m[r,k], as three matrix products.

    Staged one slot at a time this costs O(d^4), against O(d^6) for the
    single four-operand einsum, and it needs no contraction-path search.
    On a stack, a, b and m are one (d, d) matrix for all tensors or one per tensor.
    """
    d = c.shape[-1]
    t = (a.swapaxes(-1, -2) @ c.reshape(*c.shape[:-3], d, -1)).reshape(c.shape)
    return (b.swapaxes(-1, -2)[..., None, :, :] @ t) @ m[..., None, :, :]


def _sym_pair(q: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Assemble T[i,j,k] = q[i,j] eta[k] + q[i,k] eta[j]."""
    return q[..., :, :, None] * eta + q[..., :, None, :] * eta[:, None]


def _membership_residuals(s: StructureData, c: np.ndarray) -> dict:
    """Worst-case residuals of the two defining identities, by name, unchecked."""
    axes = (-3, -2, -1)  # one residual per tensor of a stack
    sym = np.abs(c - c.swapaxes(-1, -2)).max(axis=axes)
    phi, xi, eta = s.phi, s.xi, s.eta
    f_xi_z = xi @ c  # F(x, xi, z)
    f_y_xi = c @ xi  # F(x, y, xi)
    rhs = phi.T @ c @ phi
    rhs += eta[:, None] * f_xi_z[..., :, None, :]
    rhs += f_y_xi[..., :, :, None] * eta
    rel = np.abs(c - rhs).max(axis=axes)
    return {"slot_symmetry": sym, "phi_relation": rel}


def _require_structure_tensor(s: StructureData, c: np.ndarray) -> None:
    """PreconditionError naming each membership residual above DEFAULT_RTOL * _scale(c).

    This is the one admissibility verdict, on one tensor: is_structure_tensor and
    every map on the admissible space (project_w, component, and decompose and
    classify through their door decomposition._admitted) ask it, under their own
    float-range rule.
    """
    bound = DEFAULT_RTOL * _scale(c)
    # `not <=` so that a NaN residual refuses rather than passes
    bad = {k: v for k, v in _membership_residuals(s, c).items() if not v <= bound}
    if bad:
        detail = ", ".join(f"{k} residual {v:.3e}" for k, v in bad.items())
        raise PreconditionError(f"tensor is not an admissible structure tensor: {detail}")


@_in_float_range
def is_structure_tensor(s: StructureData, f) -> bool:
    """True iff f satisfies both defining identities of the admissible space.

    Within DEFAULT_RTOL relative to _scale(f), the tensor's own max-abs,
    so the verdict does not depend on the tensor's overall scale.
    """
    try:
        _require_structure_tensor(s, _tensor(s, f))
    except PreconditionError:
        return False
    return True


@_in_float_range
def embed_structure_tensor(s: StructureData, f) -> np.ndarray:
    """Canonical surjection of an arbitrary rank-3 tensor onto the admissible space.

    With S the symmetrization of f in its last two slots and h = -phi^2,

        G(x,y,z) = (1/2) [S(x, h y, h z) + S(x, phi y, phi z)]
                   + eta(y) S(x, h z, xi) + eta(z) S(x, h y, xi).

    G always satisfies both identities, and G = f whenever f already
    does (the map is idempotent; this follows from phi^2 = -Id +
    eta (x) xi and the forced vanishing of F(x, xi, xi)).
    """
    return _sealed(_embed(s, _tensor(s, f)))


def _embed(s: StructureData, c: np.ndarray) -> np.ndarray:
    """embed_structure_tensor's G of c, unchecked; exact on Fraction arrays."""
    phi, eta, h = s.phi, s.eta, -s.phi2
    S = (c + c.swapaxes(-1, -2)) / 2
    s_h_xi = (S @ s.xi) @ h  # S(x, h y, xi)
    out = (h.T @ S @ h + phi.T @ S @ phi) / 2
    out += eta[:, None] * s_h_xi[..., :, None, :]
    out += s_h_xi[..., :, :, None] * eta
    return out


def random_structure_tensor(s: StructureData, seed: int) -> np.ndarray:
    """Seeded random element of the admissible space.

    Deterministic in (s, seed): entries drawn uniformly from [-1, 1]
    and pushed through embed_structure_tensor. seed is an integer >= 0.
    """
    rng = np.random.default_rng(_integer(seed, "seed", 0))
    return _sealed(_embed(s, rng.uniform(-1.0, 1.0, size=(s.dim,) * 3)))


@_in_float_range
def inner_product(s: StructureData, f1, f2) -> float:
    """Full triple contraction <f1, f2> with the inverse metric on all slots.

    Symmetric and bilinear. The metric is indefinite, so <f, f> can be
    negative or zero for nonzero f; magnitudes elsewhere use max-abs of
    components instead.
    """
    c1, c2 = _tensor(s, f1), _tensor(s, f2)
    return float(_sealed(_inner(s, c1, c2)))


def _inner(s: StructureData, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> of each pair of tensors of two stacks: one dot of a with b's g_inv pullback."""
    lead, gi_t = a.shape[:-3], s.g_inv.T
    return (a.reshape(*lead, 1, -1) @ _pullback(b, gi_t, gi_t, gi_t).reshape(*lead, -1, 1))[..., 0, 0]


@_in_float_range
def lee_forms(s: StructureData, f) -> LeeForms:
    """The Lee forms of f.

    theta and theta* are metric traces of f over the contact
    distribution: the contraction uses g_inv minus the Reeb-Reeb part
    xi (x) xi, which in a phi-basis is the sum over the 2n non-Reeb
    basis directions. omega(z) = F(xi, xi, z). Restricting the trace to
    the contact distribution is what makes theta and theta* vanish on
    the purely vertical classes, as the decomposition requires; theta*
    is unaffected by the restriction since phi xi = 0.
    """
    lf = _lee_forms(s, _tensor(s, f))  # sealed here: _lee_forms also runs on Fraction arrays
    return LeeForms(_sealed(lf.theta), _sealed(lf.theta_star), _sealed(lf.omega))


def _lee_forms(s: StructureData, c: np.ndarray) -> LeeForms:
    c = c.reshape(*c.shape[:-3], s.dim**2, s.dim)
    # one row product per form: a stacked product may round differently
    theta, theta_star, omega = (w @ c for w in s.lee_weights)
    return LeeForms(theta=theta, theta_star=theta_star, omega=omega)
