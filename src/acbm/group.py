"""The structure group and its action on rank-3 tensors.

The linear maps preserving a structure (fixing xi, preserving eta and
g, commuting with phi) form a group isomorphic to the complex
orthogonal group O(n; C): in the canonical basis, with xi moved last,
its elements are block matrices

    [  A  B  0 ]
    [ -B  A  0 ],       A^T A - B^T B = I_n,   B^T A + A^T B = 0_n.
    [  0  0  1 ]

A + iB is then a complex orthogonal matrix. The group acts on rank-3
tensors by pullback, ((lambda a) F)(x, y, z) = F(a^-1 x, a^-1 y,
a^-1 z), and the whole class decomposition is equivariant under this
action.

Sampling covers the identity component only (matrix exponentials of
complex skew matrices); for n = 1 that component is trivial, so
dimension-3 equivariance checks use the explicit discrete element
with blocks (A, B) = (-I_n, 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .structure import DEFAULT_RTOL, StructureData, is_canonical_basis
from .tensors import Tensor3, _check_dims, _pullback

__all__ = [
    "GroupElement",
    "random_group_element",
    "group_element_from_blocks",
    "validate_group_element",
    "act",
]

# Taylor-series truncation threshold for the matrix exponential.
_EXPM_TOL = 1e-14
_EXPM_MAX_TERMS = 64


@dataclass(frozen=True, eq=False)
class GroupElement:
    """A structure-group element with cached inverse and contact blocks."""

    a: np.ndarray
    a_inv: np.ndarray
    blocks: tuple

    @property
    def n(self) -> int:
        return self.blocks[0].shape[0]

    def compose(self, other: "GroupElement") -> "GroupElement":
        """Group product self * other (apply other first under pullback)."""
        a1, b1 = self.blocks
        a2, b2 = other.blocks
        return GroupElement(
            a=self.a @ other.a,
            a_inv=other.a_inv @ self.a_inv,
            blocks=(a1 @ a2 - b1 @ b2, a1 @ b2 + b1 @ a2),
        )


def _expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential via scaling-and-squaring of a Taylor series."""
    norm = float(np.linalg.norm(m, 1))
    squarings = 0 if norm <= 0.5 else int(np.ceil(np.log2(norm / 0.5)))
    a = m / (2.0 ** squarings)
    out = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for k in range(1, _EXPM_MAX_TERMS + 1):
        term = term @ a / k
        out = out + term
        if np.max(np.abs(term)) <= _EXPM_TOL:
            break
    else:
        raise RuntimeError("matrix exponential series did not converge")
    for _ in range(squarings):
        out = out @ out
    return out


def _assemble(n: int, a_block: np.ndarray, b_block: np.ndarray) -> np.ndarray:
    """Group matrix in the xi-first basis from contact blocks A, B."""
    d = 2 * n + 1
    a = np.zeros((d, d))
    a[0, 0] = 1.0
    a[1 : n + 1, 1 : n + 1] = a_block
    a[1 : n + 1, n + 1 :] = b_block
    a[n + 1 :, 1 : n + 1] = -b_block
    a[n + 1 :, n + 1 :] = a_block
    return a


def _block_residuals(a_block: np.ndarray, b_block: np.ndarray) -> float:
    n = a_block.shape[0]
    r1 = np.max(np.abs(a_block.T @ a_block - b_block.T @ b_block - np.eye(n)))
    r2 = np.max(np.abs(b_block.T @ a_block + a_block.T @ b_block))
    return float(max(r1, r2))


def random_group_element(n: int, seed: int) -> GroupElement:
    """Seeded element of the identity component of the structure group.

    Draws two skew-symmetric n x n matrices with entries in [-1, 1]
    scaled by 1/n, exponentiates their complex combination through the
    real 2n x 2n representation [[K1, -K2], [K2, K1]], and assembles
    the xi-first block matrix. Every invariant is verified to DEFAULT_RTOL
    before returning; a failure there is a defect, not bad input.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    u1 = np.triu(rng.uniform(-1.0, 1.0, size=(n, n)), 1)
    u2 = np.triu(rng.uniform(-1.0, 1.0, size=(n, n)), 1)
    k1 = (u1 - u1.T) / n
    k2 = (u2 - u2.T) / n
    rep = np.block([[k1, -k2], [k2, k1]])
    e = _expm(rep)
    a_block = e[:n, :n]
    b_block = e[n:, :n]
    # internal consistency of the real representation
    rep_residual = max(
        np.max(np.abs(e[n:, n:] - a_block)), np.max(np.abs(e[:n, n:] + b_block))
    )
    elem = GroupElement(
        a=_assemble(n, a_block, b_block),
        a_inv=_assemble(n, a_block.T, b_block.T),
        blocks=(a_block, b_block),
    )
    worst = max(
        rep_residual,
        _block_residuals(a_block, b_block),
        float(np.max(np.abs(elem.a @ elem.a_inv - np.eye(2 * n + 1)))),
    )
    if worst > DEFAULT_RTOL:
        raise RuntimeError(
            f"generated group element failed verification (residual {worst:.3e})"
        )
    return elem


def group_element_from_blocks(n: int, a_block, b_block) -> GroupElement:
    """Build an element from explicit contact blocks A, B.

    Rejects blocks violating A^T A - B^T B = I or B^T A + A^T B = 0
    beyond DEFAULT_RTOL. Useful for the discrete representative
    (A, B) = (-I_n, 0), which the identity-component sampler cannot reach.
    """
    a_block = np.array(a_block, dtype=float)
    b_block = np.array(b_block, dtype=float)
    if a_block.shape != (n, n) or b_block.shape != (n, n):
        raise ValueError(f"blocks must be {n}x{n}")
    if _block_residuals(a_block, b_block) > DEFAULT_RTOL:
        raise ValueError("blocks do not satisfy the structure-group conditions")
    a = _assemble(n, a_block, b_block)
    return GroupElement(a=a, a_inv=np.linalg.inv(a), blocks=(a_block, b_block))


def validate_group_element(s: StructureData, a) -> bool:
    """Check whether the matrix a is a structure-group element for s.

    Verifies fixation of xi, preservation of eta and g, and commutation
    with phi, each within DEFAULT_RTOL. When s is in canonical
    coordinates the block conditions are additionally checked after
    permuting to the xi-last layout.
    """
    a = np.asarray(a, dtype=float)
    d = s.dim
    if a.shape != (d, d):
        raise ValueError(f"matrix must have shape {(d, d)}, got {a.shape}")
    residuals = [
        np.max(np.abs(a @ s.xi - s.xi)),
        np.max(np.abs(s.eta @ a - s.eta)),
        np.max(np.abs(a @ s.phi - s.phi @ a)),
        np.max(np.abs(a.T @ s.g @ a - s.g)),
    ]
    if is_canonical_basis(s):
        n = s.n
        perm = list(range(1, d)) + [0]
        ap = a[np.ix_(perm, perm)]
        a_block = ap[:n, :n]
        b_block = ap[:n, n : 2 * n]
        residuals.extend(
            [
                abs(ap[2 * n, 2 * n] - 1.0),
                np.max(np.abs(ap[2 * n, : 2 * n])),
                np.max(np.abs(ap[: 2 * n, 2 * n])),
                np.max(np.abs(ap[n : 2 * n, :n] + b_block)),
                np.max(np.abs(ap[n : 2 * n, n : 2 * n] - a_block)),
                _block_residuals(a_block, b_block),
            ]
        )
    return float(max(residuals)) <= DEFAULT_RTOL


def act(s: StructureData, elem: GroupElement, f: Tensor3) -> Tensor3:
    """Pullback action of a group element on a rank-3 tensor.

    ((lambda a) F)(x, y, z) = F(a^-1 x, a^-1 y, a^-1 z). The action
    preserves the admissible space, the induced inner product, and
    commutes with every projector and component map.
    """
    _check_dims(s, f)
    if elem.a.shape != (s.dim, s.dim):
        raise ValueError("group element dimension does not match structure")
    ai = elem.a_inv
    return Tensor3._wrap(_pullback(f.comps, ai, ai, ai))
