"""The structure group and its action on rank-3 tensors.

The linear maps preserving a structure (fixing xi, preserving eta and
g, commuting with phi) form a group isomorphic to the complex
orthogonal group O(n; C): in the canonical basis, with xi moved last,
its elements are block matrices

    [  A  B  0 ]
    [ -B  A  0 ],       A^T A - B^T B = I_n,   B^T A + A^T B = 0_n.
    [  0  0  1 ]

A + iB is then a complex orthogonal matrix. An element is that
(2n+1) x (2n+1) matrix itself, returned read-only, and the product of
two elements is a @ b. The group acts on rank-3 tensors by pullback,
((lambda a) F)(x, y, z) = F(a^-1 x, a^-1 y, a^-1 z), and the whole
class decomposition is equivariant under this action.

Sampling covers the identity component only (matrix exponentials of
complex skew matrices); for n = 1 that component is trivial, so
dimension-3 equivariance checks use the explicit discrete element
with blocks (A, B) = (-I_n, 0).
"""

from __future__ import annotations

import numpy as np

from .structure import DEFAULT_RTOL, StructureData, canonical_structure
from .tensors import Tensor3, _check_dims, _pullback

__all__ = [
    "random_group_element",
    "group_element_from_blocks",
    "validate_group_element",
    "act",
]

# Taylor-series truncation threshold for the matrix exponential.
_EXPM_TOL = 1e-14
_EXPM_MAX_TERMS = 64


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
    """Read-only group matrix in the xi-first basis from contact blocks A, B."""
    d = 2 * n + 1
    a = np.zeros((d, d))
    a[0, 0] = 1.0
    a[1 : n + 1, 1 : n + 1] = a_block
    a[1 : n + 1, n + 1 :] = b_block
    a[n + 1 :, 1 : n + 1] = -b_block
    a[n + 1 :, n + 1 :] = a_block
    a.flags.writeable = False
    return a


def random_group_element(n: int, seed: int) -> np.ndarray:
    """Seeded element of the identity component of the structure group.

    Draws two skew-symmetric n x n matrices with entries in [-1, 1]
    scaled by 1/n, exponentiates their complex combination through the
    real 2n x 2n representation [[K1, -K2], [K2, K1]], and assembles
    the xi-first block matrix. The result is checked by
    validate_group_element before it is returned; a failure there is a
    defect, not bad input.
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
    a = _assemble(n, a_block, b_block)
    if rep_residual > DEFAULT_RTOL or not validate_group_element(canonical_structure(n), a):
        raise RuntimeError(
            f"generated group element failed verification (expm residual {rep_residual:.3e})"
        )
    return a


def group_element_from_blocks(n: int, a_block, b_block) -> np.ndarray:
    """Build an element from explicit contact blocks A, B.

    Rejects blocks violating A^T A - B^T B = I or B^T A + A^T B = 0
    beyond DEFAULT_RTOL. Useful for the discrete representative
    (A, B) = (-I_n, 0), which the identity-component sampler cannot reach.
    """
    a_block = np.array(a_block, dtype=float)
    b_block = np.array(b_block, dtype=float)
    if a_block.shape != (n, n) or b_block.shape != (n, n):
        raise ValueError(f"blocks must be {n}x{n}")
    a = _assemble(n, a_block, b_block)
    if not validate_group_element(canonical_structure(n), a):
        raise ValueError("blocks do not satisfy the structure-group conditions")
    return a


def validate_group_element(s: StructureData, a) -> bool:
    """Check whether the matrix a is a structure-group element for s.

    Verifies fixation of xi, preservation of eta and g, and commutation
    with phi, each within DEFAULT_RTOL. In the canonical basis these four
    hold exactly when a has the block form of the module docstring.
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
    return float(max(residuals)) <= DEFAULT_RTOL


def act(s: StructureData, a, f: Tensor3) -> Tensor3:
    """Pullback action of an invertible matrix on a rank-3 tensor.

    ((lambda a) F)(x, y, z) = F(a^-1 x, a^-1 y, a^-1 z). For a group
    element the action preserves the admissible space and the induced
    inner product, and commutes with every projector and component map.
    """
    _check_dims(s, f)
    a = np.asarray(a, dtype=float)
    if a.shape != (s.dim, s.dim):
        raise ValueError(f"matrix must have shape {(s.dim, s.dim)}, got {a.shape}")
    ai = np.linalg.inv(a)  # a singular matrix raises LinAlgError, a ValueError
    return Tensor3._wrap(_pullback(f.comps, ai, ai, ai))
