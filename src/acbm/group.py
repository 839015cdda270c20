"""The structure group and its action on rank-3 tensors.

The linear maps preserving a structure (fixing xi, preserving eta and
g, commuting with phi) form a group isomorphic to the complex
orthogonal group O(n; C): in the canonical basis, xi first, its
elements are block matrices

    [ 1  0  0 ]
    [ 0  A  B ],       A^T A - B^T B = I_n,   B^T A + A^T B = 0_n.
    [ 0 -B  A ]

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

from .structure import (
    DEFAULT_RTOL, StructureData, _as_float_array, _in_float_range, _rank, _sealed, canonical_structure,
)
from .tensors import _max_abs, _pullback, _tensor

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
    n = _rank(n)
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
    rep_residual = _max_abs(e[n:, n:] - a_block, e[:n, n:] + b_block)
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
    s = canonical_structure(n)  # the rank rule, before n sizes the blocks
    a = _assemble(n, _as_float_array(a_block, (n, n), "block A"),
                  _as_float_array(b_block, (n, n), "block B"))
    if not validate_group_element(s, a):
        raise ValueError("blocks do not satisfy the structure-group conditions")
    return a


@_in_float_range
def validate_group_element(s: StructureData, a) -> bool:
    """Check whether the matrix a is a structure-group element for s.

    Verifies fixation of xi, preservation of eta and g, and commutation
    with phi, each within DEFAULT_RTOL. In the canonical basis these four
    hold exactly when a has the block form of the module docstring.
    """
    a = _as_float_array(a, (s.dim, s.dim), "matrix")
    residual = _max_abs(a @ s.xi - s.xi, s.eta @ a - s.eta, a @ s.phi - s.phi @ a, a.T @ s.g @ a - s.g)
    return residual <= DEFAULT_RTOL


@_in_float_range
def act(s: StructureData, a, f) -> np.ndarray:
    """Pullback action of an invertible matrix on a rank-3 tensor.

    ((lambda a) F)(x, y, z) = F(a^-1 x, a^-1 y, a^-1 z). For a group
    element the action preserves the admissible space and the induced
    inner product, and commutes with every projector and component map.
    A singular matrix raises LinAlgError; an ill-conditioned one whose
    pullback overflows, the ValueError "result overflows the floating-point range (...)".
    """
    c = _tensor(s, f)
    ai = np.linalg.inv(_as_float_array(a, (s.dim, s.dim), "matrix"))  # singular: LinAlgError
    return _sealed(_pullback(c, ai, ai, ai))
