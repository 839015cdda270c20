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

O(n; C) has two components, det(A + iB) = +1 and -1. Sampling reaches
both in closed form: the Cayley transform of a complex skew matrix
lies in the first, and negating its first column moves it to the
second. For n = 1 the first component is trivial and the second is
the discrete element with blocks (A, B) = (-I_1, 0).
"""

from __future__ import annotations

import numpy as np

from .structure import (
    DEFAULT_RTOL, StructureData, _as_float_array, _in_float_range, _integer, _max_abs, _rank,
    _sealed, canonical_structure,
)
from .tensors import _pullback, _tensor

__all__ = [
    "random_group_element",
    "group_element_from_blocks",
    "validate_group_element",
    "act",
]


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
    """Seeded structure-group element, with det(A + iB) = (-1)^seed.

    Draws two skew-symmetric n x n matrices with entries in [-1, 1],
    forms the complex skew matrix k = (K1 + i K2) / (2n) and returns
    the Cayley transform q = (I - k)^-1 (I + k), which is complex
    orthogonal with det q = 1 and agrees with exp(2k) to second order.
    Each row of k sums to less than 1/sqrt(2) in modulus, so I - k is
    always invertible. An odd seed negates the first column of q, which
    moves it to the det = -1 component; at n = 1 that is (-I_1, 0).
    """
    n, seed = _rank(n), _integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    u1 = np.triu(rng.uniform(-1.0, 1.0, size=(n, n)), 1)
    u2 = np.triu(rng.uniform(-1.0, 1.0, size=(n, n)), 1)
    k = (u1 - u1.T + 1j * (u2 - u2.T)) / (2 * n)
    eye = np.eye(n)
    q = np.linalg.solve(eye - k, eye + k)
    if seed % 2:
        q[:, 0] *= -1
    return group_element_from_blocks(n, q.real, q.imag)


def group_element_from_blocks(n: int, a_block, b_block) -> np.ndarray:
    """Build an element from explicit contact blocks A, B, for example
    (A, B) = (diag(-1, 1, ..., 1), 0) of the det = -1 component.

    Rejects blocks that validate_group_element refuses: A^T A - B^T B = I
    and B^T A + A^T B = 0 must hold within its tolerance, relative to the
    square of the largest entry.
    """
    n = _rank(n)  # before n sizes the blocks
    a = _assemble(n, _as_float_array(a_block, (n, n), "block A"),
                  _as_float_array(b_block, (n, n), "block B"))
    if not validate_group_element(canonical_structure(n), a):
        raise ValueError("blocks do not satisfy the structure-group conditions")
    return a


@_in_float_range
def validate_group_element(s: StructureData, a) -> bool:
    """Check whether the matrix a is a structure-group element for s.

    Verifies fixation of xi, preservation of eta and g, and commutation
    with phi, each within DEFAULT_RTOL times the size its rounding grows
    with. With m = max(1, max-abs(a)), that is 1 for a xi = xi and
    eta a = eta, m for the commutator, which is linear in a, and m^2 for
    a^T g a = g, which is quadratic: an exact element far from the
    identity (entries cosh t) is accepted at any t, and a moved xi or
    eta is refused at any t. In the canonical basis these four hold
    exactly when a has the block form of the module docstring.
    """
    a = _as_float_array(a, (s.dim, s.dim), "matrix")
    m = max(1.0, _max_abs(a))
    fixed = _max_abs(a @ s.xi - s.xi, s.eta @ a - s.eta)
    commutator = _max_abs(a @ s.phi - s.phi @ a)
    metric = _max_abs(a.T @ s.g @ a - s.g)
    return fixed <= DEFAULT_RTOL and commutator <= DEFAULT_RTOL * m and metric <= DEFAULT_RTOL * m * m


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
    return _sealed(_act(_as_float_array(a, (s.dim, s.dim), "matrix"), c))


def _act(a: np.ndarray, cs: np.ndarray) -> np.ndarray:
    """act's pullback of cs by a^-1, unchecked: one matrix for all tensors of a stack or
    one per tensor. A singular matrix raises LinAlgError."""
    ai = np.linalg.inv(a)
    return _pullback(cs, ai, ai, ai)
