import numpy as np
import pytest

from acbm.structure import StructureData, canonical_structure


def basis_change(n: int, seed: int) -> np.ndarray:
    """A seeded random well-conditioned (2n+1) x (2n+1) change of basis."""
    rng = np.random.default_rng(seed)
    d = 2 * n + 1
    t = np.eye(d) + 0.3 * rng.uniform(-1.0, 1.0, size=(d, d))
    if abs(np.linalg.det(t)) < 1e-3:  # pragma: no cover - essentially never
        t = np.eye(d) + 0.1 * rng.uniform(-1.0, 1.0, size=(d, d))
    return t


def push_structure(s: StructureData, t: np.ndarray) -> StructureData:
    """The structure s pushed forward through the change of basis t."""
    t_inv = np.linalg.inv(t)
    return StructureData(
        n=s.n,
        g=t_inv.T @ s.g @ t_inv,
        phi=t @ s.phi @ t_inv,
        xi=t @ s.xi,
        eta=s.eta @ t_inv,
    )


def random_structure(n: int, seed: int) -> StructureData:
    """A valid non-canonical structure: the canonical one pushed forward
    through a random well-conditioned change of basis."""
    return push_structure(canonical_structure(n), basis_change(n, seed))


@pytest.fixture
def s1():
    return canonical_structure(1)


@pytest.fixture
def s2():
    return canonical_structure(2)
