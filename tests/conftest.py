from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from acbm.structure import StructureData, _derived, canonical_structure


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


def exact(a) -> np.ndarray:
    """a as an object array of Fraction, entry by entry; a float is taken at its binary value."""
    a = np.asarray(a)
    return np.array([Fraction(x) for x in a.ravel().tolist()], dtype=object).reshape(a.shape)


def _exact_inverse(t: np.ndarray) -> np.ndarray:
    """The inverse of the invertible Fraction matrix t, by Gauss-Jordan elimination."""
    d = len(t)
    m = np.concatenate([t, exact(np.eye(d))], axis=1)
    for k in range(d):
        p = next(r for r in range(k, d) if m[r, k] != 0)
        m[[k, p]] = m[[p, k]]
        m[k] = m[k] / m[k, k]
        for r in range(d):
            if r != k:
                m[r] = m[r] - m[r, k] * m[k]
    return m[:, d:]


def exact_structure(n: int, t) -> SimpleNamespace:
    """canonical_structure(n) pushed forward through the integer or rational matrix t, in
    exact arithmetic: the fields the kernel reads, each an object array of Fraction, the
    derived ones built by the function StructureData builds them with."""
    c = canonical_structure(n)
    t = exact(t)
    t_inv = _exact_inverse(t)
    g, phi, xi, eta = t_inv.T @ exact(c.g) @ t_inv, t @ exact(c.phi) @ t_inv, t @ exact(c.xi), exact(c.eta) @ t_inv
    g_inv = t @ exact(c.g) @ t.T  # the canonical g is its own inverse
    return SimpleNamespace(
        n=n, dim=2 * n + 1, g=g, phi=phi, xi=xi, eta=eta, g_inv=g_inv, **_derived(g, phi, xi, g_inv),
    )


# Dimension-3 tensors of single classes over the canonical structure.
def f8_form(lam: float = 1.0) -> np.ndarray:
    """Dimension-3 class-F8 tensor with coefficient lam."""
    c = np.zeros((3, 3, 3))
    c[1, 0, 1] = c[1, 1, 0] = c[2, 0, 2] = c[2, 2, 0] = lam
    return c


def f4_form(theta0: float = 2.0) -> np.ndarray:
    """Dimension-3 class-F4 tensor with theta(xi) = theta0."""
    c = np.zeros((3, 3, 3))
    half = 0.5 * theta0
    c[1, 0, 1] = c[1, 1, 0] = half
    c[2, 0, 2] = c[2, 2, 0] = -half
    return c


def f10_form(nu: float = 1.0) -> np.ndarray:
    c = np.zeros((3, 3, 3))
    c[0, 1, 1] = c[0, 2, 2] = nu
    return c


def f11_form(w1: float = 1.0, w2: float = 0.0) -> np.ndarray:
    c = np.zeros((3, 3, 3))
    c[0, 1, 0] = c[0, 0, 1] = w1
    c[0, 2, 0] = c[0, 0, 2] = w2
    return c


def f1_form(th1: float = 1.0, th2: float = 0.0) -> np.ndarray:
    c = np.zeros((3, 3, 3))
    c[1, 1, 1] = c[1, 2, 2] = th1
    c[2, 1, 1] = c[2, 2, 2] = -th2
    return c


@pytest.fixture
def s1():
    return canonical_structure(1)


@pytest.fixture
def s2():
    return canonical_structure(2)
