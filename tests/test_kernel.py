"""The one-pass component kernel against the per-class formulas.

`_component_arrays` builds every shared intermediate once, and `_w1_pair`
adds F2 and F3. Each of the eleven arrays is compared here with the
component formula written out with einsum, on non-canonical structures
and on random tensors both admissible and not. The decomposition is also
checked to be natural under a change of basis, and to stay exact on
Fraction arrays.
"""

from fractions import Fraction

import numpy as np
import pytest

import acbm.decomposition as dec
from acbm.decomposition import NUM_CLASSES, _component_arrays, _w1_pair, component, decompose
from acbm.structure import _max_abs, canonical_structure
from acbm.tensors import embed_structure_tensor, random_structure_tensor
from acbm.verify import run_suite

from conftest import basis_change, exact, exact_structure, push_structure, random_structure

REL = 1e-12
CASES = [(n, seed) for n in (1, 2, 3) for seed in range(3)]


def sym_pair(q, eta):
    return np.einsum("ij,k->ijk", q, eta) + np.einsum("ik,j->ijk", q, eta)


def formula_components(s, c) -> dict:
    """The eleven components of the tensor c, one formula each."""
    phi, xi, eta, g = s.phi, s.xi, s.eta, s.g
    P = phi @ phi
    two_n = 2.0 * s.n
    gi_h = s.g_inv - np.outer(xi, xi)
    theta = np.einsum("ij,ijk->k", gi_h, c)
    theta_star = np.einsum("ij,aj,iak->k", gi_h, phi, c)
    gp = np.einsum("ia,aj->ij", g, phi)
    gpp = np.einsum("ai,ab,bj->ij", phi, g, phi)
    t_phi, t_phi2 = phi.T @ theta, P.T @ theta
    f1 = (
        np.einsum("ij,k->ijk", gpp, t_phi2)
        + np.einsum("ij,k->ijk", gp, t_phi)
        + np.einsum("ik,j->ijk", gpp, t_phi2)
        + np.einsum("ik,j->ijk", gp, t_phi)
    ) / two_n
    t_xyz = np.einsum("abc,ai,bj,ck->ijk", c, P, P, P)
    t_yzx = np.einsum("abc,aj,bk,ci->ijk", c, P, P, P)
    t_yx = np.einsum("abc,aj,bk,ci->ijk", c, phi, P, phi)
    t_xzy = np.einsum("abc,ai,bk,cj->ijk", c, P, P, P)
    t_zyx = np.einsum("abc,ak,bj,ci->ijk", c, P, P, P)
    t_zx = np.einsum("abc,ak,bj,ci->ijk", c, phi, P, phi)
    theta_xi, theta_star_xi = theta @ xi, theta_star @ xi
    a = np.einsum("abc,ai,bj,c->ij", c, P, P, xi)
    b = np.einsum("abc,ai,bj,c->ij", c, phi, phi, xi)
    f10 = np.einsum("i,jk->ijk", eta, np.einsum("abc,a,bj,ck->jk", c, xi, P, P))
    f11 = -(
        np.einsum("i,j,k->ijk", eta, eta, np.einsum("abc,a,b,ck->k", c, xi, xi, P))
        + np.einsum("i,k,j->ijk", eta, eta, np.einsum("abc,a,bj,c->j", c, xi, P, xi))
    )
    return {
        1: f1,
        2: -0.25 * (t_xyz + t_yzx - t_yx + t_xzy + t_zyx - t_zx) - f1,
        3: -0.25 * (t_xyz - t_yzx + t_yx + t_xzy - t_zyx + t_zx),
        4: -(theta_xi / two_n) * sym_pair(gpp, eta),
        5: -(theta_star_xi / two_n) * sym_pair(gp, eta),
        6: (theta_xi / two_n) * sym_pair(gpp, eta)
        + (theta_star_xi / two_n) * sym_pair(gp, eta)
        + sym_pair(0.25 * (a + a.T - b - b.T), eta),
        7: sym_pair(0.25 * (a - a.T - b + b.T), eta),
        8: sym_pair(0.25 * (a + a.T + b + b.T), eta),
        9: sym_pair(0.25 * (a - a.T + b - b.T), eta),
        10: f10,
        11: f11,
    }


def raw_tensor(n: int, seed: int) -> np.ndarray:
    d = 2 * n + 1
    return np.random.default_rng(1000 + seed).uniform(-1.0, 1.0, size=(d, d, d))


@pytest.mark.parametrize("admissible", [True, False], ids=["admissible", "raw"])
@pytest.mark.parametrize("n, seed", CASES)
def test_kernel_matches_formulas(n, seed, admissible):
    s, f = random_structure(n, seed), raw_tensor(n, seed)
    if admissible:
        f = embed_structure_tensor(s, f)
    got = _component_arrays(s, f)
    got[2], got[3] = _w1_pair(s, f, got[1])
    want = formula_components(s, f)
    # relative to the input: at n = 1 some components of an admissible
    # tensor vanish, and their formulas give rounding noise only
    scale = _max_abs(f)
    for i in range(1, NUM_CLASSES + 1):
        assert got[i].shape == want[i].shape
        assert np.max(np.abs(got[i] - want[i])) <= REL * scale, f"F{i}"


def _canonical(n: int, seed: int):
    return canonical_structure(n)


@pytest.mark.parametrize(
    "make_structure, n, seed",
    [pytest.param(random_structure, n, seed, id=f"{n}-{seed}") for n, seed in CASES]
    + [
        pytest.param(_canonical, n, seed, id=f"canonical-{n}-{seed}")
        for n, seed in [(1, seed) for seed in range(5)] + [(2, 0), (3, 0)]
    ],
)
def test_decompose_equals_component_bitwise(make_structure, n, seed):
    s = make_structure(n, seed)
    f = random_structure_tensor(s, seed)
    d = decompose(s, f)
    for i in range(1, NUM_CLASSES + 1):
        assert d.components[i - 1].tobytes() == component(s, f, i).tobytes()


def _count_calls(monkeypatch, name: str, module=dec) -> list:
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_decompose_builds_shared_terms_once(monkeypatch):
    s = random_structure(2, 0)
    f = random_structure_tensor(s, 0)
    lee = _count_calls(monkeypatch, "_lee_forms")
    w1 = _count_calls(monkeypatch, "_w1_pair")
    decompose(s, f)
    assert (len(lee), len(w1)) == (1, 1)


def test_dim3_suite_decomposes_once_per_seed(monkeypatch):
    """One decompose and one dim3_decompose per seed, each checking its tensor once."""
    single = _count_calls(monkeypatch, "component")
    whole = _count_calls(monkeypatch, "decompose")
    fast = _count_calls(monkeypatch, "dim3_decompose")
    gate = _count_calls(monkeypatch, "_require_structure_tensor")
    assert all(check.passed for check in run_suite("dim3", 3))
    assert (len(single), len(whole), len(fast), len(gate)) == (0, 3, 3, 6)


@pytest.mark.parametrize("i", range(1, NUM_CLASSES + 1))
def test_component_builds_only_what_it_needs(monkeypatch, i):
    s = random_structure(1, 0)
    f = random_structure_tensor(s, 0)
    lee = _count_calls(monkeypatch, "_lee_forms")
    w1 = _count_calls(monkeypatch, "_w1_pair")
    component(s, f, i)
    assert len(lee) == 1
    assert len(w1) == (i in (2, 3))


@pytest.mark.parametrize("n, seed", [(n, seed) for n in (1, 2, 3) for seed in range(5)])
def test_gl_naturality(n, seed):
    """Components of the pushed tensor are the pushed components."""
    s = canonical_structure(n)
    f = random_structure_tensor(s, seed)
    t = basis_change(n, seed + 100)
    t_inv = np.linalg.inv(t)
    pushed = push_structure(s, t)

    def push(x: np.ndarray) -> np.ndarray:
        return np.einsum("abc,ai,bj,ck->ijk", x, t_inv, t_inv, t_inv)

    got = decompose(pushed, push(f))
    want = decompose(s, f)
    scale = _max_abs(f)
    for i in range(NUM_CLASSES):
        diff = got.components[i] - push(want.components[i])
        assert _max_abs(diff) <= 1e-12 * scale, f"F{i + 1}"


@pytest.mark.parametrize("t", [np.eye(3), [[1, 0.5, 0], [0, 1, -3], [2, 0, 1]]], ids=["canonical", "rational"])
def test_kernel_keeps_exact_input_exact(t):
    """On Fraction arrays the kernel is exact: the components of an admissible tensor
    sum back to it, are pairwise orthogonal and satisfy their class identities, each
    with residual exactly 0, and no float enters the output (a float literal in the
    kernel would turn its entries into floats). The float kernel agrees with it."""
    s = exact_structure(1, t)
    c = exact(np.random.default_rng(0).integers(-3, 4, (3, 3, 3)))
    # the formula of embed_structure_tensor, in exact arithmetic
    S = (c + c.transpose(0, 2, 1)) / 2
    s_h_xi = -(S @ s.xi) @ s.phi2
    c = (s.phi2.T @ S @ s.phi2 + s.phi.T @ S @ s.phi) / 2
    c += s.eta[:, None] * s_h_xi[:, None, :] + s_h_xi[:, :, None] * s.eta
    arrays = _component_arrays(s, c)
    arrays[2], arrays[3] = _w1_pair(s, c, arrays[1])
    stack = np.stack([arrays[i] for i in range(1, NUM_CLASSES + 1)])
    assert {type(x) for x in stack.ravel()} == {Fraction}
    assert not np.any(stack.sum(axis=0) - c)
    gi = s.g_inv
    for i in range(NUM_CLASSES):
        assert dec._class_residual(s, stack[i], i + 1) == 0, f"F{i + 1}"
        for j in range(i):
            assert np.einsum("abc,ad,be,cf,def->", stack[i], gi, gi, gi, stack[j]) == 0, (i + 1, j + 1)
    floats = push_structure(canonical_structure(1), np.asarray(t, dtype=float))
    got = decompose(floats, c.astype(float)).components
    assert _max_abs(got - stack.astype(float)) <= 1e-14 * _max_abs(c.astype(float))
