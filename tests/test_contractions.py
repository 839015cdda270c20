"""Staged matrix-product contractions against their einsum formulas.

Each rewritten function is compared with the einsum expression it
replaced, written out here, on non-canonical structures and on random
tensors that are not admissible: the private bodies where the public
function refuses such a tensor. Canonical structures would not do:
there phi and phi^2 are signed permutations, so a transposed factor in
a pullback can give exactly the same numbers.
"""

import numpy as np
import pytest

from acbm.decomposition import _block, _class_residual, _component_arrays, _involution, project_w
from acbm.group import act
from acbm.structure import canonical_structure
from acbm.models import _connection_residuals, koszul_connection, structure_tensor_from_connection
from acbm.tensors import (
    _membership_residuals,
    _pullback,
    embed_structure_tensor,
    inner_product,
    lee_forms,
    random_structure_tensor,
)

from conftest import random_structure

REL = 1e-12
CASES = [(n, seed) for n in (1, 2, 3) for seed in range(3)]


def raw_tensor(n: int, seed: int) -> np.ndarray:
    d = 2 * n + 1
    return np.random.default_rng(1000 + seed).uniform(-1.0, 1.0, size=(d, d, d))


def assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = float(np.max(np.abs(want)))
    assert scale > 0.0
    assert float(np.max(np.abs(got - want))) <= REL * scale


@pytest.mark.parametrize("n, seed", CASES)
def test_pullback(n, seed):
    rng = np.random.default_rng(seed)
    d = 2 * n + 1
    c = rng.uniform(-1.0, 1.0, size=(d, d, d))
    a, b, m = rng.uniform(-1.0, 1.0, size=(3, d, d))
    assert_close(_pullback(c, a, b, m), np.einsum("pqr,pi,qj,rk->ijk", c, a, b, m))


@pytest.mark.parametrize("n, seed", CASES)
def test_membership_residuals(n, seed):
    s, c = random_structure(n, seed), raw_tensor(n, seed)
    phi, xi, eta = s.phi, s.xi, s.eta
    rhs = (
        np.einsum("iab,aj,bk->ijk", c, phi, phi)
        + np.einsum("j,ik->ijk", eta, np.einsum("iak,a->ik", c, xi))
        + np.einsum("k,ij->ijk", eta, np.einsum("ija,a->ij", c, xi))
    )
    got = _membership_residuals(s, c)
    assert got["phi_relation"] == pytest.approx(np.max(np.abs(c - rhs)), rel=REL)


@pytest.mark.parametrize("n, seed", CASES)
def test_embed_structure_tensor(n, seed):
    s, t = random_structure(n, seed), raw_tensor(n, seed)
    S = 0.5 * (t + t.transpose(0, 2, 1))
    phi, xi, eta = s.phi, s.xi, s.eta
    h = -(phi @ phi)
    s_h_xi = np.einsum("iab,aj,b->ij", S, h, xi)
    want = 0.5 * (
        np.einsum("iab,aj,bk->ijk", S, h, h) + np.einsum("iab,aj,bk->ijk", S, phi, phi)
    )
    want += np.einsum("j,ik->ijk", eta, s_h_xi) + np.einsum("k,ij->ijk", eta, s_h_xi)
    assert_close(embed_structure_tensor(s, t), want)


@pytest.mark.parametrize("n, seed", CASES)
def test_inner_product(n, seed):
    s = random_structure(n, seed)
    f1, f2 = raw_tensor(n, seed), raw_tensor(n, seed + 7)
    gi = s.g_inv
    terms = np.einsum("iq,jr,ks,ijk,qrs->ijkqrs", gi, gi, gi, f1, f2)
    # relative to the sum of |terms|: the indefinite metric lets them cancel
    got = inner_product(s, f1, f2)
    assert abs(got - terms.sum()) <= REL * np.abs(terms).sum()


@pytest.mark.parametrize("n, seed", CASES)
def test_lee_forms(n, seed):
    s, c = random_structure(n, seed), raw_tensor(n, seed)
    gi_h = s.g_inv - np.outer(s.xi, s.xi)
    lf = lee_forms(s, c)
    assert_close(lf.theta, np.einsum("ij,ijk->k", gi_h, c))
    assert_close(lf.theta_star, np.einsum("ij,aj,iak->k", gi_h, s.phi, c))
    assert_close(lf.omega, np.einsum("a,b,abk->k", s.xi, s.xi, c))


@pytest.mark.parametrize("n, seed", CASES)
def test_act(n, seed):
    s, f = random_structure(n, seed), raw_tensor(n, seed)
    d = s.dim
    a = np.eye(d) + 0.3 * np.random.default_rng(seed).uniform(-1.0, 1.0, size=(d, d))
    ai = np.linalg.inv(a)
    # act takes any invertible matrix, so a general one tests it
    assert_close(act(s, a, f), np.einsum("abc,ai,bj,ck->ijk", f, ai, ai, ai))


def block_reference(s, c: np.ndarray) -> dict:
    """The four block projections p1..p4 of c, as einsum expressions."""
    xi, eta = s.xi, s.eta
    P = s.phi @ s.phi
    return {
        1: -np.einsum("abc,ai,bj,ck->ijk", c, P, P, P),
        2: np.einsum("j,ik->ijk", eta, np.einsum("abc,ai,b,ck->ik", c, P, xi, P))
        + np.einsum("k,ij->ijk", eta, np.einsum("abc,ai,bj,c->ij", c, P, P, xi)),
        3: np.einsum("i,jk->ijk", eta, np.einsum("abc,a,bj,ck->jk", c, xi, P, P)),
        4: -(
            np.einsum("i,j,k->ijk", eta, eta, np.einsum("abc,a,b,ck->k", c, xi, xi, P))
            + np.einsum("i,k,j->ijk", eta, eta, np.einsum("abc,a,bj,c->j", c, xi, P, xi))
        ),
    }


@pytest.mark.parametrize("n, seed", CASES)
def test_block(n, seed):
    """Each block of one tensor, and row by row of a stack of two."""
    s = random_structure(n, seed)
    fs = np.stack([raw_tensor(n, seed), raw_tensor(n, seed + 3)])
    stacked = {i: _block(s, fs, i) for i in (1, 2, 3, 4)}
    for k, f in enumerate(fs):
        want = block_reference(s, f)
        for i in (1, 2, 3, 4):
            assert_close(_block(s, f, i), want[i])
            assert_close(stacked[i][k], want[i])


@pytest.mark.parametrize("n, seed", CASES)
def test_project_w(n, seed):
    """The public projection, past its admissibility gate, on a tensor
    admissible for the non-canonical structure: the four blocks sum back."""
    s = random_structure(n, seed)
    f = random_structure_tensor(s, seed)
    want = block_reference(s, f)
    for i in (1, 2, 3, 4):
        assert_close(project_w(s, f, i), want[i])
    assert_close(sum(project_w(s, f, i) for i in (1, 2, 3, 4)), f)


@pytest.mark.parametrize("n, seed", CASES)
def test_w2_brackets(n, seed):
    """The brackets A = F(phi^2 ., phi^2 ., xi) and B = F(phi ., phi ., xi) as the
    involutions L1, L2 and the W2 components F6..F9 read them, through one sign table."""
    s, c = random_structure(n, seed), raw_tensor(n, seed)
    P, xi, eta = s.phi @ s.phi, s.xi, s.eta
    a = np.einsum("abc,ai,bj,c->ij", c, P, P, xi)
    b = np.einsum("abc,ai,bj,c->ij", c, s.phi, s.phi, xi)

    def pair(q):  # q[i, j] eta[k] + q[i, k] eta[j]
        return np.einsum("ij,k->ijk", q, eta) + np.einsum("ik,j->ijk", q, eta)

    assert_close(_involution(s, c, 1), np.einsum("ji,k->ijk", a, eta) + np.einsum("ki,j->ijk", a, eta))
    assert_close(_involution(s, c, 2), pair(b))
    arrays = _component_arrays(s, c)
    # one scale for the four: F6 and F7 vanish at n = 1, where each reads rounding noise
    got = [arrays[6] + arrays[4] + arrays[5], arrays[7], arrays[8], arrays[9]]
    want = [
        pair((a + a.T - b - b.T) / 4),
        pair((a - a.T - b + b.T) / 4),
        pair((a + a.T + b + b.T) / 4),
        pair((a - a.T + b - b.T) / 4),
    ]
    assert_close(np.stack(got), np.stack(want))


@pytest.mark.parametrize("n, seed", CASES)
def test_class_residual_f10_f11(n, seed):
    s, f = random_structure(n, seed), raw_tensor(n, seed)
    c, phi, xi, eta = f, s.phi, s.xi, s.eta
    e_mat = np.einsum("abc,a,bj,ck->jk", c, xi, phi, phi)
    f10 = np.max(np.abs(c - np.einsum("i,jk->ijk", eta, e_mat)))
    omega = np.einsum("a,b,abk->k", xi, xi, c)
    recon = np.einsum("i,j,k->ijk", eta, eta, omega) + np.einsum("i,k,j->ijk", eta, eta, omega)
    f11 = np.max(np.abs(c - recon))
    assert _class_residual(s, f, 10) == pytest.approx(f10, rel=REL)
    assert _class_residual(s, f, 11) == pytest.approx(f11, rel=REL)


@pytest.mark.parametrize("n, seed", CASES)
def test_class_residual(n, seed):
    """Classes F1..F9; F10 and F11 are in test_class_residual_f10_f11."""
    s, f = random_structure(n, seed), raw_tensor(n, seed)
    c, phi, xi, eta = f, s.phi, s.xi, s.eta
    lf = lee_forms(s, f)

    def worst(*arrays):
        return max(float(np.max(np.abs(a))) for a in arrays)

    first, second = np.einsum("ajk,a->jk", c, xi), np.einsum("iak,a->ik", c, xi)
    cyc_phi = (
        np.einsum("ijc,ck->ijk", c, phi)
        + np.einsum("jkc,ci->ijk", c, phi)
        + np.einsum("kic,cj->ijk", c, phi)
    )
    cyc = c + c.transpose(1, 2, 0) + c.transpose(2, 0, 1)
    d_mat = np.einsum("ija,a->ij", c, xi)
    b_mat = np.einsum("abc,ai,bj,c->ij", c, phi, phi, xi)
    recon = c - np.einsum("ij,k->ijk", d_mat, eta) - np.einsum("ik,j->ijk", d_mat, eta)
    arrays = _component_arrays(s, f)
    want = {i: worst(c - arrays[i]) for i in (1, 4, 5)}
    want[2] = worst(first, second, cyc_phi, lf.theta)
    want[3] = worst(first, second, cyc)
    want[6] = worst(recon, d_mat - d_mat.T, d_mat + b_mat, lf.theta, lf.theta_star)
    want[7] = worst(recon, d_mat + d_mat.T, d_mat + b_mat)
    want[8] = worst(recon, d_mat - d_mat.T, d_mat - b_mat)
    want[9] = worst(recon, d_mat + d_mat.T, d_mat - b_mat)
    for i in range(1, 10):
        assert _class_residual(s, f, i) == pytest.approx(want[i], rel=REL)



def test_class_residual_second_slot_xi():
    """F3 on a tensor whose only violated F3 condition is F(x, xi, z) = 0
    (no vertical first slot, zero cyclic sum), which random tensors never isolate."""
    c = np.zeros((3, 3, 3))
    c[1, 0, 2], c[2, 1, 0] = 1.0, -1.0
    assert _class_residual(canonical_structure(1), c, 3) == 1.0

@pytest.mark.parametrize("n, seed", CASES)
def test_koszul_pipeline(n, seed):
    """The Koszul solve on a non-diagonal metric, and the two maps that read
    a Christoffel array on an arbitrary one (not a Levi-Civita connection,
    whose residuals would be rounding noise): the residuals' body on a stack of one."""
    s = random_structure(n, seed)
    d, g, phi = s.dim, s.g, s.phi
    c = raw_tensor(n, seed + 3)
    rhs = (
        np.einsum("ijm,mk->ijk", c, g)
        + np.einsum("kim,mj->ijk", c, g)
        + np.einsum("kjm,mi->ijk", c, g)
    )
    want = np.zeros((d, d, d))
    for i in range(d):
        for j in range(d):
            want[i, j] = np.linalg.solve(g, 0.5 * rhs[i, j])
    assert_close(koszul_connection(s, c), want)

    gamma = raw_tensor(n, seed + 5)
    torsion = gamma - gamma.transpose(1, 0, 2) - c
    compat = np.einsum("ijm,mk->ijk", gamma, g) + np.einsum("ikm,mj->ijk", gamma, g)
    got = tuple(float(r[0]) for r in _connection_residuals(s, c[None], gamma[None]))
    assert got == pytest.approx((np.max(np.abs(torsion)), np.max(np.abs(compat))), rel=REL)
    nabla_phi = np.einsum("mj,iml->ijl", phi, gamma) - np.einsum("ijm,lm->ijl", gamma, phi)
    want_f = np.einsum("ijl,lk->ijk", nabla_phi, g)
    assert_close(structure_tensor_from_connection(s, gamma), want_f)
