"""The one-pass component kernel against the per-class formulas.

`_component_arrays` builds every shared intermediate once, and `_w1_pair`
adds F2 and F3. Each of the eleven arrays is compared here with the
component formula written out with einsum, on non-canonical structures
and on random tensors both admissible and not. The decomposition is also
checked to be natural under a change of basis, to stay exact on
Fraction arrays, and to split a stack of tensors row by row as
`decompose` splits each one. The private bodies the verify suites call on
stacks are checked against the public maps they stand in for.
"""

from fractions import Fraction

import numpy as np
import pytest

import acbm.decomposition as dec
import acbm.verify as verify
from acbm.decomposition import NUM_CLASSES, _component_arrays, _w1_pair, component, decompose, project_w
from acbm.errors import PreconditionError
from acbm.group import _act, act, random_group_element
from acbm.structure import DEFAULT_RTOL, _max_abs, canonical_structure
from acbm.tensors import (
    _embed, _inner, _lee_forms, _membership_residuals, _pullback, embed_structure_tensor, inner_product,
    lee_forms, random_structure_tensor,
)
from acbm.verify import _dim3_closed_forms, run_suite

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


def test_dim3_suite_decomposes_in_one_call(monkeypatch):
    """One kernel call for all the seeds and no gate: each seed's tensor feeds the check
    `closed forms match decompose`, whose closed forms read the coordinates of the same
    tensors, so a seed outside the admissible space is a failed check, not an error."""
    single = _count_calls(monkeypatch, "component")
    whole = _count_calls(monkeypatch, "decompose")
    many = _count_calls(monkeypatch, "_decompose_many")
    gate = _count_calls(monkeypatch, "_require_structure_tensor")
    assert all(check.passed for check in run_suite("dim3", 3))
    assert (len(single), len(whole), len(many), len(gate)) == (0, 0, 1, 0)


def _record_shapes(monkeypatch) -> list:
    """The shape of the stack of each _decompose_many call, in call order."""
    shapes = []
    original = dec._decompose_many
    monkeypatch.setattr(dec, "_decompose_many", lambda s, cs: shapes.append(cs.shape) or original(s, cs))
    return shapes


def test_models_suite_decomposes_its_sphere_grid_in_one_call_per_n(monkeypatch):
    """The suite asks no classify: the n = 1 Lie-family tensors, one per parameter
    pair, are one _decompose_many call, and per n the sphere grid's 21 tensors are one."""
    classify = _count_calls(monkeypatch, "classify")
    shapes = _record_shapes(monkeypatch)
    assert all(check.passed for check in run_suite("models", 3))
    assert len(classify) == 0
    assert shapes == [(len(verify._LIE_PAIRS) + 3, 3, 3, 3)] + [(21, d, d, d) for d in (3, 5, 7)]


def test_group_suite_decomposes_in_one_call_per_n(monkeypatch):
    """The component-equivariance check decomposes [af..., f...] of every seed in one
    _decompose_many call per n, and every check acts through act's body on the stack
    of seeds: the suite asks no decompose, and verify has no act."""
    whole = _count_calls(monkeypatch, "decompose")
    assert not hasattr(verify, "act")
    shapes = _record_shapes(monkeypatch)
    assert all(check.passed for check in run_suite("group", 3))
    assert len(whole) == 0
    assert shapes == [(2 * 3, 5, 5, 5), (2 * 3, 3, 3, 3)]


@pytest.mark.parametrize("make_structure", [_canonical, random_structure], ids=["canonical", "pushed"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_class_residual_rows_are_single_calls(n, make_structure):
    """_class_residual takes a stack and gives one residual per tensor: each row is the
    call on that tensor alone, bit for bit on the canonical basis, and within 1e-15 of
    the tensor's max-abs elsewhere, where a stacked product may add in another order.
    The stack holds three tensors and their F_i parts, so rows both near 0 and not."""
    s = make_structure(n, 0)
    fs = np.stack([random_structure_tensor(s, seed) for seed in range(3)])
    parts = dec._decompose_many(s, fs)[0]
    for i in range(1, NUM_CLASSES + 1):
        cs = np.concatenate([fs, parts[:, i - 1]])
        stacked = dec._class_residual(s, cs, i)
        assert stacked.shape == (len(cs),)
        for c, f, row in zip(cs, np.concatenate([fs, fs]), stacked):
            single = dec._class_residual(s, c, i)
            if make_structure is _canonical:
                assert row.tobytes() == single.tobytes(), f"F{i}"
            else:
                assert abs(row - single) <= 1e-15 * _max_abs(f), f"F{i}"


@pytest.mark.parametrize("j", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_involution_rows_are_single_calls(n, j):
    """_involution takes a stack as the kernel's other bodies do: on the canonical
    basis each row is, bit for bit, the call on that tensor alone."""
    s = canonical_structure(n)
    cs = np.stack([random_structure_tensor(s, seed) for seed in range(3)])
    stacked = dec._involution(s, cs, j)
    assert stacked.shape == cs.shape
    for c, row in zip(cs, stacked):
        assert row.tobytes() == dec._involution(s, c, j).tobytes()


def test_decomposition_suite_reads_the_kernel(monkeypatch):
    """Per n the suite decomposes its seeds in one _decompose_many call and asks no
    inner product one pair at a time, orthogonality being one Gram matrix per seed and
    self-adjointness stacked _inner calls; it asks no public projection, inner product
    or Lee form (no suite imports inner_product or lee_forms); and closure is one
    membership call on the (seeds, 11, d, d, d) stack."""
    blocks = _count_calls(monkeypatch, "project_w")
    whole = _count_calls(monkeypatch, "decompose")
    assert not hasattr(verify, "inner_product")
    assert not hasattr(verify, "lee_forms")
    many = _record_shapes(monkeypatch)
    shapes = []
    original = verify._membership_residuals
    monkeypatch.setattr(verify, "_membership_residuals", lambda s, c: shapes.append(c.shape) or original(s, c))
    assert all(check.passed for check in run_suite("decomposition", 2))
    assert (len(blocks), len(whole)) == (0, 0)
    assert many == [(2, d, d, d) for d in (3, 5, 7)]
    assert shapes == [(2, NUM_CLASSES, d, d, d) for d in (3, 5, 7)]


SUITE_CASES = [(n, seed) for n in (1, 2, 3) for seed in range(4)]


@pytest.mark.parametrize("n, seed", SUITE_CASES)
def test_gram_matrix_is_the_pairwise_inner_product(n, seed):
    """The decomposition suite's one stacked pullback gives the inner products
    that inner_product gives pair by pair, on a non-canonical basis."""
    s = random_structure(n, seed)
    f = random_structure_tensor(s, seed)
    cs = decompose(s, f).components
    flat = cs.reshape(NUM_CLASSES, -1)
    gi_t = s.g_inv.T
    gram = flat @ _pullback(cs, gi_t, gi_t, gi_t).reshape(flat.shape).T
    want = np.array([[inner_product(s, a, b) for b in cs] for a in cs])
    assert np.max(np.abs(gram - want)) <= REL * _max_abs(f) ** 2


@pytest.mark.parametrize("n, seed", SUITE_CASES)
def test_membership_residuals_of_a_stack_are_per_tensor(n, seed):
    """One _membership_residuals call on the eleven components measures each
    component as a call on that component alone does."""
    s = random_structure(n, seed)
    f = random_structure_tensor(s, seed)
    cs = decompose(s, f).components + raw_tensor(n, seed)  # inadmissible rows, so residuals are not 0
    stacked = _membership_residuals(s, cs)
    for k, c in enumerate(cs):
        for name, value in _membership_residuals(s, c).items():
            assert stacked[name][k] == pytest.approx(value, rel=REL, abs=REL * _max_abs(c)), f"F{k + 1} {name}"


@pytest.mark.parametrize("n, seed", SUITE_CASES)
def test_private_bodies_match_the_public_maps(n, seed):
    """The suites' private bodies against the public maps. _block and _lee_forms give,
    bit for bit, what project_w and lee_forms give on an admissible tensor. On a stack
    of three tensors, each row of _embed, _act, _inner and of _pullback with one matrix
    per tensor is the public map, or the single call, on that tensor alone: bit for bit
    on the canonical basis, and on the pushed one within 1e-15 of the row's max-abs or
    of 1, whichever is larger, where a stacked product may add in another order."""
    s = random_structure(n, seed)
    f = random_structure_tensor(s, seed)
    for i in range(1, 5):
        p = dec._block(s, f, i)
        assert p.tobytes() == project_w(s, f, i).tobytes(), f"p{i}"
        got, want = _lee_forms(s, p), lee_forms(s, p)
        for name in ("theta", "theta_star", "omega"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), f"p{i} {name}"
    for s in (canonical_structure(n), random_structure(n, seed)):
        raw = np.stack([raw_tensor(n, seed + k) for k in range(3)])
        fs = np.stack([random_structure_tensor(s, seed + k) for k in range(3)])
        elems = np.stack([random_group_element(n, seed + k) for k in range(3)])
        a, b, m = (np.stack([basis_change(n, 10 * seed + 3 * k + j) for k in range(3)]) for j in range(3))
        rows = {
            "_embed": (_embed(s, raw), [embed_structure_tensor(s, c) for c in raw]),
            "_act": (_act(elems, fs), [act(s, e, f) for e, f in zip(elems, fs)]),
            "_act, one matrix": (_act(elems[0], fs), [act(s, elems[0], f) for f in fs]),
            "_inner": (_inner(s, fs, fs[::-1]), [inner_product(s, f, g) for f, g in zip(fs, fs[::-1])]),
            "_pullback": (_pullback(fs, a, b, m), [_pullback(*args) for args in zip(fs, a, b, m)]),
        }
        for name, (stacked, single) in rows.items():
            assert len(stacked) == len(single), name
            for row, want in zip(stacked, single):
                row, want = np.asarray(row), np.asarray(want)
                if s is canonical_structure(n):
                    assert row.tobytes() == want.tobytes(), name
                else:
                    assert np.max(np.abs(row - want)) <= 1e-15 * max(_max_abs(want), 1.0), name


@pytest.mark.parametrize(
    "suite, calls",
    # with stacks of two tensors of d = 3 a call: 3, 5 and 5 calls at n = 1, 2, 3; the
    # group's two tensors a seed, one seed a call at n = 2 and n = 1; ten family tensors,
    # then the three sphere grids
    [("decomposition", 13), ("group", 10), ("models", 8), ("dim3", 3)],
)
def test_suites_decompose_chunk_by_chunk(monkeypatch, suite, calls):
    """Past _CHUNK_BYTES of components a batched suite makes one kernel call per chunk,
    so its memory does not grow with the seeds, and reports what one call over all of
    them reports."""
    whole = run_suite(suite, 5)
    monkeypatch.setattr(verify, "_CHUNK_BYTES", 2 * NUM_CLASSES * 3**3 * 8)
    many = _count_calls(monkeypatch, "_decompose_many")
    assert run_suite(suite, 5) == whole
    assert len(many) == calls


def test_models_suite_streams_its_lie_family(monkeypatch):
    """The models suite draws, checks and classifies its n = 1 Lie family one kernel chunk
    at a time, so that its memory does not grow with the seeds: past _CHUNK_BYTES the
    first family kernel call comes before the last n = 1 lie_family call."""
    monkeypatch.setattr(verify, "_CHUNK_BYTES", 2 * NUM_CLASSES * 3**3 * 8)
    events = []
    lie_family, kernel = verify.models.lie_family, dec._decompose_many
    monkeypatch.setattr(verify.models, "lie_family", lambda n, p: events.append(("lie", n)) or lie_family(n, p))
    monkeypatch.setattr(dec, "_decompose_many", lambda s, cs: events.append(("kernel", s.n)) or kernel(s, cs))
    assert all(check.passed for check in run_suite("models", 5))
    last_family_draw = max(k for k, event in enumerate(events) if event == ("lie", 1))
    assert events.index(("kernel", 1)) < last_family_draw


@pytest.mark.parametrize("seeds", [range(1), range(5), range(21)], ids=["N1", "N5", "N21"])
@pytest.mark.parametrize("make_structure", [_canonical, random_structure], ids=["canonical", "pushed"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_batch_rows_are_decompose(n, make_structure, seeds):
    """Each row of one _decompose_many call is decompose of that tensor. Bit for bit
    at N = 1, which is decompose's own call, and on the canonical basis, whose
    products are exact; elsewhere a stacked matrix product may add in another
    order, so within 1e-15 of the tensor's max-abs. N = 21 is the models suite's
    sphere grid, whose stack _w1_pair lays out with the tensors innermost."""
    s = make_structure(n, 0)
    cs = np.stack([random_structure_tensor(s, seed) for seed in seeds])
    stack, magnitudes, residuals = dec._decompose_many(s, cs)
    assert stack.shape == (len(seeds), NUM_CLASSES, *cs.shape[1:])
    assert not (stack.flags.writeable or magnitudes.flags.writeable)
    for f, row, sizes, residual in zip(cs, stack, magnitudes, residuals):
        d = decompose(s, f)
        if len(seeds) == 1 or make_structure is _canonical:
            assert (row.tobytes(), sizes.tobytes()) == (d.components.tobytes(), d.magnitudes.tobytes())
            assert residual == d.reconstruction_residual
        else:
            assert _max_abs(row - d.components, sizes - d.magnitudes) <= 1e-15 * _max_abs(f)


@pytest.mark.parametrize("scale", [1.0, 1e-12])
@pytest.mark.parametrize("k", [0, 2])
def test_kernel_refuses_nothing_that_decompose_refuses(k, scale):
    """Tensors k.. of a stack of three are inadmissible: the bare kernel decomposes the
    stack and reports their reconstruction residuals past DEFAULT_RTOL, each on its own
    scale (at k = 2 and 1e-12 the stack's largest scale would not), and the admissible
    rows at rounding; decompose, the public door, still refuses tensor k at the gate."""
    s = random_structure(1, 0)
    cs = np.stack([random_structure_tensor(s, seed) for seed in range(3)])
    for j in range(k, 3):
        cs[j] = scale * raw_tensor(1, j)
    residuals = dec._decompose_many(s, cs)[2]
    assert np.all(residuals[k:] > DEFAULT_RTOL), residuals
    assert np.all(residuals[:k] < 1e-15), residuals
    with pytest.raises(PreconditionError, match="^tensor is not an admissible structure tensor: "):
        decompose(s, cs[k])


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
    """On Fraction arrays the kernel is exact end to end, _embed, the gate's residuals, the
    class predicates and _decompose_many with its seal: the components of an admissible
    tensor sum back to it, are pairwise orthogonal and satisfy their class identities,
    each with residual exactly 0, and no float enters the output (a float literal in the
    kernel would turn its entries into floats). It runs on a stack of two tensors, so the
    batch axis is exact too. In the canonical basis they are the paper's nine
    coordinates, the dim3 suite's closed forms, entry for entry. The float kernel
    agrees with it."""
    s = exact_structure(1, t)
    c = _embed(s, exact(np.random.default_rng(1).integers(-3, 4, (2, 3, 3, 3))))  # all nine coordinates nonzero
    stack, _, residuals = dec._decompose_many(s, c)
    for x in (c, stack):  # the gate: both residuals of the tensors and of their components
        for name, r in _membership_residuals(s, x).items():
            assert not np.any(r) and {type(v) for v in r.ravel()} == {Fraction}, name
    for i in range(1, NUM_CLASSES + 1):  # the class predicates, on tensors outside most classes
        assert {type(r) for r in dec._class_residual(s, c, i)} == {Fraction}, f"F{i}"
    assert stack.shape == (2, NUM_CLASSES, 3, 3, 3)
    assert {type(x) for x in stack.ravel()} == {Fraction}
    assert not np.any(stack.sum(axis=1) - c)
    assert not np.any(residuals)
    gi = s.g_inv
    for comps in stack:
        for i in range(NUM_CLASSES):
            assert dec._class_residual(s, comps[i], i + 1) == 0, f"F{i + 1}"
            for j in range(i):
                assert np.einsum("abc,ad,be,cf,def->", comps[i], gi, gi, gi, comps[j]) == 0, (i + 1, j + 1)
    if np.array_equal(t, np.eye(3)):
        closed = _dim3_closed_forms(c)
        assert float not in {type(x) for x in closed.ravel()}
        assert np.array_equal(closed, stack)
    floats = push_structure(canonical_structure(1), np.asarray(t, dtype=float))
    got = dec._decompose_many(floats, c.astype(float))[0]
    assert _max_abs(got - stack.astype(float)) <= 1e-14 * _max_abs(c.astype(float))
