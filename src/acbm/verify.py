"""Seeded invariant suites for the CLI verify command.

Each suite runs a set of named property checks over seeded random
inputs and reports the worst residual per property against its
tolerance. Failures are results, not errors; the CLI maps an overall
pass to exit code 0.

Tolerances follow the package-wide convention: DEFAULT_ATOL (1e-12) for
identities evaluated on exactly representable inputs, DEFAULT_RTOL (1e-9)
elsewhere. Every residual is measured on the one scale of the library,
tensors._scale, once per degree: a tensor residual is divided by the scale
of the tensor it measures, an inner product by the product of its two
operands' scales. The identities are linear, so each suite judges 2^k F
exactly as it judges F. Only the 0/1 checks and the comparisons with closed
forms in exact parameters are absolute. The group suite samples
elements at n = 2 with det(A + iB) = (-1)^seed, so any run of two or
more seeds acts with both components of the structure group; at n = 1,
where the identity component is trivial, it acts with the discrete
element (A, B) = (-I_1, 0) on at most 10 seeds, with every check of n = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import decomposition as dec
from . import models
from .group import _act, group_element_from_blocks, random_group_element, validate_group_element
from .structure import DEFAULT_ATOL, DEFAULT_RTOL, _integer, _max_abs, _max_abs_each, canonical_structure
from .tensors import _inner, _lee_forms, _membership_residuals, _pullback, _scale, random_structure_tensor

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    worst: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.worst <= self.tol


class _Worst:
    """Accumulate the worst residual per check named in the suite's
    tolerance table {name: tol}, whose order is the report's order."""

    def __init__(self, tols: dict):
        self.tols = tols
        self.values = {}

    def add(self, name: str, values) -> None:
        """Record the worst of values, one residual or an array of them (one per seed)."""
        if name not in self.tols:
            # a misspelt name would otherwise report its check as a PASS at 0
            raise KeyError(f"check {name!r} is not in the suite's tolerance table")
        value = float(np.max(values))
        # every check that runs stores a value, 0.0 included; a NaN residual, which
        # np.max keeps and max() would drop, must stick and fail the check
        if value > self.values.get(name, -math.inf) or math.isnan(value):
            self.values[name] = value

    def results(self) -> list:
        return [CheckResult(name, self.values.get(name, math.nan), tol) for name, tol in self.tols.items()]


# Bytes of the (N, 11, d, d, d) component stack of one kernel call: a batched suite splits
# its seeds into calls of this size, about 50 seeds at d = 7 and 630 at d = 3, so that its
# memory stays bounded however many seeds it runs.
_CHUNK_BYTES = 1_500_000


def _chunks(count: int, d: int, per_seed: int = 1) -> list:
    """Slices that cut count seeds into those of one kernel call each, per_seed tensors a seed."""
    size = max(1, _CHUNK_BYTES // (per_seed * dec.NUM_CLASSES * d**3 * 8))
    return [slice(start, start + size) for start in range(0, count, size)]


def _by_size(residual, size, scale):
    """The residual of a component of size `size` of a tensor of max-abs `scale`,
    elementwise over arrays of them.

    Above 1e-5 of the tensor a component is measured by its own size, as the
    admissibility gate measures a tensor; rounding leaks up to 5e-15 of the
    tensor into each component, which a smaller one would fail on, so that
    one is measured by the tensor's scale.
    """
    return residual / np.where(size > 1e-5 * scale, size, scale)


def decomposition_suite(seeds: int) -> list:
    w = _Worst({
        "reconstruction": DEFAULT_RTOL,
        "orthogonality": DEFAULT_RTOL,
        "closure": DEFAULT_RTOL,
        "class predicates": DEFAULT_RTOL,
        "projector sum": DEFAULT_RTOL,
        "projector idempotency": DEFAULT_RTOL,
        "projector self-adjointness": DEFAULT_RTOL,
        "lee form identities": DEFAULT_ATOL,
        "lee form table": DEFAULT_ATOL,
        "w2 eigenspaces": DEFAULT_RTOL,
        "involution oracle": DEFAULT_RTOL,
        "w21 refinement": DEFAULT_ATOL,
    })
    for n in (1, 2, 3):
        s = canonical_structure(n)
        for chunk in _chunks(seeds, s.dim):
            drawn = range(seeds)[chunk]
            fs = np.stack([random_structure_tensor(s, seed) for seed in drawn])
            g2s = np.stack([random_structure_tensor(s, seed + 10_000) for seed in drawn])
            _decomposition_checks(w, s, fs, g2s)
    return w.results()


def _decomposition_checks(w: _Worst, s, fs: np.ndarray, g2s: np.ndarray) -> None:
    """The decomposition suite's checks on the stack fs of N seeds, one kernel call for all,
    each seed measured on its own scale; g2s are the partners of the self-adjointness check."""
    lead, xi, h, gi_t = fs.shape[:-3], s.xi, -s.phi2, s.g_inv.T
    scale = _scale(fs)

    def worst(*arrays):  # per seed, on that seed's scale
        return _max_abs_each(lead, *arrays) / scale

    comps, sizes, residuals = dec._decompose_many(s, fs)
    classes = comps.swapaxes(0, 1)  # classes[i - 1] is the (N, d, d, d) F_i part of every seed
    w.add("reconstruction", residuals)
    # the Gram matrix of the induced inner product on the eleven components of each seed
    rows = comps.reshape(*lead, dec.NUM_CLASSES, -1)
    gram = rows @ _pullback(comps, gi_t, gi_t, gi_t).reshape(rows.shape).swapaxes(-1, -2)
    upper = np.triu_indices(dec.NUM_CLASSES, 1)  # the pairs i < j
    w.add("orthogonality", np.abs(gram[..., upper[0], upper[1]]).max(axis=-1) / scale**2)
    closure = np.maximum(*_membership_residuals(s, comps).values())
    predicates = np.stack([dec._class_residual(s, c, i) for i, c in enumerate(classes, start=1)], axis=-1)
    w.add("closure", _by_size(closure, sizes, scale[:, None]))
    w.add("class predicates", _by_size(predicates, sizes, scale[:, None]))
    projs = [dec._block(s, fs, i) for i in range(1, 5)]
    w.add("projector sum", worst(sum(projs) - fs))
    for i, p in enumerate(projs, start=1):
        w.add("projector idempotency", worst(dec._block(s, p, i) - p))
    for i, p in enumerate(projs, start=1):
        adjoint = np.abs(_inner(s, p, g2s) - _inner(s, fs, dec._block(s, g2s, i)))
        w.add("projector self-adjointness", adjoint / (scale * _scale(g2s)))
    # Lee-form identities of f, then their vanishing per block
    lf = _lee_forms(s, fs)
    w.add("lee form identities", worst(lf.omega @ xi, lf.theta_star @ s.phi - lf.theta @ h))
    lee_p = [_lee_forms(s, p) for p in projs]
    w.add("lee form table", worst(
        lee_p[0].theta @ xi, lee_p[0].theta_star @ xi, lee_p[0].omega,
        lee_p[1].theta @ h, lee_p[1].theta_star @ h, lee_p[1].omega,
        lee_p[2].theta, lee_p[2].theta_star, lee_p[2].omega,
        lee_p[3].theta, lee_p[3].theta_star,
    ))
    # W2 involution eigenspaces
    f4, f5, f6, f7, f8, f9 = classes[3:9]
    f456 = f4 + f5 + f6
    plus_l1, minus_l1 = f456 + f8, f7 + f9
    plus_l2, minus_l2 = f8 + f9, f456 + f7
    w.add("w2 eigenspaces", worst(
        dec._involution(s, plus_l1, 1) - plus_l1, dec._involution(s, minus_l1, 1) + minus_l1,
        dec._involution(s, plus_l2, 2) - plus_l2, dec._involution(s, minus_l2, 2) + minus_l2,
    ))
    # involution oracle: (p2 f + L1 - L2 - L2 L1)/4 on p2 f is F4 + F5 + F6
    l1 = dec._involution(s, projs[1], 1)
    oracle = projs[1] + l1 - dec._involution(s, projs[1], 2) - dec._involution(s, l1, 2)
    w.add("involution oracle", worst(0.25 * oracle - f456))
    # W2,1 refinement
    lf4, lf5, lf6 = (_lee_forms(s, c) for c in (f4, f5, f6))
    w.add("w21 refinement", worst(lf4.theta_star @ xi, lf5.theta @ xi, lf6.theta @ xi, lf6.theta_star @ xi))


def group_suite(seeds: int) -> list:
    w = _Worst({
        "element validity": 0.5,
        "space invariance": DEFAULT_RTOL,
        "inner product invariance": DEFAULT_RTOL,
        "representation homomorphism": DEFAULT_RTOL,
        "p_i equivariance": DEFAULT_RTOL,
        "component equivariance": DEFAULT_RTOL,
    })
    refl = group_element_from_blocks(1, -np.eye(1), np.zeros((1, 1)))
    for n, count in ((2, seeds), (1, min(seeds, 10))):
        s = canonical_structure(n)
        for chunk in _chunks(count, s.dim, per_seed=2):
            drawn = range(count)[chunk]
            elems = np.stack([random_group_element(n, seed) if n == 2 else refl for seed in drawn])
            others = np.stack([random_group_element(n, seed + 30_000) for seed in drawn])
            fs = np.stack([random_structure_tensor(s, seed) for seed in drawn])
            g2s = np.stack([random_structure_tensor(s, seed + 20_000) for seed in drawn])
            _group_checks(w, s, elems, others, fs, g2s)
    return w.results()


def _group_checks(
    w: _Worst, s, elems: np.ndarray, others: np.ndarray, fs: np.ndarray, g2s: np.ndarray
) -> None:
    """The group suite's checks on a stack of N seeds: elems[k] acts on fs[k], others[k] is its
    partner in the homomorphism check and g2s[k] in the inner product's; one kernel call
    decomposes [af..., f...], and each seed is measured on the scale of its f."""
    lead, scale = fs.shape[:-3], _scale(fs)
    for elem in elems:
        w.add("element validity", 0.0 if validate_group_element(s, elem) else 1.0)
    afs = _act(elems, fs)
    w.add("space invariance", np.maximum(*_membership_residuals(s, afs).values()) / _scale(afs))
    invariance = np.abs(_inner(s, afs, _act(elems, g2s)) - _inner(s, fs, g2s))
    w.add("inner product invariance", invariance / (scale * _scale(g2s)))
    product = _act(elems, _act(others, fs)) - _act(elems @ others, fs)
    w.add("representation homomorphism", _max_abs_each(lead, product) / scale)
    for i in range(1, 5):
        moved = dec._block(s, afs, i) - _act(elems, dec._block(s, fs, i))
        w.add("p_i equivariance", _max_abs_each(lead, moved) / scale)
    comps = dec._decompose_many(s, np.concatenate([afs, fs]))[0]
    moved = comps[: len(fs)] - _act(elems[:, None], comps[len(fs) :])
    w.add("component equivariance", _max_abs_each(lead, moved) / scale)


# Fixed (a1, a2) pairs of the dimension-3 Lie family, including the
# single-class cases a1 = 0 and a2 = 0 that random draws never hit.
_LIE_PAIRS = ((1.0, 1.0), (2.0, 3.0), (0.0, 1.0), (1.0, 0.0), (-1.0, 2.0))


def _lie_family_closed_forms(a1: float, a2: float) -> tuple:
    """(gamma, F) of the dimension-3 Lie family at (a1, a2), whole: every entry not set is 0."""
    gamma, f = np.zeros((3, 3, 3)), np.zeros((3, 3, 3))
    gamma[1, 1, 0] = gamma[2, 2, 0] = gamma[2, 0, 2] = -a1
    gamma[1, 0, 1] = a1
    gamma[0, 1, 2] = gamma[0, 2, 1] = -a2
    f[0, 1, 1] = f[0, 2, 2] = -2 * a2
    f[1, 0, 2] = f[1, 2, 0] = a1
    f[2, 0, 1] = f[2, 1, 0] = -a1
    return gamma, f


def models_suite(seeds: int) -> list:
    w = _Worst({
        "jacobi": 0.5,
        "koszul torsion": DEFAULT_ATOL,
        "koszul metric compatibility": DEFAULT_ATOL,
        "family membership": DEFAULT_RTOL,
        "family connection values": DEFAULT_ATOL,
        "family tensor components": DEFAULT_ATOL,
        "family classification": 0.5,
        "sphere lee values": DEFAULT_ATOL,
        "sphere classification": 0.5,
    })
    rng = np.random.default_rng(2024)
    family, expected = [], []  # the n = 1 tensors and their classes, classified together below
    for n in (1, 2):
        draws = [rng.uniform(-2.0, 2.0, size=2 * n) for _ in range(seeds)]
        for params in ([*_LIE_PAIRS, *draws] if n == 1 else draws):
            s, c = models.lie_family(n, params)
            w.add("jacobi", 0.0 if models.check_jacobi(s, c) else 1.0)
            g = models.koszul_connection(s, c)
            torsion, compat = models.connection_residuals(s, c, g)
            w.add("koszul torsion", torsion / _scale(c))
            w.add("koszul metric compatibility", compat / _scale(c))
            f = models.structure_tensor_from_connection(s, g)
            w.add("family membership", max(_membership_residuals(s, f).values()) / _scale(f))
            if n == 1:
                a1, a2 = params
                gamma, tensor = _lie_family_closed_forms(a1, a2)
                w.add("family connection values", _max_abs(g - gamma))
                w.add("family tensor components", _max_abs(f - tensor))
                family.append(f)
                expected.append(tuple(i for i, nonzero in ((9, a1 != 0.0), (10, a2 != 0.0)) if nonzero))
    s1 = canonical_structure(1)
    for chunk in _chunks(len(family), s1.dim):
        fs = np.stack(family[chunk])
        verdicts = dec._present(dec._decompose_many(s1, fs)[1], fs, DEFAULT_RTOL)
        for present, want in zip(verdicts, expected[chunk]):
            w.add("family classification", 0.0 if present == want else 1.0)
    # sphere grid: per n, its 21 tensors (20 grid points and t = 0) in one kernel, Lee-form and membership call
    ts = np.append(np.linspace(-np.pi / 2, np.pi / 2, 20), 0.0)
    for n in (1, 2, 3):
        s = canonical_structure(n)
        fs = np.stack([models.sphere_structure_tensor(n, float(t))[1] for t in ts])
        w.add("family membership", np.maximum(*_membership_residuals(s, fs).values()) / _scale(fs))
        lf = _lee_forms(s, fs)
        w.add("sphere lee values", np.max(np.abs(lf.theta @ s.xi - 2 * n * np.cos(ts))))
        w.add("sphere lee values", np.max(np.abs(lf.theta_star @ s.xi - 2 * n * np.sin(ts))))
        magnitudes = dec._decompose_many(s, fs)[1]
        for t, present in zip(ts, dec._present(magnitudes, fs, DEFAULT_RTOL)):
            if t == 0.0:  # no grid point is 0, so this is the appended one
                ok = present == (4,)
            elif abs(t) == np.pi / 2:
                ok = present == (5,)
            else:
                ok = set(present) <= {4, 5}
            w.add("sphere classification", 0.0 if ok else 1.0)
    return w.results()


def _dim3_closed_forms(c: np.ndarray) -> np.ndarray:
    """The (..., 11, 3, 3, 3) components of an admissible c, or of each tensor of a stack
    c of shape (..., 3, 3, 3), at n = 1 over the canonical structure, each class read
    from its coordinates, Fijk = F(e_i, e_j, e_k):

        F1:  theta(e_1) = F111 - F221,  theta(e_2) = F112 - F211
        F4:  (F110 - F220) / 2          F8:  (F110 + F220) / 2
        F5:  (F120 + F210) / 2          F9:  (F120 - F210) / 2
        F10: F011                       F11: F001, F002

    F2, F3, F6 and F7 are identically zero. Computed in the dtype of c with no
    float literal, so exact on Fraction input.
    """
    out = np.zeros((*c.shape[:-3], dec.NUM_CLASSES, 3, 3, 3), dtype=c.dtype)
    f1, _, _, f4, f5, _, _, f8, f9, f10, f11 = np.moveaxis(out, -4, 0)  # views into out
    th1, th2 = c[..., 1, 1, 1] - c[..., 2, 2, 1], c[..., 1, 1, 2] - c[..., 2, 1, 1]  # theta(e_1), theta(e_2)
    f1[..., 1, 1, 1] = f1[..., 1, 2, 2] = th1
    f1[..., 2, 1, 1] = f1[..., 2, 2, 2] = -th2
    half = (c[..., 1, 1, 0] - c[..., 2, 2, 0]) / 2
    f4[..., 1, 0, 1] = f4[..., 1, 1, 0] = half
    f4[..., 2, 0, 2] = f4[..., 2, 2, 0] = -half
    lam = (c[..., 1, 2, 0] + c[..., 2, 1, 0]) / 2
    f5[..., 1, 0, 2] = f5[..., 1, 2, 0] = f5[..., 2, 0, 1] = f5[..., 2, 1, 0] = lam
    nu = (c[..., 1, 1, 0] + c[..., 2, 2, 0]) / 2
    f8[..., 1, 0, 1] = f8[..., 1, 1, 0] = f8[..., 2, 0, 2] = f8[..., 2, 2, 0] = nu
    mu = (c[..., 1, 2, 0] - c[..., 2, 1, 0]) / 2
    f9[..., 1, 0, 2] = f9[..., 1, 2, 0] = mu
    f9[..., 2, 0, 1] = f9[..., 2, 1, 0] = -mu
    f10[..., 0, 1, 1] = f10[..., 0, 2, 2] = c[..., 0, 1, 1]
    f11[..., 0, 1, 0] = f11[..., 0, 0, 1] = c[..., 0, 0, 1]
    f11[..., 0, 2, 0] = f11[..., 0, 0, 2] = c[..., 0, 0, 2]
    return out


def dim3_suite(seeds: int) -> list:
    w = _Worst({
        "components 2,3,6,7 vanish": DEFAULT_ATOL,
        "closed forms match decompose": DEFAULT_ATOL,
    })
    s = canonical_structure(1)
    for chunk in _chunks(seeds, s.dim):
        fs = np.stack([random_structure_tensor(s, seed) for seed in range(seeds)[chunk]])
        comps = dec._decompose_many(s, fs)[0]  # one kernel call per chunk
        scale = _scale(fs)[:, None, None, None, None]  # each seed's own
        w.add("components 2,3,6,7 vanish", np.max(np.abs(comps[:, [1, 2, 5, 6]]) / scale))
        w.add("closed forms match decompose", np.max(np.abs(_dim3_closed_forms(fs) - comps) / scale))
    return w.results()


_SUITES = {
    "decomposition": decomposition_suite,
    "group": group_suite,
    "models": models_suite,
    "dim3": dim3_suite,
}


SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seeds: int) -> list:
    """Run one suite over seeds 0..seeds-1, seeds an integer >= 1."""
    if name not in SUITE_NAMES:  # a tuple compares, so an unhashable name is unknown too
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return _SUITES[name](_integer(seeds, "seeds", 1))
