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
element (A, B) = (-I_1, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import decomposition as dec
from . import models
from .group import act, group_element_from_blocks, random_group_element, validate_group_element
from .structure import DEFAULT_ATOL, DEFAULT_RTOL, _integer, _max_abs, canonical_structure
from .tensors import (
    _scale,
    inner_product,
    lee_forms,
    membership_residuals,
    random_structure_tensor,
)

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

    def add(self, name: str, value: float) -> None:
        if name not in self.tols:
            # a misspelt name would otherwise report its check as a PASS at 0
            raise KeyError(f"check {name!r} is not in the suite's tolerance table")
        value = float(value)
        # every check that runs stores a value, 0.0 included; max() would
        # drop a NaN residual, which must stick and fail the check
        if value > self.values.get(name, -math.inf) or math.isnan(value):
            self.values[name] = value

    def results(self) -> list:
        return [CheckResult(name, self.values.get(name, math.nan), tol) for name, tol in self.tols.items()]


def _by_size(residual: float, size: float, scale: float) -> float:
    """The residual of a component of size `size` of a tensor of max-abs `scale`.

    Above 1e-5 of the tensor a component is measured by its own size, as the
    admissibility gate measures a tensor; rounding leaks up to 5e-15 of the
    tensor into each component, which a smaller one would fail on, so that
    one is measured by the tensor's scale.
    """
    return residual / (size if size > 1e-5 * scale else scale)


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
        for seed in range(seeds):
            f = random_structure_tensor(s, seed)
            scale = _scale(f)
            d = dec.decompose(s, f)
            w.add("reconstruction", d.reconstruction_residual)
            for i in range(dec.NUM_CLASSES):
                for j in range(i + 1, dec.NUM_CLASSES):
                    w.add(
                        "orthogonality",
                        abs(inner_product(s, d.components[i], d.components[j])) / scale**2,
                    )
            for i in range(1, dec.NUM_CLASSES + 1):
                ci, size = d.components[i - 1], d.magnitudes[i - 1]
                w.add("closure", _by_size(max(membership_residuals(s, ci).values()), size, scale))
                w.add("class predicates", _by_size(dec._class_residual(s, ci, i), size, scale))
            projs = [dec.project_w(s, f, i) for i in range(1, 5)]
            w.add("projector sum", _max_abs(sum(projs) - f) / scale)
            for i, p in enumerate(projs, start=1):
                w.add("projector idempotency", _max_abs(dec.project_w(s, p, i) - p) / scale)
            g2 = random_structure_tensor(s, seed + 10_000)
            for i, p in enumerate(projs, start=1):
                lhs = inner_product(s, p, g2)
                rhs = inner_product(s, f, dec.project_w(s, g2, i))
                w.add("projector self-adjointness", abs(lhs - rhs) / (scale * _scale(g2)))
            # Lee-form identities of f, then their vanishing per block
            xi = s.xi
            h = -s.phi2
            lf = lee_forms(s, f)
            identities = _max_abs(lf.omega @ xi, s.phi.T @ lf.theta_star - h.T @ lf.theta)
            w.add("lee form identities", identities / scale)
            lee_p = [lee_forms(s, p) for p in projs]
            w.add("lee form table", _max_abs(
                lee_p[0].theta @ xi, lee_p[0].theta_star @ xi, lee_p[0].omega,
                h.T @ lee_p[1].theta, h.T @ lee_p[1].theta_star, lee_p[1].omega,
                lee_p[2].theta, lee_p[2].theta_star, lee_p[2].omega,
                lee_p[3].theta, lee_p[3].theta_star,
            ) / scale)
            # W2 involution eigenspaces
            f456 = d.components[3] + d.components[4] + d.components[5]
            plus_l1 = f456 + d.components[7]
            minus_l1 = d.components[6] + d.components[8]
            plus_l2 = d.components[7] + d.components[8]
            minus_l2 = f456 + d.components[6]
            w.add("w2 eigenspaces", _max_abs(
                dec._involution(s, plus_l1, 1) - plus_l1, dec._involution(s, minus_l1, 1) + minus_l1,
                dec._involution(s, plus_l2, 2) - plus_l2, dec._involution(s, minus_l2, 2) + minus_l2,
            ) / scale)
            # involution oracle: (p2 f + L1 - L2 - L2 L1)/4 on p2 f is F4 + F5 + F6
            l1 = dec._involution(s, projs[1], 1)
            oracle = projs[1] + l1 - dec._involution(s, projs[1], 2) - dec._involution(s, l1, 2)
            w.add("involution oracle", _max_abs(0.25 * oracle - f456) / scale)
            # W2,1 refinement
            lf4, lf5, lf6 = (lee_forms(s, d.components[i]) for i in (3, 4, 5))
            w.add("w21 refinement", _max_abs(
                lf4.theta_star @ xi, lf5.theta @ xi, lf6.theta @ xi, lf6.theta_star @ xi,
            ) / scale)
    return w.results()


def _component_equivariance(w: _Worst, s, elem, f, af) -> None:
    """Each component of af = elem . f against elem acting on that of f."""
    pairs = zip(dec.decompose(s, af).components, dec.decompose(s, f).components)
    for c_af, c_f in pairs:
        w.add("component equivariance", _max_abs(c_af - act(s, elem, c_f)) / _scale(f))


def group_suite(seeds: int) -> list:
    w = _Worst({
        "element validity": 0.5,
        "space invariance": DEFAULT_RTOL,
        "inner product invariance": DEFAULT_RTOL,
        "representation homomorphism": DEFAULT_RTOL,
        "p_i equivariance": DEFAULT_RTOL,
        "component equivariance": DEFAULT_RTOL,
    })
    n = 2
    s = canonical_structure(n)
    for seed in range(seeds):
        elem = random_group_element(n, seed)
        w.add("element validity", 0.0 if validate_group_element(s, elem) else 1.0)
        f = random_structure_tensor(s, seed)
        g2 = random_structure_tensor(s, seed + 20_000)
        af = act(s, elem, f)
        scale = _scale(f)
        w.add("space invariance", max(membership_residuals(s, af).values()) / _scale(af))
        w.add(
            "inner product invariance",
            abs(inner_product(s, af, act(s, elem, g2)) - inner_product(s, f, g2)) / (scale * _scale(g2)),
        )
        other = random_group_element(n, seed + 30_000)
        w.add(
            "representation homomorphism",
            _max_abs(act(s, elem, act(s, other, f)) - act(s, elem @ other, f)) / scale,
        )
        for i in range(1, 5):
            w.add(
                "p_i equivariance",
                _max_abs(dec.project_w(s, af, i) - act(s, elem, dec.project_w(s, f, i))) / scale,
            )
        _component_equivariance(w, s, elem, f, af)
    # discrete representative at n = 1
    s1 = canonical_structure(1)
    refl = group_element_from_blocks(1, -np.eye(1), np.zeros((1, 1)))
    w.add("element validity", 0.0 if validate_group_element(s1, refl) else 1.0)
    for seed in range(min(seeds, 10)):
        f1 = random_structure_tensor(s1, seed)
        _component_equivariance(w, s1, refl, f1, act(s1, refl, f1))
    return w.results()


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
            w.add("family membership", max(membership_residuals(s, f).values()) / _scale(f))
            if n == 1:
                a1, a2 = params
                gamma, tensor = _lie_family_closed_forms(a1, a2)
                w.add("family connection values", _max_abs(g - gamma))
                w.add("family tensor components", _max_abs(f - tensor))
                report = dec.classify(s, f)
                expected = tuple(
                    i for i, nonzero in ((9, a1 != 0.0), (10, a2 != 0.0)) if nonzero
                )
                w.add("family classification", 0.0 if report.present == expected else 1.0)
    # sphere grid
    for n in (1, 2, 3):
        for t in np.linspace(-np.pi / 2, np.pi / 2, 20):
            s, f = models.sphere_structure_tensor(n, float(t))
            lf = lee_forms(s, f)
            w.add("sphere lee values", abs(float(lf.theta @ s.xi) - 2 * n * np.cos(t)))
            w.add("sphere lee values", abs(float(lf.theta_star @ s.xi) - 2 * n * np.sin(t)))
            present = dec.classify(s, f).present
            ok = present == (5,) if abs(t) == np.pi / 2 else set(present) <= {4, 5}
            w.add("sphere classification", 0.0 if ok else 1.0)
        s, f = models.sphere_structure_tensor(n, 0.0)
        w.add("sphere classification", 0.0 if dec.classify(s, f).present == (4,) else 1.0)
    return w.results()


def dim3_suite(seeds: int) -> list:
    w = _Worst({
        "components 2,3,6,7 vanish": DEFAULT_ATOL,
        "fast path matches general": DEFAULT_ATOL,
    })
    s = canonical_structure(1)
    for seed in range(seeds):
        f = random_structure_tensor(s, seed)
        scale = _scale(f)
        comps = dec.decompose(s, f).components
        for i in (2, 3, 6, 7):
            w.add("components 2,3,6,7 vanish", _max_abs(comps[i - 1]) / scale)
        for closed_form, comp in zip(dec.dim3_decompose(s, f).components, comps):
            w.add("fast path matches general", _max_abs(closed_form - comp) / scale)
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
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return _SUITES[name](_integer(seeds, "seeds", 1))
