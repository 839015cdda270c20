"""Seeded invariant suites for the CLI verify command.

Each suite runs a set of named property checks over seeded random
inputs and reports the worst residual per property against its
tolerance. Failures are results, not errors; the CLI maps an overall
pass to exit code 0.

Tolerances follow the package-wide convention: DEFAULT_ATOL (1e-12)
absolute for identities evaluated on exactly representable inputs,
DEFAULT_RTOL (1e-9) relative elsewhere. Group equivariance suites run
at n = 2: for n = 1 the identity component of the structure group is
trivial, so dimension-3 equivariance is exercised with the explicit
discrete element instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import decomposition as dec
from . import models
from .group import act, group_element_from_blocks, random_group_element, validate_group_element
from .structure import DEFAULT_ATOL, DEFAULT_RTOL, canonical_structure
from .tensors import (
    _max_abs,
    inner_product,
    lee_forms,
    membership_residuals,
    random_structure_tensor,
)

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite", "run_suites"]


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
        return [CheckResult(name, self.values.get(name, 0.0), tol) for name, tol in self.tols.items()]


def _rel(diff_max: float, scale: float) -> float:
    return diff_max / max(1.0, scale)


def decomposition_suite(seeds: int) -> list:
    w = _Worst({
        "reconstruction": DEFAULT_RTOL,
        "orthogonality": DEFAULT_RTOL,
        "closure": DEFAULT_RTOL,
        "class predicates": 0.5,
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
            scale = _max_abs(f)
            d = dec.decompose(s, f)
            w.add("reconstruction", d.reconstruction_residual)
            ip_scale = max(1.0, abs(inner_product(s, f, f)))
            for i in range(dec.NUM_CLASSES):
                for j in range(i + 1, dec.NUM_CLASSES):
                    w.add(
                        "orthogonality",
                        abs(inner_product(s, d.components[i], d.components[j])) / ip_scale,
                    )
            for i in range(1, dec.NUM_CLASSES + 1):
                ci = d.components[i - 1]
                w.add("closure", _rel(max(membership_residuals(s, ci).values()), scale))
                w.add("class predicates", 0.0 if dec.satisfies_class(s, ci, i) else 1.0)
            projs = [dec.project_w(s, f, i) for i in range(1, 5)]
            total = projs[0]
            for p in projs[1:]:
                total = total + p
            w.add("projector sum", _rel(_max_abs(total - f), scale))
            for i, p in enumerate(projs, start=1):
                w.add("projector idempotency", _rel(_max_abs(dec.project_w(s, p, i) - p), scale))
            g2 = random_structure_tensor(s, seed + 10_000)
            for i, p in enumerate(projs, start=1):
                lhs = inner_product(s, p, g2)
                rhs = inner_product(s, f, dec.project_w(s, g2, i))
                w.add("projector self-adjointness", _rel(abs(lhs - rhs), abs(rhs)))
            # Lee-form identities of f, then their vanishing per block
            xi = s.xi
            h = -(s.phi @ s.phi)
            lf = lee_forms(s, f)
            w.add("lee form identities", abs(float(lf.omega @ xi)))
            w.add("lee form identities", np.max(np.abs(s.phi.T @ lf.theta_star - h.T @ lf.theta)))
            lee_p = [lee_forms(s, p) for p in projs]
            w.add("lee form table", _rel(abs(lee_p[0].theta @ xi), scale))
            w.add("lee form table", _rel(abs(lee_p[0].theta_star @ xi), scale))
            w.add("lee form table", _rel(np.max(np.abs(lee_p[0].omega)), scale))
            w.add("lee form table", _rel(np.max(np.abs(h.T @ lee_p[1].theta)), scale))
            w.add("lee form table", _rel(np.max(np.abs(h.T @ lee_p[1].theta_star)), scale))
            w.add("lee form table", _rel(np.max(np.abs(lee_p[1].omega)), scale))
            for form in (lee_p[2].theta, lee_p[2].theta_star, lee_p[2].omega):
                w.add("lee form table", _rel(np.max(np.abs(form)), scale))
            for form in (lee_p[3].theta, lee_p[3].theta_star):
                w.add("lee form table", _rel(np.max(np.abs(form)), scale))
            # W2 involution eigenspaces
            f456 = d.components[3] + d.components[4] + d.components[5]
            plus_l1 = f456 + d.components[7]
            minus_l1 = d.components[6] + d.components[8]
            plus_l2 = d.components[7] + d.components[8]
            minus_l2 = f456 + d.components[6]
            w.add("w2 eigenspaces", _rel(_max_abs(dec.w2_involution(s, plus_l1, 1) - plus_l1), scale))
            w.add("w2 eigenspaces", _rel(_max_abs(dec.w2_involution(s, minus_l1, 1) + minus_l1), scale))
            w.add("w2 eigenspaces", _rel(_max_abs(dec.w2_involution(s, plus_l2, 2) - plus_l2), scale))
            w.add("w2 eigenspaces", _rel(_max_abs(dec.w2_involution(s, minus_l2, 2) + minus_l2), scale))
            # involution oracle: (p2 f + L1 - L2 - L2 L1)/4 on p2 f is F4 + F5 + F6
            l1 = dec.w2_involution(s, projs[1], 1)
            oracle = projs[1] + l1 - dec.w2_involution(s, projs[1], 2) - dec.w2_involution(s, l1, 2)
            w.add("involution oracle", _rel(_max_abs(0.25 * oracle - f456), scale))
            # W2,1 refinement
            w.add("w21 refinement", _rel(abs(lee_forms(s, d.components[3]).theta_star @ xi), scale))
            w.add("w21 refinement", _rel(abs(lee_forms(s, d.components[4]).theta @ xi), scale))
            lf6 = lee_forms(s, d.components[5])
            w.add("w21 refinement", _rel(abs(lf6.theta @ xi), scale))
            w.add("w21 refinement", _rel(abs(lf6.theta_star @ xi), scale))
    return w.results()


def _component_equivariance(w: _Worst, s, elem, f, af) -> None:
    """Each component of af = elem . f against elem acting on that of f."""
    pairs = zip(dec.decompose(s, af).components, dec.decompose(s, f).components)
    for c_af, c_f in pairs:
        w.add("component equivariance", _rel(_max_abs(c_af - act(s, elem, c_f)), _max_abs(f)))


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
        scale = _max_abs(f)
        w.add("space invariance", _rel(max(membership_residuals(s, af).values()), _max_abs(af)))
        w.add(
            "inner product invariance",
            _rel(abs(inner_product(s, af, act(s, elem, g2)) - inner_product(s, f, g2)),
                 abs(inner_product(s, f, g2))),
        )
        other = random_group_element(n, seed + 30_000)
        w.add(
            "representation homomorphism",
            _rel(_max_abs(act(s, elem, act(s, other, f)) - act(s, elem @ other, f)), scale),
        )
        for i in range(1, 5):
            w.add(
                "p_i equivariance",
                _rel(_max_abs(dec.project_w(s, af, i) - act(s, elem, dec.project_w(s, f, i))), scale),
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
            spec = models.lie_family(n, params)
            w.add("jacobi", 0.0 if models.check_jacobi(spec) else 1.0)
            g = models.koszul_connection(spec)
            torsion, compat = models.connection_residuals(spec, g)
            w.add("koszul torsion", torsion)
            w.add("koszul metric compatibility", compat)
            f = models.structure_tensor_from_connection(spec, g)
            res = max(membership_residuals(spec.structure, f).values())
            w.add("family membership", _rel(res, _max_abs(f)))
            if n == 1:
                a1, a2 = params
                w.add("family connection values", np.max(np.abs(g[1, 1] - [-a1, 0, 0])))
                w.add("family connection values", np.max(np.abs(g[2, 2] - [-a1, 0, 0])))
                w.add("family connection values", np.max(np.abs(g[0, 1] - [0, 0, -a2])))
                w.add("family connection values", np.max(np.abs(g[0, 2] - [0, -a2, 0])))
                w.add("family connection values", np.max(np.abs(g[1, 0] - [0, a1, 0])))
                w.add("family connection values", np.max(np.abs(g[2, 0] - [0, 0, -a1])))
                w.add("family tensor components", abs(f[0, 1, 1] + 2 * a2))
                w.add("family tensor components", abs(f[0, 2, 2] + 2 * a2))
                w.add("family tensor components", abs(f[1, 0, 2] - a1))
                w.add("family tensor components", abs(f[1, 2, 0] - a1))
                w.add("family tensor components", abs(f[2, 0, 1] + a1))
                w.add("family tensor components", abs(f[2, 1, 0] + a1))
                report = dec.classify(spec.structure, f)
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
        "lee forms fast path": DEFAULT_ATOL,
    })
    s = canonical_structure(1)
    for seed in range(seeds):
        f = random_structure_tensor(s, seed)
        comps = dec.decompose(s, f).components
        for i in (2, 3, 6, 7):
            w.add("components 2,3,6,7 vanish", _max_abs(comps[i - 1]))
        for closed_form, comp in zip(models.dim3_decompose(s, f).components, comps):
            w.add("fast path matches general", _max_abs(closed_form - comp))
        fast = models.dim3_lee_forms(s, f)
        general = lee_forms(s, f)
        w.add("lee forms fast path", np.max(np.abs(fast.theta - general.theta)))
        w.add("lee forms fast path", np.max(np.abs(fast.theta_star - general.theta_star)))
        w.add("lee forms fast path", np.max(np.abs(fast.omega - general.omega)))
    return w.results()


_SUITES = {
    "decomposition": decomposition_suite,
    "group": group_suite,
    "models": models_suite,
    "dim3": dim3_suite,
}


SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seeds: int) -> list:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return _SUITES[name](seeds)


def run_suites(names, seeds: int) -> dict:
    """Run the named suites; returns {suite: [CheckResult, ...]}."""
    return {name: run_suite(name, seeds) for name in names}
