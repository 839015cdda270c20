"""Acceptance suite: one test per criterion, each printing a PASS line.

Each criterion is a set of named checks of the seeded invariant suites
in `acbm.verify`, their only implementation; a test runs the suite and
asserts by name that those checks pass, at the suite's tolerances. Run
with `pytest tests/test_acceptance.py -s` to see the per-criterion
summary lines.
"""

import time

import pytest

from acbm.verify import run_suite


def _run(name: str, seeds: int) -> tuple:
    """({check name: CheckResult}, wall seconds) of one suite run."""
    start = time.perf_counter()
    checks = {check.name: check for check in run_suite(name, seeds)}
    return checks, time.perf_counter() - start


@pytest.fixture(scope="module")
def decomposition():
    return _run("decomposition", 100)


@pytest.fixture(scope="module")
def models():
    return _run("models", 20)


def _accept(criterion: str, run: tuple, names: tuple, max_seconds: float = None) -> None:
    checks, elapsed = run
    failed = [checks[name] for name in names if not checks[name].passed]
    assert not failed
    if max_seconds is not None:
        assert elapsed < max_seconds
    detail = ", ".join(f"{name} {checks[name].worst:.2e}" for name in names)
    print(f"\n[acceptance] {criterion}: PASS  ({detail}; {elapsed:.2f}s)")


def test_criterion_1_lie_group_example(models):
    """Koszul pipeline reproduces the dimension-3 family on five fixed
    (a1, a2) pairs, a1 = 0 and a2 = 0 among them, and on random draws:
    connection values, tensor components and the exact class set."""
    _accept("criterion 1 (Lie-group example)", models, (
        "jacobi", "koszul torsion", "koszul metric compatibility", "family membership",
        "family connection values", "family tensor components", "family classification",
    ), max_seconds=1.0)


def test_criterion_2_sphere_example(models):
    """Sphere tensors classify inside {F4, F5} with exact Lee values,
    pure F4 at t = 0 and pure F5 at t = +-pi/2."""
    names = ("sphere lee values", "sphere classification")
    _accept("criterion 2 (sphere example)", models, names, max_seconds=1.0)


def test_criterion_3_decomposition_suite(decomposition):
    """100 seeded random admissible tensors per dimension in {3, 5, 7}:
    reconstruction, orthogonality, class predicates, membership of
    components, and projector algebra."""
    _accept("criterion 3 (decomposition suite)", decomposition, (
        "reconstruction", "orthogonality", "closure", "class predicates",
        "projector sum", "projector idempotency", "projector self-adjointness",
    ), max_seconds=30.0)


def test_criterion_4_equivariance():
    """50 random (tensor, group element) pairs at n = 2: all eleven
    component maps commute with the action, inner product preserved."""
    names = ("element validity", "component equivariance", "inner product invariance")
    _accept("criterion 4 (equivariance)", _run("group", 50), names)


def test_criterion_5_dim3_vanishing():
    """In dimension 3, components F2, F3, F6, F7 vanish and the fast
    path matches the general formulas entrywise."""
    names = ("components 2,3,6,7 vanish", "fast path matches general")
    _accept("criterion 5 (dimension-3 vanishing)", _run("dim3", 100), names)


def test_criterion_6_lee_form_identities(decomposition):
    """omega(xi) = 0 and theta*(phi z) = -theta(phi^2 z) for 100 random
    tensors per dimension, plus the per-block Lee vanishing table."""
    names = ("lee form identities", "lee form table")
    _accept("criterion 6 (Lee-form identities)", decomposition, names)


def test_criterion_7_involution_oracle_cross_check(decomposition):
    """The involution route (F + L1 F - L2 F - L2 L1 F)/4 on p2(F)
    agrees with F4 + F5 + F6 from the printed component formulas."""
    _accept("criterion 7 (involution oracle)", decomposition, ("involution oracle",))
