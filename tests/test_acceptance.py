"""Acceptance suite: every check of the seeded invariant suites, asserted
by name, and one test per criterion, each printing a PASS line.

The suites in `acbm.verify` are the only implementation of the paper's
invariants. Each runs once per module, at its acceptance seed count; a
test asserts by name that a check passes, at the suite's tolerance or at
a tighter bound kept from a unit test the check replaced. The suites
build canonical structures, where the block projectors are exact; the
`decomposition` and `group` suites also run here on non-canonical bases,
so the same checks see the rounding that a change of basis brings. The
README table of the checks is pinned to the suites' order and to the
criteria.
Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
summary lines.
"""

import functools
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from acbm import verify
from acbm.decomposition import component
from acbm.group import group_element_from_blocks, random_group_element
from acbm.structure import canonical_structure
from acbm.tensors import _draws, random_structure_tensor
from acbm.verify import SUITE_NAMES, run_suite

from conftest import basis_change, push_structure


def _run(name: str, seeds: int) -> tuple:
    """({check name: CheckResult}, wall seconds) of one suite run."""
    start = time.perf_counter()
    checks = {check.name: check for check in run_suite(name, seeds)}
    return checks, time.perf_counter() - start


@pytest.fixture(scope="module")
def decomposition():
    return _run("decomposition", 100)


@pytest.fixture(scope="module")
def group():
    return _run("group", 50)


@pytest.fixture(scope="module")
def models():
    return _run("models", 20)


@pytest.fixture(scope="module")
def dim3():
    return _run("dim3", 100)


def _readme_table() -> list:
    """(suite, check names, criterion) per row of the README table of checks."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Verify suites and acceptance criteria\n")[1].split("\n## ")[0]
    rows, suite = [], None
    for line in section.splitlines():
        if line.startswith("| ") and not line.startswith("| suite |"):
            first, names, _, criterion = (cell.strip() for cell in line.split("|")[1:-1])
            suite = first or suite
            rows.append((suite, names.split(", "), criterion))
    return rows


_TABLE = _readme_table()

# Bounds on the reported worst value, tighter than the suite tolerance, that
# the unit tests these checks replaced held. The suites measure membership
# as the admissibility gate does, by the max-abs of the tensor tested, except
# that closure and class predicates measure a component below 1e-5 of F by the
# max-abs of F.
_TIGHTER = {
    ("decomposition", "projector idempotency"): 1e-12,
    ("decomposition", "projector self-adjointness"): 1e-12,
    ("decomposition", "closure"): 1e-13,
    ("decomposition", "class predicates"): 1e-13,
    ("decomposition", "w2 eigenspaces"): 1e-12,
    ("group", "space invariance"): 1e-12,
    ("group", "component equivariance"): 1e-12,
    ("models", "family membership"): 1e-12,
}


def _assert_passes(suite: str, result) -> None:
    assert result.passed
    assert result.worst <= _TIGHTER.get((suite, result.name), result.tol)


@pytest.mark.parametrize("suite, check", [(suite, name) for suite, names, _ in _TABLE for name in names])
def test_check_passes(request, suite, check):
    _assert_passes(suite, request.getfixturevalue(suite)[0][check])


# The suites that build their structures with canonical_structure, run in
# twelve bases at five seeds each: conftest's change of basis pushes every
# structure forward, and every group element is conjugated to match.
_BASES = range(12)
_PUSHED_SUITES = ("decomposition", "group")


@functools.cache
def _pushed(suite: str, basis: int) -> dict:
    """{check name: CheckResult} of `suite` at five seeds in change of basis `basis`."""
    t = {n: basis_change(n, basis) for n in (1, 2, 3)}
    built = []

    def structure(n):
        built.append(push_structure(canonical_structure(n), t[n]))
        return built[-1]

    def conjugate(element):
        return lambda n, *args: t[n] @ element(n, *args) @ np.linalg.inv(t[n])

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "canonical_structure", structure)
        patch.setattr(verify, "random_group_element", conjugate(random_group_element))
        patch.setattr(verify, "group_element_from_blocks", conjugate(group_element_from_blocks))
        checks = {check.name: check for check in run_suite(suite, 5)}
    fields = ("g", "phi", "xi", "eta")
    assert built and not any(
        all(np.allclose(getattr(s, k), getattr(canonical_structure(s.n), k), rtol=0, atol=1e-12) for k in fields)
        for s in built
    )
    return checks


@pytest.mark.parametrize("basis, suite, check", [
    (basis, suite, name)
    for basis in _BASES for suite, names, _ in _TABLE if suite in _PUSHED_SUITES for name in names
])
def test_check_passes_in_a_non_canonical_basis(basis, suite, check):
    _assert_passes(suite, _pushed(suite, basis)[check])


def _verdicts(suite: str, factor: float) -> list:
    """(name, worst, passed) of `suite` at three seeds, with every random tensor times factor."""
    drawn = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_draws", lambda s, seeds: drawn.extend(seeds) or factor * _draws(s, seeds))
        verdicts = [(check.name, check.worst, check.passed) for check in run_suite(suite, 3)]
    assert drawn, f"{suite} no longer draws through tensors._draws"
    return verdicts


@pytest.mark.parametrize("k", [-40, 40])
@pytest.mark.parametrize("suite", ["decomposition", "group", "dim3"])
def test_suites_judge_a_power_of_two_multiple_alike(suite, k):
    """The suites' identities are linear in F and a power of two scales floats
    without rounding, so 2^k F gives the verdicts and worst values of F, bit for bit."""
    assert _verdicts(suite, 2.0**k) == _verdicts(suite, 1.0)


def test_family_closed_forms_are_compared_whole(monkeypatch):
    """An admissible F11 entry the family never has, 1e-3 at F[0, 0, 1] and
    F[0, 1, 0], fails `family tensor components`: every entry is compared."""
    exact = verify.models._from_connection

    def with_f11(s, gammas):
        fs = exact(s, gammas)
        fs[:, 0, 0, 1] += 1e-3
        fs[:, 0, 1, 0] += 1e-3
        return fs

    monkeypatch.setattr(verify.models, "_from_connection", with_f11)
    checks = {check.name: check for check in run_suite("models", 1)}
    assert checks["family membership"].passed
    assert checks["family connection values"].passed
    assert not checks["family tensor components"].passed


def test_sphere_grid_is_judged_tensor_by_tensor(monkeypatch):
    """An F9 part of 1e-6 of the tensor at one grid point only fails `sphere
    classification`: the grid is decomposed in one call, and each tensor of it is
    still given its own verdict."""
    exact = verify.models.sphere_structure_tensor
    spoilt = float(np.linspace(-np.pi / 2, np.pi / 2, 20)[7])

    def with_f9(n, t):
        s, f = exact(n, t)
        if t == spoilt:
            f9 = component(s, random_structure_tensor(s, 0), 9)
            f = f + 1e-6 * np.abs(f).max() / np.abs(f9).max() * f9
        return s, f

    monkeypatch.setattr(verify.models, "sphere_structure_tensor", with_f9)
    checks = {check.name: check for check in run_suite("models", 1)}
    assert checks["sphere lee values"].passed
    assert not checks["sphere classification"].passed


def test_readme_table_is_the_suites_checks(monkeypatch, request):
    """The README names each suite's checks in the order the suite reports
    them, and each criterion's checks as its test below asserts them."""
    assert list(dict.fromkeys(suite for suite, _, _ in _TABLE)) == list(SUITE_NAMES)
    for suite in SUITE_NAMES:
        named = [name for row_suite, names, _ in _TABLE if row_suite == suite for name in names]
        assert named == list(request.getfixturevalue(suite)[0])
    asserted = {}

    def record(criterion, run, names, max_seconds=None):
        asserted[criterion.split()[1]] = set(names)

    monkeypatch.setattr(sys.modules[__name__], "_accept", record)
    for name, test in list(globals().items()):
        if name.startswith("test_criterion_"):
            test(None)
    documented = {}
    for _, names, criterion in _TABLE:
        if criterion != "-":
            documented.setdefault(criterion, set()).update(names)
    assert documented == asserted and len(asserted) == 7


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


def test_criterion_4_equivariance(group):
    """50 random (tensor, group element) pairs at n = 2: all eleven
    component maps commute with the action, inner product preserved."""
    names = ("element validity", "component equivariance", "inner product invariance")
    _accept("criterion 4 (equivariance)", group, names)


def test_criterion_5_dim3_vanishing(dim3):
    """In dimension 3, components F2, F3, F6, F7 vanish and decompose
    matches the paper's nine coordinates entrywise."""
    names = ("components 2,3,6,7 vanish", "closed forms match decompose")
    _accept("criterion 5 (dimension-3 vanishing)", dim3, names)


def test_criterion_6_lee_form_identities(decomposition):
    """omega(xi) = 0 and theta*(phi z) = -theta(phi^2 z) for 100 random
    tensors per dimension, plus the per-block Lee vanishing table."""
    names = ("lee form identities", "lee form table")
    _accept("criterion 6 (Lee-form identities)", decomposition, names)


def test_criterion_7_involution_oracle_cross_check(decomposition):
    """The involution route (F + L1 F - L2 F - L2 L1 F)/4 on p2(F)
    agrees with F4 + F5 + F6 from the printed component formulas."""
    _accept("criterion 7 (involution oracle)", decomposition, ("involution oracle",))
