"""Seeded request decks for the acbm benchmark, and the checks on their outputs.

Every input document is built here with numpy alone, from the workload
seed: admissible tensors by the benchmark's own projection onto the
admissible space, non-canonical structures by its own random change of
basis, sphere and Lie-family documents from their closed forms. The
program under test only ever sees the generated files.

A workload is a deck: a fixed list of request slots. Each slot is one
`acbm` command line on one generated file plus the verdict it must
give. A run shuffles the deck once per pass, so the request-kind and
dimension shares are exact over every whole pass whatever the seed;
the seed only changes the tensors, structures and the order.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

ALL_CLASSES = frozenset(range(1, 12))
# A generic admissible tensor in dimension 3 has no F2, F3, F6, F7 part.
DIM3_CLASSES = frozenset({1, 4, 5, 8, 9, 10, 11})
LIE_CLASSES = frozenset({9, 10})
SPHERE_CLASSES = frozenset({4, 5})
BLOCKS = {1: (1, 2, 3), 2: (4, 5, 6, 7, 8, 9), 3: (10,), 4: (11,)}

REL_TOL = 1e-9  # the CLI's default class threshold, relative to max-abs of the input
ABS_FLOOR = 1e-12

EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION = 0, 2, 3


# --- structures and tensors -------------------------------------------------


@dataclass(frozen=True, eq=False)
class Structure:
    n: int
    g: np.ndarray
    phi: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    canonical: bool

    @property
    def dim(self) -> int:
        return 2 * self.n + 1


def canonical_structure(n: int) -> Structure:
    d = 2 * n + 1
    g = np.diag(np.concatenate(([1.0], np.ones(n), -np.ones(n))))
    phi = np.zeros((d, d))
    for i in range(1, n + 1):
        phi[n + i, i] = 1.0
        phi[i, n + i] = -1.0
    e0 = np.zeros(d)
    e0[0] = 1.0
    return Structure(n, g, phi, e0, e0.copy(), True)


def _change_of_basis(rng, d: int) -> np.ndarray:
    while True:
        t = np.eye(d) + 0.3 * rng.uniform(-1.0, 1.0, size=(d, d))
        if np.linalg.cond(t) < 10.0:
            return t


def _pull(f: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """F(a x, b y, c z) for matrices a, b, c, as staged two-operand products."""
    out = np.einsum("abc,ai->ibc", f, a)
    out = np.einsum("ibc,bj->ijc", out, b)
    return np.einsum("ijc,ck->ijk", out, c)


def _sym_pair(q: np.ndarray, eta: np.ndarray) -> np.ndarray:
    return q[:, :, None] * eta[None, None, :] + q[:, None, :] * eta[None, :, None]


def _admissible(s: Structure, raw: np.ndarray) -> np.ndarray:
    """Projection of an arbitrary rank-3 array onto the admissible space of s."""
    sym = 0.5 * (raw + raw.transpose(0, 2, 1))
    h = -(s.phi @ s.phi)
    eye = np.eye(s.dim)
    out = 0.5 * (_pull(sym, eye, h, h) + _pull(sym, eye, s.phi, s.phi))
    s_h_xi = np.einsum("iab,aj,b->ij", sym, h, s.xi)
    return out + _sym_pair(s_h_xi, s.eta)


def _push(s: Structure, f: np.ndarray, t: np.ndarray) -> tuple:
    """Structure and tensor carried through the change of basis t."""
    ti = np.linalg.inv(t)
    pushed = Structure(s.n, ti.T @ s.g @ ti, t @ s.phi @ ti, t @ s.xi, s.eta @ ti, False)
    return pushed, _pull(f, ti, ti, ti)


def _tensor_doc(s: Structure, f: np.ndarray) -> dict:
    doc = {"n": s.n, "dim": s.dim, "comps": f.ravel().tolist()}
    if not s.canonical:
        for name in ("g", "phi", "xi", "eta"):
            doc[name] = getattr(s, name).ravel().tolist()
    return doc


def _lie_brackets(rng, n: int) -> list:
    """Brackets of the solvable family of acbm.models.lie_family, parameters
    of magnitude 0.5..2 and random sign, so that F9 and F10 are both present.

    Each pair (E_i, E_n+i) repeats the three-dimensional algebra, whose
    tensor lies in F9 + F10 with both parts nonzero when a_i, a_n+i != 0."""
    a = rng.uniform(0.5, 2.0, size=2 * n) * rng.choice((-1.0, 1.0), size=2 * n)
    d = 2 * n + 1
    brackets = []
    for i in range(1, n + 1):
        first = np.zeros(d)
        first[i], first[n + i] = -a[i - 1], -a[n + i - 1]
        second = np.zeros(d)
        second[i], second[n + i] = -a[n + i - 1], a[i - 1]
        brackets.append({"i": 0, "j": i, "coeffs": first.tolist()})
        brackets.append({"i": 0, "j": n + i, "coeffs": second.tolist()})
    return brackets


def _jacobi_residual(c: np.ndarray) -> float:
    jac = (
        np.einsum("jkm,iml->ijkl", c, c)
        + np.einsum("kim,jml->ijkl", c, c)
        + np.einsum("ijm,kml->ijkl", c, c)
    )
    return float(np.max(np.abs(jac)))


# --- documents --------------------------------------------------------------
# Each maker returns (document, reference). The reference is (structure,
# tensor) for tensor documents, None otherwise; a document given as a
# string is written verbatim (malformed input).


def _random(rng, n: int, canonical: bool):
    s = canonical_structure(n)
    f = _admissible(s, rng.uniform(-1.0, 1.0, size=(s.dim,) * 3))
    if not canonical:
        s, f = _push(s, f, _change_of_basis(rng, s.dim))
    return _tensor_doc(s, f), (s, f)


def _sphere(rng, n: int):
    s = canonical_structure(n)
    t = rng.uniform(0.2, 1.35)  # cos t and sin t both well away from zero
    gp = s.g @ s.phi
    gpp = s.phi.T @ s.g @ s.phi
    f = -np.cos(t) * _sym_pair(gpp, s.eta) - np.sin(t) * _sym_pair(gp, s.eta)
    return _tensor_doc(s, f), (s, f)


def _lie(rng, n: int):
    return {"n": n, "brackets": _lie_brackets(rng, n)}, None


def _inadmissible(rng, n: int, scale: float = 1.0):
    d = 2 * n + 1
    return {"n": n, "dim": d, "comps": (scale * rng.uniform(-1.0, 1.0, d**3)).tolist()}, None


def _tiny_inadmissible(rng, n: int):
    return _inadmissible(rng, n, scale=1e-10)


def _bad_structure(rng, n: int):
    d = 2 * n + 1
    return {"n": n, "g": np.eye(d).ravel().tolist(), "comps": [0.0] * d**3}, None


def _jacobi_violation(rng, n: int):
    d = 2 * n + 1
    while True:
        c = np.zeros((d, d, d))
        brackets = []
        for i in range(d):
            for j in range(i + 1, d):
                coeffs = rng.uniform(-1.0, 1.0, size=d)
                c[i, j], c[j, i] = coeffs, -coeffs
                brackets.append({"i": i, "j": j, "coeffs": coeffs.tolist()})
        if _jacobi_residual(c) > 0.1:
            return {"n": n, "brackets": brackets}, None


def _bad_json(rng, n: int):
    doc, _ = _random(rng, n, True)
    return json.dumps(doc)[: 40 + int(rng.integers(0, 40))], None


def _ambiguous(rng, n: int):
    doc, _ = _random(rng, n, True)
    doc["brackets"] = []
    return doc, None


def _list_index_bracket(rng, n: int):
    doc, _ = _lie(rng, n)
    doc["brackets"][0]["i"] = [0]
    return doc, None


MAKERS = {
    "random": lambda rng, n: _random(rng, n, True),
    "random_nc": lambda rng, n: _random(rng, n, False),
    "sphere": _sphere,
    "lie": _lie,
    "inadmissible": _inadmissible,
    "tiny_inadmissible": _tiny_inadmissible,
    "bad_structure": _bad_structure,
    "jacobi_violation": _jacobi_violation,
    "bad_json": _bad_json,
    "ambiguous": _ambiguous,
    "list_index_bracket": _list_index_bracket,
}

CLASS_SETS = {
    "random": None,  # by dimension: DIM3_CLASSES or ALL_CLASSES
    "random_nc": None,
    "sphere": SPHERE_CLASSES,
    "lie": LIE_CLASSES,
}

# Invalid documents: (expected exit, a known defect of the program when
# this benchmark was added).
INVALID = {
    "inadmissible": (EXIT_PRECONDITION, False),
    "bad_structure": (EXIT_PRECONDITION, False),
    "jacobi_violation": (EXIT_PRECONDITION, False),
    "bad_json": (EXIT_PARSE, False),
    "ambiguous": (EXIT_PARSE, False),
    # ROADMAP open item 3: admissibility is judged against max(1, |F|),
    # so a tiny inadmissible tensor exits 0 with all eleven classes.
    "tiny_inadmissible": (EXIT_PRECONDITION, True),
    # ROADMAP open item 3: int([0]) raises an uncaught TypeError.
    "list_index_bracket": (EXIT_PARSE, True),
}


# --- decks ------------------------------------------------------------------
# A slot is (kind, document maker, n, extra argv). Kinds: classify,
# project, reject (an invalid input or bad parameters), verify.
# Inadmissible tensors are the majority of the invalid inputs, so that
# the median reject latency is that of the membership check.


def _classify(maker, n, times, fmt_cycle=("json", "text")):
    return [("classify", maker, n, ("--format", fmt_cycle[k % len(fmt_cycle)])) for k in range(times)]


VERIFY_K = 3

DECKS = {
    # d=3 is the paper's own dimension; per-command overhead dominates.
    "classify_small": (
        _classify("random", 1, 8) + _classify("random_nc", 1, 8)
        + _classify("lie", 1, 6) + _classify("sphere", 1, 6)
        + _classify("random", 2, 4) + _classify("random_nc", 2, 4)
        + _classify("lie", 2, 2) + _classify("sphere", 2, 2)
        + [
            ("project", "random", 1, ("--class-index", "1")),
            ("project", "random_nc", 1, ("--class-index", "5")),
            ("project", "random", 1, ("--class-index", "9")),
            ("project", "random_nc", 1, ("--class-index", "11")),
            ("project", "random", 1, ("--w", "1")),
            ("project", "random_nc", 1, ("--w", "3")),
            ("project", "random", 2, ("--class-index", "2")),
            ("project", "random_nc", 2, ("--class-index", "6")),
            ("project", "random", 2, ("--w", "2")),
            ("project", "random_nc", 2, ("--w", "4")),
        ]
        + [
            ("reject", "inadmissible", 1, ()),
            ("reject", "inadmissible", 1, ()),
            ("reject", "inadmissible", 1, ()),
            ("reject", "inadmissible", 1, ()),
            ("reject", "inadmissible", 1, ()),
            ("reject", "inadmissible", 2, ()),
            ("reject", "inadmissible", 2, ()),
            ("reject", "bad_structure", 1, ()),
            ("reject", "jacobi_violation", 1, ()),
            ("reject", "bad_json", 1, ()),
            ("reject", "ambiguous", 1, ()),
            ("reject", "random", 1, ("project",)),  # no --class-index or --w
            ("reject", "tiny_inadmissible", 2, ()),
            ("reject", "list_index_bracket", 1, ()),
        ]
        + [("verify", None, None, ("--suite", "dim3", "--seeds", str(VERIFY_K)))]
    ),
    # d in {9, 11, 13}: the einsum contractions of the decomposition dominate.
    "classify_large": (
        _classify("random_nc", 4, 1, ("json",)) + _classify("sphere", 4, 1, ("text",))
        + _classify("random", 5, 1, ("text",)) + _classify("lie", 5, 1, ("json",))
        + _classify("random_nc", 6, 1, ("json",)) + _classify("lie", 6, 1, ("text",))
        + [
            ("project", "random", 5, ("--class-index", "2")),
            ("project", "random_nc", 5, ("--class-index", "3")),
            ("project", "random_nc", 6, ("--class-index", "2")),
            ("project", "random", 4, ("--w", "1")),
            ("project", "random_nc", 6, ("--w", "4")),
        ]
        + [("reject", "inadmissible", 5, ())] * 5
        + [
            ("reject", "bad_structure", 6, ()),
            ("reject", "ambiguous", 4, ()),
            ("reject", "tiny_inadmissible", 4, ()),
            ("reject", "list_index_bracket", 5, ()),
        ]
        + [("verify", None, None, ("--suite", "dim3", "--seeds", str(VERIFY_K)))] * 3
    ),
    # The seeded invariant suites call the decomposition one component at a
    # time at d = 3, 5, 7 and are the only users of `group`.
    "verify_suites": (
        [("verify", None, None, ("--suite", "all", "--seeds", str(VERIFY_K)))]
        + _classify("random", 1, 1, ("json",)) + _classify("random_nc", 1, 1, ("text",))
        + _classify("random", 2, 1, ("text",)) + _classify("random_nc", 2, 1, ("json",))
        + _classify("lie", 3, 1, ("json",)) + _classify("sphere", 3, 1, ("text",))
        + [
            ("project", "random_nc", 2, ("--class-index", "2")),
            ("project", "random", 2, ("--w", "2")),
            ("reject", "inadmissible", 2, ()),
            ("reject", "inadmissible", 2, ()),
        ]
    ),
}


@dataclass(eq=False)
class Slot:
    kind: str
    argv: list
    maker: str | None
    n: int | None
    code: int = EXIT_OK
    classes: frozenset | None = None
    known_defect: bool = False
    reference: tuple | None = None
    selector: tuple | None = None  # ("class", i) or ("w", k) for project
    suites: int = 0  # suite count a verify command must print


def build_deck(workload: str, rng, directory: str) -> list:
    """Generate the files of one workload's deck into directory; return its slots."""
    slots = []
    for idx, (kind, maker, n, extra) in enumerate(DECKS[workload]):
        if kind == "verify":
            suites = 4 if extra[1] == "all" else 1
            slots.append(Slot(kind, ["verify", *extra], None, None, suites=suites))
            continue
        doc, reference = MAKERS[maker](rng, n)
        path = os.path.join(directory, f"{idx:03d}-{maker}-n{n}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc if isinstance(doc, str) else json.dumps(doc))
        if kind == "reject":
            code, defect = (EXIT_PARSE, False) if extra == ("project",) else INVALID[maker]
            slots.append(Slot(kind, [*(extra or ("classify",)), path], maker, n, code=code, known_defect=defect))
            continue
        classes = CLASS_SETS[maker]
        if classes is None:
            classes = DIM3_CLASSES if n == 1 else ALL_CLASSES
        slot = Slot(kind, [kind, path, *extra], maker, n, classes=classes, reference=reference)
        if kind == "project":
            slot.selector = ("class" if extra[0] == "--class-index" else "w", int(extra[1]))
        slots.append(slot)
    return slots


# --- checks -----------------------------------------------------------------


def _block_projection(s: Structure, f: np.ndarray, k: int) -> np.ndarray:
    """p_k(F) by the block formulas of acbm.decomposition, staged."""
    p = s.phi @ s.phi
    xi, eta = s.xi, s.eta
    if k == 1:
        return -_pull(f, p, p, p)
    fp = np.einsum("abc,ai->ibc", f, p)
    if k == 2:
        x_xi_z = np.einsum("ibc,b,ck->ik", fp, xi, p)
        x_y_xi = np.einsum("ibc,bj,c->ij", fp, p, xi)
        return eta[None, :, None] * x_xi_z[:, None, :] + eta[None, None, :] * x_y_xi[:, :, None]
    fx = np.einsum("abc,a->bc", f, xi)
    if k == 3:
        return eta[:, None, None] * (p.T @ fx @ p)[None, :, :]
    u = p.T @ (fx.T @ xi)
    w = p.T @ (fx @ xi)
    return -(np.multiply.outer(np.outer(eta, eta), u) + np.einsum("i,k,j->ijk", eta, eta, w))


def _threshold(f: np.ndarray) -> float:
    return REL_TOL * max(float(np.max(np.abs(f))), ABS_FLOOR)


def _parse_text_report(text: str) -> dict:
    fields = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line and not line.startswith(" "))
    tol = dict(item.split("=") for item in fields["tolerances"].split())
    names = fields["classes"].split()
    return {
        "present": [] if names == ["F0"] else names,
        "reconstruction_residual": float(fields["reconstruction_residual"]),
        "tolerances": {"rel_tol": float(tol["rel_tol"])},
    }


def check(slot: Slot, code, out: str, exc: str | None) -> str | None:
    """None when the command's outcome is right, else why it is wrong.

    Verdicts are compared, never bytes: class sets, exit codes, the
    reconstruction residual against the report's own rel_tol, and
    projections against the block formulas within a relative 1e-9."""
    if exc is not None:
        return f"uncaught {exc}"
    if code != slot.code:
        return f"exit {code}, expected {slot.code}"
    if slot.kind == "reject":
        return None
    try:
        if slot.kind == "verify":
            lines = out.splitlines()
            checks = [ln for ln in lines if ln.startswith("  ")]
            suites = [ln for ln in lines if ln.startswith("suite: ")]
            if len(suites) != slot.suites or not checks or lines[-1] != "result: PASS":
                return "verify output incomplete"
            if any(not ln.lstrip().startswith("PASS ") for ln in checks):
                return "verify check not PASS"
            return None
        if slot.kind == "classify":
            report = json.loads(out) if out.startswith("{") else _parse_text_report(out)
            present = frozenset(int(name[1:]) for name in report["present"])
            if present != slot.classes:
                return f"classes {sorted(present)}, expected {sorted(slot.classes)}"
            if not report["reconstruction_residual"] <= report["tolerances"]["rel_tol"]:
                return f"reconstruction residual {report['reconstruction_residual']:.3e} above rel_tol"
            return None
        return _check_projection(slot, json.loads(out))
    except (ValueError, KeyError, IndexError, TypeError) as err:
        return f"unreadable output: {type(err).__name__}: {err}"


def _check_projection(slot: Slot, doc: dict) -> str | None:
    s, f = slot.reference
    d = s.dim
    if doc.get("n") != s.n or doc.get("dim") != d or len(doc.get("comps", ())) != d**3:
        return "projection document has the wrong shape"
    if not s.canonical and not np.allclose(np.asarray(doc.get("g")).reshape(d, d), s.g, rtol=1e-12, atol=0.0):
        return "projection document lost the structure"
    got = np.asarray(doc["comps"], dtype=float).reshape(d, d, d)
    what, index = slot.selector
    expected_present = index in slot.classes if what == "class" else bool(set(BLOCKS[index]) & slot.classes)
    if (float(np.max(np.abs(got))) > _threshold(f)) != expected_present:
        return f"{what} {index} {'vanishes' if expected_present else 'does not vanish'}"
    block = {"w": index, "class": {10: 3, 11: 4}.get(index)}[what]
    if block is not None:
        want = _block_projection(s, f, block)
        if float(np.max(np.abs(got - want))) > REL_TOL * float(np.max(np.abs(f))):
            return f"{what} {index} differs from the block formula"
    return None
