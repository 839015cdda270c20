"""JSON file formats for structures, tensors, Lie algebras and reports.

All array fields are flat row-major lists of decimal floats; nested
lists of the right shape are accepted on input; past the format, each
array field passes the library's one check, structure._as_float_array,
and each integer field its integer rules, whose ValueError names the field.
Every malformed document is one ValueError: text past MAX_DOCUMENT_CHARS,
bad or too deeply nested JSON, a key given twice in one object, a missing
or ill-typed field. Numbers are emitted
through the shortest round-trip decimal representation of binary64, so
a generated file parses back to exactly the in-memory values and
identical inputs produce byte-identical machine-readable output.

A document's kind is decided by its fields alone: one with a "brackets"
field is a Lie-algebra specification and any other is a tensor; a field
outside the kind's set, such as "comps" beside "brackets", is rejected.
Omitted structure fields default to the canonical ones for n, and a
document with none of them gets canonical_structure(n) itself.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .decomposition import CLASS_NAMES, ClassReport
from .models import _unit_bracket_table
from .structure import (
    MAX_DIM, StructureData, _as_float_array, _dimension, _integer, _rank, _sealed, canonical_structure,
)
from .tensors import _tensor

__all__ = [
    "MAX_DOCUMENT_CHARS",
    "load_document",
    "structure_from_doc",
    "tensor_from_doc",
    "lie_from_doc",
    "structure_to_doc",
    "tensor_to_doc",
    "lie_to_doc",
    "report_to_doc",
    "format_report_text",
    "dumps",
]


def _float_list(arr: np.ndarray) -> list:
    return [float(x) for x in np.asarray(arr).ravel()]


def dumps(doc: dict) -> str:
    """Serialize a document deterministically (sorted keys, fixed separators)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _object(pairs: list) -> dict:
    """A JSON object, refused when it gives a key twice: json would keep the last copy."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        repeated = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
        raise ValueError(f"key {repeated!r} is given twice in one object")
    return obj


# The longest document read: 256 characters for each number of the largest tensor
# document (comps, g, phi, xi and eta at d = MAX_DIM), so an endless input such as
# /dev/zero is refused after one bounded read.
MAX_DOCUMENT_CHARS = 256 * (MAX_DIM**3 + 2 * MAX_DIM**2 + 2 * MAX_DIM)


def load_document(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read(MAX_DOCUMENT_CHARS + 1)
        if len(text) > MAX_DOCUMENT_CHARS:
            raise ValueError(f"{path} is longer than the document limit of {MAX_DOCUMENT_CHARS} characters")
        doc = json.loads(text, object_pairs_hook=_object)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top-level value must be an object")
    return doc


_STRUCTURE_FIELDS = ("n", "dim", "g", "phi", "xi", "eta")


def _refuse_unknown_fields(record: dict, fields: tuple, where: str) -> None:
    """ValueError naming the first key outside fields: a misspelt field is not a default."""
    unknown = [key for key in record if key not in fields]
    if unknown:
        raise ValueError(f"{where}unknown field {unknown[0]!r}; expected {', '.join(fields)}")


def _parse_array(value, shape, name: str) -> np.ndarray:
    """A field as its array: a flat row-major list of prod(shape) entries is
    nested into that shape, and anything else goes to the one array check as is."""
    if isinstance(value, list) and len(value) == math.prod(shape):
        for k in reversed(shape[1:]):
            value = [value[i:i + k] for i in range(0, len(value), k)]
    return _as_float_array(value, shape, name)


def _resolve_n(doc: dict) -> int:
    n = doc.get("n")
    dim = doc.get("dim")
    if n is None and dim is None:
        raise ValueError("missing field: 'n' (or 'dim')")
    if n is None:
        return _dimension(dim, "'dim'")
    n = _rank(n, "'n'")
    if dim is not None and _integer(dim, "'dim'", 3) != 2 * n + 1:
        raise ValueError(f"'dim'={dim} inconsistent with n={n} (expected {2 * n + 1})")
    return n


def structure_from_doc(doc: dict) -> StructureData:
    """Build a structure from a document; omitted fields fall back to canonical."""
    n = _resolve_n(doc)
    d = 2 * n + 1
    base = canonical_structure(n)
    shapes = {"g": (d, d), "phi": (d, d), "xi": (d,), "eta": (d,)}
    if shapes.keys().isdisjoint(doc):
        return base
    fields = {k: _parse_array(doc[k], shape, k) if k in doc else getattr(base, k)
              for k, shape in shapes.items()}
    return StructureData(n=n, **fields)


def tensor_from_doc(doc: dict) -> tuple:
    """(structure, tensor) from a tensor document."""
    _refuse_unknown_fields(doc, _STRUCTURE_FIELDS + ("comps",), "")
    if "comps" not in doc:
        raise ValueError("missing field: 'comps' (or 'brackets' for a Lie algebra)")
    s = structure_from_doc(doc)
    return s, _parse_array(doc["comps"], (s.dim,) * 3, "comps")


def lie_from_doc(doc: dict) -> tuple:
    """(structure, bracket table) from a Lie-algebra document.

    Brackets are records {i, j, coeffs} meaning [E_i, E_j] = sum_k
    coeffs[k] E_k; entries with j <= i are rejected (antisymmetry is
    implied, the diagonal is zero), and so is a pair given twice.
    """
    _refuse_unknown_fields(doc, _STRUCTURE_FIELDS + ("brackets",), "")
    s = structure_from_doc(doc)
    d = s.dim
    if "brackets" not in doc:
        raise ValueError("missing field: 'brackets'")
    brackets = doc["brackets"]
    if not isinstance(brackets, list):
        raise ValueError(f"'brackets' must be a list, got {type(brackets).__name__}")
    c = np.zeros((d, d, d))
    first = {}  # (i, j) -> index of the record that gives [E_i, E_j]
    for idx, rec in enumerate(brackets):
        if not isinstance(rec, dict) or not {"i", "j", "coeffs"} <= set(rec):
            raise ValueError(f"brackets[{idx}]: expected fields 'i', 'j', 'coeffs'")
        _refuse_unknown_fields(rec, ("i", "j", "coeffs"), f"brackets[{idx}]: ")
        i = _integer(rec["i"], f"brackets[{idx}].i", 0, d - 1)
        j = _integer(rec["j"], f"brackets[{idx}].j", 0, d - 1)
        if j <= i:
            raise ValueError(
                f"brackets[{idx}]: requires i < j (got i={i}, j={j});"
                " antisymmetry is implied"
            )
        if (i, j) in first:
            raise ValueError(f"brackets[{idx}]: repeats the pair ({i}, {j}) of brackets[{first[i, j]}]")
        first[i, j] = idx
        coeffs = _parse_array(rec["coeffs"], (d,), f"brackets[{idx}].coeffs")
        c[i, j] = coeffs
        c[j, i] = -coeffs
    return s, _sealed(c)


def structure_to_doc(s: StructureData) -> dict:
    """The structure fields of s; g, phi, xi and eta are omitted only when they
    are the canonical ones bit for bit, so that the document reads back as s."""
    doc = {"n": int(s.n)}
    c = canonical_structure(s.n)
    fields = ("g", "phi", "xi", "eta")
    if any(getattr(s, k).tobytes() != getattr(c, k).tobytes() for k in fields):
        doc.update({k: _float_list(getattr(s, k)) for k in fields})
    return doc


def tensor_to_doc(s: StructureData, f) -> dict:
    comps = _float_list(_tensor(s, f))
    return {**structure_to_doc(s), "dim": int(s.dim), "comps": comps}


def lie_to_doc(s: StructureData, c) -> dict:
    """The document of the bracket table c, which holds its i < j brackets, so a table
    that is not antisymmetric is refused (PreconditionError) rather than written as another."""
    c = _tensor(s, c, "structure constants")
    _unit_bracket_table(c)
    brackets = []
    for i in range(s.dim):
        for j in range(i + 1, s.dim):
            if np.any(c[i, j] != 0.0):
                brackets.append({"i": i, "j": j, "coeffs": _float_list(c[i, j])})
    return {**structure_to_doc(s), "brackets": brackets}


def report_to_doc(report: ClassReport) -> dict:
    return {
        "present": list(report.class_names()),
        "is_F0": report.is_F0,
        "magnitudes": _float_list(report.magnitudes),
        "input_magnitude": float(report.input_magnitude),
        "reconstruction_residual": float(report.reconstruction_residual),
        "tolerances": {"rel_tol": float(report.rel_tol)},
    }


def format_report_text(report: ClassReport) -> str:
    """Human-readable classification report."""
    lines = []
    names = report.class_names()
    lines.append("classes: " + (" ".join(names) if names else "F0"))
    lines.append(f"F0: {str(report.is_F0).lower()}")
    lines.append("magnitudes:")
    for name, mag in zip(CLASS_NAMES, report.magnitudes):
        lines.append(f"  {name:<4} {float(mag)!r}")
    lines.append(f"input_magnitude: {float(report.input_magnitude)!r}")
    lines.append(f"reconstruction_residual: {float(report.reconstruction_residual)!r}")
    lines.append(f"tolerances: rel_tol={report.rel_tol!r}")
    return "\n".join(lines) + "\n"
