"""JSON file formats for structures, tensors, Lie algebras and reports.

All array fields are flat row-major lists of decimal floats; nested
lists of the right shape are accepted on input; past the format, each
array field passes the library's one check, structure._as_float_array,
whose ValueError names the field. Numbers are emitted
through the shortest round-trip decimal representation of binary64, so
a generated file parses back to exactly the in-memory values and
identical inputs produce byte-identical machine-readable output.

Input kinds for classification are auto-detected: a document with a
"brackets" field is a Lie-algebra specification, one with "comps" is a
tensor; documents with both are rejected. Structure fields omitted
from any document default to the canonical structure for the given n;
a document with none of them gets canonical_structure(n) itself.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .decomposition import CLASS_NAMES, ClassReport
from .models import LieAlgebraSpec
from .structure import MAX_DIM, StructureData, _as_float_array, canonical_structure, is_canonical_basis
from .tensors import _tensor

__all__ = [
    "ParseError",
    "check_size",
    "load_document",
    "detect_kind",
    "structure_from_doc",
    "tensor_from_doc",
    "lie_from_doc",
    "structure_to_doc",
    "tensor_to_doc",
    "lie_to_doc",
    "group_to_doc",
    "report_to_doc",
    "format_report_text",
    "dumps",
]


class ParseError(ValueError):
    """Malformed input document: bad JSON, a missing field, a field of the wrong JSON type."""


def _float_list(arr: np.ndarray) -> list:
    return [float(x) for x in np.asarray(arr).ravel()]


def dumps(doc: dict) -> str:
    """Serialize a document deterministically (sorted keys, fixed separators)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def load_document(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level value must be an object")
    return doc


def detect_kind(doc: dict) -> str:
    has_brackets = "brackets" in doc
    has_comps = "comps" in doc
    if has_brackets and has_comps:
        raise ParseError("ambiguous document: has both 'brackets' and 'comps'")
    if has_brackets:
        return "lie"
    if has_comps:
        return "tensor"
    raise ParseError("missing field: document has neither 'comps' nor 'brackets'")


def _parse_array(value, shape, name: str) -> np.ndarray:
    """A field as its array: a flat row-major list of prod(shape) entries is
    nested into that shape, and anything else goes to the one array check as is."""
    if isinstance(value, list) and len(value) == math.prod(shape):
        for k in reversed(shape[1:]):
            value = [value[i:i + k] for i in range(0, len(value), k)]
    return _as_float_array(value, shape, name)


def _int_field(value, name: str) -> int:
    """A JSON integer, or ParseError; bools, floats and lists are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"field '{name}' must be an integer, got {type(value).__name__}")
    return value


def _resolve_n(doc: dict) -> int:
    n = doc.get("n")
    dim = doc.get("dim")
    if n is None and dim is None:
        raise ParseError("missing field: 'n' (or 'dim')")
    if dim is not None:
        dim = _int_field(dim, "dim")
    if n is not None:
        n = _int_field(n, "n")
        if dim is not None and dim != 2 * n + 1:
            raise ParseError(f"'dim'={dim} inconsistent with n={n} (expected {2 * n + 1})")
    elif dim < 3 or dim % 2 == 0:
        raise ParseError(f"'dim' must be an odd integer >= 3, got {dim}")
    else:
        n = (dim - 1) // 2
    check_size(2 * n + 1, "'n'" if dim is None else "'dim'")
    return n


def check_size(dim: int, name: str) -> None:
    """ParseError when dimension dim exceeds MAX_DIM; name is the field or flag that set it."""
    if dim > MAX_DIM:
        raise ParseError(
            f"{name}: dimension {dim} exceeds the maximum {MAX_DIM} (n <= {(MAX_DIM - 1) // 2})"
        )


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
    s = structure_from_doc(doc)
    if "comps" not in doc:
        raise ParseError("missing field: 'comps'")
    return s, _parse_array(doc["comps"], (s.dim,) * 3, "comps")


def lie_from_doc(doc: dict) -> LieAlgebraSpec:
    """Lie-algebra specification from a document.

    Brackets are records {i, j, coeffs} meaning [E_i, E_j] = sum_k
    coeffs[k] E_k; entries with j <= i are rejected (antisymmetry is
    implied, the diagonal is zero).
    """
    s = structure_from_doc(doc)
    d = s.dim
    brackets = doc.get("brackets")
    if not isinstance(brackets, list):
        raise ParseError("missing field: 'brackets' must be a list")
    c = np.zeros((d, d, d))
    for idx, rec in enumerate(brackets):
        if not isinstance(rec, dict) or not {"i", "j", "coeffs"} <= set(rec):
            raise ParseError(f"brackets[{idx}]: expected fields 'i', 'j', 'coeffs'")
        i = _int_field(rec["i"], f"brackets[{idx}].i")
        j = _int_field(rec["j"], f"brackets[{idx}].j")
        if not (0 <= i < d and 0 <= j < d):
            raise ParseError(f"brackets[{idx}]: indices must be in 0..{d - 1}")
        if j <= i:
            raise ParseError(
                f"brackets[{idx}]: requires i < j (got i={i}, j={j});"
                " antisymmetry is implied"
            )
        coeffs = _parse_array(rec["coeffs"], (d,), f"brackets[{idx}].coeffs")
        c[i, j] = coeffs
        c[j, i] = -coeffs
    return LieAlgebraSpec(structure=s, c=c)


def structure_to_doc(s: StructureData) -> dict:
    doc = {"n": int(s.n)}
    if not is_canonical_basis(s):
        doc.update(
            g=_float_list(s.g),
            phi=_float_list(s.phi),
            xi=_float_list(s.xi),
            eta=_float_list(s.eta),
        )
    return doc


def tensor_to_doc(s: StructureData, f) -> dict:
    comps = _float_list(_tensor(s, f))
    doc = structure_to_doc(s)
    doc["dim"] = int(s.dim)
    doc["comps"] = comps
    return doc


def lie_to_doc(spec: LieAlgebraSpec) -> dict:
    doc = structure_to_doc(spec.structure)
    d = spec.structure.dim
    brackets = []
    for i in range(d):
        for j in range(i + 1, d):
            if np.any(spec.c[i, j] != 0.0):
                brackets.append({"i": i, "j": j, "coeffs": _float_list(spec.c[i, j])})
    doc["brackets"] = brackets
    return doc


def group_to_doc(n: int, matrix: np.ndarray) -> dict:
    return {"n": int(n), "matrix": _float_list(matrix)}


def report_to_doc(report: ClassReport) -> dict:
    return {
        "present": list(report.class_names()),
        "is_F0": bool(report.is_F0),
        "magnitudes": _float_list(report.magnitudes),
        "input_magnitude": float(report.input_magnitude),
        "reconstruction_residual": float(report.reconstruction_residual),
        "tolerances": {
            "rel_tol": float(report.rel_tol),
            "abs_floor": float(report.abs_floor),
        },
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
    lines.append(
        f"tolerances: rel_tol={report.rel_tol!r} abs_floor={report.abs_floor!r}"
    )
    return "\n".join(lines) + "\n"
