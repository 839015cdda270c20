"""Spans at the public-function boundaries of the acbm layers.

Tracing is installed from outside the program: every public function
(defined in its module, name without a leading underscore) of the
eight layer modules is wrapped, and every reference to the same
function object in any `acbm.*` namespace is replaced, so cross-module
calls such as `decomposition` -> `tensors.lee_forms` and `cli` ->
`classify` are seen. `numpy.einsum` is wrapped to count calls and
computed multiply-adds, attributed to the innermost open layer span.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

import numpy as np

LAYERS = ("cli", "fileio", "structure", "tensors", "decomposition", "group", "models", "verify")
EINSUM_LAYERS = ("tensors", "decomposition", "group", "models")
SUITES = ("decomposition", "group", "models", "dim3")

# Span record fields.
REQ, SID, PARENT, NAME, T0, T1, FAILED, EINSUM, MADDS, EXTRA = range(10)
FIELDS = ("request", "span", "parent", "name", "t0_ns", "t1_ns", "failed", "einsum_calls", "einsum_madds", "extra")


def _computed_madds(operands, cache: dict) -> int:
    """Product of all index extents times (operands - 1): the work of an
    unoptimised contraction, computed from the subscripts, not measured.
    Calls in the interleaved (operand, sublist) form count 0."""
    subscripts, arrays = operands[0], operands[1:]
    if not isinstance(subscripts, str):
        return 0
    key = (subscripts, tuple(np.shape(a) for a in arrays))
    if key not in cache:
        extents = {}
        for letters, shape in zip(subscripts.split("->")[0].split(","), key[1]):
            extents.update(zip(letters.strip(), shape))
        total = 1
        for extent in extents.values():
            total *= extent
        cache[key] = total * max(len(arrays) - 1, 0)
    return cache[key]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.request = -1

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def extra_of(args, result):
            if name == "fileio.load_document" and os.path.isfile(args[0]):
                return os.path.getsize(args[0])
            if name in ("fileio.dumps", "fileio.format_report_text") and isinstance(result, str):
                return len(result.encode("utf-8"))
            if name == "verify.run_suite":
                return args[0]
            return None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [self.request, len(spans), stack[-1][SID] if stack else -1, name, clock(), 0, False, 0, 0, None]
            spans.append(rec)
            stack.append(rec)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                rec[T1] = clock()
                stack.pop()
                if args:
                    rec[EXTRA] = extra_of(args, result)

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"acbm.{layer}"]
            for attr, obj in vars(module).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        for modname, module in list(sys.modules.items()):
            if modname != "acbm" and not modname.startswith("acbm."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

        einsum, stack, cache = np.einsum, self._stack, {}

        @functools.wraps(einsum)
        def counted_einsum(*operands, **kwargs):
            if stack:
                rec = stack[-1]
                rec[EINSUM] += 1
                rec[MADDS] += _computed_madds(operands, cache)
            return einsum(*operands, **kwargs)

        self._patches.append((np, "einsum", einsum))
        np.einsum = counted_einsum

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": FIELDS}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def metrics(self, requests: int, traced_rps: float, untraced_rps: float) -> dict:
        """Per-layer figures as means per request, plus the named ratios."""
        spans = self.spans
        child_ns = [0] * len(spans)
        # Enclosing decomposition.classify span that returned; a classify
        # that raised (an inadmissible input) is not a classification.
        in_classify = [-1] * len(spans)
        for rec in spans:
            parent = rec[PARENT]
            if parent >= 0:
                child_ns[parent] += rec[T1] - rec[T0]
            if rec[NAME] == "decomposition.classify" and not rec[FAILED]:
                in_classify[rec[SID]] = rec[SID]
            elif parent >= 0:
                in_classify[rec[SID]] = in_classify[parent]

        calls = dict.fromkeys(LAYERS, 0)
        self_ns = dict.fromkeys(LAYERS, 0)
        failed = dict.fromkeys(LAYERS, 0)
        einsum_calls = dict.fromkeys(LAYERS, 0)
        madds = dict.fromkeys(LAYERS, 0)
        suite_ns = dict.fromkeys(SUITES, 0)
        classify_calls = lee_in_classify = component_in_classify = einsum_in_classify = 0
        bytes_in = bytes_out = 0
        for rec in spans:
            name = rec[NAME]
            layer = name.split(".", 1)[0]
            calls[layer] += 1
            self_ns[layer] += rec[T1] - rec[T0] - child_ns[rec[SID]]
            failed[layer] += rec[FAILED]
            einsum_calls[layer] += rec[EINSUM]
            madds[layer] += rec[MADDS]
            if in_classify[rec[SID]] >= 0:
                einsum_in_classify += rec[EINSUM]
                lee_in_classify += name == "tensors.lee_forms"
                component_in_classify += name == "decomposition.component"
            classify_calls += name == "decomposition.classify" and not rec[FAILED]
            if name == "fileio.load_document":
                bytes_in += rec[EXTRA] or 0
            elif name in ("fileio.dumps", "fileio.format_report_text"):
                bytes_out += rec[EXTRA] or 0
            elif name == "verify.run_suite" and rec[EXTRA] in suite_ns:
                suite_ns[rec[EXTRA]] += rec[T1] - rec[T0]

        per = 1.0 / requests
        per_classify = 1.0 / classify_calls if classify_calls else 0.0
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (calls[layer] * per, "count")
            out[f"{layer}.self_ms"] = (self_ns[layer] * 1e-6 * per, "ms")
            out[f"{layer}.failed"] = (failed[layer] * per, "count")
        for layer in EINSUM_LAYERS:
            out[f"{layer}.einsum_calls"] = (einsum_calls[layer] * per, "count")
            out[f"{layer}.einsum_madds"] = (madds[layer] * per, "madd")
        out["tensors.lee_forms.calls_per_classify"] = (lee_in_classify * per_classify, "count")
        out["decomposition.component.calls_per_classify"] = (component_in_classify * per_classify, "count")
        out["decomposition.classify.einsum_calls_per_classify"] = (einsum_in_classify * per_classify, "count")
        out["fileio.bytes_in"] = (bytes_in * per, "B")
        out["fileio.bytes_out"] = (bytes_out * per, "B")
        for suite in SUITES:
            out[f"verify.{suite}_ms"] = (suite_ns[suite] * 1e-6 * per, "ms")
        out["tracing_overhead"] = (traced_rps / untraced_rps, "ratio")
        return out
