"""File-based front end.

Subcommands:

    classify  read a tensor or Lie-algebra file, report its classes
    project   read a tensor or Lie-algebra file, emit one class component or block projection
    gen       emit input files: sphere, liegroup, random
    verify    run the seeded invariant suites

Exit codes: 0 success (verify: all checks passed), 2 any ValueError: a
malformed document, a command line the parser refuses, a bad parameter
(the library's scalar and index rules, named by the flag), an --out path or
standard output that cannot be written (a full device), or input whose
arithmetic overflows the float range, 3 any PreconditionError (invalid
structure, tensor outside the admissible space, broken bracket table), 1
failed verify checks, 141 output pipe closed by its reader (as for a process
ended by SIGPIPE: `acbm verify | head -n 1`); each is one line, no traceback.

Examples:

    acbm gen sphere --n 1 --t 0.7 --out sphere.json
    acbm classify sphere.json
    acbm gen liegroup --n 1 --a 1.0,1.0 | acbm classify /dev/stdin --format json
    acbm verify --suite dim3 --seeds 100
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from . import fileio
from .decomposition import classify, component, project_w
from .errors import PreconditionError
from .models import (
    check_jacobi,
    koszul_connection,
    lie_family,
    sphere_structure_tensor,
    structure_tensor_from_connection,
)
from .structure import (
    DEFAULT_RTOL, _as_float_array, _dimension, _integer, _rank, _real, canonical_structure,
)
from .tensors import random_structure_tensor
from .verify import SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_PIPE_CLOSED = 141  # 128 + SIGPIPE, the status a shell gives a writer the signal ended


def _emit(text: str, out_path: str | None) -> None:
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {out_path}: {exc}") from exc


def _load_classifiable(path: str):
    """Resolve an input file to (structure, tensor), running the Koszul
    pipeline for Lie-algebra specifications."""
    doc = fileio.load_document(path)
    if "brackets" in doc:
        s, c = fileio.lie_from_doc(doc)
        if not check_jacobi(s, c):
            raise PreconditionError("bracket table violates the Jacobi identity")
        return s, structure_tensor_from_connection(s, koszul_connection(s, c))
    return fileio.tensor_from_doc(doc)


def cmd_classify(args) -> int:
    _real(args.tol, "--tol", positive=True)
    s, f = _load_classifiable(args.input)
    report = classify(s, f, rel_tol=args.tol)
    if args.format == "json":
        text = fileio.dumps(fileio.report_to_doc(report))
    else:
        text = fileio.format_report_text(report)
    _emit(text, args.out)
    return EXIT_OK


def cmd_project(args) -> int:
    s, f = _load_classifiable(args.input)
    if args.class_index is not None:
        result = component(s, f, args.class_index)
    else:
        result = project_w(s, f, args.w)
    _emit(fileio.dumps(fileio.tensor_to_doc(s, result)), args.out)
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.kind == "random":
        _integer(args.seed, "--seed", 0)
    n = _dimension(args.dim, "--dim") if args.kind == "random" else _rank(args.n, "--n")
    if args.kind == "sphere":
        doc = fileio.tensor_to_doc(*sphere_structure_tensor(n, _real(args.t, "--t")))
    elif args.kind == "liegroup":
        try:
            params = [float(x) for x in args.a.split(",")]
        except ValueError as exc:
            raise ValueError(f"--a must be comma-separated floats: {exc}") from exc
        doc = fileio.lie_to_doc(*lie_family(n, _as_float_array(params, (2 * n,), "--a")))
    else:
        s = canonical_structure(n)
        doc = fileio.tensor_to_doc(s, random_structure_tensor(s, args.seed))
    _emit(fileio.dumps(doc), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    _integer(args.seeds, "--seeds", 1)
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    all_passed = True
    for suite in names:
        print(f"suite: {suite} (seeds={args.seeds})")
        for check in run_suite(suite, args.seeds):
            status = "PASS" if check.passed else "FAIL"
            all_passed &= check.passed
            print(f"  {status}  {check.name:<32} worst {check.worst:.3e}  tol {check.tol:.1e}")
    print("result:", "PASS" if all_passed else "FAIL")
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


class _Parser(argparse.ArgumentParser):
    """A parser whose refusals are the one-line ValueError of every other bad parameter."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="acbm",
        description="Structure tensors of almost contact B-metric geometry:"
        " classification, projections, generators, invariant verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify a tensor or Lie-algebra file")
    p_classify.add_argument("input", help="input JSON file")
    p_classify.add_argument("--tol", type=float, default=DEFAULT_RTOL,
                            help="relative class threshold (no upper bound: one above every"
                            " component reports F0 for a nonzero tensor)")
    p_classify.add_argument("--format", choices=("text", "json"), default="text")
    p_classify.add_argument("--out", help="write the report to a file instead of stdout")
    p_classify.set_defaults(func=cmd_classify)

    p_project = sub.add_parser("project", help="emit a class component or block projection")
    p_project.add_argument("input", help="input JSON file")
    selector = p_project.add_mutually_exclusive_group(required=True)
    selector.add_argument("--class-index", type=int, help="basic class component to extract, 1..11")
    selector.add_argument("--w", type=int, help="block projection to extract, 1..4")
    p_project.add_argument("--out", help="output path (default stdout)")
    p_project.set_defaults(func=cmd_project)

    p_gen = sub.add_parser("gen", help="generate input files")
    gen_sub = p_gen.add_subparsers(dest="kind", required=True)
    g_sphere = gen_sub.add_parser("sphere", help="time-like sphere structure tensor")
    g_sphere.add_argument("--n", type=int, required=True)
    g_sphere.add_argument("--t", type=float, required=True, help="sphere parameter (radians)")
    g_lie = gen_sub.add_parser("liegroup", help="solvable Lie-algebra family")
    g_lie.add_argument("--n", type=int, required=True)
    g_lie.add_argument("--a", type=str, required=True,
                       help="comma-separated 2n parameters; write --a=-0.5,1.5 when the"
                       " first is negative (a value after a space may not start with '-')")
    g_random = gen_sub.add_parser("random", help="seeded random admissible tensor")
    g_random.add_argument("--dim", type=int, required=True, help="odd dimension >= 3")
    g_random.add_argument("--seed", type=int, default=0)
    for g in (g_sphere, g_lie, g_random):
        g.add_argument("--out", help="output path (default stdout)")
    p_gen.set_defaults(func=cmd_gen)

    p_verify = sub.add_parser("verify", help="run seeded invariant suites")
    p_verify.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all")
    p_verify.add_argument("--seeds", type=int, default=20, help="seeds per property")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return status
    except OSError as exc:  # from stdout: the commands turn file errors into ValueError
        # the reader left (`acbm verify | head -n 1`) or the device is full; send
        # what is still buffered to devnull so the flush at exit does not raise again
        with contextlib.suppress(OSError, ValueError):  # stdout replaced in-process: no descriptor
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            return EXIT_PIPE_CLOSED
        print(f"error: cannot write standard output: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
