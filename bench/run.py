"""The acbm benchmark: seeded, closed-loop streams of in-process CLI commands.

    python3 bench/run.py --workload classify_small --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. One client sends `acbm` commands one
after another through `acbm.cli.main(argv)`, on files generated from
the seed, and checks every exit code and verdict. Each pass runs every
slot of the workload's deck once; a command's latency is the fastest of
its repeats. The last line of standard output is the result object; the
line before it records the run environment, sample counts, the plain
medians over all requests, and failures. See README.md.

--trace 0 reports the end-to-end metrics. --trace 1 runs the stream
untraced for half the time and traced for the other half, and reports
the per-layer metrics of the traced half (see spans.py). Set-up time
is the median over several child processes that each repeat the
main process's set-up: import, input generation and warm-up.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
WORKLOADS = ("classify_small", "classify_large", "verify_suites")
SETUP_CHILDREN = 5
CHILD_TIMEOUT_S = 120
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup(workload: str, seed: int, directory: str):
    """Import the CLI, generate the deck, warm up one command of each kind."""
    sys.path.insert(0, str(SRC))
    import numpy as np

    import acbm.cli
    import inputs

    imported = time.monotonic()
    rng = np.random.default_rng(seed)
    slots = inputs.build_deck(workload, rng, directory)
    generated = time.monotonic()
    warm = {}
    for slot in slots:
        warm.setdefault(slot.kind, slot)
    for slot in warm.values():
        _call(acbm.cli, slot.argv)
    return acbm.cli, slots, rng, {"import_done": imported, "generated": generated}


def _call(cli, argv):
    """Run one command; `cli.main` is looked up per call so that tracing sees it."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter_ns()
        try:
            code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code if isinstance(stop.code, int) else (0 if stop.code is None else 1)
        except Exception as error:  # a failed request is a result; the stream goes on
            code, exc = None, type(error).__name__
        t1 = time.perf_counter_ns()
    return t1 - t0, code, out.getvalue(), exc


def _phase(cli, slots, rng, seconds, tracer=None):
    """Whole shuffled passes over the deck until `seconds` have elapsed.

    Each pass runs pinned to the next of the CPUs the process may use,
    so that a stretch in which other tenants slow one CPU never covers
    every repeat of a command. Returns the request records and the wall
    time of each pass."""
    records, passes = [], []
    cpus = sorted(os.sched_getaffinity(0))
    begin = time.perf_counter()
    try:
        while time.perf_counter() - begin < seconds:
            os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
            start = time.perf_counter()
            for index in rng.permutation(len(slots)):
                if tracer is not None:
                    tracer.request = len(records)
                slot = slots[index]
                records.append((slot, *_call(cli, slot.argv)))
            passes.append(time.perf_counter() - start)
    finally:
        os.sched_setaffinity(0, cpus)
    return records, passes


def _fastest_pass_rps(slots, passes) -> float:
    return len(slots) / min(passes)


def _setup_child(args) -> int:
    with tempfile.TemporaryDirectory(dir=RUN_DIR) as directory:
        _setup(args.workload, args.seed, directory)
        ready = time.monotonic()
    print(json.dumps({"ready": ready}))
    return 0


def _setup_samples(args) -> list:
    """Set up again in SETUP_CHILDREN sequential child processes, stdio redirected."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-child"]
    for k in range(SETUP_CHILDREN):
        out_path, err_path = RUN_DIR / f"setup-{os.getpid()}-{k}.out", RUN_DIR / f"setup-{os.getpid()}-{k}.err"
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        with open(out_path, "w") as out, open(err_path, "w") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT)
            try:
                code = proc.wait(timeout=CHILD_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            ended = time.monotonic()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        report = json.loads(out_path.read_text().splitlines()[-1]) if code == 0 else None
        stderr = err_path.read_text()
        out_path.unlink()
        err_path.unlink()
        if report is None:
            raise RuntimeError(f"set-up child exited {code}: {stderr.strip()[-500:]}")
        samples.append({
            "setup_s": report["ready"] - spawned,
            "wall_s": ended - spawned,
            "user_cpu_s": after.ru_utime - before.ru_utime,
            "sys_cpu_s": after.ru_stime - before.ru_stime,
        })
    return samples


def _environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    try:
        from threadpoolctl import threadpool_info
        pools = threadpool_info()
    except ImportError:
        pools = "threadpoolctl not installed"
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "executable": sys.executable,
        "numpy": np.__version__,
        "blas": blas,
        "blas_threadpools": pools,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "launch": "in-process acbm.cli.main(argv), one closed-loop client, no extra threads,"
                  " each pass pinned to the next CPU of the affinity mask;"
                  f" set-up sampled in {SETUP_CHILDREN} sequential child processes with stdin, stdout"
                  " and stderr redirected",
    }


def _percentile_with_tail(values, wanted=0.9, tail=10):
    """Nearest-rank percentile, as high as `wanted` but with at least
    `tail` samples beyond it; plain `wanted` when there are too few
    samples for that. Returns (value, percentile)."""
    ordered = sorted(values)
    rank = math.ceil(wanted * len(ordered))
    if len(ordered) > tail:
        rank = min(rank, len(ordered) - tail)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def _judge(records):
    import inputs

    failures, defects = [], 0
    for slot, _, code, out, exc in records:
        reason = inputs.check(slot, code, out, exc)
        if reason is None:
            continue
        if slot.known_defect:
            defects += 1
        else:
            command = " ".join(os.path.basename(arg) for arg in slot.argv)
            failures.append(f"{command}: {reason}")
    return failures, defects


def _end_to_end(records, slots, passes, setup):
    """End-to-end metrics of an untraced phase.

    A command's latency is the fastest of its repeats in the run (one per
    pass), and throughput is that of the fastest whole pass: other
    tenants of a shared host slow whole stretches of a run by up to half,
    and the fastest repeat is the least disturbed measure of the program.
    The plain medians over every request are kept in `info`."""
    best = {}
    for slot, ns, *_ in records:
        best[slot] = min(best.get(slot, ns), ns)
    by_kind, raw = {}, {}
    for slot, ns, *_ in records:
        by_kind.setdefault(slot.kind, []).append(best[slot] * 1e-6)
        raw.setdefault(slot.kind, []).append(ns * 1e-6)
    p90, p90_level = _percentile_with_tail(by_kind["classify"])
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setup), "s"),
        "throughput_rps": (_fastest_pass_rps(slots, passes), "1/s"),
        "classify_p50_ms": (statistics.median(by_kind["classify"]), "ms"),
        "classify_p90_ms": (p90, "ms"),
        "project_p50_ms": (statistics.median(by_kind["project"]), "ms"),
        "reject_p50_ms": (statistics.median(by_kind["reject"]), "ms"),
        "verify_p50_ms": (statistics.median(by_kind["verify"]), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "passes": len(passes),
        "samples": {kind: len(v) for kind, v in sorted(by_kind.items())},
        "classify_tail_percentile": p90_level,
        "all_requests": {
            "throughput_rps": len(records) / sum(passes),
            **{f"{kind}_p50_ms": statistics.median(v) for kind, v in sorted(raw.items())},
            "classify_tail_ms": _percentile_with_tail(raw["classify"])[0],
        },
    }
    return metrics, extra


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "acbm" / "cli.py").is_file():
        print(f"error: {SRC / 'acbm'} not found; run from the root of an acbm checkout", file=sys.stderr)
        return 2
    RUN_DIR.mkdir(exist_ok=True)
    if args.setup_child:
        return _setup_child(args)

    directory = tempfile.mkdtemp(dir=RUN_DIR)
    try:
        cli, slots, rng, marks = _setup(args.workload, args.seed, directory)
        marks["warmed_up"] = time.monotonic()
        main_setup = {name: stamp - STARTED for name, stamp in marks.items()}
        setup = _setup_samples(args)
        info = {"workload": args.workload, "seed": args.seed, "deck_size": len(slots),
                "main_process_setup_s": main_setup, "setup_samples": setup}
        if args.trace:
            import spans

            records, passes = _phase(cli, slots, rng, args.seconds / 2)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced, traced_passes = _phase(cli, slots, rng, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            metrics = tracer.metrics(len(traced), _fastest_pass_rps(slots, traced_passes),
                                     _fastest_pass_rps(slots, passes))
            span_file = RUN_DIR / f"spans-{args.workload}.jsonl"
            tracer.write(str(span_file))
            info["span_file"] = str(span_file.relative_to(ROOT))
            info["traced_requests"] = len(traced)
            records += traced
        else:
            records, passes = _phase(cli, slots, rng, args.seconds)
            metrics, extra = _end_to_end(records, slots, passes, setup)
            info.update(extra)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    failures, defects = _judge(records)
    failed = len(failures) + defects
    info.update({
        "attempted": len(records),
        "error_rate": failed / len(records),
        "known_defect_failures": defects,
        "unexpected_failures": failures[:20],
        "environment": _environment(),
    })
    for line in failures[:20]:
        print(f"unexpected failure: {line}", file=sys.stderr)
    print(json.dumps({"info": info}))
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
