#!/usr/bin/env python3
"""invarcert benchmark: closed-loop CLI workloads with checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload certify-3d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One client in one process issues the next ``invarcert.cli.main(argv)`` call
only after the last one returns, cycle after cycle of the workload's call
schedule, until ``--seconds`` have passed (whole cycles only).  Every output
is checked.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; a run record (versions, thread
settings, digests, p90, error ratio) goes to standard error as one JSON line.

``--trace 1`` runs a fixed number of cycles untraced, then the same calls
with spans around the calls into each layer, and reports per-layer metrics
per cycle, the tracing overhead and whether both passes produced identical
results.  The program is imported from ``src/`` of the checkout this file
sits in; without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_CHILDREN = 4          # extra fresh processes that only set up, for the setup_s median
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark cannot run here; exit nonzero without a result."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> dict[str, str]:
    """BLAS/OpenMP pools no larger than the CPUs this process may use."""
    n = nproc()
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= n):
            os.environ[var] = str(n)
    return {var: os.environ[var] for var in THREAD_VARS}


def load_program():
    if not (SRC / "invarcert" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'invarcert'}")
    sys.path.insert(0, str(SRC))
    import invarcert.cli

    if Path(invarcert.cli.__file__).resolve().parent != SRC / "invarcert":
        raise BenchError(f"imported invarcert from {invarcert.cli.__file__}, not {SRC}")
    return invarcert.cli


@dataclass
class Result:
    seconds: float
    failures: list[str]
    digest: str | None
    work: int


def run_call(main, call, context, tracer=None, corrupt=None) -> Result:
    """One timed ``cli.main`` call, then its check (untimed).  ``corrupt``
    edits the outputs before the check; the self-test uses it."""
    # numpy-importing modules load only after the set-up clock has started
    from checks import check_call
    from tracing import ROOT_LAYER

    for path in (call.out, call.csv):
        if path:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        try:
            rc = tracer.call(ROOT_LAYER, main, (call.argv,)) if tracer else main(call.argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # the call failed; the run goes on and counts it
            rc = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    if corrupt is not None:
        corrupt(call)
    failures, digest = check_call(call, rc, context)
    return Result(seconds, failures, digest, call.work)


def run_cycle(main, calls, tracer=None) -> list[Result]:
    context: dict = {}
    return [run_call(main, call, context, tracer) for call in calls]


def warm_up(main, calls) -> None:
    """One untimed call per call shape, at the smallest accepted McConfig."""
    seen = set()
    for call in calls:
        if call.shape in seen:
            continue
        seen.add(call.shape)
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                main(call.warmup_argv)
            except (Exception, SystemExit) as exc:  # the timed calls report it
                print(f"warm-up of {call.shape} failed: {exc!r}", file=sys.stderr)


def setup(workload_name: str, seed: int, workdir: Path):
    """Imports, fixtures of cycle 0 and warm-up calls; returns the seconds
    taken, the CLI entry point, the workload and its first cycle."""
    start = time.perf_counter()
    threads = cap_threads()
    cli = load_program()
    from workloads import PROBES, WORKLOADS

    known = {**WORKLOADS, **PROBES}
    if workload_name not in known:
        raise BenchError(f"unknown workload {workload_name!r}; known: {', '.join(known)}")
    workload = known[workload_name]
    workdir.mkdir(parents=True, exist_ok=True)
    calls = workload.make_cycle(str(workdir), seed, 0)
    warm_up(cli.main, calls)
    return time.perf_counter() - start, cli, workload, calls, threads


def setup_in_children(args) -> list[float]:
    times = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"setup-only process failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


# ------------------------------------------------------------------ records

def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "invarcert").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


_PATH_FLAGS = {"--clean", "--perturbed", "--out", "--out-csv", "--out-json"}


def _call_key(call) -> str:
    """Identity of a call's inputs: argv without file paths, plus the bytes of
    the input clouds."""
    argv = [a for i, a in enumerate(call.argv) if i == 0 or call.argv[i - 1] not in _PATH_FLAGS]
    parts = [json.dumps(argv)]
    for cloud in (call.clean, call.perturbed):
        if cloud is not None:
            parts.append(hashlib.sha256(cloud.tobytes()).hexdigest())
    return "|".join(parts)


def repeat_share(cycles_of_calls) -> float:
    """Share of the run's work a perfect cross-call cache could skip: grid
    cells that repeat a cell of another grid (pmin-grid), otherwise calls
    whose inputs repeat another call's."""
    keys = []
    for calls in cycles_of_calls:
        for call in calls:
            if call.kind == "pmin-grid":
                r = call.expect["resolution"] - 1
                keys += [
                    (call.expect["cell_key"], Fraction(i, r), Fraction(j, r))
                    for i in range(r + 1) for j in range(r + 1) if i * i + j * j <= r * r
                ]
            else:
                keys.append(_call_key(call))
    return (len(keys) - len(set(keys))) / len(keys) if keys else 0.0


def base_record(args, workload, threads, cycles_of_calls, cycles_of_results) -> dict:
    import numpy
    import scipy

    results = [r for cycle in cycles_of_results for r in cycle]
    failed = [r for r in results if r.failures]
    return {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "loop": "closed, one client, one process",
        "work_unit": workload.unit,
        "input_sizes": workload.sizes,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "threads": threads,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "cycles": len(cycles_of_results),
        "calls": len(results),
        "error_ratio": len(failed) / len(results),
        "failures": sorted({f"slot {i % len(cycles_of_calls[0])}: {r.failures[0]}"
                            for i, r in enumerate(results) if r.failures})[:20],
        "cycle_digests": [
            hashlib.sha256("".join(r.digest or "none" for r in cycle).encode()).hexdigest()
            for cycle in cycles_of_results
        ],
        "repeat_share": repeat_share(cycles_of_calls),
    }


def emit(record: dict, metrics: dict[str, tuple[float, str]], attempted: int, failed: int) -> None:
    print("perfbench-record " + json.dumps(record, sort_keys=True), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


# ------------------------------------------------------------------ modes

def timed_run(args, workdir: Path) -> None:
    setup_times = setup_in_children(args)
    own_setup, cli, workload, calls, threads = setup(args.workload, args.seed, workdir)
    setup_times.append(own_setup)

    cycles_of_calls, cycles_of_results = [], []
    start = time.perf_counter()
    while True:
        cycles_of_results.append(run_cycle(cli.main, calls))
        cycles_of_calls.append(calls)
        elapsed = time.perf_counter() - start
        done = len(cycles_of_results)
        if elapsed + 0.5 * elapsed / done >= args.seconds:
            break
        calls = workload.make_cycle(str(workdir), args.seed, done)

    results = [r for cycle in cycles_of_results for r in cycle]
    seconds = [r.seconds for r in results]
    failed = sum(1 for r in results if r.failures)
    # A typical cycle: each slot's median time over the cycles, summed.  Every
    # cycle does the same work, and a slow spell or one slow call moves the
    # per-slot medians little.
    slot_p50_s = [statistics.median(c[k].seconds for c in cycles_of_results)
                  for k in range(len(cycles_of_results[0]))]
    cycle_work = sum(r.work for r in cycles_of_results[0])
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "work_per_s": (cycle_work / sum(slot_p50_s), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(seconds), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    record = base_record(args, workload, threads, cycles_of_calls, cycles_of_results)
    record["setup_s_each"] = setup_times
    record["op_samples"] = len(seconds)
    # the highest percentile with at least ten samples beyond it
    if len(seconds) >= 100:
        record["op_p90_ms"] = 1e3 * statistics.quantiles(seconds, n=10)[8]
    record["slot_p50_ms"] = [1e3 * t for t in slot_p50_s]
    record["cycle_s"] = [sum(r.seconds for r in c) for c in cycles_of_results]
    record["work_units"] = sum(r.work for r in results)
    record["timed_s"] = sum(seconds)
    emit(record, metrics, len(results), failed)


def traced_run(args, workdir: Path) -> None:
    from tracing import Tracer, layer_metrics

    _, cli, workload, calls, threads = setup(args.workload, args.seed, workdir)
    cycles_of_calls = [calls] + [
        workload.make_cycle(str(workdir), args.seed, c) for c in range(1, workload.trace_cycles)
    ]
    # each cycle untraced, then traced, so drift hits both passes alike
    tracer = Tracer()
    plain, traced = [], []
    for calls in cycles_of_calls:
        plain.append(run_cycle(cli.main, calls))
        tracer.install()
        try:
            traced.append(run_cycle(cli.main, calls, tracer))
        finally:
            tracer.uninstall()

    mismatches = 0
    for p, t in zip((r for c in plain for r in c), (r for c in traced for r in c)):
        if p.digest != t.digest:
            mismatches += 1
            t.failures.append("traced results differ from untraced results")
    every = [r for c in plain + traced for r in c]
    failed = sum(1 for r in every if r.failures)
    plain_s = sum(r.seconds for c in plain for r in c)
    traced_s = sum(r.seconds for c in traced for r in c)

    metrics = layer_metrics(tracer, len(cycles_of_calls))
    metrics["trace.overhead_pct"] = (100.0 * (traced_s - plain_s) / plain_s, "%")
    metrics["trace.results_mismatch"] = (float(mismatches), "count")
    metrics["trace.absent_layers"] = (float(len(tracer.absent())), "count")
    metrics["trace.spans"] = (len(tracer.spans) / len(cycles_of_calls), "count")

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json"
    tracer.write(str(spans_path))
    record = base_record(args, workload, threads, cycles_of_calls, [*plain, *traced])
    record["absent_layers"] = tracer.absent()
    record["untraced_s"] = plain_s
    record["traced_s"] = traced_s
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    emit(record, metrics, len(every), failed)


def setup_only(args, workdir: Path) -> None:
    setup_s = setup(args.workload, args.seed, workdir)[0]
    print(json.dumps({"setup_s": setup_s}))


def run_all(args) -> None:
    """Each benchmark workload (not the probes) in a fresh process; prints
    every metric with its unit."""
    from workloads import WORKLOADS

    combined, attempted, failed = {}, 0, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"{name} failed: {proc.stderr.strip()[-500:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        record = next(json.loads(line.split(" ", 1)[1]) for line in proc.stderr.splitlines()
                      if line.startswith("perfbench-record "))
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"== {name}: {record['calls']} calls in {record['cycles']} cycles,"
              f" work unit: {record['work_unit']}")
        rows = [(m, v["value"], v["unit"]) for m, v in result["metrics"].items()]
        if "op_p90_ms" in record:
            rows.append(("op_p90_ms", record["op_p90_ms"], "ms"))
        rows.append(("error_ratio", record["error_ratio"], "ratio"))
        for metric, value, unit in rows:
            print(f"   {metric:40s} {value:14.6g} {unit}")
            combined[f"{name}.{metric}"] = {"value": value, "unit": unit}
        for failure in record["failures"]:
            print(f"   failed check: {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": combined}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        if not (SRC / "invarcert" / "__init__.py").is_file():
            raise BenchError(f"no program source at {SRC / 'invarcert'}")
        if args.workload == "all":
            run_all(args)
            return 0
        if args.setup_only:
            setup_only(args, workdir)
        elif args.trace:
            traced_run(args, workdir)
        else:
            timed_run(args, workdir)
        return 0
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
