"""Benchmark entry point: one workload, one process, one thread.

    python3 perfbench/run.py --workload build-cold --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ./src, freshly
(all `stratadyn` modules dropped from sys.modules first) before every
set-up, so no cache survives from one set-up to the next.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the line before it is a human-readable summary with the input
digest, sample counts and failures by exception class.

With --trace 0 the end-to-end metrics are timed with nothing installed and
scaled to a fixed machine speed by the calibration samples of calib.py.
With --trace 1 one batch is timed plain, the same batch is run again with
spans around the public functions, and the per-layer metrics come from
those spans.  Spans are written to .bench_out/ under the working directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import types
from collections import Counter

# Set-up times are measured with bytecode caches, as an installed package
# has them, whatever PYTHONDONTWRITEBYTECODE says.
sys.dont_write_bytecode = False

import calib  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import ROOT, WORKLOADS, digest  # noqa: E402

MODULES = ("trees", "linalg", "homology", "filtration", "hassett", "hurwitz", "pushforward", "cli")


def fresh_import():
    """Import the package from ./src with every module executed anew."""
    for name in [m for m in sys.modules if m == "stratadyn" or m.startswith("stratadyn.")]:
        del sys.modules[name]
    return types.SimpleNamespace(
        **{m: importlib.import_module("stratadyn." + m) for m in MODULES}
    )


def timed_setup(workload, seed, cal=None):
    """Fresh import plus the workload's set-up; returns (lib, state, seconds).

    With `cal`, the seconds are scaled to the fixed machine speed.
    """
    gc.collect()  # drop the previous state before the clock starts
    if cal is not None:
        cal.begin()
    spent = cal.spent if cal is not None else 0.0
    t0 = time.perf_counter()
    lib = fresh_import()
    state = workload.setup(lib, seed)
    t1 = time.perf_counter()
    if cal is None:
        return lib, state, t1 - t0
    return lib, state, (t1 - t0 - (cal.spent - spent)) * cal.scale(t0, t1)


def run_batch(batch, tracer=None, cal=None):
    """Run every op in order; returns (wall seconds, latencies, results, errors).

    With `cal`, the time spent in calibration samples is left out of each
    latency and of the wall time, each latency is scaled by the factor of
    its own stretch of time, and the wall time by their time-weighted mean.
    """
    latencies, results, errors, spans = [], [], [], []
    clock = time.perf_counter
    spent = (lambda: 0.0) if cal is None else (lambda: cal.spent)
    if cal is not None:
        cal.begin()
    s_start = spent()
    t_start = clock()
    for op in batch.ops:
        span = None if tracer is None else tracer.begin("bench.op")
        s0 = spent()
        t0 = clock()
        try:
            results.append(op.fn())
            errors.append(None)
        except Exception as exc:  # every failure is counted by class, never dropped
            results.append(None)
            errors.append(exc)
        t1 = clock()
        latencies.append(t1 - t0 - (spent() - s0))
        spans.append((t0, t1))
        if span is not None:
            tracer.finish(span)
        # CLI operations return (exit code, captured standard output)
        if tracer is not None and op.kind.startswith("cli") and results[-1] is not None:
            tracer.counts["cli.main.bytes_out"] += len(results[-1][1].encode())
    wall = clock() - t_start - (spent() - s_start)
    if cal is not None:
        raw_total = sum(latencies)
        latencies = [lat * cal.scale(t0, t1) for lat, (t0, t1) in zip(latencies, spans)]
        if raw_total > 0:
            wall *= sum(latencies) / raw_total
    return wall, latencies, results, errors


def check_batch(batch, results, errors, wrong, failures):
    """Check every op that returned; tally wrong results and failures."""
    for op, result, exc in zip(batch.ops, results, errors):
        if exc is not None:
            failures[type(exc).__name__] += 1
            if sum(failures.values()) <= 5:
                sys.stderr.write("failed %s: %s: %s\n" % (op.kind, type(exc).__name__, exc))
            continue
        try:
            msg = op.check(result)
        except Exception as exc:
            msg = "check raised %s: %s" % (type(exc).__name__, exc)
        if msg is not None:
            wrong.append(msg)
            if len(wrong) <= 5:
                sys.stderr.write("wrong %s: %s\n" % (op.kind, msg))


def measure(workload, seed, seconds):
    """Plain run: set up several times, then a fixed number of batches.

    The batch count follows from `seconds` and the workload's nominal batch
    time, not from the clock, so every run of a workload does the same work.
    Timings are scaled to a fixed machine speed (see calib.py).
    """
    setups = []
    walls, latencies, digests = [], [], []
    wrong, failures = [], Counter()
    attempted = 0
    with calib.Calibration() as cal:
        for _ in range(workload.setup_repeats):
            lib = state = None  # so the collection before the next set-up frees it
            lib, state, dt = timed_setup(workload, seed, cal)
            setups.append(dt)
        for index in range(workload.batches(seconds)):
            if index > 0 and workload.fresh_per_batch:
                lib = state = None
                lib, state, dt = timed_setup(workload, seed, cal)
                setups.append(dt)
            batch = workload.make_batch(lib, state, seed, index)
            digests.append(digest(batch.inputs))
            wall, lat, results, errors = run_batch(batch, cal=cal)
            check_batch(batch, results, errors, wrong, failures)
            walls.append(wall)
            latencies += lat
            attempted += len(batch.ops)
    # inclusive: with few operations per batch the 99th percentile stays
    # between the two slowest instead of extrapolating past the slowest
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "queries_per_s": (len(latencies) / sum(walls), "1/s"),
        "query_p50_ms": (cuts[49] * 1e3, "ms"),
        "query_p99_ms": (cuts[98] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    summary = {
        "workload": workload.name,
        "seed": seed,
        "input_digests": digests,
        "setups": len(setups),
        "batches": len(walls),
        "query_samples": len(latencies),
        "calibration_samples": len(cal.samples),
        "speed_scale": calib.NOMINAL_S / statistics.median(cal.samples),
        "fail_ratio": sum(failures.values()) / attempted,
        "failed_by_class": dict(failures),
        "wrong_results": len(wrong),
    }
    return metrics, summary, attempted, wrong, failures


def measure_traced(workload, seed):
    """Traced run: the same batch plain, then with spans installed."""
    walls = []
    wrong, failures = [], Counter()
    tracer = Tracer()
    for traced in (False, True):
        lib = state = None
        lib, state, _dt = timed_setup(workload, seed)
        batch = workload.make_batch(lib, state, seed, 0)
        if traced:
            unwrapped = tracer.install(lib)
            try:
                wall, _lat, results, errors = run_batch(batch, tracer)
            finally:
                tracer.uninstall()
        else:
            wall, _lat, results, errors = run_batch(batch)
        walls.append(wall)
        check_batch(batch, results, errors, wrong, failures)
    out = os.path.join(os.getcwd(), ".bench_out", "trace-%s-seed%d.spans" % (workload.name, seed))
    tracer.write(out)
    metrics = tracer.metrics(traced_wall=walls[1], untraced_wall=walls[0])
    summary = {
        "workload": workload.name,
        "seed": seed,
        "input_digests": [digest(batch.inputs)],
        "untraced_wall_s": walls[0],
        "traced_wall_s": walls[1],
        "spans": len(tracer.start),
        "spans_file": os.path.relpath(out),
        "unwrapped": unwrapped,
        "fail_ratio": sum(failures.values()) / (2 * len(batch.ops)),
        "failed_by_class": dict(failures),
        "wrong_results": len(wrong),
    }
    return metrics, summary, 2 * len(batch.ops), wrong, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description="stratadyn benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "stratadyn")):
        sys.stderr.write("error: no package source at %s\n" % src)
        return 2
    sys.path.insert(0, src)
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error("unknown workload %r; choose from %s" % (args.workload, ", ".join(WORKLOADS)))
    if args.trace:
        metrics, summary, attempted, wrong, failures = measure_traced(workload, args.seed)
    else:
        metrics, summary, attempted, wrong, failures = measure(workload, args.seed, args.seconds)
    print("summary: " + json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": not wrong and not failures,
        "attempted": attempted,
        "failed": sum(failures.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
