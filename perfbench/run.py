"""Benchmark of the multiframe package: one workload, one seed, one caller.

    python3 perfbench/run.py --workload noise_sweep --seed 1 --seconds 55 --trace 0

Runs in one process with one caller in a closed loop: each job starts
only after the previous one returns.  No threads; BLAS is pinned to one
thread.  The timed phase runs whole passes over the workload's datasets
until ``--seconds`` have passed and at least ``MIN_JOBS`` jobs ran.

``attempted`` and ``failed`` count the workload's distinct jobs, once
each: every pass re-runs the same jobs on the same bytes for timing, and
must repeat the first pass's outcome of each job exactly.  A seed
therefore always yields the same ``attempted``, ``failed`` and solve rate,
however many passes the host's speed allows.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  ``correct`` is false, and the exit code 1, when a
noiseless job fails its truth check, a job's outcome differs between
passes, or repeated set-ups of one seed differ by a byte.  See README.md
for the metric definitions.
"""

import os
import sys
import time

START = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("noise_sweep", "curve_lift")
SETUP_REPEATS = 5
MIN_JOBS = 100  # the 90th percentile then has at least 10 jobs above it

END_TO_END_UNITS = {
    "jobs_per_s": "jobs/s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "solve_rate": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Phase:
    """Jobs of one timed phase; job ``j`` ran ``items[order[j]]``."""

    order: list[int] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    labels: list = field(default_factory=list)  # failure label, None when passed
    wall_s: float = 0.0  # truth checks excluded

    @property
    def jobs_per_s(self) -> float:
        return len(self.order) / self.wall_s


def run_pass(items, phase: Phase, tracer=None):
    """Run every item's job once, in order, and check it after its timer stops."""
    import workloads

    check_s = 0.0
    start = time.perf_counter()
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.job = len(phase.order)
        t0 = time.perf_counter()
        try:
            ds, result = workloads.run_job(item)
            label = None
        except workloads.JOB_ERRORS as exc:
            label = type(exc).__name__
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.job = None
        if label is None:
            label = workloads.check(item, ds, result)
        ds = result = None
        check_s += time.perf_counter() - t1
        phase.order.append(i)
        phase.seconds.append(t1 - t0)
        phase.labels.append(label)
    phase.wall_s += time.perf_counter() - start - check_s


def outcomes(items, labels) -> tuple[list, bool]:
    """Failure label of each distinct job, and whether they are correct.

    ``labels`` holds whole passes over ``items``, one after the other.  The
    outcomes are correct when every pass repeated the first pass's labels
    and every noiseless job passed its truth check.
    """
    n = len(items)
    first = labels[:n]
    repeated = all(labels[k : k + n] == first for k in range(n, len(labels), n))
    if not repeated:
        print("a job's outcome differed between passes", file=sys.stderr)
    noiseless_ok = not any(
        label is not None and item.sigma == 0.0 for item, label in zip(items, first)
    )
    return first, repeated and noiseless_ok


def count_failed(labels) -> int:
    return sum(label is not None for label in labels)


def end_to_end(workload: str, seed: int, seconds: float):
    """Set up ``SETUP_REPEATS`` times, then time jobs with tracing off."""
    import workloads

    import_s = time.perf_counter() - START
    build = workloads.BUILDERS[workload]
    setup_times = []
    items = None
    same_bytes = True
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        built = build(seed)
        setup_times.append(time.perf_counter() - t0)
        if items is None:
            items = built
        else:
            same_bytes &= [it.data for it in built] == [it.data for it in items]
        built = None
    phase = Phase()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(phase.order) < MIN_JOBS:
        run_pass(items, phase)
    labels, correct = outcomes(items, phase.labels)
    ms = sorted(1e3 * s for s in phase.seconds)
    metrics = {
        "jobs_per_s": phase.jobs_per_s,
        "job_ms_p50": statistics.median(ms),
        "job_ms_p90": statistics.quantiles(ms, n=10, method="inclusive")[8],
        "solve_rate": 1.0 - count_failed(labels) / len(labels),
        "setup_s": import_s + statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if not same_bytes:
        print("repeated set-ups of one seed produced different datasets", file=sys.stderr)
    return correct and same_bytes, labels, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def traced(workload: str, seed: int, seconds: float):
    """One traced set-up, then untraced and traced passes in turn."""
    import layers
    import workloads
    from spans import Tracer

    tracer = Tracer()
    layers.instrument(tracer, setup=True)
    try:
        items = workloads.BUILDERS[workload](seed)
    finally:
        tracer.restore()
    metrics = layers.setup_metrics(tracer, items)

    # alternate untraced and traced passes, swapping which goes first in
    # each round, so that drift and warm-up hit both alike
    plain, phase = Phase(), Phase()
    start = time.perf_counter()
    rounds = 0
    while time.perf_counter() - start < seconds:
        for is_traced in (False, True) if rounds % 2 == 0 else (True, False):
            if not is_traced:
                run_pass(items, plain)
                continue
            layers.instrument(tracer, setup=False)
            try:
                run_pass(items, phase, tracer)
            finally:
                tracer.restore()
        rounds += 1
    metrics.update(layers.job_metrics(tracer, items, phase.order, phase.labels))
    metrics["trace.overhead_frac"] = plain.jobs_per_s / phase.jobs_per_s - 1.0

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload}-seed{seed}.jsonl")

    # both phases hold whole passes, so their labels line up pass by pass
    labels, correct = outcomes(items, plain.labels + phase.labels)
    return correct, labels, {k: (metrics[k], u) for k, u in layers.PER_LAYER_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "multiframe" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'multiframe'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run = traced if args.trace else end_to_end
    correct, labels, metrics = run(args.workload, args.seed, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(labels),
                "failed": count_failed(labels),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
