"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload table1 --seed 2020 --seconds 11 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  End-to-end times are in reference seconds, which
take the host's changing speed out of them (see ``clock.py``); the
lines before the result say how each number was formed.
The exit code is 1 when any output differs from its reference.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: unset, so the benchmark measures what a user gets by default: the
#: interpreted multiply, no metrics cache, no warehouse, no telemetry sink
HERMETIC = ("REPRO_COMPILED", "REPRO_CACHE_DIR", "REPRO_WAREHOUSE_DIR", "REPRO_TELEMETRY_DIR")

#: end-to-end metric names and units, in ``BENCHMARK.json`` order
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("item_p50_s", "s"),
    ("item_p90_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: cold set-ups per process, and fresh processes timing the import;
#: ``setup_s`` adds the medians of both
SETUP_REPEATS = 3
IMPORT_REPEATS = 3

#: another run starts only if it should end before this share of the
#: median run past the end of the measuring window
OVERRUN = 0.75

#: run in a fresh interpreter: the import of the benchmark and the
#: program, in reference seconds (see ``clock.py``), with NumPy, which
#: the calibration needs, imported before
IMPORT_PROBE = """\
import sys, time
sys.path[:0] = sys.argv[1:]
import clock
timer = clock.Clock()
timer.calibrate()
tick = time.perf_counter()
import workloads
tock = time.perf_counter()
timer.calibrate()
print(timer.seconds(tick, tock))
"""


@dataclasses.dataclass
class Measurement:
    """Reference seconds per run and per item, and the raw wall time per
    run."""

    run_seconds: list = dataclasses.field(default_factory=list)
    item_seconds: list = dataclasses.field(default_factory=list)
    wall_seconds: list = dataclasses.field(default_factory=list)
    results: list = dataclasses.field(default_factory=list)
    work: float = 0.0


def measure(workload, seconds: float) -> Measurement:
    """Repeat ``workload.run`` for about ``seconds`` reference seconds, at
    least once, with the workload's clock calibrated before and after
    every run.

    Counting the window in reference seconds keeps the number of runs, and
    so the rank that ``item_p90_s`` reads, the same on a slowed host.
    """
    clock = workload.clock
    measured = Measurement()
    start = time.perf_counter()
    while True:
        workload.before_run()
        clock.calibrate()
        tick = time.perf_counter()
        run = workload.run()
        tock = time.perf_counter()
        clock.calibrate()
        measured.run_seconds.append(clock.seconds(tick, tock))
        measured.wall_seconds.append(tock - tick)
        measured.item_seconds.extend(
            sum(clock.seconds(*span) for span in spans) for spans in run.items
        )
        measured.results.append(run.results)
        measured.work += run.work
        elapsed = clock.seconds(start, time.perf_counter())
        if elapsed + OVERRUN * statistics.median(measured.run_seconds) >= seconds:
            return measured


def import_seconds() -> list[float]:
    """The import's reference seconds in :data:`IMPORT_REPEATS` fresh
    interpreters, one after another."""
    return [
        float(subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(HERE), str(SRC)],
            check=True, capture_output=True, text=True, timeout=120,
        ).stdout)
        for _ in range(IMPORT_REPEATS)
    ]


def check(workload, results: list) -> tuple[int, int]:
    """``(attempted, failed)`` over every run's items and every design's
    golden products."""
    import workloads

    expected = workload.expected()
    designs = workload.designs()
    attempted = sum(len(result) for result in results) + len(designs)
    failed = workloads.golden_mismatches(designs) + sum(
        workload.mismatches(workloads.normalized(result), expected) for result in results
    )
    return attempted, failed


def quantile(values, q: float) -> float:
    """Nearest-rank ``q`` quantile of ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_quantile(count: int) -> float:
    """0.9, or below 100 items the highest quantile with at least ten
    items beyond it, but never below the median."""
    if count >= 100:
        return 0.9
    return max(0.5, math.floor(100 - 1000 / count) / 100)


def end_to_end(workload, seconds: float, imports=(0.0,)):
    """End-to-end metrics: ``(metrics, attempted, failed, notes)``.

    Every time is in reference seconds (see ``clock.py``); the notes give
    the host speed and the median wall time of a run beside them.
    ``imports`` are the import's reference seconds in fresh interpreters.
    """
    import workloads

    clock = workload.clock
    setups = []
    for _ in range(SETUP_REPEATS):
        workloads.cold_caches()
        clock.calibrate()
        tick = time.perf_counter()
        workload.setup()
        tock = time.perf_counter()
        clock.calibrate()
        setups.append(clock.seconds(tick, tock))
    measured = measure(workload, seconds)
    attempted, failed = check(workload, measured.results)
    runs, items = measured.run_seconds, measured.item_seconds
    tail = tail_quantile(len(items))
    metrics = {
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "run_s": statistics.median(runs),
        "item_p50_s": quantile(items, 0.5),
        "item_p90_s": quantile(items, tail),
        "work_per_s": measured.work / sum(runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    q1, _, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else runs * 3
    notes = [
        "times are reference seconds: wall seconds at the calibration kernel's "
        f"reference speed; host speed here {clock.speed():.3f} of it "
        f"(median of {len(clock.points)} calibrations)",
        f"setup_s = median of {len(imports)} imports ("
        + ", ".join(f"{value:.4f}" for value in imports)
        + f") + median of {SETUP_REPEATS} cold set-ups ("
        + ", ".join(f"{value:.4f}" for value in setups) + ")",
        f"run_s = median of {len(runs)} runs (q1 {q1:.4f}, q3 {q3:.4f}; "
        f"wall median {statistics.median(measured.wall_seconds):.4f})",
        f"item_p90_s = p{round(100 * tail)} of {len(items)} items (one item: {workload.item})",
        f"{workload.throughput} = work_per_s = {metrics['work_per_s']:.6g} {workload.unit}/s",
        f"failed_frac = {failed}/{attempted}",
    ]
    return metrics, attempted, failed, notes


def per_layer(workload, seconds: float):
    """Per-layer metrics: ``(metrics, attempted, failed, notes)``.

    The set-up runs traced once; the workload is then measured untraced
    for ``seconds`` (the base of ``trace.overhead``) and traced for its
    fixed number of runs, while the program's own telemetry spans are
    recorded alongside.
    """
    import layers
    import workloads
    from repro.analysis import telemetry

    workload.lapping = False
    tracer = layers.Tracer(shadow=workload.shadow)
    tracer.install()
    try:
        workloads.cold_caches()
        workload.setup()
    finally:
        tracer.uninstall()
    untraced = measure(workload, seconds)
    tracer.phase = "run"
    results, traced_wall = [], 0.0
    tracer.install()
    try:
        with telemetry.recording() as recording:
            for _ in range(workload.trace_runs):
                workload.before_run()
                tick = time.perf_counter()
                results.append(workload.run().results)
                traced_wall += time.perf_counter() - tick
    finally:
        tracer.uninstall()
    attempted, failed = check(workload, untraced.results + results)
    runs = workload.trace_runs
    metrics = layers.layer_metrics(
        tracer, runs, traced_wall, statistics.median(untraced.wall_seconds),
        replay=workload.name == "replay",
    )
    ranked = sorted(tracer.phases["run"].seconds.items(), key=lambda entry: -entry[1])
    notes = [f"traced: {runs} runs, {traced_wall / runs:.4f} s per run; self time per run:"]
    notes += [f"  {layer:34s} {total / runs:10.4f} s" for layer, total in ranked]
    notes.append("program telemetry spans over the traced runs (count, wall s):")
    notes += [
        f"  {name:34s} {stat.count:8d} {stat.wall:10.4f}"
        for name, stat in sorted(recording.snapshot.phases.items())
    ]
    if workload.shadow:
        notes.append(
            f"compiled-kernel shadow: {tracer.shadow_mismatches} of "
            f"{tracer.shadow_checks} batches differ"
        )
    if metrics["trace.coverage"] < 0.9:
        notes.append(f"warning: trace.coverage {metrics['trace.coverage']:.3f} is below 0.90")
    return (
        metrics,
        attempted + tracer.shadow_checks,
        failed + tracer.shadow_mismatches,
        notes,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        sys.exit(f"error: {SRC / 'repro'} not found; run from a checkout of the repository")
    for variable in HERMETIC:
        os.environ.pop(variable, None)
    sys.path.insert(0, str(SRC))
    import workloads
    import layers
    import numpy
    from repro.warehouse.provenance import git_rev

    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}"
        )
    workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        if args.trace:
            metrics, attempted, failed, notes = per_layer(workload, args.seconds)
            units = dict(layers.PER_LAYER)
        else:
            metrics, attempted, failed, notes = end_to_end(
                workload, args.seconds, import_seconds()
            )
            units = dict(END_TO_END)
    finally:
        workload.close()
    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(
        f"env: git {git_rev(HERE.parent) or 'unknown'}, python {platform.python_version()}, "
        f"numpy {numpy.__version__}, nproc {os.cpu_count()}"
    )
    print("\n".join(notes))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
