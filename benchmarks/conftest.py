"""Shared helpers for the benchmark harness.

Every bench regenerates one table or figure of the paper, prints the rows
(paper value next to measured value) and saves the text to
``benchmarks/results/``.  pytest-benchmark times the regeneration; each
bench runs its workload once per benchmark round (``pedantic`` with one
round) since the workloads are seconds-scale and deterministic.

Monte-Carlo depth: benches default to 2^20 samples so the whole harness
runs in minutes; the EXPERIMENTS.md numbers come from the same drivers at
the paper's 2^24 (see the file header there).  Override with
``REPRO_BENCH_SAMPLES``.

Engine knobs: ``REPRO_BENCH_WORKERS`` fans the characterization benches
out over that many processes, and setting ``REPRO_WAREHOUSE_DIR`` turns
on the experiment warehouse (second runs reuse every stored design and
become near-instant).  Results are
bit-identical at any setting — the engine's substream scheme guarantees
the same seed produces the same metrics at every worker count.
"""

from __future__ import annotations

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Monte-Carlo depth used by the benches (paper: 2^24)
BENCH_SAMPLES = int(os.environ.get("REPRO_BENCH_SAMPLES", 1 << 20))

#: process-pool width for the characterization benches (0/unset: serial)
BENCH_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "0")) or None


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def attach_phases(benchmark, snapshot) -> None:
    """Store a telemetry snapshot's per-phase breakdown in the bench JSON.

    pytest-benchmark serializes ``extra_info`` into ``--benchmark-json``
    output, so saved runs carry where the wall time went (sampling vs.
    finalization vs. warehouse traffic), not just the total.
    """
    benchmark.extra_info["phases"] = {
        name: {"count": stat.count, "wall_s": round(stat.wall, 6)}
        for name, stat in sorted(snapshot.phases.items())
    }
    if snapshot.counters:
        benchmark.extra_info["counters"] = dict(sorted(snapshot.counters.items()))


@pytest.fixture
def record_result(results_dir):
    """Print a result block and persist it under benchmarks/results/."""

    def _record(name: str, text: str) -> None:
        print(f"\n=== {name} ===\n{text}")
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _record


def run_once(benchmark, fn):
    """Time a deterministic seconds-scale workload exactly once per round."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
