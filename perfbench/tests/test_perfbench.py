"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import pathlib
import re
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import clock  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.multipliers import base  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def units(kind: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


def measured(workload, measure):
    try:
        return measure(workload, 0.0)
    finally:
        workload.close()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_runs_and_passes_its_check(name):
    workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, tiny=True)
    metrics, attempted, failed, _ = measured(workload, run.end_to_end)
    assert failed == 0 and attempted > 0
    assert metrics.keys() == units("end_to_end").keys()
    assert all(value > 0 for value in metrics.values())


def test_metric_names_match_benchmark_json():
    assert dict(run.END_TO_END) == units("end_to_end")
    assert dict(layers.PER_LAYER) == units("per_layer")
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    assert len({metric["name"] for metric in metrics}) == len(metrics)
    for metric in metrics:
        assert NAME.fullmatch(metric["name"]) and UNIT.fullmatch(metric["unit"])


def test_clock_counts_wall_time_at_the_calibrated_speed():
    timer = clock.Clock()
    # calibrations over [0, 1] and [3, 4], both at half the reference speed
    timer.points = [(0.0, 1.0, 2 * clock.REFERENCE), (3.0, 4.0, 2 * clock.REFERENCE)]
    # only the 2 s between the calibrations count
    assert timer.seconds(0.0, 4.0) == pytest.approx(1.0)
    assert timer.seconds(1.5, 2.5) == pytest.approx(0.5)
    assert timer.speed() == pytest.approx(0.5)


def test_traced_run_reports_every_layer_with_a_bit_identical_shadow():
    workload = workloads.Table1(workloads.DEFAULT_SEED, tiny=True)
    metrics, attempted, failed, _ = measured(workload, run.per_layer)
    assert list(metrics) == list(units("per_layer"))
    assert failed == 0
    assert metrics["analysis.blocks"] > 0 and metrics["kernels.shadow_s"] > 0


def test_off_by_one_multiplier_fails_the_check(monkeypatch):
    multiply = base.Multiplier.multiply
    monkeypatch.setattr(
        base.Multiplier, "multiply", lambda self, a, b, **kw: multiply(self, a, b, **kw) + 1
    )
    workload = workloads.Table1(workloads.DEFAULT_SEED, tiny=True)
    _, attempted, failed, _ = measured(workload, run.end_to_end)
    assert failed / attempted > 0


def test_replay_from_an_empty_store_evaluates_models_and_fails():
    workload = workloads.Replay(workloads.DEFAULT_SEED, tiny=True, fill=False)
    metrics, _, failed, _ = measured(workload, run.per_layer)
    assert metrics["warehouse.model_evals"] > 0
    assert failed > 0
