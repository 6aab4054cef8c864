"""Table I (error columns): Monte-Carlo characterization of every design.

Regenerates the five error columns — bias, mean error, min/max peak,
variance — for all 72 approximate configurations of ``TABLE1_IDS``,
printed next to the paper's published values.  The paper's methodology (Section IV-B): uniform
i.i.d. operands over the full 16-bit range, errors vs. the exact product.
"""

from __future__ import annotations

from conftest import BENCH_SAMPLES, BENCH_WORKERS, attach_phases, run_once

from repro import paper
from repro.analysis import telemetry
from repro.experiments import format_table, table1_errors
from repro.multipliers.registry import TABLE1_IDS

FAMILIES = {
    "realm": [n for n in TABLE1_IDS if n.startswith("realm")],
    "log-baselines": [
        n
        for n in TABLE1_IDS
        if n.startswith(("calm", "implm", "mbm", "alm", "intalp"))
    ],
    "other-baselines": [
        n for n in TABLE1_IDS if n.startswith(("am", "drum", "ssm", "essm"))
    ],
}


def _render(rows) -> str:
    headers = [
        "design", "bias", "(p)", "ME", "(p)",
        "min", "(p)", "max", "(p)", "var", "(p)",
    ]
    def fmt(v, p=2):
        return "--" if v is None else f"{v:.{p}f}"

    body = []
    for row in rows:
        ref = row["paper"] or paper.Table1Row(*([None] * 7))
        body.append(
            [
                row["display"],
                fmt(row["bias"]), fmt(ref.bias),
                fmt(row["mean_error"]), fmt(ref.mean_error),
                fmt(row["peak_min"]), fmt(ref.peak_min),
                fmt(row["peak_max"]), fmt(ref.peak_max),
                fmt(row["variance"]), fmt(ref.variance),
            ]
        )
    return format_table(headers, body)


def _bench_family(benchmark, record_result, family: str):
    ids = FAMILIES[family]
    with telemetry.recording() as rec:
        rows = run_once(
            benchmark,
            lambda: table1_errors(
                samples=BENCH_SAMPLES, ids=ids, workers=BENCH_WORKERS
            ),
        )
    attach_phases(benchmark, rec.snapshot)
    record_result(f"table1_errors_{family}", _render(rows))


def test_table1_errors_realm(benchmark, record_result):
    _bench_family(benchmark, record_result, "realm")


def test_table1_errors_log_baselines(benchmark, record_result):
    _bench_family(benchmark, record_result, "log-baselines")


def test_table1_errors_other_baselines(benchmark, record_result):
    _bench_family(benchmark, record_result, "other-baselines")
