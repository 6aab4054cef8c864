"""Fig. 4: the accuracy-vs-efficiency design space and its Pareto front.

Two reproductions (see DESIGN.md):

* ``paper`` source — the paper's synthesis columns with this library's
  measured errors, isolating the error reproduction from the cost-model
  substitution.  This is the apples-to-apples test of the paper's Pareto
  claim ("the Pareto front is primarily achieved by REALM").
* ``model`` source — fully self-contained: our cost model on both axes.

Each run exports the scatter as CSV and prints the four panels' fronts.
"""

from __future__ import annotations

import csv

from conftest import BENCH_SAMPLES, attach_phases, run_once

from repro.analysis import telemetry
from repro.experiments import fig4_designspace, format_table


def _render(data) -> str:
    rows = [
        (
            p.display,
            f"{p.area_reduction:.1f}",
            f"{p.power_reduction:.1f}",
            f"{p.mean_error:.2f}",
            f"{p.peak_error:.2f}",
            "REALM" if p.is_realm else "",
        )
        for p in data["plotted"]
    ]
    text = [
        format_table(
            ["design", "areaR%", "powR%", "ME%", "PE%", ""], rows
        )
    ]
    for panel, front in data["fronts"].items():
        realm = sum(1 for n in front if n.startswith("realm"))
        text.append(f"\nPareto front [{panel}]: {realm}/{len(front)} REALM")
        text.append("  " + " -> ".join(front))
    return "\n".join(text)


def _export(data, results_dir, tag):
    with open(results_dir / f"fig4_{tag}.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["name", "area_reduction", "power_reduction", "mean_error", "peak_error"]
        )
        for p in data["points"]:
            writer.writerow(
                [p.name, p.area_reduction, p.power_reduction, p.mean_error, p.peak_error]
            )


def test_fig4_paper_synthesis(benchmark, record_result, results_dir):
    with telemetry.recording() as rec:
        data = run_once(
            benchmark,
            lambda: fig4_designspace(source="paper", samples=BENCH_SAMPLES),
        )
    attach_phases(benchmark, rec.snapshot)
    record_result("fig4_design_space_paper", _render(data))
    _export(data, results_dir, "paper")

    # the paper's claim, checked on all four panels
    for panel, front in data["fronts"].items():
        realm = sum(1 for n in front if n.startswith("realm"))
        assert realm >= len(front) / 2, (panel, front)
    # and its stated front endpoints
    assert "drum-k8" in data["fronts"]["area-mean"]


def test_fig4_model_synthesis(benchmark, record_result, results_dir):
    with telemetry.recording() as rec:
        data = run_once(
            benchmark,
            lambda: fig4_designspace(source="model", samples=BENCH_SAMPLES),
        )
    attach_phases(benchmark, rec.snapshot)
    record_result("fig4_design_space_model", _render(data))
    _export(data, results_dir, "model")

    # self-contained model: REALM still carries most of the power fronts
    front = data["fronts"]["power-mean"]
    assert sum(1 for n in front if n.startswith("realm")) >= len(front) / 2
