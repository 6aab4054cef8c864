"""Deterministic conformance reports: JSON artifact + terminal rendering.

The JSON report is a pure function of the evaluated pair stream — no
wall-clock timestamps, no host info, keys sorted — so two runs with the
same seed and budget (at any worker count) produce byte-identical files.
That property is what lets CI diff reports directly and what the
acceptance tests pin.
"""

from __future__ import annotations

import json

from .fuzz import FuzzResult

__all__ = ["build_report", "render_json", "render_text"]


def build_report(result: FuzzResult) -> dict:
    """Fold a :class:`~repro.conformance.fuzz.FuzzResult` into a
    JSON-stable dict (sorted keys on serialization, no timing fields)."""
    return {
        "design": result.design,
        "bitwidth": result.bitwidth,
        "m": result.m,
        "seed": result.seed,
        "budget": result.budget,
        "pairs": result.pairs,
        "rounds": result.rounds,
        "full_cover": result.full_cover,
        "layers": list(result.layers),
        "skipped_layers": dict(sorted(result.skipped_layers.items())),
        "relations": list(result.relations),
        "coverage": result.coverage.report(),
        "divergences": {
            "total": result.total_divergences,
            "by_check": dict(sorted(result.counts.items())),
            "records": [
                {
                    "kind": record.kind,
                    "name": record.name,
                    "a": record.a,
                    "b": record.b,
                    "got": record.got,
                    "want": record.want,
                }
                for record in result.records
            ],
            "shrunk": result.shrunk,
        },
        "ok": result.ok,
    }


def render_json(result: FuzzResult) -> str:
    return json.dumps(build_report(result), indent=1, sort_keys=True) + "\n"


def _coverage_table(result: FuzzResult) -> list[str]:
    """The per-cell ``(i, j)`` hit-count grid, intervals aggregated."""
    table = result.coverage.segment_table()
    m = result.m
    width = max(5, len(str(int(table.max()))) + 1)
    lines = ["segment-cell hits (rows: i of a, cols: j of b):"]
    header = "   i\\j " + "".join(f"{j:>{width}}" for j in range(m))
    lines.append(header)
    for i in range(m):
        row = "".join(f"{int(table[i, j]):>{width}}" for j in range(m))
        lines.append(f"  {i:>4} {row}")
    return lines


def render_text(result: FuzzResult) -> str:
    """Human-oriented summary: verdict, coverage, table, counterexamples."""
    lines = [
        f"design      {result.design} ({result.bitwidth}-bit, M={result.m})",
        f"layers      {', '.join(result.layers)}"
        + (
            f"  (skipped: {', '.join(sorted(result.skipped_layers))})"
            if result.skipped_layers
            else ""
        ),
        f"relations   {', '.join(result.relations)}",
        f"pairs       {result.pairs} of budget {result.budget}"
        f" in {result.rounds} round(s)",
        f"coverage    {result.coverage.segment_cell_coverage():.2%} of "
        f"{result.coverage.report()['segment_cells']['reachable']}"
        f" reachable segment cells, "
        f"{result.coverage.lsb_coverage():.2%} of LSB patterns"
        + ("  [full cover]" if result.full_cover else ""),
    ]
    lines.extend(_coverage_table(result))
    if result.ok:
        lines.append("verdict     OK — no divergences")
    else:
        lines.append(
            f"verdict     FAIL — {result.total_divergences} divergence(s)"
            f" across {len(result.counts)} check(s)"
        )
        for check, count in sorted(result.counts.items()):
            lines.append(f"  {check}: {count} recorded")
        for entry in result.shrunk:
            lines.append(
                f"  shrunk counterexample [{entry['kind']}:{entry['name']}]"
                f" a={entry['shrunk_a']} b={entry['shrunk_b']}"
                f" (from a={entry['a']} b={entry['b']})"
            )
    return "\n".join(lines) + "\n"
