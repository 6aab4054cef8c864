"""Trend reports over the experiment warehouse (``repro report``).

Folds the recorded runs into two views:

* a **run log** — one line per recorded run with its provenance (kind,
  wall clock, recomputed-vs-reused counts, throughput, git revision);
* **per-design trajectories** — for every design with error data, the
  mean/peak error across recorded runs (certified peaks preferred, the
  PR 8 semantics) plus the area/power columns when the run was a
  design-space sweep.  Each point carries how its run sampled (run
  kind, input sampler, sample count), and the text view draws one
  trajectory per such combination, so runs under different inputs or
  depths never read as one line.

``build_trends`` is a pure function of the database contents, and the
JSON rendering sorts keys — exporting the same store twice yields
byte-identical artifacts, which is what lets CI diff trend files
directly.
"""

from __future__ import annotations

import datetime
import json

from .store import ResultRow, RunRow, Warehouse

__all__ = ["build_trends", "render_json", "render_text"]


def _fmt(value, precision: int = 2) -> str:
    if value is None:
        return "--"
    return f"{value:.{precision}f}"


def _table(headers, rows) -> str:
    """Minimal aligned text table (first column left, rest right)."""
    widths = [len(h) for h in headers]
    text_rows = [[str(cell) for cell in row] for row in rows]
    for row in text_rows:
        widths = [max(w, len(c)) for w, c in zip(widths, row)]
    def line(cells):
        return "  ".join(
            c.ljust(w) if i == 0 else c.rjust(w)
            for i, (c, w) in enumerate(zip(cells, widths))
        )
    out = [line(headers), "-" * len(line(headers))]
    out.extend(line(row) for row in text_rows)
    return "\n".join(out)


def _error_fields(data: dict) -> dict | None:
    """Extract ``(mean, peak_min, peak_max, certified)`` from a result row.

    Understands both raw metrics field dicts (characterize runs) and
    sweep/table rows that embed a ``metrics`` sub-dict or flat columns.
    Certified peaks take precedence, mirroring
    :meth:`repro.analysis.metrics.ErrorMetrics.peaks`.
    """
    if not isinstance(data, dict):
        return None
    fields = data.get("metrics") if isinstance(data.get("metrics"), dict) else data
    mean = fields.get("mean_error")
    peak_min, peak_max = fields.get("peak_min"), fields.get("peak_max")
    certified = fields.get("peak_certified")
    if certified is None and isinstance(data.get("peak_certified"), (list, tuple)):
        certified = data["peak_certified"]
    if not isinstance(mean, (int, float)) or isinstance(mean, bool):
        return None
    is_certified = isinstance(certified, (list, tuple)) and len(certified) == 2
    if is_certified:
        peak_min, peak_max = certified
    return {
        "mean_error": mean,
        "peak_min": peak_min,
        "peak_max": peak_max,
        "certified": is_certified,
    }


def _accuracy_fields(data: dict) -> dict | None:
    """Extract application-accuracy fields from a result row (CNN/MLP
    study runs), or ``None`` when the row carries no accuracy column."""
    if not isinstance(data, dict):
        return None
    accuracy = data.get("accuracy")
    if not isinstance(accuracy, (int, float)) or isinstance(accuracy, bool):
        return None
    fields = {"accuracy": accuracy}
    for column in ("accuracy_drop", "logit_distortion", "area_reduction",
                   "power_reduction"):
        value = data.get(column)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            fields[column] = value
    return fields


def _sampler(payload) -> str:
    """A row's input distribution: the payload's sampler class, or
    ``uniform`` when the payload names no sampler."""
    sampler = payload.get("sampler") if isinstance(payload, dict) else None
    if sampler is None:
        return "uniform"
    if isinstance(sampler, dict) and "class" in sampler:
        return str(sampler["class"])
    return "custom"


def _run_entry(run: RunRow, results: list[ResultRow]) -> dict:
    recomputed = sum(1 for r in results if not r.reused)
    reused = len(results) - recomputed
    pairs_per_sec = None
    if run.wall_seconds and run.samples and recomputed:
        pairs_per_sec = run.samples * recomputed / run.wall_seconds
    return {
        "id": run.id,
        "kind": run.kind,
        "created": run.created,
        "wall_seconds": run.wall_seconds,
        "git_rev": run.git_rev,
        "engine_version": run.engine_version,
        "kernel_version": run.kernel_version,
        "seed": run.seed,
        "samples": run.samples,
        "designs": len(results),
        "recomputed": recomputed,
        "reused": reused,
        "pairs_per_sec": pairs_per_sec,
        "counters": dict(sorted(run.counters.items())),
    }


def build_trends(
    warehouse: Warehouse,
    kind: str | None = None,
    design: str | None = None,
    limit: int | None = None,
) -> dict:
    """The JSON-ready trend structure for ``repro report``.

    ``kind``/``design`` filter; ``limit`` keeps only the most recent N
    runs.  Deterministic for a given database: runs ascend by id,
    designs sort lexicographically, keys serialize sorted.
    """
    runs = warehouse.runs(kind=kind, limit=limit)
    run_by_id = {run.id: run for run in runs}
    by_run: dict[int, list[ResultRow]] = {run.id: [] for run in runs}
    trajectories: dict[str, list[dict]] = {}
    applications: dict[str, list[dict]] = {}
    for row in warehouse.results(design=design):
        run = run_by_id.get(row.run_id)
        if run is None:
            continue
        by_run[row.run_id].append(row)
        errors = _error_fields(row.data)
        if errors is not None:
            point = {
                "run": row.run_id,
                "reused": row.reused,
                "kind": run.kind,
                "samples": run.samples,
                "sampler": _sampler(row.payload),
                **errors,
            }
            for column in ("area_reduction", "power_reduction"):
                value = row.data.get(column)
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    point[column] = value
            trajectories.setdefault(row.design, []).append(point)
        accuracy = _accuracy_fields(row.data)
        if accuracy is not None:
            applications.setdefault(row.design, []).append(
                {"run": row.run_id, "reused": row.reused, **accuracy}
            )
    return {
        "schema_version": warehouse.schema_version,
        "runs": [_run_entry(run, by_run[run.id]) for run in runs],
        "designs": {name: trajectories[name] for name in sorted(trajectories)},
        "applications": {
            name: applications[name] for name in sorted(applications)
        },
    }


def render_json(trends: dict) -> str:
    """Byte-stable JSON rendering (sorted keys, trailing newline)."""
    return json.dumps(trends, indent=1, sort_keys=True) + "\n"


def _iso(timestamp: float | None) -> str:
    if timestamp is None:
        return "--"
    return datetime.datetime.fromtimestamp(
        timestamp, tz=datetime.timezone.utc
    ).strftime("%Y-%m-%d %H:%M:%S")


def render_text(trends: dict) -> str:
    """Terminal rendering: run log + per-design error trajectories."""
    lines = []
    runs = trends["runs"]
    if not runs:
        return "warehouse is empty — no recorded runs\n"
    rows = []
    for run in runs:
        rate = run["pairs_per_sec"]
        rows.append(
            (
                run["id"],
                run["kind"],
                _iso(run["created"]),
                run["designs"],
                f"{run['recomputed']}/{run['reused']}",
                _fmt(run["wall_seconds"]),
                f"{rate / 1e6:.2f}M" if rate else "--",
                (run["git_rev"] or "--")[:10],
            )
        )
    lines.append(f"recorded runs ({len(runs)}):")
    lines.append(
        _table(
            ["run", "kind", "created (UTC)", "designs", "new/reused",
             "wall s", "pairs/s", "rev"],
            rows,
        )
    )
    designs = trends["designs"]
    if designs:
        rows = []
        certified = False
        for name, points in designs.items():
            # one trajectory per way of sampling, in first-recorded order
            lines_of: dict[tuple, list[dict]] = {}
            for point in points:
                key = (point["kind"], point["sampler"], point["samples"])
                lines_of.setdefault(key, []).append(point)
            for (kind, sampler, samples), line in lines_of.items():
                first, last = line[0], line[-1]
                peak = max(abs(last["peak_min"]), abs(last["peak_max"]))
                certified = certified or last["certified"]
                rows.append(
                    (
                        name,
                        kind,
                        sampler,
                        "--" if samples is None else samples,
                        len(line),
                        _fmt(first["mean_error"], 3),
                        _fmt(last["mean_error"], 3),
                        f"{last['mean_error'] - first['mean_error']:+.3f}",
                        _fmt(peak, 2) + ("*" if last["certified"] else ""),
                        _fmt(last.get("area_reduction"), 1),
                    )
                )
        lines.append("")
        lines.append(f"design trajectories ({len(rows)}):")
        lines.append(
            _table(
                ["design", "kind", "sampler", "samples", "runs", "first ME%",
                 "last ME%", "dME%", "last |peak|%", "areaR%"],
                rows,
            )
        )
        if certified:
            lines.append("* formally certified worst-case peak (repro formal)")
    applications = trends.get("applications", {})
    if applications:
        rows = []
        for name, points in applications.items():
            first, last = points[0], points[-1]
            rows.append(
                (
                    name,
                    len(points),
                    _fmt(first["accuracy"], 3),
                    _fmt(last["accuracy"], 3),
                    f"{last['accuracy'] - first['accuracy']:+.3f}",
                    _fmt(last.get("logit_distortion"), 2),
                    _fmt(last.get("area_reduction"), 1),
                )
            )
        lines.append("")
        lines.append(f"application accuracy trajectories ({len(applications)}):")
        lines.append(
            _table(
                ["design", "runs", "first acc", "last acc", "dAcc",
                 "logitD%", "areaR%"],
                rows,
            )
        )
    return "\n".join(lines) + "\n"
