"""Experiment drivers: one function per table/figure of the paper.

Both the CLI (``python -m repro``) and the benchmark harness
(``benchmarks/``) call these, so every reproduction artifact comes from a
single code path.  Each driver returns plain data (lists of row dicts or
analysis objects) plus there are small text-table formatting helpers; the
benches add timing, the CLI adds argument handling.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import paper
from .analysis.designspace import DesignPoint, fig4_front, fig4_points, sweep
from .analysis.distribution import Histogram, error_histogram
from .analysis.montecarlo import characterize, characterize_many
from .analysis.profiles import (
    FIG1_RANGE,
    FIG2_RANGE,
    ProfileSummary,
    profile,
    segment_mean_errors,
)
from .core.factors import compute_factors, quantize_factors
from .core.realm import RealmMultiplier
from .multipliers.registry import TABLE1_IDS, build

__all__ = [
    "DEFAULT_SAMPLES",
    "FIG1_DESIGNS",
    "FIG5_CONFIGS",
    "cnn_study",
    "cnn_text",
    "table1_errors",
    "table1_synthesis",
    "table2_jpeg",
    "fig1_profiles",
    "fig2_segments",
    "fig3_hardware",
    "fig4_designspace",
    "fig5_histograms",
    "format_table",
]

#: default Monte-Carlo depth for the reproduction runs; the paper uses
#: 2^24 — pass that for the final numbers, this for quick iterations
DEFAULT_SAMPLES = 1 << 22

#: the six panels of Fig. 1, in the paper's order
FIG1_DESIGNS = ("calm", "alm-soa-m9", "mbm-t0", "implm-ea", "intalp-l2", "realm16-t0")

#: the nine panels of Fig. 5: (M, t) pairs
FIG5_CONFIGS = tuple(
    (m, t) for t in (0, 6, 9) for m in (16, 8, 4)
)


def _fmt(value, precision=2, width=8):
    if value is None:
        return " " * (width - 2) + "--"
    return f"{value:{width}.{precision}f}"


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Monospace table with right-aligned numeric columns."""
    columns = [len(h) for h in headers]
    text_rows = []
    for row in rows:
        text_row = [str(cell) for cell in row]
        columns = [max(w, len(c)) for w, c in zip(columns, text_row)]
        text_rows.append(text_row)
    line = "  ".join(h.rjust(w) for h, w in zip(headers, columns))
    rule = "-" * len(line)
    body = [
        "  ".join(c.rjust(w) for c, w in zip(row, columns)) for row in text_rows
    ]
    return "\n".join([line, rule, *body])


# ----------------------------------------------------------------------
# Table I
# ----------------------------------------------------------------------


def table1_errors(
    samples: int = DEFAULT_SAMPLES,
    ids: Sequence[str] = TABLE1_IDS,
    seed: int = 2020,
    *,
    workers: int | None = None,
    progress=None,
    policy=None,
    checkpoint: bool = False,
    warehouse=None,
) -> list[dict]:
    """Error columns of Table I: measured next to the published values.

    The designs run as one block-major campaign (see
    :func:`~repro.analysis.montecarlo.characterize_many`): ``workers``
    fans its block groups out over a process pool and ``progress``
    receives one event dict per completed design.  The resilience
    ``policy`` and ``checkpoint`` forward to the engine, so a long
    campaign survives worker faults and resumes after an interruption.
    ``warehouse`` selects the experiment warehouse (see
    :mod:`repro.warehouse`): designs whose fingerprint is already
    recorded are served from the store, and the campaign is recorded as
    one ``table1`` run.  The newest worst-case
    certificate that ``repro formal`` recorded in that warehouse for a
    design at its bitwidth replaces the sampled peaks when it is exact
    and replayed.
    """
    from .warehouse.store import Session

    designs = [(name, build(name)) for name in ids]
    measured = characterize_many(
        designs,
        samples=samples,
        seed=seed,
        workers=workers,
        progress=progress,
        policy=policy,
        checkpoint=checkpoint,
        warehouse=warehouse,
        _warehouse_kind="table1",
    )
    with Session(warehouse, "table1") as store:
        certificates = store.certificates()
    rows = []
    for name, multiplier in designs:
        metrics = measured[name]
        reference = paper.TABLE1.get(name)
        certified = _certified_peaks(
            metrics, certificates.get((name, multiplier.bitwidth))
        )
        rows.append(
            {
                "name": name,
                "display": multiplier.name,
                "bias": metrics.bias,
                "mean_error": metrics.mean_error,
                "peak_min": certified[0] if certified else metrics.peak_min,
                "peak_max": certified[1] if certified else metrics.peak_max,
                "peak_certified": certified is not None,
                "variance": metrics.variance,
                "paper": reference,
            }
        )
    return rows


def _certified_peaks(metrics, payload):
    """Certified ``(min%, max%)`` peaks for a Table I row, else ``None``.

    Prefers a certificate attached to the metrics themselves (exhaustive
    sweeps), then a stored ``repro formal`` worst-case certificate that
    is both exact and replayed.
    """
    if metrics.peak_certified is not None:
        return metrics.peak_certified
    if not payload or not payload.get("exact") or not payload.get("replayed"):
        return None
    try:
        return tuple(
            100.0 * payload[side]["error_num"] / payload[side]["error_den"]
            for side in ("peak_min", "peak_max")
        )
    except (KeyError, TypeError, ZeroDivisionError):
        return None


def table1_synthesis(ids: Sequence[str] = TABLE1_IDS) -> list[dict]:
    """Design-metric columns of Table I from the calibrated cost model."""
    from .synth.cost import reductions, synthesize_design

    rows = []
    for name in ids:
        area_reduction, power_reduction = reductions(name)
        result = synthesize_design(name)
        reference = paper.TABLE1.get(name)
        rows.append(
            {
                "name": name,
                "display": build(name).name,
                "area_um2": result.area_um2,
                "power_uw": result.power_uw,
                "area_reduction": area_reduction,
                "power_reduction": power_reduction,
                "gate_count": result.gate_count,
                "paper": reference,
            }
        )
    return rows


def table1_text(
    samples: int = DEFAULT_SAMPLES,
    ids=TABLE1_IDS,
    *,
    workers: int | None = None,
    progress=None,
    policy=None,
    checkpoint: bool = False,
    warehouse=None,
) -> str:
    """Rendered Table I: measured vs. paper for every column."""
    errors = {
        r["name"]: r
        for r in table1_errors(
            samples, ids, workers=workers, progress=progress,
            policy=policy, checkpoint=checkpoint, warehouse=warehouse,
        )
    }
    synthesis = {r["name"]: r for r in table1_synthesis(ids)}
    headers = [
        "design", "areaR%", "(paper)", "powR%", "(paper)",
        "bias", "(paper)", "ME", "(paper)", "min", "max", "var",
    ]
    rows = []
    for name in ids:
        err = errors[name]
        syn = synthesis[name]
        ref = err["paper"]
        rows.append(
            [
                err["display"],
                _fmt(syn["area_reduction"], 1, 6),
                _fmt(ref.area_reduction if ref else None, 1, 6),
                _fmt(syn["power_reduction"], 1, 6),
                _fmt(ref.power_reduction if ref else None, 1, 6),
                _fmt(err["bias"]),
                _fmt(ref.bias if ref else None),
                _fmt(err["mean_error"]),
                _fmt(ref.mean_error if ref else None),
                _fmt(err["peak_min"]) + ("*" if err["peak_certified"] else ""),
                _fmt(err["peak_max"]) + ("*" if err["peak_certified"] else ""),
                _fmt(err["variance"]),
            ]
        )
    table = format_table(headers, rows)
    if any(err["peak_certified"] for err in errors.values()):
        table += "\n* formally certified worst-case peak (repro formal)"
    return table


# ----------------------------------------------------------------------
# Table II
# ----------------------------------------------------------------------


def table2_jpeg(quality: int = 50, seed: int = 2020) -> list[dict]:
    """JPEG PSNR per image per multiplier (Table II)."""
    from .jpeg.codec import roundtrip_psnr
    from .jpeg.images import test_image

    multipliers = {name: build(name) for name in paper.TABLE2_MULTIPLIERS}
    rows = []
    for image_name in paper.TABLE2_IMAGES:
        image = test_image(image_name, seed=seed)
        row = {"image": image_name}
        for name, multiplier in multipliers.items():
            measured, compressed = roundtrip_psnr(multiplier, image, quality)
            row[name] = measured
            row[f"{name}_bpp"] = compressed.bits_per_pixel
            row[f"{name}_paper"] = paper.TABLE2_PSNR[image_name][name]
        rows.append(row)
    return rows


def table2_text(quality: int = 50) -> str:
    rows = table2_jpeg(quality)
    headers = ["image"] + [f"{n}" for n in paper.TABLE2_MULTIPLIERS]
    body = []
    for row in rows:
        body.append(
            [row["image"]]
            + [
                f"{row[n]:.1f} (p{row[f'{n}_paper']:.1f})"
                for n in paper.TABLE2_MULTIPLIERS
            ]
        )
    return format_table(headers, body)


# ----------------------------------------------------------------------
# Figures
# ----------------------------------------------------------------------


def fig1_profiles(
    designs: Sequence[str] = FIG1_DESIGNS,
) -> dict[str, ProfileSummary]:
    """Exhaustive error surfaces over the Fig. 1 operand range."""
    return {name: profile(build(name), *FIG1_RANGE) for name in designs}


def fig2_segments(m: int = 4) -> dict[str, np.ndarray]:
    """Fig. 2: per-segment mean error before/after error reduction."""
    calm = segment_mean_errors(build("calm"), m, *FIG2_RANGE)
    realm = segment_mean_errors(
        RealmMultiplier(m=m, t=0), m, *FIG2_RANGE
    )
    return {
        "calm_segment_means": calm,
        "realm_segment_means": realm,
        "factors": compute_factors(m),
        "lut_codes": quantize_factors(compute_factors(m), 6),
    }


def fig3_hardware(m: int = 16, t: int = 0) -> dict:
    """Fig. 3 as structure: block inventory of the REALM datapath."""
    from .circuits.realm_rtl import realm_netlist
    from .synth.cost import synthesize

    netlist = realm_netlist(16, m=m, t=t)
    result = synthesize(netlist)
    return {
        "name": netlist.name,
        "gate_count": netlist.gate_count,
        "depth": netlist.depth(),
        "area_um2": result.area_um2,
        "power_uw": result.power_uw,
        "cells": dict(netlist.cell_histogram()),
        "lut_entries": m * m,
        "lut_width_bits": 4,  # q - 2
        "output_bits": len(netlist.outputs),
    }


def fig4_designspace(
    source: str = "paper",
    samples: int = DEFAULT_SAMPLES,
    *,
    workers: int | None = None,
    progress=None,
    policy=None,
    checkpoint: bool = False,
    warehouse=None,
) -> dict:
    """Fig. 4: the four panels' points and Pareto fronts."""
    points = sweep(
        samples=samples,
        source=source,
        workers=workers,
        progress=progress,
        policy=policy,
        checkpoint=checkpoint,
        warehouse=warehouse,
    )
    kept = fig4_points(points)
    fronts = {
        f"{efficiency}-{error}": fig4_front(points, efficiency, error)
        for efficiency in ("area", "power")
        for error in ("mean", "peak")
    }
    return {"points": points, "plotted": kept, "fronts": fronts}


def fig5_histograms(
    samples: int = DEFAULT_SAMPLES, configs=FIG5_CONFIGS
) -> list[Histogram]:
    """Fig. 5: REALM error distributions across (M, t)."""
    return [
        error_histogram(RealmMultiplier(m=m, t=t), samples=samples)
        for m, t in configs
    ]


# ----------------------------------------------------------------------
# CNN accuracy-vs-area study (application extension)
# ----------------------------------------------------------------------


def _pareto_accuracy_area(rows: list[dict]) -> None:
    """Mark the accuracy/area Pareto front in-place (``row["pareto"]``).

    A design is on the front when no other design offers at least its
    accuracy AND at least its area reduction with one of the two strict.
    """
    for row in rows:
        dominated = any(
            other is not row
            and other["accuracy"] >= row["accuracy"]
            and other["area_reduction"] >= row["area_reduction"]
            and (
                other["accuracy"] > row["accuracy"]
                or other["area_reduction"] > row["area_reduction"]
            )
            for other in rows
        )
        row["pareto"] = not dominated


def cnn_study(
    ids: Sequence[str] | None = None,
    seed: int = 2020,
    *,
    warehouse=None,
) -> list[dict]:
    """Accuracy-vs-area of the fixed-point CNN across the registry.

    Every design runs the quantized conv+pool+FC glyph classifier (see
    :mod:`repro.nn.cnn`); the area/power columns come from the calibrated
    synthesis cost model, so the rows plot directly as an accuracy-vs-area
    Pareto study.  ``warehouse`` opts into the experiment warehouse: rows
    whose content-addressed payload (design fingerprint + dataset seed)
    is already stored are reused, and the campaign is recorded as one
    ``cnn`` run — which is what feeds the ``repro report`` accuracy
    trajectories.
    """
    import time as _time

    from .multipliers.registry import fingerprint
    from .nn import cnn_scores, float_cnn_accuracy, trained_cnn_setup
    from .synth.cost import reductions
    from .warehouse.store import Session

    if ids is None:
        from .multipliers.registry import REGISTRY

        ids = [name for name in sorted(REGISTRY) if _buildable(name)]
    else:
        ids = list(ids)

    data, params = trained_cnn_setup(seed)
    reference = float_cnn_accuracy(data, params)

    with Session(warehouse, "cnn") as store:
        start = _time.perf_counter()
        payloads = {
            name: {
                "experiment": "cnn-study",
                "design": fingerprint(build(name)),
                "dataset_seed": seed,
                "test_samples": int(len(data.test_y)),
            }
            for name in ids
        }
        reused = store.reuse(payloads, _stored_cnn_row)
        scores = cnn_scores([name for name in ids if name not in reused], seed)

        rows = []
        for name in ids:
            if name in reused:
                data_row = dict(reused[name])
            else:
                area_reduction, power_reduction = reductions(name)
                accuracy, distortion = scores[name]
                data_row = {
                    "accuracy": accuracy,
                    "accuracy_drop": reference - accuracy,
                    "logit_distortion": distortion,
                    "area_reduction": area_reduction,
                    "power_reduction": power_reduction,
                    "float_reference": reference,
                }
            rows.append({"name": name, "display": build(name).name, **data_row})
        _pareto_accuracy_area(rows)

        store.record(
            (
                (
                    name,
                    payloads[name],
                    {k: row[k] for k in row if k not in ("name", "display")},
                    name in reused,
                )
                for name, row in zip(ids, rows)
            ),
            seed=seed,
            samples=int(len(data.test_y)),
            wall_seconds=_time.perf_counter() - start,
        )
    return rows


def _stored_cnn_row(store, fingerprint: str) -> dict | None:
    """A stored CNN study row's columns, or ``None`` (a miss)."""
    row = store.latest(fingerprint)
    return row.data if row is not None and isinstance(row.data, dict) else None


def _buildable(name: str, bitwidth: int = 16) -> bool:
    try:
        build(name, bitwidth)
    except ValueError:
        return False
    return True


def cnn_text(ids: Sequence[str] | None = None, *, warehouse=None) -> str:
    """Rendered CNN accuracy-vs-area table, Pareto designs starred."""
    rows = cnn_study(ids, warehouse=warehouse)
    headers = ["design", "accuracy", "drop", "logitD%", "areaR%", "powR%"]
    table_rows = [
        [
            row["display"] + (" *" if row["pareto"] else ""),
            _fmt(row["accuracy"], 3, 8),
            _fmt(row["accuracy_drop"], 3, 7),
            _fmt(row["logit_distortion"], 2, 7),
            _fmt(row["area_reduction"], 1, 6),
            _fmt(row["power_reduction"], 1, 6),
        ]
        for row in sorted(rows, key=lambda r: -r["area_reduction"])
    ]
    if rows:
        reference = rows[0]["float_reference"]
        header_line = f"float CNN reference accuracy: {reference:.3f}\n"
    else:
        header_line = ""
    return (
        header_line
        + format_table(headers, table_rows)
        + "\n* accuracy/area Pareto front"
    )
