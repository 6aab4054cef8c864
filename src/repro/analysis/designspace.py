"""Design-space sweep for Fig. 4: accuracy vs. resource efficiency.

Fig. 4 scatters every Table I configuration on four axes — mean/peak error
against area/power reduction — constrained to mean error <= 4% and peak
error <= 15%, and outlines the Pareto front.  Two synthesis sources are
supported:

* ``source="model"`` — this library's calibrated cost model (a fully
  self-contained reproduction);
* ``source="paper"`` — the paper's published area/power columns combined
  with this library's measured errors, isolating the error reproduction
  from the cost-model substitution (see DESIGN.md).
"""

from __future__ import annotations

import dataclasses

from .. import paper
from ..multipliers.registry import TABLE1_IDS, build
from .metrics import ErrorMetrics
from .montecarlo import characterize_many
from .pareto import pareto_front

__all__ = ["DesignPoint", "sweep", "fig4_points", "fig4_front"]

#: Fig. 4 plot constraints
MAX_MEAN_ERROR = 4.0
MAX_PEAK_ERROR = 15.0


@dataclasses.dataclass(frozen=True)
class DesignPoint:
    """One design in the Fig. 4 space."""

    name: str
    display: str
    area_reduction: float
    power_reduction: float
    mean_error: float
    peak_error: float
    metrics: ErrorMetrics

    @property
    def is_realm(self) -> bool:
        return self.name.startswith("realm")


def _synthesis_columns(name: str, source: str) -> tuple[float, float] | None:
    if source == "model":
        from ..synth.cost import reductions

        return reductions(name)
    if source == "paper":
        row = paper.TABLE1.get(name)
        if row is None or row.area_reduction is None or row.power_reduction is None:
            return None
        return row.area_reduction, row.power_reduction
    raise ValueError(f"source must be 'model' or 'paper', got {source!r}")


def sweep(
    ids: tuple[str, ...] = TABLE1_IDS,
    samples: int = 1 << 22,
    seed: int = 2020,
    source: str = "model",
    *,
    workers: int | None = None,
    progress=None,
    policy=None,
    checkpoint: bool = False,
    warehouse=None,
) -> list[DesignPoint]:
    """Characterize error and synthesis cost for each design.

    The Monte-Carlo engine options (``workers``/``progress`` plus the
    resilience ``policy`` and ``checkpoint``) are forwarded to
    :func:`repro.analysis.montecarlo.characterize_many`, so the whole
    sweep runs as one block-major campaign, survives worker faults, and
    — with ``checkpoint`` — an interrupted sweep rerun with
    ``checkpoint=True`` recomputes only the unfinished (design, block)
    pairs.  ``warehouse`` selects the experiment warehouse (see
    :mod:`repro.warehouse`): a warm sweep over an unchanged registry
    performs zero model evaluations — every design is served from the
    store by fingerprint — and the sweep is recorded as one ``sweep``
    run whose rows carry the synthesis columns alongside the metrics.
    """
    chosen = []
    for name in ids:
        columns = _synthesis_columns(name, source)
        if columns is not None:
            chosen.append((name, build(name), columns))
    synthesis = {name: columns for name, _, columns in chosen}
    measured = characterize_many(
        [(name, multiplier) for name, multiplier, _ in chosen],
        samples=samples,
        seed=seed,
        workers=workers,
        progress=progress,
        policy=policy,
        checkpoint=checkpoint,
        warehouse=warehouse,
        _warehouse_kind="sweep",
        _warehouse_decorate=lambda name: {
            "source": source,
            "area_reduction": synthesis[name][0],
            "power_reduction": synthesis[name][1],
        },
    )
    points = []
    for name, multiplier, columns in chosen:
        metrics = measured[name]
        peak_min, peak_max = metrics.peaks()  # certified when available
        peak = max(abs(peak_min), abs(peak_max))
        points.append(
            DesignPoint(
                name=name,
                display=multiplier.name,
                area_reduction=columns[0],
                power_reduction=columns[1],
                mean_error=metrics.mean_error,
                peak_error=peak,
                metrics=metrics,
            )
        )
    return points


def fig4_points(points: list[DesignPoint]) -> list[DesignPoint]:
    """Apply Fig. 4's mean/peak error constraints."""
    return [
        p
        for p in points
        if p.mean_error <= MAX_MEAN_ERROR and p.peak_error <= MAX_PEAK_ERROR
    ]


def fig4_front(
    points: list[DesignPoint], efficiency: str = "power", error: str = "mean"
) -> list[str]:
    """Pareto front names for one of Fig. 4's four panels."""
    if efficiency not in ("area", "power"):
        raise ValueError(f"efficiency must be 'area' or 'power', got {efficiency!r}")
    if error not in ("mean", "peak"):
        raise ValueError(f"error must be 'mean' or 'peak', got {error!r}")
    coords = {
        p.name: (
            p.area_reduction if efficiency == "area" else p.power_reduction,
            p.mean_error if error == "mean" else p.peak_error,
        )
        for p in fig4_points(points)
    }
    return pareto_front(coords, maximize_x=True)
