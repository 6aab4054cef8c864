"""Design-space explorer: pick a multiplier for an error/efficiency budget.

The workflow the library exists to serve, packaged: given constraints
(max mean error, max peak error, minimum area/power reduction) and an
objective (power, area, or error), search the named Table I space plus —
optionally — the *full* REALM grid (every power-of-two ``M``, every ``t``,
``q`` in a practical range), which is wider than what the paper tabulates.

Results come back ranked, with each candidate's measured metrics and
modeled cost attached, so the caller can inspect the trade-off curve
rather than a single point.  ``explore`` is deterministic (seeded MC) and
caches characterizations per configuration.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Sequence

from .analysis.metrics import ErrorMetrics
from .analysis.montecarlo import characterize
from .multipliers.registry import TABLE1_IDS, build
from .synth.cost import reductions

__all__ = ["Candidate", "Constraints", "explore", "realm_grid_ids"]


@dataclasses.dataclass(frozen=True)
class Constraints:
    """Feasibility bounds; ``None`` disables a bound."""

    max_mean_error: float | None = None
    max_peak_error: float | None = None
    max_bias: float | None = None
    min_area_reduction: float | None = None
    min_power_reduction: float | None = None

    def admits(self, candidate: "Candidate") -> bool:
        checks = (
            (self.max_mean_error, candidate.metrics.mean_error, "<="),
            (self.max_peak_error, candidate.peak_error, "<="),
            (
                self.max_bias,
                abs(candidate.metrics.bias),
                "<=",
            ),
            (self.min_area_reduction, candidate.area_reduction, ">="),
            (self.min_power_reduction, candidate.power_reduction, ">="),
        )
        for bound, value, direction in checks:
            if bound is None:
                continue
            if direction == "<=" and value > bound:
                return False
            if direction == ">=" and value < bound:
                return False
        return True


@dataclasses.dataclass(frozen=True)
class Candidate:
    """One explored configuration with all decision data attached."""

    name: str
    display: str
    metrics: ErrorMetrics
    area_reduction: float
    power_reduction: float

    @property
    def peak_error(self) -> float:
        return max(abs(self.metrics.peak_min), abs(self.metrics.peak_max))


_OBJECTIVES = {
    "power": lambda c: -c.power_reduction,
    "area": lambda c: -c.area_reduction,
    "error": lambda c: c.metrics.mean_error,
}


def realm_grid_ids(
    m_values: Sequence[int] = (2, 4, 8, 16, 32),
    t_values: Sequence[int] = tuple(range(10)),
) -> list[str]:
    """REALM configurations beyond the paper's table (M=2 and M=32 too)."""
    return [f"realm-grid-m{m}-t{t}" for m in m_values for t in t_values]


def _build_any(name: str, bitwidth: int = 16):
    if name.startswith("realm-grid-"):
        from .core.realm import RealmMultiplier

        parts = name.split("-")
        m = int(parts[2][1:])
        t = int(parts[3][1:])
        return RealmMultiplier(bitwidth=bitwidth, m=m, t=t)
    return build(name, bitwidth)


def _synthesis_for(name: str, multiplier) -> tuple[float, float]:
    if name.startswith("realm-grid-"):
        from .circuits.catalog import netlist_of
        from .synth.cost import synthesize, synthesize_design

        design = synthesize(netlist_of(multiplier))
        reference = synthesize_design("accurate")
        return design.reductions(reference)
    return reductions(name)


@functools.lru_cache(maxsize=None)
def _candidate(name: str, samples: int, seed: int) -> Candidate:
    multiplier = _build_any(name)
    metrics = characterize(multiplier, samples=samples, seed=seed)
    area_reduction, power_reduction = _synthesis_for(name, multiplier)
    return Candidate(
        name=name,
        display=multiplier.name,
        metrics=metrics,
        area_reduction=area_reduction,
        power_reduction=power_reduction,
    )


def explore(
    constraints: Constraints,
    objective: str = "power",
    include_realm_grid: bool = False,
    ids: Sequence[str] | None = None,
    samples: int = 1 << 19,
    seed: int = 2020,
    top: int = 10,
) -> list[Candidate]:
    """Feasible configurations ranked by the objective (best first)."""
    if objective not in _OBJECTIVES:
        raise ValueError(
            f"objective must be one of {sorted(_OBJECTIVES)}, got {objective!r}"
        )
    if top < 1:
        raise ValueError(f"top must be >= 1, got {top}")
    names = list(ids) if ids is not None else list(TABLE1_IDS)
    if include_realm_grid:
        names += realm_grid_ids()
    candidates = [_candidate(name, samples, seed) for name in names]
    feasible = [c for c in candidates if constraints.admits(c)]
    feasible.sort(key=_OBJECTIVES[objective])
    return feasible[:top]
