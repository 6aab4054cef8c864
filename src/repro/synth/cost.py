"""Synthesis cost model: calibrated area and power per design.

Stands in for the paper's Cadence RTL Compiler + TSMC 45 nm flow.  Area is
the sum of mapped cell areas; power is the activity-based estimate of
:mod:`repro.logic.activity` under the paper's conditions (1 GHz, 25%
toggle, 50% probability).  Both are multiplied by a calibration scale that
pins the accurate 16-bit Wallace multiplier to the paper's reference
(1898.1 um^2 / 821.9 uW) — the same normalization point Table I uses for
its percentage reductions.

Fidelity note (see DESIGN.md): a real timing-driven flow at 1 GHz inflates
the accurate multiplier's deep arithmetic more than the shallow mux
datapaths, so this model compresses the *absolute* reduction percentages
of the log-based designs by roughly 10-15 points while preserving their
ordering.  EXPERIMENTS.md quantifies the deltas per design.
"""

from __future__ import annotations

import dataclasses
import functools

from ..logic.activity import estimate_power
from ..logic.netlist import Netlist
from ..paper import ACCURATE_AREA_UM2, ACCURATE_POWER_UW

__all__ = ["SynthesisResult", "synthesize", "synthesize_design", "reductions"]

_POWER_VECTORS = 4096
_POWER_SEED = 45


@dataclasses.dataclass(frozen=True)
class SynthesisResult:
    """Calibrated synthesis metrics of one design."""

    name: str
    area_um2: float
    power_uw: float
    gate_count: int
    depth: int
    mean_toggle_rate: float

    def reductions(self, reference: "SynthesisResult") -> tuple[float, float]:
        """Percentage area/power reduction vs. a reference design."""
        return (
            (reference.area_um2 - self.area_um2) / reference.area_um2 * 100.0,
            (reference.power_uw - self.power_uw) / reference.power_uw * 100.0,
        )

    @property
    def energy_per_op_pj(self) -> float:
        """Energy per operation in pJ at the paper's 1 GHz (P / f)."""
        return self.power_uw * 1e-6 / 1e9 * 1e12

    def energy_delay_product(self, critical_path_ps: float) -> float:
        """EDP in pJ*ns — the standard efficiency figure of merit.

        Callers obtain the delay from :func:`repro.synth.timing.analyze_timing`;
        it is a separate input because the cost model's power is reported
        at the paper's fixed 1 GHz, not at the design's own max frequency.
        """
        if critical_path_ps <= 0:
            raise ValueError(f"delay must be positive, got {critical_path_ps}")
        return self.energy_per_op_pj * critical_path_ps * 1e-3


def _calibration(bitwidth: int = 16) -> tuple[float, float]:
    """(area_scale, power_scale) pinning the accurate multiplier."""
    _, raw_area, raw_power, *_ = _estimated("accurate", bitwidth)
    return ACCURATE_AREA_UM2 / raw_area, ACCURATE_POWER_UW / raw_power


def synthesize(
    netlist: Netlist,
    vectors: int = _POWER_VECTORS,
    seed: int = _POWER_SEED,
    bitwidth: int = 16,
) -> SynthesisResult:
    """Calibrated area/power of an already-built netlist."""
    return _calibrated(_measured(netlist, vectors, seed), bitwidth)


def synthesize_design(name: str, bitwidth: int = 16) -> SynthesisResult:
    """Build, estimate and cache the named registry configuration, one
    entry per ``(name, bitwidth)`` however the width is passed."""
    return _synthesized(name, bitwidth)


@functools.lru_cache(maxsize=None)
def _synthesized(name: str, bitwidth: int) -> SynthesisResult:
    return _calibrated(_estimated(name, bitwidth), bitwidth)


@functools.lru_cache(maxsize=None)
def _estimated(name: str, bitwidth: int) -> tuple:
    """A registry design's :func:`_measured` figures, built and estimated
    once: the calibration reads the accurate design's entry."""
    from ..circuits.catalog import netlist_for

    return _measured(netlist_for(name, bitwidth), _POWER_VECTORS, _POWER_SEED)


def _measured(netlist: Netlist, vectors: int, seed: int) -> tuple:
    """Name, area, power, mean toggle rate, gate count and depth, before
    calibration."""
    report = estimate_power(netlist, vectors=vectors, seed=seed)
    return (
        netlist.name,
        netlist.area(),
        report.total_uw,
        report.mean_toggle_rate,
        netlist.gate_count,
        netlist.depth(),
    )


def _calibrated(figures: tuple, bitwidth: int) -> SynthesisResult:
    name, area, power, toggle_rate, gate_count, depth = figures
    area_scale, power_scale = _calibration(bitwidth)
    return SynthesisResult(
        name=name,
        area_um2=area * area_scale,
        power_uw=power * power_scale,
        gate_count=gate_count,
        depth=depth,
        mean_toggle_rate=toggle_rate,
    )


def reductions(name: str, bitwidth: int = 16) -> tuple[float, float]:
    """Table I columns: (area reduction %, power reduction %) for a design."""
    design = synthesize_design(name, bitwidth)
    reference = synthesize_design("accurate", bitwidth)
    return design.reductions(reference)
