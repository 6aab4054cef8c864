"""Simulation-based switching-activity and power estimation.

The paper annotates the synthesized multipliers with a 25% input toggle
rate and 50% signal probability and reports the resulting combinational
power at 1 GHz.  This module reproduces that methodology: a Markov input
stream with exactly those statistics is simulated through the netlist
(:mod:`repro.logic.sim`), per-gate output toggle rates are counted, and
dynamic power is the activity-weighted sum of cell switching energies
(plus a small leakage term).  Simulation-based estimation keeps signal
correlations that probabilistic propagation loses — important for the
barrel-shifter-heavy log multipliers, where net activities are strongly
correlated through the shift controls.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .netlist import Netlist
from .sim import simulate

__all__ = ["ActivityReport", "markov_stream", "estimate_power"]

#: the paper's power-analysis conditions
TOGGLE_RATE = 0.25
SIGNAL_PROBABILITY = 0.5
CLOCK_HZ = 1e9


def markov_stream(
    length: int,
    toggle_rate: float = TOGGLE_RATE,
    probability: float = SIGNAL_PROBABILITY,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Random bit stream with given stationary probability and toggle rate.

    A two-state Markov chain with transition probabilities chosen so that
    ``P(bit=1) = probability`` and ``P(bit_t != bit_t-1) = toggle_rate``
    in steady state: ``P(0->1) = r/(2(1-p))`` and ``P(1->0) = r/(2p)``
    for toggle rate ``r``.
    """
    if not 0.0 < probability < 1.0:
        raise ValueError(f"probability must be in (0,1), got {probability}")
    if not 0.0 <= toggle_rate <= 2 * min(probability, 1 - probability):
        raise ValueError(f"toggle rate {toggle_rate} unreachable at p={probability}")
    rng = rng or np.random.default_rng()
    p01 = toggle_rate / (2.0 * (1.0 - probability))
    p10 = toggle_rate / (2.0 * probability)
    uniform = rng.random(length)
    state = rng.random() < probability
    # step t maps 0 to ``rise`` and 1 to ``stay``: a constant where they
    # agree, NOT where only ``rise`` holds, the identity otherwise.  So a
    # bit is the last constant step's value (the initial state before
    # any) XOR the parity of the NOT steps since.
    rise = uniform < p01
    stay = uniform >= p10
    parity = np.logical_xor.accumulate(rise & ~stay)
    last = np.maximum.accumulate(np.where(rise == stay, np.arange(length), -1))
    anchor = np.where(last >= 0, stay[last] ^ parity[last], state)
    return anchor ^ parity


@dataclasses.dataclass(frozen=True)
class ActivityReport:
    """Power breakdown of one netlist (uncalibrated units)."""

    dynamic_uw: float
    leakage_uw: float
    mean_toggle_rate: float
    vectors: int

    @property
    def total_uw(self) -> float:
        return self.dynamic_uw + self.leakage_uw


def estimate_power(
    netlist: Netlist,
    vectors: int = 4096,
    seed: int = 45,
    toggle_rate: float = TOGGLE_RATE,
    probability: float = SIGNAL_PROBABILITY,
    clock_hz: float = CLOCK_HZ,
) -> ActivityReport:
    """Activity-based power of a combinational netlist.

    Each primary input gets an independent Markov stream with the paper's
    statistics; every gate output's toggle count over the stream gives its
    activity; dynamic power is ``sum(energy_fj * toggles) / T * f_clk``.
    Zero-delay semantics (no glitch power) — a consistent convention
    across all designs, so the *relative* numbers Table I needs survive.
    """
    if vectors < 2:
        raise ValueError(f"need at least 2 vectors, got {vectors}")
    rng = np.random.default_rng(seed)
    stimulus = {
        net: markov_stream(vectors, toggle_rate, probability, rng)
        for net in netlist.inputs
    }
    waves = simulate(netlist, stimulus)

    dynamic_fj_per_cycle = 0.0
    leakage_nw = 0.0
    toggle_sum = 0.0
    for gate in netlist.gates:
        wave = waves[gate.output]
        toggles = int(np.count_nonzero(wave[1:] != wave[:-1]))
        rate = toggles / (vectors - 1)
        dynamic_fj_per_cycle += gate.cell.energy * rate
        leakage_nw += gate.cell.leakage
        toggle_sum += rate
    gate_count = max(netlist.gate_count, 1)
    # fJ/cycle * cycles/s = fW -> uW needs 1e-9
    dynamic_uw = dynamic_fj_per_cycle * clock_hz * 1e-9
    return ActivityReport(
        dynamic_uw=dynamic_uw,
        leakage_uw=leakage_nw * 1e-3,
        mean_toggle_rate=toggle_sum / gate_count,
        vectors=vectors,
    )
