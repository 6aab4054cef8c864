"""Simulation-based switching-activity and power estimation.

The paper annotates the synthesized multipliers with a 25% input toggle
rate and 50% signal probability and reports the resulting combinational
power at 1 GHz.  This module reproduces that methodology: a Markov input
stream with exactly those statistics is simulated through the netlist
on the bit-parallel :class:`~repro.kernels.netlist.NetlistKernel`,
every net's toggles are counted on its packed waveform, and dynamic
power is the activity-weighted sum of cell switching energies (plus a
small leakage term).  Simulation-based estimation keeps signal
correlations that probabilistic propagation loses — important for the
barrel-shifter-heavy log multipliers, where net activities are strongly
correlated through the shift controls.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..kernels.netlist import compile_netlist
from .netlist import Netlist

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
    # every net's toggle rate, indexed by net handle
    toggle_rates: np.ndarray = dataclasses.field(repr=False, compare=False)

    @property
    def total_uw(self) -> float:
        return self.dynamic_uw + self.leakage_uw


def _ordered_sum(terms: np.ndarray) -> float:
    """Left-to-right float sum, as a loop adds (``np.sum`` pairs terms)."""
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


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
    A toggle count is the popcount of a net's kernel waveform XOR the
    same waveform shifted by one vector; gate terms add in gate order.
    """
    if vectors < 2:
        raise ValueError(f"need at least 2 vectors, got {vectors}")
    rng = np.random.default_rng(seed)
    streams = [
        markov_stream(vectors, toggle_rate, probability, rng) for _ in netlist.inputs
    ]
    waves = compile_netlist(netlist).waveforms(
        np.reshape(streams, (len(streams), vectors))
    )
    previous = waves << np.uint64(1)
    previous[:, 1:] |= waves[:, :-1] >> np.uint64(63)
    # vector 0 has no predecessor; bits past the last vector are padding
    valid = np.zeros(waves.shape[1] * 64, dtype=bool)
    valid[1:vectors] = True
    mask = np.packbits(valid, bitorder="little").view(np.uint64)
    rates = np.bitwise_count((waves ^ previous) & mask).sum(axis=1) / (vectors - 1)

    gates = netlist.gates
    gate_rates = rates[np.array([gate.output for gate in gates], dtype=np.intp)]
    energy = np.array([gate.cell.energy for gate in gates], dtype=float)
    leakage = np.array([gate.cell.leakage for gate in gates], dtype=float)
    gate_count = max(netlist.gate_count, 1)
    # fJ/cycle * cycles/s = fW -> uW needs 1e-9
    return ActivityReport(
        dynamic_uw=_ordered_sum(energy * gate_rates) * clock_hz * 1e-9,
        leakage_uw=_ordered_sum(leakage) * 1e-3,
        mean_toggle_rate=_ordered_sum(gate_rates) / gate_count,
        vectors=vectors,
        toggle_rates=rates,
    )
