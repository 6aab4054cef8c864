"""Shared datapath pieces of the log-based multiplier family (Fig. 3).

Every log multiplier in the paper — cALM, the ALM variants, MBM, REALM —
shares a front end (LOD + priority encoder + normalizing barrel shifter
per operand) and a back end (mantissa assembly + output scaling shifter +
zero gating).  These helpers build those pieces so the per-design RTL
modules only express what actually differs: the adder, the correction
path, the truncation.  The formal layer's symbolic encoders
(:mod:`repro.formal.encode`) wire the same blocks, so the gate-level
front end exists once; its word-level twin is the models'
:func:`repro.multipliers.mitchell.log_operands`.
"""

from __future__ import annotations

import dataclasses

from ..logic.netlist import CONST1, Netlist
from .adders import ripple_adder
from .lod import leading_one
from .shifter import normalize_fraction

__all__ = [
    "LogOperand",
    "exponent_sum",
    "gate_output",
    "log_front_end",
    "mantissa_with_lead",
    "truncate_bus",
]

Net = int
Bus = list[Net]


@dataclasses.dataclass
class LogOperand:
    """One operand after the log front end."""

    characteristic: Bus  # binary k, ceil(log2 N) bits
    fraction: Bus  # N-1 bits, LSB first (the x of Eq. 1)
    nonzero: Net
    onehot: Bus


def log_front_end(nl: Netlist, operand: Bus) -> LogOperand:
    """LOD + priority encoder + normalizing shifter for one operand."""
    onehot, k, nonzero = leading_one(nl, operand)
    fraction = normalize_fraction(nl, operand, k)
    return LogOperand(k, fraction, nonzero, onehot)


def truncate_bus(fraction: Bus, t: int) -> Bus:
    """Drop ``t`` LSBs and hardwire the new LSB to 1 (Section III-C).

    Pure wiring — the removed bits simply never get computed downstream,
    which is where the ``t`` knob's area saving comes from.
    """
    if not 0 <= t < len(fraction):
        raise ValueError(f"truncation t={t} out of range for {len(fraction)} bits")
    return [CONST1] + fraction[t + 1 :]


def mantissa_with_lead(nl: Netlist, fraction: Bus, carry: Net) -> Bus:
    """Mantissa bus ``2**w + fraction_value`` with a possible carry.

    ``carry`` is the carry out of the fraction addition; the mantissa is
    the fraction bits with the implied leading one at weight ``2**w``,
    promoted one position when the carry fires:  value
    ``2**w + f + carry * 2**w`` encoded in ``w + 2`` bits as
    ``[fraction, NOT carry, carry]``.
    """
    return list(fraction) + [nl.add("INV", carry), carry]


def exponent_sum(nl: Netlist, ka: Bus, kb: Bus, carry: Net) -> Bus:
    """``ka + kb + carry`` — the output shift amount."""
    base, carry_out = ripple_adder(nl, ka, kb, carry_in=carry)
    return base + [carry_out]


def gate_output(nl: Netlist, product: Bus, nonzero_a: Net, nonzero_b: Net) -> Bus:
    """Zero-input handling: force the product to zero if an operand is 0."""
    both = nl.add("AND2", nonzero_a, nonzero_b)
    return [nl.add("AND2", bit, both) for bit in product]
