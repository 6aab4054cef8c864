"""Reference gate-level simulation.

Evaluates a :class:`~repro.logic.netlist.Netlist` on many stimulus vectors
at once: every net's waveform is a boolean NumPy array over the stimulus
axis, and gates are evaluated once each, in construction (= topological)
order.  It is the reference that the tests pin the package's evaluator,
:class:`~repro.kernels.netlist.NetlistKernel`, against — as
``multiply(compiled=False)`` is for the multiply kernels.
"""

from __future__ import annotations

import numpy as np

from .netlist import CONST0, CONST1, Netlist

__all__ = ["MAX_BUS_WIDTH", "simulate", "evaluate_words", "bus_to_int", "int_to_bus"]


#: widest bus the int64 word conversions can represent exactly: bit 63
#: is the sign bit, so position 62 is the highest usable weight.  This is
#: the true limiting invariant of the whole int64 substrate: an ``N``-bit
#: multiplier model needs up to ``2N + 1`` product bits (REALM's overflow
#: case), so :class:`repro.multipliers.base.Multiplier` caps ``N`` at 31
#: — exactly the widest operand whose product bus (62 bits) and overflow
#: bit (63rd) still fit these word conversions.  Keep the two limits in
#: sync: ``2 * 31 + 1 == MAX_BUS_WIDTH`` (pinned by
#: ``tests/test_logic.py::TestWidthInvariants``).
MAX_BUS_WIDTH = 63


def _check_width(width: int) -> None:
    if width > MAX_BUS_WIDTH:
        raise ValueError(
            f"bus width {width} exceeds {MAX_BUS_WIDTH}; int64 word "
            "conversion would silently overflow — read wider buses "
            "bit-wise (simulate() or NetlistKernel.waveforms) instead"
        )


def _check_values(values: np.ndarray, width: int) -> None:
    """Reject bus values outside ``[0, 2**width)`` (shared with the
    compiled engine in :mod:`repro.kernels.netlist`)."""
    if values.size:
        low = int(values.min())
        high = int(values.max())
        limit = 1 << width
        if low < 0 or high >= limit:
            offender = low if low < 0 else high
            raise ValueError(
                f"bus value {offender} outside [0, 2**{width}) for a "
                f"{width}-bit bus; high bits would be dropped silently"
            )


def int_to_bus(values: np.ndarray, width: int) -> np.ndarray:
    """Integers -> bit matrix of shape ``(len(values), width)``, LSB first.

    ``width`` must be <= :data:`MAX_BUS_WIDTH` (63): beyond that the
    int64 arithmetic cannot represent every bus value and would wrap
    silently, so a :class:`ValueError` is raised instead.  Values are
    validated the same way: every value must lie in ``[0, 2**width)`` —
    out-of-range operands used to truncate their high bits silently and
    negative operands wrapped to two's-complement bit patterns, both of
    which turned caller bugs into wrong-but-plausible waveforms.
    """
    _check_width(width)
    values = np.asarray(values, dtype=np.int64)
    _check_values(values, width)
    bits = (values[:, None] >> np.arange(width)) & 1
    return bits.astype(bool)


def bus_to_int(bits: np.ndarray) -> np.ndarray:
    """Bit matrix (LSB first) -> int64 values.

    The bus must be at most :data:`MAX_BUS_WIDTH` (63) bits wide —
    weight ``2**63`` does not fit an int64, and the old behaviour was a
    silent wrap into negative values.
    """
    bits = np.asarray(bits, dtype=np.int64)
    _check_width(bits.shape[1])
    return (bits << np.arange(bits.shape[1], dtype=np.int64)).sum(axis=1)


def simulate(netlist: Netlist, stimulus: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """Evaluate the netlist; returns the waveform of every net.

    ``stimulus`` maps each primary-input net handle to a boolean array;
    all arrays must share one shape.  The result maps every net handle
    (inputs, internal, constants) to its waveform.
    """
    missing = [net for net in netlist.inputs if net not in stimulus]
    if missing:
        names = ", ".join(netlist.net_names[n] for n in missing)
        raise ValueError(f"stimulus missing for inputs: {names}")
    shapes = {np.asarray(v).shape for v in stimulus.values()}
    if len(shapes) > 1:
        raise ValueError(f"stimulus arrays disagree on shape: {shapes}")
    shape = shapes.pop() if shapes else (1,)

    values: dict[int, np.ndarray] = {
        CONST0: np.zeros(shape, dtype=bool),
        CONST1: np.ones(shape, dtype=bool),
    }
    for net in netlist.inputs:
        values[net] = np.asarray(stimulus[net], dtype=bool)
    for gate in netlist.gates:
        values[gate.output] = gate.cell.evaluate(*(values[i] for i in gate.inputs))
    return values


def evaluate_words(
    netlist: Netlist, operand_buses: list[list[int]], operand_values: list[np.ndarray]
) -> np.ndarray:
    """Drive integer operands on input buses and read the output bus back.

    Convenience wrapper for equivalence checks: ``operand_buses`` are the
    netlist's input buses (LSB first), ``operand_values`` the integer
    vectors to apply.  Returns the output bus as integers.
    """
    if len(operand_buses) != len(operand_values):
        raise ValueError("one value vector per operand bus required")
    stimulus: dict[int, np.ndarray] = {}
    for bus, values in zip(operand_buses, operand_values):
        bits = int_to_bus(np.asarray(values), len(bus))
        for position, net in enumerate(bus):
            stimulus[net] = bits[:, position]
    waves = simulate(netlist, stimulus)
    out_bits = np.stack([waves[net] for net in netlist.outputs], axis=1)
    return bus_to_int(out_bits)
