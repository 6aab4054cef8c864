"""Structural IntALP [11] for the Table I levels L=1 and L=2.

The datapath shares cALM's log front end, then evaluates the linear-plane
approximation of the fraction product in fixed point:

* a 15-bit comparator (subtractor) orders ``x`` and ``y``;
* **L=1**: ``plane = min(x, y)`` — the comparator plus a bus mux;
* **L=2**: the fraction-sum carry (``x + y >= 1``) selects between
  ``min/2`` and ``max/2 + min - 1/2``; the halvings move the arithmetic
  onto the ``2**-16`` grid, kept exact end to end (the planes agree on the
  region boundary, so the carry-based selection is seamless).

The selection comparators, the extra adders and the wider (16-bit-grid)
output shifter are ApproxLP's "complex selection logic"; they are what
makes IntALP-L2's area reduction the worst in Table I, and the structural
model reproduces that ordering.
"""

from __future__ import annotations

from ..logic.netlist import CONST0, CONST1, Netlist
from .adders import incrementer, ripple_adder, ripple_subtractor
from .logdatapath import gate_output, log_front_end
from .shifter import _mux_bus, scaling_shifter

__all__ = ["intalp_netlist"]

Net = int
Bus = list[Net]


def _sext(bus: Bus, width: int) -> Bus:
    """Sign-extend a two's complement bus."""
    return list(bus) + [bus[-1]] * (width - len(bus))


def intalp_netlist(bitwidth: int = 16, level: int = 2) -> Netlist:
    """IntALP datapath; bit-exact vs. the functional model for L in {1,2}."""
    if level not in (1, 2):
        raise ValueError(
            f"structural IntALP implements the paper's L=1 and L=2, got {level}"
        )
    n = bitwidth
    width = n - 1
    nl = Netlist(f"intalp{n}-l{level}")
    a = nl.input_bus("a", n)
    b = nl.input_bus("b", n)
    op_a = log_front_end(nl, a)
    op_b = log_front_end(nl, b)
    xa, xb = op_a.fraction, op_b.fraction

    _, a_ge_b = ripple_subtractor(nl, xa, xb)
    minimum = _mux_bus(nl, xa, xb, a_ge_b)
    maximum = _mux_bus(nl, xb, xa, a_ge_b)

    fraction_sum, carry = ripple_adder(nl, xa, xb)  # width bits + carry

    if level == 1:
        # mantissa = 2**w * (1 + x + y + min); all on the 2**-w grid
        total, carry2 = ripple_adder(nl, fraction_sum + [carry], minimum)
        high = incrementer(nl, [total[width], carry2], CONST1)
        mantissa = total[:width] + high  # width + 3 bits
        grid = width
    else:
        # move onto the 2**-(w+1) grid so the halvings stay exact:
        # plane0 = min/2           -> min as-is on the finer grid
        # plane1 = max/2 + min - 1/2
        plane0 = minimum + [CONST0, CONST0]  # 17 bits, non-negative
        shifted_min = [CONST0] + minimum  # min on the finer grid = 2*min/2
        half_sum, half_carry = ripple_adder(nl, maximum, shifted_min)
        # subtract 1/2 = 2**width units on the finer grid: two's complement
        # add of -2**width over 17 bits, i.e. the constant with bits
        # width and width+1 set
        minus_half = [CONST0] * width + [CONST1, CONST1]
        plane1_base = half_sum + [half_carry]
        plane1, _ = ripple_adder(nl, plane1_base, minus_half)
        plane = _mux_bus(nl, plane0, plane1, carry)

        # mantissa = 2**(w+1) * (1 + x + y + plane); x+y is unsigned
        # (zero-extended), the plane is two's complement (sign-extended)
        xy = [CONST0] + fraction_sum + [carry] + [CONST0, CONST0]
        total, _ = ripple_adder(nl, xy, _sext(plane, 19))
        high = incrementer(nl, total[width + 1 : 19], CONST1)
        mantissa = total[: width + 1] + high[:3]
        grid = width + 1

    exponent, exp_carry = ripple_adder(nl, op_a.characteristic, op_b.characteristic)
    product = scaling_shifter(
        nl, mantissa, exponent + [exp_carry], grid, 2 * bitwidth
    )
    nl.set_outputs(gate_output(nl, product, op_a.nonzero, op_b.nonzero))
    nl.prune()
    return nl
