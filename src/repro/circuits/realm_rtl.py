"""Structural REALM (the paper's Fig. 3) and MBM datapaths.

The REALM netlist instantiates, exactly as the block diagram shows:

* two LOD + priority-encoder + normalizing-barrel-shifter front ends;
* the ``t``-bit fraction truncation with the hardwired rounding 1
  (pure rewiring — the dropped bits never exist downstream, which is
  where the ``t`` knob's area reduction comes from);
* the fraction adder producing the carry ``c_of``;
* the ``M^2 x 1`` hardwired-constant LUT mux addressed by the fraction
  MSBs, and the ``2x1`` mux selecting ``s_ij`` or ``s_ij >> 1`` by
  ``c_of`` (realized here as a mux between the two alignments of the LUT
  output on the fraction grid);
* the correction adder, exponent adder and output scaling shifter.

The output is ``2N + 1`` bits wide: the paper's first special case (the
corrected product of near-maximal operands overflows ``2N`` bits) is
handled by that extra bit.  MBM [4] is the same datapath with a single
hardwired correction constant instead of the LUT: the 1x1 LUT its model
holds.

:func:`corrected_log_netlist` builds either from its model's own ``t``,
``q`` and ``lut_codes``, so an MSE-objective REALM gets its own LUT.
Both are bit-exact against their functional models
(:class:`repro.core.realm.RealmMultiplier`,
:class:`repro.multipliers.mbm.MbmMultiplier`) — enforced by the tests.
"""

from __future__ import annotations

from ..logic.netlist import CONST0, Netlist
from .adders import ripple_adder
from .logdatapath import gate_output, log_front_end, truncate_bus
from .mux import constant_lut
from .shifter import scaling_shifter

__all__ = ["corrected_log_netlist", "realm_netlist"]

Net = int
Bus = list[Net]


def _aligned_code(nl: Netlist, code: Bus, width: int, q: int, shift: int) -> Bus:
    """LUT code placed on the ``2**-width`` fraction grid.

    The code's LSB has weight ``2**-q``; ``shift=-1`` realizes ``s >> 1``.
    Bits falling below the grid are dropped (floored), exactly like the
    adder wiring of the real datapath.
    """
    bus = [CONST0] * width
    for b, net in enumerate(code):
        position = width - q + b + shift
        if 0 <= position < width:
            bus[position] = net
    return bus


def corrected_log_netlist(model, name: str) -> Netlist:
    """The Fig. 3 datapath of a REALM or MBM model, with its LUT hardwired.

    The output carries the ``2N + 1``-bit corrected product; a model
    that saturates to ``2N`` bits instead has no netlist here.
    """
    if model.overflow != "extend":
        raise ValueError(
            f"structural REALM keeps the 2N+1-bit product; {model.name!r} "
            f"uses overflow={model.overflow!r}"
        )
    bitwidth, t, q, codes = model.bitwidth, model.t, model.q, model.lut_codes
    width = bitwidth - 1 - t
    logm = codes.shape[0].bit_length() - 1
    nl = Netlist(name)
    a = nl.input_bus("a", bitwidth)
    b = nl.input_bus("b", bitwidth)
    op_a = log_front_end(nl, a)
    op_b = log_front_end(nl, b)

    # the fraction MSBs select code i * M + j, row-major like the LUT; with
    # M = 1 (MBM) there are no select lines and the code is a constant
    msbs = bitwidth - 1 - logm
    select = op_b.fraction[msbs:] + op_a.fraction[msbs:]
    code = constant_lut(nl, [int(c) for c in codes.ravel()], q - 2, select)

    xa_t = truncate_bus(op_a.fraction, t)
    xb_t = truncate_bus(op_b.fraction, t)
    fraction_sum, c_of = ripple_adder(nl, xa_t, xb_t)

    s_full = _aligned_code(nl, code, width, q, 0)
    s_half = _aligned_code(nl, code, width, q, -1)
    s_sel = [nl.add("MUX2", f, h, c_of) for f, h in zip(s_full, s_half)]

    corrected, carry2 = ripple_adder(nl, fraction_sum, s_sel)
    mantissa = corrected + [nl.add("INV", carry2), carry2]

    exponent_base, exp_carry = ripple_adder(
        nl, op_a.characteristic, op_b.characteristic, carry_in=c_of
    )
    exponent = exponent_base + [exp_carry]

    product = scaling_shifter(nl, mantissa, exponent, width, 2 * bitwidth + 1)
    nl.set_outputs(gate_output(nl, product, op_a.nonzero, op_b.nonzero))
    nl.prune()
    return nl


def realm_netlist(
    bitwidth: int = 16, m: int = 16, t: int = 0, q: int = 6
) -> Netlist:
    """Full REALM hardware (Fig. 3) of ``RealmMultiplier(bitwidth, m, t,
    q)``, LUT codes computed like the paper's offline MATLAB step."""
    from ..core.realm import RealmMultiplier

    model = RealmMultiplier(bitwidth, m=m, t=t, q=q)
    return corrected_log_netlist(model, model.name)
