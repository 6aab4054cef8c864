"""Structural cALM (Mitchell) multiplier and the ALM approximate-adder
variants — the log-multiplier baselines of Table I.

Both share the Fig. 3 front/back end; they differ only in the adder that
sums the two concatenated ``{k, fraction}`` log values: exact ripple for
cALM, LOA/SOA/MAA on the ``m`` low bits for the ALM designs.
"""

from __future__ import annotations

from ..logic.netlist import Netlist
from .adders import ALM_ADDERS, ripple_adder
from .logdatapath import gate_output, log_front_end
from .shifter import scaling_shifter

__all__ = ["mitchell_netlist", "alm_netlist"]


def _log_sum_datapath(nl: Netlist, bitwidth: int, add_logs) -> None:
    """Common structure: front ends, log add, antilog, zero gating.

    ``add_logs(nl, la, lb) -> (sum_bus, carry)`` sums the two
    ``(N-1) + ceil(log2 N)``-bit log values.
    """
    width = bitwidth - 1
    a = nl.input_bus("a", bitwidth)
    b = nl.input_bus("b", bitwidth)
    op_a = log_front_end(nl, a)
    op_b = log_front_end(nl, b)

    log_a = op_a.fraction + op_a.characteristic
    log_b = op_b.fraction + op_b.characteristic
    log_sum, carry = add_logs(nl, log_a, log_b)

    fraction = log_sum[:width]
    exponent = log_sum[width:] + [carry]
    from ..logic.netlist import CONST1

    mantissa = fraction + [CONST1]
    product = scaling_shifter(nl, mantissa, exponent, width, 2 * bitwidth)
    nl.set_outputs(gate_output(nl, product, op_a.nonzero, op_b.nonzero))


def mitchell_netlist(bitwidth: int = 16) -> Netlist:
    """Structural cALM: LODs, normalizing shifters, exact log add, antilog."""
    nl = Netlist(f"calm{bitwidth}")
    _log_sum_datapath(nl, bitwidth, lambda n, la, lb: ripple_adder(n, la, lb))
    return nl


def alm_netlist(bitwidth: int = 16, m: int = 6, adder: str = "SOA") -> Netlist:
    """Structural ALM-LOA/MAA/SOA [9]: cALM with an approximate log adder."""
    if adder not in ALM_ADDERS:
        raise ValueError(
            f"adder must be one of {sorted(ALM_ADDERS)}, got {adder!r}"
        )
    approx = ALM_ADDERS[adder]
    nl = Netlist(f"alm-{adder.lower()}{bitwidth}-m{m}")
    _log_sum_datapath(nl, bitwidth, lambda n, la, lb: approx(n, la, lb, m))
    return nl
