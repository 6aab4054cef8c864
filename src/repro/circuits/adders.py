"""Structural adders: exact ripple/carry-save plus the approximate adders
of the ALM designs.

All functions take the netlist builder and LSB-first buses of net handles
and return buses.  Widths may differ; shorter operands are zero-extended,
exactly as a synthesis tool would tie unused bits.
"""

from __future__ import annotations

from ..logic.netlist import CONST0, Netlist

__all__ = [
    "half_adder",
    "full_adder",
    "ripple_adder",
    "ripple_subtractor",
    "incrementer",
    "loa_adder",
    "soa_adder",
    "maa_adder",
    "ALM_ADDERS",
    "equal_const",
]

Net = int
Bus = list[Net]


def half_adder(nl: Netlist, a: Net, b: Net) -> tuple[Net, Net]:
    """Returns ``(sum, carry)``."""
    return nl.add("XOR2", a, b), nl.add("AND2", a, b)


def full_adder(nl: Netlist, a: Net, b: Net, c: Net) -> tuple[Net, Net]:
    """Returns ``(sum, carry)`` using the XOR3/MAJ3 cell pair."""
    return nl.add("XOR3", a, b, c), nl.add("MAJ3", a, b, c)


def _extend(bus: Bus, width: int) -> Bus:
    return bus + [CONST0] * (width - len(bus))


def ripple_adder(
    nl: Netlist, a: Bus, b: Bus, carry_in: Net = CONST0
) -> tuple[Bus, Net]:
    """Exact ripple-carry addition; returns ``(sum, carry_out)``.

    The sum bus is as wide as the wider operand; the carry out is the
    extra MSB.
    """
    width = max(len(a), len(b))
    a = _extend(a, width)
    b = _extend(b, width)
    total: Bus = []
    carry = carry_in
    for bit_a, bit_b in zip(a, b):
        s, carry = full_adder(nl, bit_a, bit_b, carry)
        total.append(s)
    return total, carry


def ripple_subtractor(nl: Netlist, a: Bus, b: Bus) -> tuple[Bus, Net]:
    """``a - b`` in two's complement; returns ``(difference, not_borrow)``.

    The second value is the carry out, which is 1 exactly when
    ``a >= b`` — the comparator output the datapaths use.
    """
    width = max(len(a), len(b))
    b_inverted = [nl.add("INV", bit) for bit in _extend(b, width)]
    from ..logic.netlist import CONST1

    return ripple_adder(nl, _extend(a, width), b_inverted, carry_in=CONST1)


def incrementer(nl: Netlist, a: Bus, enable: Net) -> Bus:
    """``a + enable``; result one bit wider than ``a``."""
    out: Bus = []
    carry = enable
    for bit in a:
        s, carry = half_adder(nl, bit, carry)
        out.append(s)
    out.append(carry)
    return out


def equal_const(nl: Netlist, bus: Bus, value: int) -> Net:
    """Single net that is 1 when ``bus`` equals the constant ``value``."""
    if value < 0 or value >= (1 << len(bus)):
        raise ValueError(f"constant {value} does not fit in {len(bus)} bits")
    terms = [
        bit if (value >> i) & 1 else nl.add("INV", bit)
        for i, bit in enumerate(bus)
    ]
    result = terms[0]
    for term in terms[1:]:
        result = nl.add("AND2", result, term)
    return result


# ----------------------------------------------------------------------
# approximate adders of the ALM designs (Liu et al. [9])
# ----------------------------------------------------------------------


def loa_adder(nl: Netlist, a: Bus, b: Bus, m: int) -> tuple[Bus, Net]:
    """Lower-part OR adder: low ``m`` bits ORed, AND carry into the rest."""
    width = max(len(a), len(b))
    a = _extend(a, width)
    b = _extend(b, width)
    if not 1 <= m <= width:
        raise ValueError(f"approximate width m={m} out of range for {width} bits")
    low = [nl.add("OR2", a[i], b[i]) for i in range(m)]
    carry = nl.add("AND2", a[m - 1], b[m - 1])
    high, carry_out = ripple_adder(nl, a[m:], b[m:], carry_in=carry)
    return low + high, carry_out


def soa_adder(nl: Netlist, a: Bus, b: Bus, m: int) -> tuple[Bus, Net]:
    """Set-one adder: low ``m`` bits constant 1, AND carry into the rest.

    The low-part logic vanishes entirely (the constants are free), which
    is why ALM-SOA posts the largest area reductions in Table I.
    """
    from ..logic.netlist import CONST1

    width = max(len(a), len(b))
    a = _extend(a, width)
    b = _extend(b, width)
    if not 1 <= m <= width:
        raise ValueError(f"approximate width m={m} out of range for {width} bits")
    low = [CONST1] * m
    carry = nl.add("AND2", a[m - 1], b[m - 1])
    high, carry_out = ripple_adder(nl, a[m:], b[m:], carry_in=carry)
    return low + high, carry_out


def maa_adder(nl: Netlist, a: Bus, b: Bus, m: int) -> tuple[Bus, Net]:
    """Mirror-adder approximation: low bits pass one operand through.

    The low ``m`` sum bits are ``a``'s bits (wires, no logic) and the
    carry into the exact part is ``b``'s bit ``m-1``.
    """
    width = max(len(a), len(b))
    a = _extend(a, width)
    b = _extend(b, width)
    if not 1 <= m <= width:
        raise ValueError(f"approximate width m={m} out of range for {width} bits")
    low = a[:m]
    high, carry_out = ripple_adder(nl, a[m:], b[m:], carry_in=b[m - 1])
    return low + high, carry_out


#: the ALM designs' approximate log adders, by the name the models use
ALM_ADDERS = {"LOA": loa_adder, "SOA": soa_adder, "MAA": maa_adder}
