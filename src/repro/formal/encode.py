"""Lower netlists and functional models into gate-level formulas.

Every formula of the formal layer is a pruned
:class:`~repro.logic.netlist.Netlist` — the IR the RTL generators emit —
whose inputs are ``a[0..N-1]`` and ``b[0..N-1]`` and whose outputs are
the product bus, both LSB first.  Two independent lowerings produce
:class:`Encoding` objects over it:

* :func:`encode_netlist` wraps a registered gate-level netlist
  (:mod:`repro.circuits`) as it is.
* :func:`encode_model` re-derives the functional model *symbolically*
  from the :mod:`repro.circuits` blocks: the same decomposition the
  kernel specializers in :mod:`repro.kernels.tables` fold into lookup
  tables (LOD characteristic, barrel-shifted log fraction, truncated
  fraction, segment index, hardwired correction LUT) is wired the way
  the NumPy datapath computes it, so the formula mirrors the model's
  arithmetic — not the RTL — and an equivalence proof between the two
  is meaningful.

:data:`ENCODERS` holds one encoder per family class, looked up by
:func:`~repro.multipliers.base.datapath_family`.  Families whose models
are irregular array multipliers (AM1/AM2, IntALP, ImpLM) have no
symbolic encoder, and neither has a subclass that overrides its
family's datapath; at ``N <= FULL_TABLE_MAX_BITWIDTH`` such models
are encoded as their exhaustive product table (:func:`encode_table`)
— the table *is* the specification at those widths, the same way
``compile_full_table`` treats it as the kernel.  So is the compiled
kernel (:func:`encode_kernel`), a NumPy closure rather than a circuit;
at 16-bit the kernel leg is cross-validated by sampling instead (see
:mod:`repro.formal.equiv`).

Formulas run on :class:`~repro.kernels.netlist.NetlistKernel`, like
RTL netlists.  At ``N <= 8`` every encoding is backed by its product
table ``table[(a << N) | b]`` and concrete evaluation is a gather:
symbolic and netlist encodings sweep their netlist over every pair once,
and a truth-table encoding builds its netlist only when the BDD or z3
backend reads ``netlist``.
"""

from __future__ import annotations

import functools

from collections.abc import Callable

import numpy as np

from ..analysis import telemetry
from ..analysis.cache import cache_key
from ..circuits.adders import ALM_ADDERS, ripple_adder, ripple_subtractor
from ..circuits.lod import leading_one, or_tree
from ..circuits.logdatapath import (
    exponent_sum,
    gate_output,
    log_front_end,
    truncate_bus,
)
from ..circuits.mux import constant_lut
from ..circuits.shifter import _mux_bus, scaling_shifter
from ..circuits.wallace import wallace_multiplier
from ..core.bitops import shift_value
from ..core.realm import RealmMultiplier
from ..kernels import kernel_for
from ..kernels.netlist import NetlistKernel, compile_netlist
from ..kernels.tables import FULL_TABLE_MAX_BITWIDTH, build_full_table
from ..logic.netlist import CONST0, CONST1, Netlist
from ..logic.sim import _check_values
from ..multipliers import (
    AccurateMultiplier,
    ApproxAdderLogMultiplier,
    DrumMultiplier,
    EssmMultiplier,
    MbmMultiplier,
    MitchellMultiplier,
    SsmMultiplier,
)
from ..multipliers.base import datapath_family
from ..multipliers.dnnco import DnnCoMultiplier
from ..multipliers.registry import fingerprint
from ..multipliers.scaletrim import ScaleTrimMultiplier

__all__ = [
    "ENCODERS",
    "Encoding",
    "UnsupportedDesignError",
    "encode_kernel",
    "encode_model",
    "encode_netlist",
    "encode_table",
    "model_encoding",
]

class UnsupportedDesignError(ValueError):
    """No formal encoding exists for this design at this bitwidth."""


class Encoding:
    """A design lowered to a gate-level formula over the operand bits.

    ``netlist.outputs`` is the product bus (LSB first, unsigned); widths
    differ per source (REALM's extend mode emits ``2N + 1`` bits, most
    others ``2N``) — consumers compare integer values, not bit patterns.
    Built from a pruned ``netlist``, or at ``N <= 8`` from the product
    ``table`` alone, whose netlist is then derived on first read.
    """

    def __init__(
        self, design: str, bitwidth: int, source: str, method: str,
        netlist: Netlist | None = None,
        table: np.ndarray | None = None,
    ):
        self.design = design
        self.bitwidth = bitwidth
        self.source = source  # "model" | "rtl" | "kernel"
        self.method = method  # "symbolic" | "netlist" | "truth-table"
        self._netlist = netlist
        self._table = table

    @functools.cached_property
    def netlist(self) -> Netlist:
        """The formula; a truth-table encoding builds it on first read."""
        if self._netlist is not None:
            return self._netlist
        return _table_dag(self._table, self.bitwidth)

    @functools.cached_property
    def _kernel(self) -> NetlistKernel:
        return compile_netlist(self.netlist)

    def _evaluate(self, a_values: np.ndarray, b_values: np.ndarray) -> np.ndarray:
        inputs, n = self.netlist.inputs, self.bitwidth
        return self._kernel.evaluate_words(
            [inputs[:n], inputs[n:]], [a_values, b_values]
        )

    @functools.cached_property
    def table(self) -> np.ndarray:
        """The product table ``table[(a << N) | b]`` (``N <= 8`` only); a
        netlist-backed encoding sweeps its netlist over every pair, once."""
        if self._table is not None:
            return self._table
        return self._evaluate(*_pair_grid(self.bitwidth))

    def eval_pairs(self, a_values, b_values) -> np.ndarray:
        """Evaluate the formula on operand vectors; int64 products.

        Operands outside ``[0, 2**N)`` raise ``ValueError``, as in the
        netlist kernel's lane packing; at ``N <= 8`` this is a gather
        from :attr:`table`.
        """
        a_values = np.ravel(np.asarray(a_values, dtype=np.int64))
        b_values = np.ravel(np.asarray(b_values, dtype=np.int64))
        n = self.bitwidth
        if n > FULL_TABLE_MAX_BITWIDTH:
            return self._evaluate(a_values, b_values)
        sizes = {a_values.size, b_values.size}
        if len(sizes) != 1:  # the same check and message as the kernel
            raise ValueError(f"operand vectors disagree on length: {sizes}")
        _check_values(a_values, n)
        _check_values(b_values, n)
        return self.table[(a_values << n) | b_values]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Encoding {self.design!r} {self.source}/{self.method} "
            f"N={self.bitwidth}>"
        )


def _check_tabulable(bitwidth: int) -> None:
    if bitwidth > FULL_TABLE_MAX_BITWIDTH:
        raise UnsupportedDesignError(
            f"product tables need N <= {FULL_TABLE_MAX_BITWIDTH}, got {bitwidth}"
        )


def _pair_grid(bitwidth: int) -> tuple[np.ndarray, np.ndarray]:
    """Every operand pair, row-major in ``a``: index ``(a << N) | b``."""
    _check_tabulable(bitwidth)
    space = np.arange(np.int64(1) << bitwidth, dtype=np.int64)
    return np.repeat(space, space.size), np.tile(space, space.size)


def encode_netlist(netlist: Netlist, bitwidth: int, design: str = "?") -> Encoding:
    """Wrap a combinational netlist as a formula.

    The netlist input convention of :mod:`repro.circuits` is assumed:
    ``inputs[:bitwidth]`` is operand ``a`` (LSB first), the rest is ``b``.
    """
    if len(netlist.inputs) != 2 * bitwidth:
        raise ValueError(
            f"netlist {netlist.name!r} has {len(netlist.inputs)} inputs; "
            f"expected {2 * bitwidth} for two {bitwidth}-bit operands"
        )
    tele = telemetry.get()
    with tele.span(
        "formal.encode", design=design, source="rtl", bitwidth=bitwidth
    ):
        return Encoding(design, bitwidth, "rtl", "netlist", netlist=netlist)


# ----------------------------------------------------------------------
# symbolic model encoders: circuits blocks wired like the NumPy models
# ----------------------------------------------------------------------

def _encode_log_corrected(nl: Netlist, a: list, b: list, model) -> list:
    """REALM/MBM: truncated log add + segment-selected correction.

    ``model.lut_codes`` is the ``(M, M)`` quantized LUT (``M = 1`` for
    MBM).  The two carry variants of the correction — ``2**width +
    s_full`` for ``c_of = 0``, ``s_half`` for ``c_of = 1`` — are folded
    into one hardwired constant table indexed by ``(carry, seg_a,
    seg_b)``, so the mantissa is a single adder ``fraction_sum + K`` and
    the Fig. 3 carry mux becomes one more select line of the LUT.
    """
    t, q, codes = model.t, model.q, model.lut_codes
    n = len(a)
    m = codes.shape[0]
    logm = m.bit_length() - 1
    raw_width = n - 1
    width = raw_width - t
    op_a, op_b = log_front_end(nl, a), log_front_end(nl, b)
    seg_a = op_a.fraction[raw_width - logm :]
    seg_b = op_b.fraction[raw_width - logm :]

    fsum, carry = ripple_adder(
        nl, truncate_bus(op_a.fraction, t), truncate_bus(op_b.fraction, t)
    )
    # mantissa < 2**(width+2) in both carry branches (factors < 0.25);
    # the select value carry | seg_a << 1 | seg_b << (1 + logm) reads
    # table[seg_b, seg_a, carry]
    full = shift_value(codes, width - q) + (1 << width)
    table = np.stack([full, shift_value(codes, width - q - 1)], axis=-1)
    table = table.transpose(1, 0, 2)
    correction = constant_lut(
        nl, table.ravel().tolist(), width + 2, [carry] + seg_a + seg_b
    )
    mantissa, _ = ripple_adder(nl, fsum + [carry], correction)

    shift = exponent_sum(nl, op_a.characteristic, op_b.characteristic, carry)
    product = scaling_shifter(nl, mantissa, shift, width, 2 * n + 1)
    product = gate_output(nl, product, op_a.nonzero, op_b.nonzero)
    if model.overflow == "saturate":
        product = _mux_bus(nl, product[: 2 * n], [CONST1] * (2 * n), product[2 * n])
    return product


def _encode_log_add(nl: Netlist, a: list, b: list, adder: str | None, m: int) -> list:
    """cALM and the ALM variants: log add (exact or approximate) + antilog.

    ``adder`` is ``None`` for the exact adder (cALM) or one of
    ``"LOA"``/``"SOA"``/``"MAA"`` applied to the low ``m`` log-sum bits
    (``m <= N - 1``, so the approximate part never touches the
    characteristic field).
    """
    n = len(a)
    width = n - 1
    op_a, op_b = log_front_end(nl, a), log_front_end(nl, b)
    log_a = op_a.fraction + op_a.characteristic  # (k << width) | x, LSB first
    log_b = op_b.fraction + op_b.characteristic
    if adder is None:
        total, carry = ripple_adder(nl, log_a, log_b)
    else:
        total, carry = ALM_ADDERS[adder](nl, log_a, log_b, m)
    log_sum = total + [carry]
    mantissa = log_sum[:width] + [CONST1]  # 1.fraction
    product = scaling_shifter(nl, mantissa, log_sum[width:], width, 2 * n)
    return gate_output(nl, product, op_a.nonzero, op_b.nonzero)


def _encode_drum(nl: Netlist, a: list, b: list, model) -> list:
    """DRUM: leading-one fragment with forced LSB, then exact multiply.

    For leading-one position ``i`` the fragment shift is
    ``s_i = max(i - (k - 1), 0)``; the approximated operand is
    ``(v & ~mask(s_i)) | 2**s_i`` when ``s_i > 0`` and ``v`` itself
    otherwise, expressed per bit through the one-hot LOD.
    """

    k = model.k

    def approximate(bus: list) -> list:
        n = len(bus)
        hot, _, _ = leading_one(nl, bus)
        shifts = [max(i - (k - 1), 0) for i in range(n)]
        out = []
        for w in range(n):
            keep = or_tree(
                nl, [hot[i] for i in range(n) if shifts[i] == 0 or w > shifts[i]]
            )
            force = or_tree(
                nl, [hot[i] for i in range(n) if shifts[i] > 0 and w == shifts[i]]
            )
            out.append(nl.add("OR2", nl.add("AND2", bus[w], keep), force))
        return out

    return wallace_multiplier(nl, approximate(a), approximate(b))


def _encode_segment(
    nl: Netlist, a: list, b: list, offsets_above: list[tuple[int, int]]
) -> list:
    """SSM/ESSM: static segment truncation, then exact multiply.

    ``offsets_above`` lists ``(threshold_bit, shift)`` pairs, highest
    first: the operand's low ``shift`` bits are cleared when any bit at
    or above ``threshold_bit`` is set (the highest matching rule wins;
    no match keeps the operand exact).
    """

    def approximate(bus: list) -> list:
        triggers = [or_tree(nl, bus[threshold:]) for threshold, _ in offsets_above]
        out = []
        for w in range(len(bus)):
            # the first (highest) rule with shift > w decides bit w's fate
            cleared, not_higher = CONST0, CONST1
            for trigger, (_, shift) in zip(triggers, offsets_above):
                if shift > w:
                    cleared = nl.add(
                        "OR2", cleared, nl.add("AND2", trigger, not_higher)
                    )
                not_higher = nl.add("ANDN2", not_higher, trigger)
            out.append(nl.add("ANDN2", bus[w], cleared))
        return out

    return wallace_multiplier(nl, approximate(a), approximate(b))


def _encode_essm(nl: Netlist, a: list, b: list, model) -> list:
    """ESSM: the high, middle or low segment by the leading one."""
    high = model.bitwidth - model.m
    mid = high // 2
    return _encode_segment(nl, a, b, [(model.m + mid, high), (model.m, mid)])


def _encode_scaletrim(nl: Netlist, a: list, b: list, model) -> list:
    """scaleTRIM: scaled-fraction linearized product + compensation LUT.

    Mirrors the NumPy model: the scaled fraction is the top ``t`` bits
    of the left-aligned log fraction, the fraction-sum carry gates the
    linearization overflow term, and the compensation constants sit
    behind a ``2c``-bit hardwired select — the same mantissa
    ``2^2t + (S << t) + carry * (S mod 2^t) * 2^t + LB`` on the
    ``2^-2t`` grid, scaled out by a ``ka + kb`` barrel shift.
    """
    n, t, c = len(a), model.t, model.c
    op_a, op_b = log_front_end(nl, a), log_front_end(nl, b)
    xs_a = op_a.fraction[n - 1 - t :]
    xs_b = op_b.fraction[n - 1 - t :]

    total, carry = ripple_adder(nl, xs_a, xs_b)  # S = xs_a + xs_b
    overflow = [nl.add("AND2", bit, carry) for bit in total]
    head, head_carry = ripple_adder(nl, total + [carry], overflow)
    # S + max(0, S - 2^t) + 2^t, t + 2 bits
    head, _ = ripple_adder(nl, head + [head_carry], [CONST0] * t + [CONST1])

    mantissa = [CONST0] * t + head
    lut = [int(v) for v in model.lut]
    lb_width = max(lut).bit_length()
    if lb_width:
        select = xs_b[t - c :] + xs_a[t - c :]
        comp = constant_lut(nl, lut, lb_width, select)
        total, comp_carry = ripple_adder(nl, mantissa, comp)
        mantissa = total + [comp_carry]

    shift = exponent_sum(nl, op_a.characteristic, op_b.characteristic, CONST0)
    product = scaling_shifter(nl, mantissa, shift, 2 * t, 2 * n + 1)
    return gate_output(nl, product, op_a.nonzero, op_b.nonzero)


def _encode_dnnco(nl: Netlist, a: list, b: list, model) -> list:
    """DNNCO: exact product minus the OR-column deficits.

    The deficit ``sum_{j<l} 2^j (colsum_j - or_j)`` is assembled from
    the low-triangle partial products directly (column bit counts as a
    weighted accumulation, column ORs as a bus), then subtracted from
    the exact product — exactly the model's arithmetic, and naturally
    zero-safe (a zero operand zeroes every term).
    """
    n, l = len(a), model.l
    full = wallace_multiplier(nl, a, b)
    deficit_width = l + 4  # sum_j (j+1) 2^j < l * 2^l <= 2^(l+3)
    colsum = [CONST0] * deficit_width
    orsum = []
    for j in range(min(l, 2 * n - 1)):
        pps = [
            nl.add("AND2", a[i], b[j - i])
            for i in range(max(0, j - n + 1), min(j + 1, n))
        ]
        orsum.append(or_tree(nl, pps))
        for pp in pps:
            colsum, _ = ripple_adder(nl, colsum, [CONST0] * j + [pp])
    # colsum >= orsum and full >= deficit, so both borrows are provably 1
    deficit, _ = ripple_subtractor(nl, colsum, orsum)
    product, _ = ripple_subtractor(nl, full, deficit)
    return product[: 2 * n]


# ----------------------------------------------------------------------
# exhaustive truth-table lowering (narrow widths)
# ----------------------------------------------------------------------

def encode_table(
    table: np.ndarray, bitwidth: int, design: str = "?", source: str = "model"
) -> Encoding:
    """An exhaustive product table (``table[(a << N) | b]``) as an encoding.

    Exact for any function, and the only encoding available for the
    irregular array families — but the table has ``4**N`` entries, so
    this route is gated to ``N <= FULL_TABLE_MAX_BITWIDTH``.
    """
    _check_tabulable(bitwidth)
    table = np.asarray(table, dtype=np.int64).ravel()
    if table.size != 1 << (2 * bitwidth):
        raise ValueError(
            f"table has {table.size} entries; expected {1 << (2 * bitwidth)}"
        )
    return Encoding(design, bitwidth, source, "truth-table", table=table)


def _table_dag(table: np.ndarray, bitwidth: int) -> Netlist:
    """The decision-diagram netlist of a product table, for the symbolic
    backends.

    Per output bit a reduced ordered decision diagram is built bottom-up
    over an *interleaved* variable order (``b0, a0, b1, a1, ...`` — the
    order that keeps multiplier BDDs smallest), with ``np.unique``
    interning each level so only distinct cofactor pairs become MUX2
    gates; the netlist's structural hashing then shares structure across
    output bits.
    """
    nl = Netlist(f"table{bitwidth}")
    a = nl.input_bus("a", bitwidth)
    b = nl.input_bus("b", bitwidth)

    # permute to the interleaved index: bit 2i = b_i, bit 2i+1 = a_i
    index = np.arange(table.size, dtype=np.int64)
    a_val = np.zeros_like(index)
    b_val = np.zeros_like(index)
    for i in range(bitwidth):
        b_val |= ((index >> (2 * i)) & 1) << i
        a_val |= ((index >> (2 * i + 1)) & 1) << i
    reordered = table[(a_val << bitwidth) | b_val]
    select = [net for pair in zip(b, a) for net in pair]

    out_width = max(int(table.max()).bit_length(), 1)
    outputs = []
    for bit in range(out_width):
        layer = ((reordered >> bit) & np.int64(1)).astype(np.int64)
        nets = [CONST0, CONST1]
        for var in select:
            lo, hi = layer[0::2], layer[1::2]
            keys = lo * np.int64(len(nets)) + hi
            unique, layer = np.unique(keys, return_inverse=True)
            nets = [
                nl.add(
                    "MUX2",
                    nets[int(key) // len(nets)],
                    nets[int(key) % len(nets)],
                    var,
                )
                for key in unique
            ]
        outputs.append(nets[int(layer[0])])
    nl.set_outputs(outputs)
    nl.prune()
    return nl


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------

#: family class -> symbolic encoder ``(nl, a, b, model) -> product bus``,
#: keyed on :func:`~repro.multipliers.base.datapath_family`
ENCODERS: dict[type, Callable] = {
    AccurateMultiplier: lambda nl, a, b, model: wallace_multiplier(nl, a, b),
    RealmMultiplier: _encode_log_corrected,
    MbmMultiplier: _encode_log_corrected,
    MitchellMultiplier: lambda nl, a, b, model: _encode_log_add(nl, a, b, None, 0),
    ApproxAdderLogMultiplier: lambda nl, a, b, model: _encode_log_add(
        nl, a, b, model.adder, model.m
    ),
    DrumMultiplier: _encode_drum,
    SsmMultiplier: lambda nl, a, b, model: _encode_segment(
        nl, a, b, [(model.m, model.bitwidth - model.m)]
    ),
    EssmMultiplier: _encode_essm,
    ScaleTrimMultiplier: _encode_scaletrim,
    DnnCoMultiplier: _encode_dnnco,
}


def encode_model(model, design: str = "?") -> Encoding:
    """Symbolically encode a functional model's datapath.

    The encoder is the one of the family whose datapath the model runs
    unmodified; a model with none (an irregular array family, or a
    subclass overriding its datapath) is encoded as its exhaustive truth
    table when the width allows, and raises
    :class:`UnsupportedDesignError` otherwise.
    """
    tele = telemetry.get()
    n = model.bitwidth
    family = datapath_family(model)
    encoder = ENCODERS.get(family)
    with tele.span(
        "formal.encode", design=design, source="model", family=model.family
    ):
        if encoder is None:
            if n <= FULL_TABLE_MAX_BITWIDTH:
                return encode_table(
                    build_full_table(model), n, design, source="model"
                )
            datapath = (
                f"family {model.family!r}" if family is not None
                else f"{type(model).__name__}'s own datapath"
            )
            raise UnsupportedDesignError(
                f"{datapath} has no symbolic encoder and {n}-bit operands "
                f"exceed the truth-table limit ({FULL_TABLE_MAX_BITWIDTH})"
            )
        nl = Netlist(f"{design}-formula")
        a = nl.input_bus("a", n)
        b = nl.input_bus("b", n)
        nl.set_outputs(encoder(nl, a, b, model))
        nl.prune()
        return Encoding(design, n, "model", "symbolic", netlist=nl)


#: the most recent :func:`model_encoding`, keyed by design id and the
#: model's content address
_RECENT: dict[tuple[str, str], Encoding] = {}


def model_encoding(model, design: str = "?") -> Encoding:
    """:func:`encode_model`, reused while the same design is asked for.

    A proof and a certificate of one design read one encoding instead of
    building two.  The key is the design id plus
    ``cache_key(fingerprint(model))``, so two different models never
    share one.  Only the most recent encoding is kept, and it is dropped
    before the next one is built, so reuse never holds two at once.
    """
    key = (design, cache_key(fingerprint(model)))
    encoding = _RECENT.get(key)
    if encoding is None:
        _RECENT.clear()
        encoding = _RECENT[key] = encode_model(model, design)
    return encoding


def encode_kernel(model, design: str = "?") -> Encoding:
    """The *compiled kernel* as an encoding: its full product table.

    The kernels are NumPy closures, not circuits, so the only exact
    lowering enumerates them, in one kernel call over the pair grid;
    gated to narrow widths like ``compile_full_table``.  At wider
    operands the kernel leg of an equivalence claim is validated by
    structured sampling instead (:mod:`repro.formal.equiv`).
    """
    n = model.bitwidth
    a, b = _pair_grid(n)
    tele = telemetry.get()
    with tele.span("formal.encode", design=design, source="kernel", bitwidth=n):
        table = kernel_for(model)(a, b)
    return encode_table(table, n, design, source="kernel")
