"""Lower netlists and functional models into bit-vector formulas.

Two independent lowerings produce :class:`Encoding` objects over the same
input variables (``a[i]``/``b[i]``, LSB first):

* :func:`encode_netlist` walks a registered gate-level netlist
  (:mod:`repro.logic.netlist`) cell by cell — a direct structural
  translation, one DAG node per gate.
* :func:`encode_model` re-derives the functional model *symbolically*:
  the same decomposition the kernel specializers in
  :mod:`repro.kernels.tables` fold into lookup tables (LOD
  characteristic, barrel-shifted log fraction, truncated fraction,
  segment index, hardwired correction LUT) is expressed over symbolic
  bits, so the formula mirrors the NumPy datapath arithmetic — not the
  RTL — and an equivalence proof between the two is meaningful.

Families whose models are irregular array multipliers (AM1/AM2, IntALP,
ImpLM) have no symbolic encoder; at ``N <= FULL_TABLE_MAX_BITWIDTH``
they are encoded as their exhaustive product table (:func:`encode_table`)
— the table *is* the specification at those widths, the same way
``compile_full_table`` treats it as the kernel.  So is the compiled
kernel (:func:`encode_kernel`), a NumPy closure rather than a circuit;
at 16-bit the kernel leg is cross-validated by sampling instead (see
:mod:`repro.formal.equiv`).

At those widths every encoding is backed by its product table
``table[(a << N) | b]`` and concrete evaluation is a gather: symbolic
and netlist encodings sweep their DAG over every pair once, and a
truth-table encoding builds its DAG only when the BDD or z3 backend
reads ``builder``/``outputs``.
"""

from __future__ import annotations

import functools

import numpy as np

from ..analysis import telemetry
from ..kernels import kernel_for
from ..kernels.tables import FULL_TABLE_MAX_BITWIDTH, build_full_table
from ..logic.netlist import CONST0, CONST1, Netlist
from ..logic.sim import _check_values
from .bitvec import (
    Builder,
    Evaluator,
    Node,
    add,
    bus_mux,
    const_select,
    mul,
    shift_left_var,
)

__all__ = [
    "Encoding",
    "UnsupportedDesignError",
    "SYMBOLIC_FAMILIES",
    "encode_kernel",
    "encode_model",
    "encode_netlist",
    "encode_table",
]

#: families with a direct symbolic model encoder (any bitwidth)
SYMBOLIC_FAMILIES = frozenset(
    {"Accurate", "ALM-LOA", "ALM-MAA", "ALM-SOA", "cALM", "DNNCO", "DRUM",
     "ESSM", "MBM", "REALM", "scaleTRIM", "SSM"}
)


class UnsupportedDesignError(ValueError):
    """No formal encoding exists for this design at this bitwidth."""


class Encoding:
    """A design lowered to a boolean DAG over the operand input bits.

    ``outputs`` is the product bus (LSB first, unsigned); widths differ
    per source (REALM's extend mode emits ``2N + 1`` bits, most others
    ``2N``) — consumers compare integer values, not bit patterns.  Built
    from ``dag=(builder, outputs)``, or at ``N <= 8`` from the product
    ``table`` alone, whose DAG is then derived on first read.
    """

    def __init__(
        self, design: str, bitwidth: int, source: str, method: str,
        dag: tuple[Builder, list[Node]] | None = None,
        table: np.ndarray | None = None,
    ):
        self.design = design
        self.bitwidth = bitwidth
        self.source = source  # "model" | "rtl" | "kernel"
        self.method = method  # "symbolic" | "netlist" | "truth-table"
        self._dag = dag
        self._table = table

    @functools.cached_property
    def _lowered(self) -> tuple[Builder, list[Node]]:
        return self._dag or _table_dag(self._table, self.bitwidth)

    builder = property(lambda self: self._lowered[0])
    outputs = property(lambda self: self._lowered[1])

    @functools.cached_property
    def _evaluator(self) -> Evaluator:
        return Evaluator(self.builder, self.outputs)

    @functools.cached_property
    def table(self) -> np.ndarray:
        """The product table ``table[(a << N) | b]`` (``N <= 8`` only); a
        DAG-backed encoding sweeps its DAG over every pair, once."""
        if self._table is not None:
            return self._table
        a, b = _pair_grid(self.bitwidth)
        return self._evaluator.run_words({"a": a, "b": b})

    def eval_pairs(self, a_values, b_values) -> np.ndarray:
        """Evaluate the formula on operand vectors; int64 products.

        Operands outside ``[0, 2**N)`` raise ``ValueError``, as in the
        DAG evaluator's lane packing; at ``N <= 8`` this is a gather
        from :attr:`table`.
        """
        a_values = np.ravel(np.asarray(a_values, dtype=np.int64))
        b_values = np.ravel(np.asarray(b_values, dtype=np.int64))
        n = self.bitwidth
        if n > FULL_TABLE_MAX_BITWIDTH:
            return self._evaluator.run_words({"a": a_values, "b": b_values})
        sizes = {a_values.size, b_values.size}
        if len(sizes) != 1:  # the same check and message as the DAG path
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


# ----------------------------------------------------------------------
# netlist lowering: one node per gate
# ----------------------------------------------------------------------

def _cell_node(builder: Builder, name: str, ins: list[Node]) -> Node:
    if name == "INV":
        return builder.not_(ins[0])
    if name == "BUF":
        return ins[0]
    if name == "AND2":
        return builder.and_(ins[0], ins[1])
    if name == "OR2":
        return builder.or_(ins[0], ins[1])
    if name == "NAND2":
        return builder.not_(builder.and_(ins[0], ins[1]))
    if name == "NOR2":
        return builder.not_(builder.or_(ins[0], ins[1]))
    if name == "XOR2":
        return builder.xor(ins[0], ins[1])
    if name == "XNOR2":
        return builder.not_(builder.xor(ins[0], ins[1]))
    if name == "ANDN2":
        return builder.and_(ins[0], builder.not_(ins[1]))
    if name == "ORN2":
        return builder.or_(ins[0], builder.not_(ins[1]))
    if name == "MUX2":
        return builder.mux(ins[0], ins[1], ins[2])
    if name == "MAJ3":
        return builder.maj3(ins[0], ins[1], ins[2])
    if name == "XOR3":
        return builder.xor3(ins[0], ins[1], ins[2])
    raise UnsupportedDesignError(f"no formula lowering for cell {name!r}")


def encode_netlist(netlist: Netlist, bitwidth: int, design: str = "?") -> Encoding:
    """Translate a combinational netlist gate-for-gate into a formula.

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
        builder = Builder()
        a = builder.input_bus("a", bitwidth)
        b = builder.input_bus("b", bitwidth)
        values: dict[int, Node] = {CONST0: builder.false, CONST1: builder.true}
        for i, net in enumerate(netlist.inputs):
            values[net] = a[i] if i < bitwidth else b[i - bitwidth]
        for gate in netlist.gates:
            ins = [values[net] for net in gate.inputs]
            values[gate.output] = _cell_node(builder, gate.cell.name, ins)
        outputs = [values[net] for net in netlist.outputs]
    return Encoding(design, bitwidth, "rtl", "netlist", (builder, outputs))


# ----------------------------------------------------------------------
# symbolic model encoders
# ----------------------------------------------------------------------

def _one_hot_lod(builder: Builder, bus: list[Node]) -> tuple[list[Node], Node]:
    """Leading-one detector: one-hot position bus + nonzero flag.

    ``hot[i]`` is true iff bit ``i`` is the operand's leading one
    (``hot[i] = v_i & ~(v_{i+1} | ... | v_{n-1})``); all-zero input
    yields an all-zero one-hot, matching the models' zero-safe path.
    """
    hot: list[Node] = [builder.false] * len(bus)
    seen = builder.false
    for i in range(len(bus) - 1, -1, -1):
        hot[i] = builder.and_(bus[i], builder.not_(seen))
        seen = builder.or_(seen, bus[i])
    return hot, seen


def _log_front(
    builder: Builder, bus: list[Node]
) -> tuple[list[Node], list[Node], Node]:
    """Symbolic LOD + input barrel shifter: ``(k, x, nonzero)``.

    Mirrors ``floor_log2`` + ``log_fraction``: ``k`` is the
    characteristic as a ``ceil(log2(N))``-bit bus, ``x`` the ``N-1``-bit
    left-aligned log fraction (``x_w = v_{k-(N-1-w)}``, selected through
    the one-hot LOD).  Zero inputs give ``k = x = 0``, exactly like the
    models' ``safe = max(v, 1)`` path.
    """
    n = len(bus)
    hot, nonzero = _one_hot_lod(builder, bus)
    kw = max((n - 1).bit_length(), 1)
    k = [
        builder.or_many(hot[i] for i in range(n) if (i >> j) & 1)
        for j in range(kw)
    ]
    width = n - 1
    x = []
    for w in range(width):
        x.append(
            builder.or_many(
                builder.and_(hot[i], bus[i - (width - w)])
                for i in range(width - w, n)
            )
        )
    return k, x, nonzero


def _truncate(builder: Builder, x: list[Node], t: int) -> list[Node]:
    """``(x >> t) | 1``: drop ``t`` LSBs, force the new LSB to 1."""
    return [builder.true] + x[t + 1 :]


def _shift_const(value: int, shift: int) -> int:
    """``value * 2**shift`` with floor semantics (``shift_value`` on ints)."""
    return value << shift if shift >= 0 else value >> -shift


def _mask_zero(builder: Builder, bus: list[Node], nonzero: Node) -> list[Node]:
    return [builder.and_(bit, nonzero) for bit in bus]


def _encode_log_corrected(
    design: str,
    n: int,
    t: int,
    q: int,
    codes: np.ndarray,
    saturate: bool,
) -> Encoding:
    """REALM/MBM: truncated log add + segment-selected correction.

    ``codes`` is the ``(M, M)`` quantized LUT (``M = 1`` for MBM).  The
    two carry variants of the correction — ``2**width + s_full`` for
    ``c_of = 0``, ``s_half`` for ``c_of = 1`` — are folded into one
    hardwired constant table indexed by ``(carry, seg_a, seg_b)``, so
    the mantissa is a single adder ``fraction_sum + K`` and the Fig. 3
    carry mux becomes one more select line of the LUT.
    """
    m = codes.shape[0]
    logm = m.bit_length() - 1
    raw_width = n - 1
    width = raw_width - t
    builder = Builder()
    a = builder.input_bus("a", n)
    b = builder.input_bus("b", n)
    ka, xa, nza = _log_front(builder, a)
    kb, xb, nzb = _log_front(builder, b)
    seg_a = xa[raw_width - logm :] if logm else []
    seg_b = xb[raw_width - logm :] if logm else []

    fsum = add(builder, _truncate(builder, xa, t), _truncate(builder, xb, t))
    carry = fsum[width]

    # mantissa < 2**(width+2) in both carry branches (factors < 0.25)
    mant_width = width + 2
    table = []
    for index in range(2 << (2 * logm)):
        c = index & 1
        i = (index >> 1) & (m - 1)
        j = index >> (1 + logm)
        code = int(codes[i, j])
        if c:
            table.append(_shift_const(code, width - q - 1))
        else:
            table.append(_shift_const(code, width - q) + (1 << width))
    correction = const_select(
        builder, [carry] + seg_a + seg_b, table, mant_width
    )
    mantissa = add(builder, fsum, correction)[:mant_width]

    shift = add(builder, ka, kb, cin=carry)  # ka + kb + c_of, never negative
    shifted = shift_left_var(builder, mantissa, shift, 2 * (n - 1) + 1)
    product = shifted[width : width + 2 * n + 1]
    product = _mask_zero(builder, product, builder.and_(nza, nzb))
    if saturate:
        low, over = product[: 2 * n], product[2 * n]
        product = bus_mux(builder, low, [builder.true] * (2 * n), over)
    return Encoding(design, n, "model", "symbolic", (builder, product))


def _encode_log_add(design: str, n: int, adder: str | None, m: int) -> Encoding:
    """cALM and the ALM variants: log add (exact or approximate) + antilog.

    ``adder`` is ``None`` for the exact adder (cALM) or one of
    ``"LOA"``/``"SOA"``/``"MAA"`` applied to the low ``m`` log-sum bits
    (``m <= N - 1``, so the approximate part never touches the
    characteristic field).
    """
    width = n - 1
    builder = Builder()
    a = builder.input_bus("a", n)
    b = builder.input_bus("b", n)
    ka, xa, nza = _log_front(builder, a)
    kb, xb, nzb = _log_front(builder, b)
    log_a = xa + ka  # (k << width) | x, LSB first
    log_b = xb + kb

    if adder is None:
        log_sum = add(builder, log_a, log_b)
    else:
        if adder == "LOA":
            low = [builder.or_(x, y) for x, y in zip(log_a[:m], log_b[:m])]
            cin = builder.and_(log_a[m - 1], log_b[m - 1])
        elif adder == "SOA":
            low = [builder.true] * m
            cin = builder.and_(log_a[m - 1], log_b[m - 1])
        elif adder == "MAA":
            low = list(log_a[:m])
            cin = log_b[m - 1]
        else:
            raise UnsupportedDesignError(f"unknown ALM adder {adder!r}")
        log_sum = low + add(builder, log_a[m:], log_b[m:], cin=cin)

    mantissa = log_sum[:width] + [builder.true]  # 1.fraction
    characteristic = log_sum[width:]
    shifted = shift_left_var(builder, mantissa, characteristic, 2 * (n - 1) + 1)
    product = shifted[width : width + 2 * n]
    product = _mask_zero(builder, product, builder.and_(nza, nzb))
    return Encoding(design, n, "model", "symbolic", (builder, product))


def _encode_drum(design: str, n: int, k: int) -> Encoding:
    """DRUM: leading-one fragment with forced LSB, then exact multiply.

    For leading-one position ``i`` the fragment shift is
    ``s_i = max(i - (k - 1), 0)``; the approximated operand is
    ``(v & ~mask(s_i)) | 2**s_i`` when ``s_i > 0`` and ``v`` itself
    otherwise, expressed per bit through the one-hot LOD.
    """
    builder = Builder()
    a = builder.input_bus("a", n)
    b = builder.input_bus("b", n)

    def approximate(bus: list[Node]) -> list[Node]:
        hot, _ = _one_hot_lod(builder, bus)
        shifts = [max(i - (k - 1), 0) for i in range(n)]
        out = []
        for w in range(n):
            keep = builder.or_many(
                hot[i] for i in range(n) if shifts[i] == 0 or w > shifts[i]
            )
            force = builder.or_many(
                hot[i] for i in range(n) if shifts[i] > 0 and w == shifts[i]
            )
            out.append(builder.or_(builder.and_(bus[w], keep), force))
        return out

    product = mul(builder, approximate(a), approximate(b))
    return Encoding(design, n, "model", "symbolic", (builder, product))


def _encode_segment(design: str, n: int, offsets_above: list[tuple[int, int]]) -> Encoding:
    """SSM/ESSM: static segment truncation, then exact multiply.

    ``offsets_above`` lists ``(threshold_bit, shift)`` pairs, highest
    first: the operand's low ``shift`` bits are cleared when any bit at
    or above ``threshold_bit`` is set (the highest matching rule wins;
    no match keeps the operand exact).
    """
    builder = Builder()
    a = builder.input_bus("a", n)
    b = builder.input_bus("b", n)

    def approximate(bus: list[Node]) -> list[Node]:
        triggers = [
            builder.or_many(bus[threshold:]) for threshold, _ in offsets_above
        ]
        out = []
        for w in range(n):
            # the first (highest) rule with shift > w decides bit w's fate
            cleared = builder.false
            not_higher = builder.true
            for trigger, (_, shift) in zip(triggers, offsets_above):
                if shift > w:
                    cleared = builder.or_(
                        cleared, builder.and_(trigger, not_higher)
                    )
                not_higher = builder.and_(not_higher, builder.not_(trigger))
            out.append(builder.and_(bus[w], builder.not_(cleared)))
        return out

    product = mul(builder, approximate(a), approximate(b))
    return Encoding(design, n, "model", "symbolic", (builder, product))


def _sub(builder: Builder, xs: list[Node], ys: list[Node]) -> list[Node]:
    """``xs - ys`` in two's complement over ``len(xs)`` bits.

    Callers guarantee ``xs >= ys`` (the encoders only subtract
    non-negative deficits from values they bound), so the dropped
    borrow is provably one.
    """
    from .bitvec import bus_zero_extend

    width = len(xs)
    ys = bus_zero_extend(builder, ys, width)
    inverted = [builder.not_(y) for y in ys]
    return add(builder, xs, inverted, cin=builder.true)[:width]


def _encode_scaletrim(
    design: str, n: int, t: int, c: int, lut: np.ndarray
) -> Encoding:
    """scaleTRIM: scaled-fraction linearized product + compensation LUT.

    Mirrors the NumPy model: the scaled fraction is the top ``t`` bits
    of the left-aligned log fraction, the fraction-sum carry gates the
    linearization overflow term, and the compensation constants sit
    behind a ``2c``-bit hardwired select — the same mantissa
    ``2^2t + (S << t) + carry * (S mod 2^t) * 2^t + LB`` on the
    ``2^-2t`` grid, scaled out by a ``ka + kb`` barrel shift.
    """
    builder = Builder()
    a = builder.input_bus("a", n)
    b = builder.input_bus("b", n)
    ka, xa, nza = _log_front(builder, a)
    kb, xb, nzb = _log_front(builder, b)
    xs_a = xa[n - 1 - t :]
    xs_b = xb[n - 1 - t :]

    fsum = add(builder, xs_a, xs_b)  # t + 1 bits: S = xs_a + xs_b
    carry = fsum[t]
    overflow = [builder.and_(fsum[i], carry) for i in range(t)]
    head = add(builder, fsum, overflow)  # S + max(0, S - 2^t)
    head = add(builder, head, [builder.false] * t + [builder.true])  # + 2^t

    mantissa = [builder.false] * t + head[: t + 2]
    lb_width = max(int(v) for v in lut).bit_length()
    if lb_width:
        select = xs_b[t - c :] + xs_a[t - c :]
        comp = const_select(builder, select, [int(v) for v in lut], lb_width)
        mantissa = add(builder, mantissa, comp)

    shift = add(builder, ka, kb)  # <= 2 (n - 1), never negative
    shifted = shift_left_var(builder, mantissa, shift, 2 * (n - 1))
    product = shifted[2 * t : 2 * t + 2 * n + 1]
    product = _mask_zero(builder, product, builder.and_(nza, nzb))
    return Encoding(design, n, "model", "symbolic", (builder, product))


def _encode_dnnco(design: str, n: int, l: int) -> Encoding:
    """DNNCO: exact product minus the OR-column deficits.

    The deficit ``sum_{j<l} 2^j (colsum_j - or_j)`` is assembled from
    the low-triangle partial products directly (column bit counts as a
    weighted accumulation, column ORs as a bus), then subtracted from
    the exact shift-add product — exactly the model's arithmetic, and
    naturally zero-safe (a zero operand zeroes every term).
    """
    builder = Builder()
    a = builder.input_bus("a", n)
    b = builder.input_bus("b", n)
    full = mul(builder, a, b)

    deficit_width = l + 4  # sum_j (j+1) 2^j < l * 2^l <= 2^(l+3)
    colsum = [builder.false] * deficit_width
    orsum: list[Node] = []
    for j in range(min(l, 2 * n - 1)):
        pps = [
            builder.and_(a[i], b[j - i])
            for i in range(max(0, j - n + 1), min(j + 1, n))
        ]
        orsum.append(builder.or_many(pps))
        for pp in pps:
            colsum = add(builder, colsum, [builder.false] * j + [pp])[
                :deficit_width
            ]
    deficit = _sub(builder, colsum, orsum)
    product = _sub(builder, full, deficit)
    return Encoding(design, n, "model", "symbolic", (builder, product))


def _encode_accurate(design: str, n: int) -> Encoding:
    builder = Builder()
    a = builder.input_bus("a", n)
    b = builder.input_bus("b", n)
    product = mul(builder, a, b)
    return Encoding(design, n, "model", "symbolic", (builder, product))


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


def _table_dag(table: np.ndarray, bitwidth: int) -> tuple[Builder, list[Node]]:
    """The DAG of a product table, for the symbolic backends.

    Per output bit a reduced ordered decision diagram is built bottom-up
    over an *interleaved* variable order (``b0, a0, b1, a1, ...`` — the
    order that keeps multiplier BDDs smallest), with ``np.unique``
    interning each level so only distinct cofactor pairs become MUX
    nodes; the global builder cache then shares structure across output
    bits.
    """
    builder = Builder()
    a = builder.input_bus("a", bitwidth)
    b = builder.input_bus("b", bitwidth)

    # permute to the interleaved index: bit 2i = b_i, bit 2i+1 = a_i
    index = np.arange(table.size, dtype=np.int64)
    a_val = np.zeros_like(index)
    b_val = np.zeros_like(index)
    for i in range(bitwidth):
        b_val |= ((index >> (2 * i)) & 1) << i
        a_val |= ((index >> (2 * i + 1)) & 1) << i
    reordered = table[(a_val << bitwidth) | b_val]
    select = [node for pair in zip(b, a) for node in pair]

    out_width = max(int(table.max()).bit_length(), 1)
    outputs = []
    for bit in range(out_width):
        layer = ((reordered >> bit) & np.int64(1)).astype(np.int64)
        nodes = [builder.false, builder.true]
        for var in select:
            lo, hi = layer[0::2], layer[1::2]
            keys = lo * np.int64(len(nodes)) + hi
            unique, layer = np.unique(keys, return_inverse=True)
            nodes = [
                builder.mux(
                    nodes[int(key) // len(nodes)],
                    nodes[int(key) % len(nodes)],
                    var,
                )
                for key in unique
            ]
        outputs.append(nodes[int(layer[0])])
    return builder, outputs


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------

def encode_model(model, design: str = "?") -> Encoding:
    """Symbolically encode a functional model's datapath.

    Falls back to the exhaustive truth table for families without a
    symbolic encoder when the width allows; raises
    :class:`UnsupportedDesignError` otherwise.
    """
    tele = telemetry.get()
    family = model.family
    n = model.bitwidth
    with tele.span("formal.encode", design=design, source="model", family=family):
        if family == "REALM":
            cfg = model.config
            return _encode_log_corrected(
                design, n, cfg.t, cfg.q, model.lut_codes,
                saturate=model.overflow == "saturate",
            )
        if family == "MBM":
            codes = np.array([[model.correction_code]], dtype=np.int64)
            return _encode_log_corrected(
                design, n, model.t, model.q, codes, saturate=False
            )
        if family == "cALM":
            return _encode_log_add(design, n, None, 0)
        if family in ("ALM-LOA", "ALM-SOA", "ALM-MAA"):
            return _encode_log_add(design, n, model.adder, model.m)
        if family == "DRUM":
            return _encode_drum(design, n, model.k)
        if family == "SSM":
            return _encode_segment(design, n, [(model.m, n - model.m)])
        if family == "ESSM":
            high = n - model.m
            mid = high // 2
            return _encode_segment(
                design, n, [(model.m + mid, high), (model.m, mid)]
            )
        if family == "scaleTRIM":
            return _encode_scaletrim(design, n, model.t, model.c, model.lut)
        if family == "DNNCO":
            return _encode_dnnco(design, n, model.l)
        if family == "Accurate":
            return _encode_accurate(design, n)
        if n <= FULL_TABLE_MAX_BITWIDTH:
            return encode_table(
                build_full_table(model), n, design, source="model"
            )
        raise UnsupportedDesignError(
            f"family {family!r} has no symbolic encoder and {n}-bit operands "
            f"exceed the truth-table limit ({FULL_TABLE_MAX_BITWIDTH})"
        )


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
