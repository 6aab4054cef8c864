"""Table specializers: fold a model's datapath into precomputed lookups.

The log/segment families share one structural property: everything the
datapath derives *per operand* — leading-one position, barrel-shifted
log fraction, truncated fraction, LUT segment index, extracted
fragment — is a pure function of that operand alone.  For ``N``-bit
operands there are only ``2**N`` such values, so the whole front end of
the datapath collapses into int64 tables built once at compile time
(``8 * 2**N`` bytes each: 512 KB at ``N = 16``).  What remains per call
is the cross-operand tail: one or two adds, a carry select, a shift —
a handful of vectorized int64 ops regardless of family.

The AM1/AM2 array families have no per-operand front end, but their OR
tree splits over 8-bit operand chunks: one ``4**8``-entry table of
chunk-pair OR-products serves every width and recovery width.

IntALP's float log fraction is per operand too, and its comparator
walk down the triangle hierarchy needs only per-*triangle* constants:
each level is one half-plane test whose median and sign come from a
table of at most ``2**(L-1)`` entries, built with the model's own float
operations, so the walk and its plane tail stay bit-identical.

Designs without a specializer fall back, at ``N <=
FULL_TABLE_MAX_BITWIDTH``, to the entire ``2**N x 2**N`` product space
enumerated through the *interpreted* model into one flat table (``8 *
4**N`` bytes: 512 KB at ``N = 8``), making the kernel a single gather —
and bit-identity true by construction for any family, however
irregular.

Each builder returns ``(evaluate, kind, table_bytes)`` where
``evaluate(a, b)`` takes validated, broadcast, at-least-1-D int64
arrays (the :meth:`~repro.multipliers.base.Multiplier._multiply`
contract) and ``table_bytes`` accounts the precomputed memory.  A
builder returns ``None`` instead when the model is out of its reach,
and the compiler falls back to its generic ladder.
"""

from __future__ import annotations

import functools

import numpy as np

from ..core.bitops import mask, shift_value, truncate_fraction
from ..multipliers.am import Am1Multiplier
from ..multipliers.mitchell import antilog, log_operands

__all__ = [
    "FULL_TABLE_MAX_BITWIDTH",
    "OPERAND_TABLE_MAX_BITWIDTH",
    "am_chunk_table",
    "build_full_table",
    "build_log_tables",
    "compile_alm",
    "compile_am",
    "compile_full_table",
    "compile_implm",
    "compile_intalp",
    "compile_dnnco",
    "compile_mitchell",
    "compile_product_form",
    "compile_realm",
    "compile_scaletrim",
    "dnnco_deficit_table",
    "intalp_walk_tables",
]

#: widest operand for which the exhaustive pair table is built
#: (``8 * 4**N`` bytes: 512 KB at N=8; N=9 would already be 2 MB)
FULL_TABLE_MAX_BITWIDTH = 8

#: widest operand for which per-operand decomposition tables are built
#: (``8 * 2**N`` bytes per table: 512 KB at N=16; beyond ~20 the tables
#: stop fitting comfortably in cache and compile time grows, so wider
#: models fall back to the interpreted datapath)
OPERAND_TABLE_MAX_BITWIDTH = 20


def _operand_space(bitwidth: int) -> np.ndarray:
    """Every representable operand, ``0 .. 2**N - 1``."""
    return np.arange(np.int64(1) << bitwidth, dtype=np.int64)


@functools.lru_cache(maxsize=4)
def build_log_tables(bitwidth: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-operand LOD + input-barrel-shifter tables ``(k, x)``.

    The models' own front end, :func:`~repro.multipliers.mitchell.log_operands`,
    run over the operand space: ``k[v]`` is the characteristic
    (leading-one position) and ``x[v]`` the ``N-1``-bit log fraction;
    index 0 holds the zero-safe values the models use (callers mask zero
    operands separately).  Built once per bitwidth and shared by every
    log-family specializer, so the arrays are read-only.
    """
    v = _operand_space(bitwidth)
    k, _, x, _, _ = log_operands(v, v, bitwidth)
    k.flags.writeable = False
    x.flags.writeable = False
    return k, x


def build_full_table(model) -> np.ndarray:
    """Exhaustive product table via the interpreted model, row-major in
    ``a`` (``table[(a << N) | b]``)."""
    n = model.bitwidth
    v = _operand_space(n)
    a = np.repeat(v, v.size)
    b = np.tile(v, v.size)
    return np.ascontiguousarray(model._multiply(a, b))


# ----------------------------------------------------------------------
# family specializers
# ----------------------------------------------------------------------


def compile_full_table(model):
    """Any family, ``N <= FULL_TABLE_MAX_BITWIDTH``: one gather."""
    n = model.bitwidth
    table = build_full_table(model)

    def evaluate(a, b):
        return table[(a << n) | b]

    return evaluate, "full-table", table.nbytes


def compile_mitchell(model):
    """cALM: one packed log table, exact add, antilog."""
    n = model.bitwidth
    width = n - 1
    k, x = build_log_tables(n)
    logv = (k << width) | x

    def evaluate(a, b):
        product = antilog(logv[a] + logv[b], width)
        return np.where((a > 0) & (b > 0), product, 0)

    return evaluate, "table", logv.nbytes


def compile_alm(model):
    """ALM-LOA/SOA/MAA: packed log tables + the approximate adder."""
    n = model.bitwidth
    width = n - 1
    m = model.m
    add = model._add
    k, x = build_log_tables(n)
    logv = (k << width) | x

    def evaluate(a, b):
        product = antilog(add(logv[a], logv[b], m), width)
        return np.where((a > 0) & (b > 0), product, 0)

    return evaluate, "table", logv.nbytes


def compile_implm(model):
    """ImpLM: nearest-one characteristic + signed fraction tables."""
    n = model.bitwidth
    v = _operand_space(n)
    k_near, f = model._decompose(np.where(v > 0, v, 1))
    one = np.int64(1) << n

    def evaluate(a, b):
        mantissa = one + f[a] + f[b]
        product = shift_value(mantissa, k_near[a] + k_near[b] - n)
        return np.where((a > 0) & (b > 0), product, 0)

    return evaluate, "table", k_near.nbytes + f.nbytes


def compile_realm(model):
    """REALM and MBM: the whole per-operand front end in one packed table.

    Everything Fig. 3 derives per operand — LOD characteristic ``k``,
    truncated fraction ``xt``, segment index — shares one int64 word:

    ========================  =======================================
    bits ``[0, width]``       ``xt`` (+1 headroom bit for the carry)
    bits ``[width+1, +7]``    ``k`` (sums stay under 128)
    bits ``[width+8, ...]``   segment — ``seg * M`` on the left table,
                              ``seg`` on the right
    ========================  =======================================

    Adding the two gathered words sums every field at once without
    cross-field carries, and the segment field lands directly on the
    flattened LUT index ``seg_a * M + seg_b``.  The quantized ``s_ij``
    LUT is pre-shifted to the fraction grid in both carry variants and
    interleaved (``s[2 * ij + carry]``), so the carry select is one
    small gather instead of a branch.  Per call: two 2**N-word gathers,
    one LUT gather, and ~10 elementwise int64 ops.  MBM's constant is
    the ``M = 1`` LUT, whose segment field is always 0.
    """
    from ..core.factors import segment_index

    n = model.bitwidth
    raw_width = n - 1
    width = raw_width - model.t
    m = model.lut_codes.shape[0]
    logm = m.bit_length() - 1
    seg_shift = width + 8
    if seg_shift + 2 * logm >= 63:  # packed fields would overflow int64
        return None

    k, x = build_log_tables(n)
    xt = truncate_fraction(x, model.t, raw_width)
    seg = segment_index(x, raw_width, m)
    fields = (k << (width + 1)) | xt
    right = (seg << seg_shift) | fields
    # one segment (M = 1, MBM) leaves the segment field empty: both
    # operands gather from one table, half the cache footprint
    left = right if logm == 0 else ((seg << logm) << seg_shift) | fields

    flat_codes = np.ascontiguousarray(model.lut_codes, dtype=np.int64).ravel()
    s_pair = np.empty(2 * flat_codes.size, dtype=np.int64)
    s_pair[0::2] = shift_value(flat_codes, width - model.q)
    s_pair[1::2] = shift_value(flat_codes, width - model.q - 1)
    saturate = model.overflow == "saturate"
    top = mask(2 * n)
    fraction_mask = mask(width + 1)
    k_mask = np.int64(0x7F)

    def evaluate(a, b):
        s = left[a] + right[b]
        fraction_sum = s & fraction_mask
        carry = fraction_sum >> width
        correction = s_pair[((s >> seg_shift) << 1) | carry]
        mantissa = fraction_sum + ((carry ^ 1) << width) + correction
        k_sum = (s >> (width + 1)) & k_mask
        product = shift_value(mantissa, k_sum + carry - width)
        product = np.where((a > 0) & (b > 0), product, 0)
        if saturate:
            product = np.minimum(product, top)
        return product

    held = {id(table): table.nbytes for table in (left, right, s_pair)}  # once each
    return evaluate, "table", sum(held.values())


def compile_scaletrim(model):
    """scaleTRIM: packed ``(bucket, k, xs)`` operand tables + LB gather.

    Field layout per operand word (mirroring the REALM packing):

    ========================  =======================================
    bits ``[0, t]``           scaled fraction ``xs`` (+1 headroom bit
                              so the fraction-sum carry stays inside)
    bits ``[t+1, +7]``        ``k`` (sums stay under 128)
    bits ``[t+8, ...]``       bucket — ``ia * 2^c`` on the left table,
                              ``ib`` on the right
    ========================  =======================================

    One add sums every field; the bucket field lands directly on the
    flattened compensation-LUT index ``ia * 2^c + ib``.  The carry out
    of the fraction field selects the linearization overflow term
    (``carry`` set means ``S - 2^t`` is exactly ``S``'s low ``t``
    bits).  Out of reach when the packed fields would overflow int64.
    """
    from ..multipliers.scaletrim import scaled_fraction

    n = model.bitwidth
    t, c = model.t, model.c
    bucket_shift = t + 8
    if bucket_shift + 2 * c >= 63:  # packed fields would overflow int64
        return None
    lut = np.ascontiguousarray(model.lut, dtype=np.int64)
    one_2t = np.int64(1) << (2 * t)

    k, x = build_log_tables(n)
    xs = scaled_fraction(x, n, t)
    bucket = xs >> (t - c)
    fraction_mask = mask(t + 1)
    low_mask = mask(t)
    k_mask = np.int64(0x7F)

    left = ((bucket << c) << bucket_shift) | (k << (t + 1)) | xs
    right = (bucket << bucket_shift) | (k << (t + 1)) | xs

    def evaluate(a, b):
        s = left[a] + right[b]
        total = s & fraction_mask
        carry = total >> t
        mantissa = (
            one_2t
            + (total << t)
            + ((total & low_mask) * carry << t)
            + lut[s >> bucket_shift]
        )
        product = shift_value(mantissa, ((s >> (t + 1)) & k_mask) - 2 * t)
        return np.where((a > 0) & (b > 0), product, 0)

    return evaluate, "table", left.nbytes + right.nbytes + lut.nbytes


#: widest OR-approximated column window for which the pair-deficit table
#: is built (``8 * 4**l`` bytes: 512 KB at l=8, matching the full-table
#: budget; wider windows fall back to the compiler's generic ladder)
DNNCO_TABLE_MAX_COLUMNS = 8


@functools.lru_cache(maxsize=DNNCO_TABLE_MAX_COLUMNS)
def dnnco_deficit_table(l: int) -> np.ndarray:
    """OR-column deficit of every low-bits pair, ``table[(a_l << l) |
    b_l]``; shared by every DNNCO kernel with this ``l``, so read-only."""
    from ..multipliers.dnnco import column_deficit

    low = np.arange(np.int64(1) << l, dtype=np.int64)
    table = column_deficit(np.repeat(low, low.size), np.tile(low, low.size), l)
    table.flags.writeable = False
    return table


def compile_dnnco(model):
    """DNNCO: exact product minus a low-bits pair-deficit gather.

    The OR-column deficit depends only on ``(a mod 2^l, b mod 2^l)``, so
    a ``4**l``-entry table indexed by the concatenated low bits turns
    the kernel into ``a * b - deficit[...]`` — independent of the
    operand width.  Beyond ``l = 8`` the table budget is exceeded and
    the compiler's generic ladder takes over.
    """
    l = model.l
    if l > DNNCO_TABLE_MAX_COLUMNS:
        return None
    deficit = dnnco_deficit_table(l)
    low_mask = mask(l)

    def evaluate(a, b):
        return a * b - deficit[((a & low_mask) << l) | (b & low_mask)]

    return evaluate, "table", deficit.nbytes


#: operand chunk width of the AM OR-product table (``4**8`` chunk pairs)
AM_CHUNK_BITS = 8


@functools.lru_cache(maxsize=1)
def am_chunk_table() -> np.ndarray:
    """Partial-product bit sets of every 8-bit chunk pair ``(x, y)``.

    ``table[(x << 8) | y]`` holds, in its low 16 bits, the bits set in at
    least one partial-product row ``x << i`` (``y_i = 1``) — the OR
    product — and above them the bits set in at least two rows.  Shared
    by every AM kernel, so read-only.
    """
    v = np.arange(1 << AM_CHUNK_BITS, dtype=np.int64)
    x, y = np.repeat(v, v.size), np.tile(v, v.size)
    once = twice = np.zeros_like(x)
    for i in range(AM_CHUNK_BITS):
        row = np.where((y >> i) & 1 == 1, x << i, 0)
        twice = twice | (once & row)
        once = once | row
    table = once | (twice << 16)
    table.flags.writeable = False
    return table


def compile_am(model):
    """AM1/AM2: the OR tree and its error recovery from chunk tables.

    The OR tree's sum is the OR of all partial-product rows.  Any two
    rows meet at exactly one tree node, so the OR of the error vectors
    (AM1's recovery) is the set of bits present in at least two rows,
    and ``x + y == (x | y) + (x & y)`` at every node makes the error
    vectors sum to ``a * b - approx`` (AM2's recovery).  Both split over
    8-bit operand chunks: a chunk pair's rows land at the sum of the
    chunk offsets, where the (at least once, at least twice) bit sets
    of the pairs combine as a saturating two-bit count.
    """
    table = am_chunk_table()
    offsets = range(0, model.bitwidth, AM_CHUNK_BITS)
    recovery = model._recovery_mask()
    or_recovery = isinstance(model, Am1Multiplier)
    low = mask(AM_CHUNK_BITS)

    def evaluate(a, b):
        once = twice = 0
        for i in offsets:
            rows = ((a >> i) & low) << AM_CHUNK_BITS
            for j in offsets:
                entry = table[rows | ((b >> j) & low)]
                ones = (entry & 0xFFFF) << (i + j)
                if or_recovery:
                    twice = twice | ((entry >> 16) << (i + j)) | (once & ones)
                once = once | ones
        if or_recovery:
            return once + (twice & recovery)
        return once + ((a * b - once) & recovery)

    return evaluate, "table", table.nbytes


@functools.lru_cache(maxsize=16)
def intalp_walk_tables(level: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """The half-plane test of every IntALP walk step, per triangle.

    Entry ``d`` holds, for every triangle id ``t`` at level ``d + 1``,
    ``(dxm, dym, rx, ry, side_h1)``: the median direction, the
    right-angle vertex and the side of the median that ``h1`` lies on.
    They come from :func:`~repro.multipliers.intalp.interpolate_xy`'s
    own float operations, applied once per triangle instead of once per
    sample, and child ``c`` of ``t`` gets id ``2 * t + c`` as there.
    Shared by every IntALP kernel of this level, so read-only.
    """
    from ..multipliers.intalp import _ROOTS

    current = np.array(_ROOTS)
    steps = []
    for _ in range(level - 1):
        h1, h2, right = current[:, 0], current[:, 1], current[:, 2]
        mid = (h1 + h2) / 2.0
        dxm, dym = mid[:, 0] - right[:, 0], mid[:, 1] - right[:, 1]
        side_h1 = dxm * (h1[:, 1] - right[:, 1]) - dym * (h1[:, 0] - right[:, 0])
        step = (dxm, dym, right[:, 0].copy(), right[:, 1].copy(), side_h1)
        for table in step:
            table.flags.writeable = False
        steps.append(step)
        first = np.stack([h1, right, mid], axis=1)
        second = np.stack([right, h2, mid], axis=1)
        current = np.stack([first, second], axis=1).reshape(-1, 3, 2)
    return tuple(steps)


def compile_intalp(model):
    """IntALP: float fraction table, table-driven plane walk, model tail.

    The level-1 triangle is ``x < y``; each deeper level is one
    half-plane test against the per-triangle constants of
    :func:`intalp_walk_tables` (ties go to child 0, as in the model),
    and the plane coefficients are gathered from the model's own
    ``triangle_table``.  The tail repeats ``_multiply`` operation by
    operation — ``1.0 + x + y + plane``, then ``floor(mantissa *
    exp2(ka + kb))`` with ``exp2`` tabulated over every ``ka + kb`` —
    so every float result is the model's, bit for bit.
    """
    from ..multipliers.intalp import triangle_table

    n = model.bitwidth
    k, x = build_log_tables(n)
    fraction = x / np.float64(1 << (n - 1))
    steps = intalp_walk_tables(model.level)
    _, planes = triangle_table(model.level, model.fit)
    c0, c1, c2 = np.ascontiguousarray(planes.T)
    pow2 = np.exp2(np.arange(2 * n - 1, dtype=np.float64))

    def evaluate(a, b):
        xa, yb = fraction[a], fraction[b]
        t = (xa < yb).astype(np.intp)
        for dxm, dym, rx, ry, side_h1 in steps:
            side = dxm[t] * (yb - ry[t]) - dym[t] * (xa - rx[t])
            t = 2 * t + (side * side_h1[t] < 0)
        plane = c0[t] * xa + c1[t] * yb + c2[t]
        mantissa = 1.0 + xa + yb + plane
        product = np.floor(mantissa * pow2[k[a] + k[b]])
        product = np.maximum(product.astype(np.int64), 0)
        return np.where((a > 0) & (b > 0), product, 0)

    walk = sum(table.nbytes for step in steps for table in step)
    small = walk + planes.nbytes + pow2.nbytes
    return evaluate, "table", fraction.nbytes + k.nbytes + small


def compile_product_form(model):
    """DRUM, SSM, ESSM: one table of the per-operand approximation.

    The product is ``approx(a) * approx(b)``, and ``approx`` is the
    model's own ``_approximate`` run over every operand.
    """
    approx = model._approximate(_operand_space(model.bitwidth))

    def evaluate(a, b):
        return approx[a] * approx[b]

    return evaluate, "table", approx.nbytes
