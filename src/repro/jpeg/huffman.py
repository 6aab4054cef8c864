"""Baseline JPEG entropy coding (ITU-T T.81 Annex K Huffman tables).

Implements the lossless back half of the codec: DC difference coding with
size categories, AC run-length coding with (run, size) symbols, ZRL and
EOB, using the standard luminance Huffman tables.  PSNR does not depend on
this stage (it is lossless), but the bitstream size does — the codec
reports real compressed sizes, and the round-trip decoder doubles as a
correctness check on the whole pipeline.

Both directions are table-driven.  :func:`encode_blocks` computes every DC
difference, (run, size) symbol, ZRL prefix, EOB and amplitude field with
NumPy over all blocks at once, expands the fields to bits and packs them
with one ``np.packbits``, padding the last byte with 1s (T.81 F.1.2.3).
:func:`decode_blocks` resolves each symbol with one lookup of the next 16
bits in a per-table lookahead table holding ``symbol << 5 | length``, or 0
where no code starts.  The longest baseline code is 16 bits, so there is
no bit-serial fallback.  The lookups of every bit position are taken at
once with NumPy; the Python loop only chains symbol starts, and the
amplitude fields are gathered at those starts afterwards.  The two
lookahead tables (128 KiB each) are built on first use.

Errors:

* :func:`encode_blocks` raises ``ValueError`` for input that is not
  ``(n, 64)``, and for a level outside the baseline categories, naming the
  block: a DC difference beyond ±2047 (category 11, Table F.1) or an AC
  level beyond ±1023 (category 10, Table F.2).
* :func:`decode_blocks` raises ``EOFError`` when the stream ends inside a
  code or an amplitude field.  That includes 16 bits that start no code
  when fewer than 16 bits are left, because a longer stream could still
  complete a code there.  It raises ``ValueError`` for 16 bits that start
  no code, and for an AC run or ZRL that passes coefficient 63.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "BitWriter",
    "BitReader",
    "encode_blocks",
    "decode_blocks",
]

# ----------------------------------------------------------------------
# standard luminance Huffman tables (T.81 Annex K.3)
# ----------------------------------------------------------------------

_DC_BITS = [0, 0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
_DC_VALUES = list(range(12))

_AC_BITS = [0, 0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 125]
_AC_VALUES = [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41, 0x06,
    0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
    0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24, 0x33, 0x62, 0x72,
    0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
    0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44, 0x45,
    0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
    0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75,
    0x76, 0x77, 0x78, 0x79, 0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
    0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3,
    0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
    0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9,
    0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
    0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2, 0xF3, 0xF4,
    0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
]

_EOB, _ZRL = 0x00, 0xF0
#: largest DC difference and AC level of the baseline categories (Tables F.1, F.2)
_DC_LIMIT, _AC_LIMIT = 2047, 1023
#: coefficient advance that marks EOB in the decoder's walk, past any real run
_EOB_ADVANCE = 128


def _build_table(bits: list[int], values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Annex C code construction: per-symbol code and length (0: no code)."""
    codes = np.zeros(256, np.int64)
    lengths = np.zeros(256, np.int64)
    code = 0
    index = 0
    for length in range(1, 17):
        for _ in range(bits[length]):
            codes[values[index]] = code
            lengths[values[index]] = length
            code += 1
            index += 1
        code <<= 1
    return codes, lengths


_DC_CODES, _DC_LENGTHS = _build_table(_DC_BITS, _DC_VALUES)
_AC_CODES, _AC_LENGTHS = _build_table(_AC_BITS, _AC_VALUES)
#: 0-3 ZRL codes back to back; a zero run of at most 62 needs at most 3
_ZRL_PREFIXES = np.cumsum(
    [0] + [_AC_CODES[_ZRL] << _AC_LENGTHS[_ZRL] * i for i in range(3)]
)


@functools.cache
def _lookahead(ac: bool) -> np.ndarray:
    """Decode table over the next 16 bits: ``symbol << 5 | length``, or 0
    where no code starts."""
    codes, lengths = (_AC_CODES, _AC_LENGTHS) if ac else (_DC_CODES, _DC_LENGTHS)
    table = np.zeros(1 << 16, np.uint16)
    for symbol in np.flatnonzero(lengths):
        free = 16 - lengths[symbol]
        start = codes[symbol] << free
        table[start : start + (1 << free)] = symbol << 5 | lengths[symbol]
    table.flags.writeable = False  # shared by every caller
    return table


def _pack(bits: np.ndarray) -> bytes:
    """MSB-first bytes of a 0/1 array, the last byte padded with 1s (T.81)."""
    packed = np.packbits(bits.astype(np.uint8))
    if len(bits) % 8:
        packed[-1] |= 0xFF >> len(bits) % 8
    return packed.tobytes()


class BitWriter:
    """MSB-first bit accumulator."""

    def __init__(self) -> None:
        self._bits: list[int] = []

    def write(self, value: int, length: int) -> None:
        if length < 0 or (length == 0 and value != 0):
            raise ValueError(f"cannot write value {value} in {length} bits")
        for position in range(length - 1, -1, -1):
            self._bits.append((value >> position) & 1)

    def __len__(self) -> int:
        return len(self._bits)

    def to_bytes(self) -> bytes:
        return _pack(np.array(self._bits, np.uint8))


class BitReader:
    """MSB-first bit consumer over bytes."""

    def __init__(self, data: bytes):
        self._data = data
        self._position = 0

    def read_bit(self) -> int:
        byte_index, bit_index = divmod(self._position, 8)
        if byte_index >= len(self._data):
            raise EOFError("bitstream exhausted")
        self._position += 1
        return (self._data[byte_index] >> (7 - bit_index)) & 1

    def read(self, length: int) -> int:
        value = 0
        for _ in range(length):
            value = (value << 1) | self.read_bit()
        return value


def _category(values):
    """JPEG size category: bits needed for ``|values|`` (elementwise; exact
    below 2^53)."""
    return np.frexp(values)[1]


def _amplitude_bits(values, sizes):
    """One's-complement style amplitude encoding of T.81 F.1.2.1."""
    return np.where(values < 0, values + (1 << sizes) - 1, values)


def _decode_amplitude(raw, sizes):
    """Inverse of :func:`_amplitude_bits`; size 0 decodes to 0."""
    return np.where(raw >= (1 << sizes) >> 1, raw, raw - (1 << sizes) + 1)


def _check_levels(blocks, diffs, rows, columns, levels) -> None:
    """Raise ``ValueError`` for the first block with a DC difference or an
    AC level past its category table (ranges compared directly: ``np.abs``
    of -2^63 is negative)."""
    bad_dc = np.flatnonzero((diffs < -_DC_LIMIT) | (diffs > _DC_LIMIT))
    bad_ac = np.flatnonzero((levels < -_AC_LIMIT) | (levels > _AC_LIMIT))
    if len(bad_dc) and (not len(bad_ac) or bad_dc[0] <= rows[bad_ac[0]]):
        index = int(bad_dc[0])
        previous = int(blocks[index - 1, 0]) if index else 0
        diff = int(blocks[index, 0]) - previous
        raise ValueError(
            f"block {index}: DC difference {diff} is outside ±{_DC_LIMIT}, "
            "the baseline DC categories (T.81 Table F.1)"
        )
    if len(bad_ac):
        first = bad_ac[0]
        raise ValueError(
            f"block {rows[first]}: AC level {levels[first]} at zig-zag index "
            f"{columns[first] + 1} is outside ±{_AC_LIMIT}, the baseline AC "
            "categories (T.81 Table F.2)"
        )


def encode_blocks(zigzag_blocks: np.ndarray) -> bytes:
    """Entropy-encode ``(n, 64)`` zig-zag quantized blocks."""
    blocks = np.asarray(zigzag_blocks, dtype=np.int64)
    if blocks.ndim != 2 or blocks.shape[1] != 64:
        raise ValueError(f"expected (n, 64) zig-zag blocks, got {blocks.shape}")
    count = len(blocks)
    # Up to the first bad difference, |DC| <= 2047 * (block + 1) < bound, so
    # clipping there changes no difference that passes the check, keeps the
    # first bad one out of range and cannot overflow int64.
    bound = (_DC_LIMIT + 1) * (count + 1)
    diffs = np.diff(np.clip(blocks[:, 0], -bound, bound), prepend=0)
    rows, columns = np.nonzero(blocks[:, 1:] != 0)
    levels = blocks[rows, columns + 1]
    _check_levels(blocks, diffs, rows, columns, levels)

    sizes = _category(diffs)
    dc_fields = _DC_CODES[sizes] << sizes | _amplitude_bits(diffs, sizes)
    dc_lengths = _DC_LENGTHS[sizes] + sizes

    # one field per nonzero AC level: its ZRLs, its (run, size) code and its
    # amplitude, at most 3 * 11 + 16 + 10 bits.  A run counts the zeros back
    # to the previous level of the same block, or to its DC.
    first = np.ones(len(rows), bool)
    first[1:] = rows[1:] != rows[:-1]
    runs = columns - np.where(first, -1, np.roll(columns, 1)) - 1
    zrls, runs = runs >> 4, runs & 15
    sizes = _category(levels)
    symbols = runs << 4 | sizes
    code_lengths = _AC_LENGTHS[symbols]
    codes = _ZRL_PREFIXES[zrls] << code_lengths | _AC_CODES[symbols]
    ac_fields = codes << sizes | _amplitude_bits(levels, sizes)
    ac_lengths = zrls * _AC_LENGTHS[_ZRL] + code_lengths + sizes

    # stream order: per block its DC field, its AC fields, then EOB if its
    # last coefficient is zero.  The slots are counted out rather than
    # sorted: np.argsort alone pages in about 0.3 MB of sort code.
    eob = blocks[:, 63] == 0
    ac_counts = np.bincount(rows, minlength=count)
    ac_before = np.cumsum(ac_counts) - ac_counts
    dc_slots = np.arange(count) + ac_before + np.cumsum(eob) - eob
    ac_slots = (dc_slots + 1 - ac_before)[rows] + np.arange(len(rows))
    eob_slots = (dc_slots + 1 + ac_counts)[eob]
    fields = np.empty(count + len(rows) + len(eob_slots), np.int64)
    lengths = np.empty_like(fields)
    fields[dc_slots], lengths[dc_slots] = dc_fields, dc_lengths
    fields[ac_slots], lengths[ac_slots] = ac_fields, ac_lengths
    fields[eob_slots], lengths[eob_slots] = _AC_CODES[_EOB], _AC_LENGTHS[_EOB]

    # bit i of the stream is bit (end of its field - 1 - i) of that field
    bits = np.repeat(fields, lengths)
    bits >>= np.repeat(np.cumsum(lengths) - 1, lengths) - np.arange(len(bits))
    bits &= 1
    return _pack(bits)


def _windows(data: bytes) -> np.ndarray:
    """The 16 bits from each bit position of ``data`` on (zeros past its
    end), for ``8 * len(data) + 24`` positions."""
    padded = np.frombuffer(bytes(data) + bytes(5), np.uint8).astype(np.uint32)
    words = padded[:-2] << 16 | padded[1:-1] << 8 | padded[2:]
    shifts = np.arange(8, 0, -1, dtype=np.uint32)
    return (words[:, None] >> shifts).astype(np.uint16).ravel()


def _symbols_at(windows: np.ndarray, nbits: int, ac: bool):
    """The lookahead entry at every position 0..nbits, and the position after
    that symbol's amplitude field (-1 where no code starts or past the end)."""
    entries = _lookahead(ac)[windows[: nbits + 1]]
    lengths = entries & 31
    ends = np.arange(nbits + 1, dtype=np.int32) + lengths + (entries >> 5 & 15)
    ends[(lengths == 0) | (ends > nbits)] = -1
    return entries, ends


def _amplitudes(windows: np.ndarray, entries: np.ndarray, starts: list[int]):
    """The amplitude fields of the symbols that start at ``starts``."""
    starts = np.array(starts, np.int64)
    entries = entries[starts].astype(np.int64)
    sizes = entries >> 5 & 15
    return _decode_amplitude(windows[starts + (entries & 31)] >> (16 - sizes), sizes)


def _decode_error(windows: np.ndarray, nbits: int, position: int, coefficient):
    """The error for a symbol at ``position`` that has no end (``coefficient``
    is None for a DC symbol), in the order a bit-serial read meets them."""
    entry = int(_lookahead(coefficient is not None)[windows[position]])
    length, run = entry & 31, entry >> 9
    if length == 0 and nbits - position >= 16:
        return ValueError("invalid Huffman code in bitstream")
    if length and position + length <= nbits:
        # the code is whole: the run is checked before the amplitude is read
        if coefficient is not None and coefficient + run >= 64:
            return ValueError("AC run past end of block")
    return EOFError("bitstream exhausted")


def decode_blocks(data: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`encode_blocks`; returns ``(count, 64)`` levels."""
    levels = np.zeros(count * 64, dtype=np.int64)
    nbits = 8 * len(data)
    windows = _windows(data)
    dc_entries, dc_ends = _symbols_at(windows, nbits, ac=False)
    ac_entries, ac_ends = _symbols_at(windows, nbits, ac=True)
    # coefficients an AC symbol moves past: its run and its value (a ZRL is
    # run 15 with a zero value)
    advances = np.where(ac_entries >> 5 == _EOB, _EOB_ADVANCE, (ac_entries >> 9) + 1)

    # memoryviews index to Python ints without converting whole arrays
    dc_next, ac_next = memoryview(dc_ends), memoryview(ac_ends)
    advance = memoryview(advances)
    dc_starts: list[int] = []
    ac_starts: list[int] = []
    slots: list[int] = []
    position = 0
    for index in range(count):
        end = dc_next[position]
        if end < 0:
            raise _decode_error(windows, nbits, position, None)
        dc_starts.append(position)
        position = end
        base = 64 * index - 1
        coefficient = 1
        while coefficient < 64:
            end = ac_next[position]
            if end < 0:
                raise _decode_error(windows, nbits, position, coefficient)
            coefficient += advance[position]
            if coefficient > 64:
                if coefficient < _EOB_ADVANCE:
                    raise ValueError("AC run past end of block")
                position = end
                break
            ac_starts.append(position)
            slots.append(base + coefficient)
            position = end
    levels[::64] = np.cumsum(_amplitudes(windows, dc_entries, dc_starts))
    levels[slots] = _amplitudes(windows, ac_entries, ac_starts)
    return levels.reshape(count, 64)
