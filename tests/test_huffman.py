"""Tests for the baseline JPEG entropy coder (T.81 Annex K tables)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis import example

from repro.jpeg.huffman import (
    BitReader,
    BitWriter,
    decode_blocks,
    encode_blocks,
    _amplitude_bits,
    _category,
    _decode_amplitude,
)
from repro.jpeg.codec import roundtrip_psnr
from repro.jpeg.huffman import _AC_BITS, _AC_VALUES, _DC_BITS, _DC_VALUES
from repro.multipliers.registry import build


class TestBitIO:
    def test_roundtrip(self):
        writer = BitWriter()
        writer.write(0b101, 3)
        writer.write(0b1, 1)
        writer.write(0xAB, 8)
        data = writer.to_bytes()
        reader = BitReader(data)
        assert reader.read(3) == 0b101
        assert reader.read(1) == 1
        assert reader.read(8) == 0xAB

    def test_padding_with_ones(self):
        writer = BitWriter()
        writer.write(0, 1)
        assert writer.to_bytes() == bytes([0b0111_1111])

    def test_zero_length_write(self):
        writer = BitWriter()
        writer.write(0, 0)
        assert len(writer) == 0
        with pytest.raises(ValueError):
            writer.write(1, 0)

    def test_reader_exhaustion(self):
        reader = BitReader(b"")
        with pytest.raises(EOFError):
            reader.read_bit()


class TestAmplitudeCoding:
    @given(st.integers(min_value=-2047, max_value=2047))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, value):
        size = _category(value)
        assert _decode_amplitude(_amplitude_bits(value, size), size) == value

    def test_categories(self):
        assert _category(0) == 0
        assert _category(1) == _category(-1) == 1
        assert _category(255) == 8
        assert _category(-256) == 9


class TestBlockCoding:
    def _roundtrip(self, blocks):
        blocks = np.asarray(blocks, dtype=np.int64)
        data = encode_blocks(blocks)
        return decode_blocks(data, blocks.shape[0])

    def test_all_zero_blocks(self):
        blocks = np.zeros((3, 64))
        assert np.array_equal(self._roundtrip(blocks), blocks)

    def test_dc_difference_chain(self):
        blocks = np.zeros((4, 64))
        blocks[:, 0] = [100, 90, 90, -30]
        assert np.array_equal(self._roundtrip(blocks), blocks)

    def test_long_zero_runs_use_zrl(self):
        blocks = np.zeros((1, 64))
        blocks[0, 0] = 5
        blocks[0, 40] = -3  # 39 leading AC zeros: needs ZRL symbols
        assert np.array_equal(self._roundtrip(blocks), blocks)

    def test_full_block_no_eob(self):
        rng = np.random.default_rng(31)
        blocks = rng.integers(1, 5, (2, 64))  # no zeros at all
        assert np.array_equal(self._roundtrip(blocks), blocks)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            encode_blocks(np.zeros((2, 63)))

    def test_invalid_bitstream_detected(self):
        with pytest.raises((ValueError, EOFError)):
            decode_blocks(b"\x00\x00", count=4)

    def test_sparse_blocks_compress(self):
        sparse = np.zeros((16, 64), dtype=np.int64)
        sparse[:, 0] = 50
        dense = np.asarray(
            np.random.default_rng(32).integers(-200, 200, (16, 64)), dtype=np.int64
        )
        assert len(encode_blocks(sparse)) < len(encode_blocks(dense)) / 4

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=63),
                st.integers(min_value=-1000, max_value=1000),
            ),
            min_size=0,
            max_size=12,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, entries):
        block = np.zeros((1, 64), dtype=np.int64)
        for position, value in entries:
            block[0, position] = value
        assert np.array_equal(self._roundtrip(block), block)


# Annex K codes for streams built by hand: DC category 0, ZRL and the AC
# symbol of a 15-zero run before a category-1 level
DC_SIZE_0 = (0b00, 2)
ZRL = (0b11111111001, 11)
AC_RUN_15_SIZE_1 = (0b1111111111110101, 16)


def _annex_c(bits, values):
    """Annex C code construction: symbol -> (code, length)."""
    table, code, index = {}, 0, 0
    for length in range(1, 17):
        for _ in range(bits[length]):
            table[values[index]] = (code, length)
            code += 1
            index += 1
        code <<= 1
    return table


SERIAL_DC, SERIAL_AC = _annex_c(_DC_BITS, _DC_VALUES), _annex_c(_AC_BITS, _AC_VALUES)


def _serial_encode(levels):
    """The bit-serial encoder the table-driven one replaced: the byte reference."""
    writer = BitWriter()
    previous = 0
    for block in np.asarray(levels).tolist():
        diff, previous = block[0] - previous, block[0]
        size = abs(diff).bit_length()
        writer.write(*SERIAL_DC[size])
        writer.write(diff if diff >= 0 else diff + (1 << size) - 1, size)
        run = 0
        for value in block[1:]:
            if value == 0:
                run += 1
                continue
            for _ in range(run // 16):
                writer.write(*SERIAL_AC[0xF0])
            size = abs(value).bit_length()
            writer.write(*SERIAL_AC[(run % 16) << 4 | size])
            writer.write(value if value >= 0 else value + (1 << size) - 1, size)
            run = 0
        if run:
            writer.write(*SERIAL_AC[0x00])
    return writer.to_bytes()


def _serial_decode(data, count):
    """The bit-serial decoder the table-driven one replaced, with the ZRL
    treated as run 15 and a zero value: the reference for levels and errors."""
    reader = BitReader(data)
    dc_codes = {code: symbol for symbol, code in SERIAL_DC.items()}
    ac_codes = {code: symbol for symbol, code in SERIAL_AC.items()}

    def read_symbol(codes):
        code = 0
        for length in range(1, 17):
            code = code << 1 | reader.read_bit()
            if (code, length) in codes:
                return codes[code, length]
        raise ValueError("invalid Huffman code in bitstream")

    def read_amplitude(size):
        raw = reader.read(size)
        return raw if size == 0 or raw >> (size - 1) else raw - (1 << size) + 1

    levels = np.zeros((count, 64), dtype=np.int64)
    previous = 0
    for index in range(count):
        previous += read_amplitude(read_symbol(dc_codes))
        levels[index, 0] = previous
        position = 1
        while position < 64:
            symbol = read_symbol(ac_codes)
            if symbol == 0x00:
                break
            position += symbol >> 4
            if position >= 64:
                raise ValueError("AC run past end of block")
            levels[index, position] = read_amplitude(symbol & 15)
            position += 1
    return levels


def _outcome(decode, data, count):
    try:
        return decode(data, count).tolist()
    except (EOFError, ValueError) as error:
        return type(error), str(error)


def _levels(spec):
    """``(n, 64)`` levels from per-block ``(DC difference, {index: AC level})``."""
    levels = np.zeros((len(spec), 64), dtype=np.int64)
    levels[:, 0] = np.cumsum([diff for diff, _ in spec], dtype=np.int64)
    for row, (_, ac) in enumerate(spec):
        for index, level in ac.items():
            levels[row, index] = level
    return levels


# few AC levels per block, so zero runs of 16-62 (one to three ZRLs) are
# common; the limits of the largest categories are drawn on purpose
_BLOCK_SPECS = st.lists(
    st.tuples(
        st.one_of(st.sampled_from([-2047, 2047]), st.integers(-2047, 2047)),
        st.dictionaries(
            st.integers(min_value=1, max_value=63),
            st.one_of(st.sampled_from([-1023, 1023]), st.integers(-1023, 1023)),
            max_size=6,
        ),
    ),
    max_size=8,
)


def _damaged(spec, flip, extra_blocks):
    """A valid stream with one bit flipped, read for a few blocks more."""
    data = bytearray(encode_blocks(_levels(spec)))
    if data:
        data[flip // 8 % len(data)] ^= 1 << flip % 8
    return bytes(data), len(spec) + extra_blocks


_MALFORMED = st.one_of(
    st.tuples(st.binary(max_size=48), st.integers(min_value=0, max_value=8)),
    st.builds(_damaged, _BLOCK_SPECS, st.integers(min_value=0), st.integers(0, 2)),
)


class TestTableDrivenCoding:
    @given(_BLOCK_SPECS)
    @example([])
    # run 62 (three ZRLs, no EOB), run 16 (one ZRL), run 47 then 13 (two
    # ZRLs, no EOB), at the DC and AC limits
    @example([(2047, {63: -1023}), (-2047, {17: 1023}), (0, {1: 1, 49: -1, 63: 2})])
    @settings(max_examples=200, deadline=None)
    def test_multi_block_roundtrip(self, spec):
        levels = _levels(spec)
        data = encode_blocks(levels)
        assert data == _serial_encode(levels)
        assert np.array_equal(decode_blocks(data, len(spec)), levels)

    @given(_MALFORMED)
    @settings(max_examples=300, deadline=None)
    def test_damaged_streams_fail_like_the_serial_decoder(self, case):
        assert _outcome(decode_blocks, *case) == _outcome(_serial_decode, *case)

    def test_empty_input(self):
        assert encode_blocks(np.zeros((0, 64), dtype=np.int64)) == b""
        assert decode_blocks(b"", 0).shape == (0, 64)

    def test_every_proper_prefix_runs_out(self):
        rng = np.random.default_rng(18)
        sparse = rng.random((20, 64)) < 0.15
        levels = np.where(sparse, rng.integers(-40, 40, (20, 64)), 0)
        data = encode_blocks(levels)
        assert np.array_equal(decode_blocks(data, 20), levels)
        for cut in range(len(data)):
            with pytest.raises(EOFError):
                decode_blocks(data[:cut], 20)

    def test_no_code_in_a_short_tail_runs_out(self):
        # 00 (DC category 0) 1010 (EOB), then ten 1s: no DC code starts
        # there, but with fewer than 16 bits left a longer stream could
        # still complete one
        with pytest.raises(EOFError):
            decode_blocks(bytes([0x2B, 0xFF]), 2)
        # with 16 or more bits left, those bits start no code at all
        with pytest.raises(ValueError, match="invalid Huffman code"):
            decode_blocks(bytes([0x2B, 0xFF, 0xFF]), 2)

    def test_zrl_past_coefficient_63_is_rejected(self):
        # zeros 1-16, 17-32, 33-48, then 49-64: one past the block
        writer = BitWriter()
        writer.write(*DC_SIZE_0)
        for _ in range(4):
            writer.write(*ZRL)
        with pytest.raises(ValueError, match="AC run past end of block"):
            decode_blocks(writer.to_bytes(), 1)

    def test_run_past_coefficient_63_is_rejected(self):
        # the same position as the fourth ZRL above, with a run-15 symbol
        writer = BitWriter()
        writer.write(*DC_SIZE_0)
        for _ in range(3):
            writer.write(*ZRL)
        writer.write(*AC_RUN_15_SIZE_1)
        writer.write(1, 1)
        with pytest.raises(ValueError, match="AC run past end of block"):
            decode_blocks(writer.to_bytes(), 1)


class TestLevelLimits:
    def test_realm_dc_step_is_a_value_error(self):
        # REALM's DC levels of -1048 and +1024 differ by 2072: category 12
        image = np.zeros((16, 16), np.uint8)
        image[:, 8:] = 255
        with pytest.raises(ValueError, match=r"block 1: DC difference 2072 .*±2047"):
            roundtrip_psnr(build("realm16-t8"), image, quality=100)

    def test_dc_difference_limit(self):
        levels = _levels([(2047, {}), (-2047, {}), (-2047, {})])
        assert np.array_equal(decode_blocks(encode_blocks(levels), 3), levels)
        for step in (2048, -2048):
            levels = _levels([(0, {}), (5, {}), (step, {})])
            message = rf"block 2: DC difference {step} .*±2047"
            with pytest.raises(ValueError, match=message):
                encode_blocks(levels)

    def test_ac_level_limit(self):
        levels = _levels([(0, {1: 1023, 63: -1023})])
        assert np.array_equal(decode_blocks(encode_blocks(levels), 1), levels)
        for level in (1024, -1024):
            levels = _levels([(0, {}), (0, {2: 1, 9: level})])
            message = rf"block 1: AC level {level} at zig-zag index 9 .*±1023"
            with pytest.raises(ValueError, match=message):
                encode_blocks(levels)

    def test_int64_min_ac_level_is_rejected(self):
        # np.abs(-2**63) is negative; read through it, this level would be
        # category 0, whose run-0 symbol is EOB
        levels = _levels([(0, {}), (0, {5: -(2**63)})])
        message = f"block 1: AC level {-(2**63)} at zig-zag index 5"
        with pytest.raises(ValueError, match=message):
            encode_blocks(levels)
