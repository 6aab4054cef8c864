"""Tests for the signed wrapper and the DSP helpers (paper Section III-C)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from repro.analysis import telemetry
from repro.core.realm import RealmMultiplier
from repro.jpeg.dct import dct_matrix_q7, forward_dct
from repro.jpeg.images import test_image as make_image
from repro.multipliers import signed as signed_module
from repro.multipliers.accurate import AccurateMultiplier
from repro.multipliers.registry import build, names
from repro.multipliers.signed import (
    MAC_BLOCK,
    SignedMultiplier,
    convolve2d,
    dot_product,
    signed_matmul,
    signed_product,
)
from repro.nn.cnn import FixedPointCnn
from repro.nn.evaluate import trained_cnn_setup

from tests.strategies import signed_operands


def accurate_signed(bitwidth: int = 16) -> SignedMultiplier:
    return SignedMultiplier(AccurateMultiplier, bitwidth=bitwidth)


class TestSignedProduct:
    def test_signs(self):
        acc = AccurateMultiplier()
        a = np.array([3, -3, 3, -3])
        b = np.array([5, 5, -5, -5])
        assert signed_product(acc, a, b).tolist() == [15, -15, -15, 15]

    def test_magnitude_overflow_raises(self):
        acc = AccurateMultiplier()
        with pytest.raises(ValueError):
            signed_product(acc, np.array([1 << 16]), np.array([1]))

    def test_scalars_and_broadcasting(self):
        acc = AccurateMultiplier()
        assert int(signed_product(acc, -3, 5)) == -15
        a = np.array([[-2], [0], [7]])
        b = np.array([-4, 4])
        assert np.array_equal(signed_product(acc, a, b), a * b)


class TestSignedMatmul:
    @pytest.mark.parametrize(
        "left_shape, right_shape",
        [((6, 5), (5, 3)), ((8, 8), (4, 8, 8)), ((2, 1, 4, 5), (3, 5, 6))],
        ids=["matrices", "constant-left", "broadcast-stacks"],
    )
    @pytest.mark.parametrize("block", [1, 1 << 17])
    def test_matches_matmul_with_accurate_core(
        self, left_shape, right_shape, block, monkeypatch
    ):
        # one product row per block also splits the stacks whose leading
        # axis only one operand carries
        monkeypatch.setattr("repro.multipliers.signed.MAC_BLOCK", block)
        rng = np.random.default_rng(9)
        left = rng.integers(-1000, 1000, left_shape)
        right = rng.integers(-1000, 1000, right_shape)
        out = signed_matmul(AccurateMultiplier(), left, right)
        assert np.array_equal(out, np.matmul(left, right))

    def test_operand_order_is_left_then_right(self):
        # alm-maa-m3 products change when its operands swap: the left
        # operand must reach the multiplier first
        multiplier = build("alm-maa-m3")
        rng = np.random.default_rng(12)
        left = rng.integers(1, 1 << 15, (6, 7)) * rng.choice([-1, 1], (6, 7))
        right = rng.integers(1, 1 << 15, (7, 5)) * rng.choice([-1, 1], (7, 5))
        magnitudes = multiplier.multiply(
            np.abs(left)[:, :, None], np.abs(right)[None, :, :]
        )
        signs = np.sign(left)[:, :, None] * np.sign(right)[None, :, :]
        expected = (signs * magnitudes).sum(axis=1)
        assert np.array_equal(signed_matmul(multiplier, left, right), expected)
        assert not np.array_equal(signed_matmul(multiplier, right.T, left.T).T, expected)

    def test_a_wide_row_is_cut_into_column_blocks(self):
        # one leading row of 5 x MAC_BLOCK products: the blocks, not the
        # row, bound the temporaries (as one block the row peaked at 55
        # block sizes).  The right operand has no negatives, so no
        # operand-sized magnitude copy is taken.
        multiplier = build("realm16-t0")
        rng = np.random.default_rng(5)
        left = rng.integers(-(1 << 14), 1 << 14, (1, 640))
        right = rng.integers(0, 1 << 14, (640, 1024))
        signed_matmul(multiplier, left[:, :1], right[:1, :1])  # compile untraced
        tracemalloc.start()
        try:
            out = signed_matmul(multiplier, left, right)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * MAC_BLOCK * 8
        assert np.array_equal(out, definition(multiplier, left, right))

    def test_shape_mismatch(self):
        acc = AccurateMultiplier()
        with pytest.raises(ValueError):
            signed_matmul(acc, np.zeros((2, 3)), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            signed_matmul(acc, np.zeros(3), np.zeros((3, 2)))


def definition(multiplier, left, right) -> np.ndarray:
    """``signed_matmul`` by its definition: every product, summed in int64."""
    left = np.asarray(left)[..., :, :, None]
    right = np.asarray(right)[..., None, :, :]
    return signed_product(multiplier, left, right).sum(axis=-2, dtype=np.int64)


def mac_paths(multiplier, left, right):
    """``signed_matmul`` and the count of its ``mac.table``/``mac.direct`` spans."""
    with telemetry.recording() as rec:
        out = signed_matmul(multiplier, left, right)
    snap = rec.snapshot
    return out, snap.phase("mac.table").count, snap.phase("mac.direct").count


class CountingMultiplier:
    """Forwards to ``inner`` and records the element count of each call."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def multiply(self, a, b):
        self.calls.append(np.broadcast(a, b).size)
        return self.inner.multiply(a, b)


def mac_shapes(seed: int = 3):
    """The DCT pass, its mirror and the CNN conv layer, shaped as the
    applications call the MAC: small constant operands, data in range."""
    rng = np.random.default_rng(seed)
    basis = dct_matrix_q7()
    weights = rng.integers(-300, 300, (9, 8))
    return {
        "dct": (basis, rng.integers(-128, 128, (32, 8, 8))),
        "dct-mirror": (rng.integers(-600, 600, (160, 8, 8)), basis.T),
        "conv": (rng.integers(0, 256, (32, 36, 9)), weights),
    }


class TestTablePath:
    @pytest.mark.parametrize("name", names())
    def test_every_design_matches_definition(self, name):
        multiplier = build(name)
        for case, (left, right) in mac_shapes().items():
            out, tables, directs = mac_paths(multiplier, left, right)
            assert (tables, directs) == (1, 0), case
            assert np.array_equal(out, definition(multiplier, left, right)), case

    def test_operand_order_with_the_constant_on_either_side(self):
        # alm-maa-m3 products change when its operands swap, so the
        # table must be built in the caller's operand order
        multiplier = build("alm-maa-m3")
        rng = np.random.default_rng(4)
        # 8 distinct 15-bit magnitudes against a narrow band of data
        magnitudes = rng.integers(1, 1 << 15, 8)[rng.integers(0, 8, (8, 8))]
        constant = rng.choice([-1, 1], (8, 8)) * magnitudes
        data = rng.integers(-20400, -20000, (64, 8, 8))
        for left, right in ((constant, data), (data, constant)):
            out, tables, _ = mac_paths(multiplier, left, right)
            assert tables == 1
            assert np.array_equal(out, definition(multiplier, left, right))
            swapped = definition(
                multiplier, np.swapaxes(right, -1, -2), np.swapaxes(left, -1, -2)
            )
            assert not np.array_equal(out, np.swapaxes(swapped, -1, -2))

    def test_batch_dims_on_the_smaller_operand(self, monkeypatch):
        # blocks of one leading row split the smaller, tabled operand
        monkeypatch.setattr("repro.multipliers.signed.MAC_BLOCK", 1000)
        multiplier = build("realm16-t0")
        rng = np.random.default_rng(5)
        left = rng.integers(-5, 6, (2, 1, 3, 4))
        right = rng.integers(-20, 21, (3, 4, 64))
        out, tables, _ = mac_paths(multiplier, left, right)
        assert tables == 1
        assert out.shape == (2, 3, 3, 64)
        assert np.array_equal(out, definition(multiplier, left, right))

    @pytest.mark.parametrize("side", ["small", "other"])
    def test_out_of_range_operand_raises_as_direct(self, side, monkeypatch):
        multiplier = build("calm")
        basis = dct_matrix_q7()
        data = np.random.default_rng(6).integers(65530, 65536, (32, 8, 8))
        if side == "small":
            basis = basis.copy()
            basis[3, 5] = -(1 << 16)
        else:
            data[7, 2, 1] = 1 << 16
        with telemetry.recording() as rec:
            with pytest.raises(ValueError) as table_error:
                signed_matmul(multiplier, basis, data)
        assert rec.snapshot.phase("mac.table").count == 1
        monkeypatch.setattr("repro.multipliers.signed.TABLE_RATIO", 1 << 62)
        with pytest.raises(ValueError) as direct_error:
            signed_matmul(multiplier, basis, data)
        assert str(table_error.value) == str(direct_error.value)

    def test_one_multiply_per_table_call(self):
        for case, (left, right) in mac_shapes().items():
            counting = CountingMultiplier(build("drum-k8"))
            out, tables, _ = mac_paths(counting, left, right)
            assert tables == 1
            assert len(counting.calls) == 1, case
            assert counting.calls[0] <= MAC_BLOCK, case
            assert np.array_equal(out, definition(counting.inner, left, right))

    def test_no_table_exceeds_mac_block(self, monkeypatch):
        # two distinct values against a range of 512 make 1,024 entries
        monkeypatch.setattr("repro.multipliers.signed.MAC_BLOCK", 1024)
        multiplier = CountingMultiplier(AccurateMultiplier())
        left = np.array([[-3, 5]])
        right = np.tile(np.arange(512), (2, 8))
        out, tables, directs = mac_paths(multiplier, left, right)
        assert (tables, directs, multiplier.calls) == (1, 0, [1024])
        assert np.array_equal(out, left @ right)
        right[0, 0] = 512  # 1,026 entries: the direct path
        out, tables, directs = mac_paths(multiplier, left, right)
        assert (tables, directs) == (0, 1)
        assert np.array_equal(out, left @ right)

    @pytest.mark.parametrize(
        "left_shape, right_shape",
        [((0, 8), (8, 3)), ((8, 8), (0, 8, 8)), ((0, 36, 9), (9, 8)), ((3, 0), (0, 4))],
    )
    def test_zero_row_operands(self, left_shape, right_shape):
        left = np.ones(left_shape, dtype=np.int64)
        right = np.ones(right_shape, dtype=np.int64)
        out = signed_matmul(build("realm16-t0"), left, right)
        expected = np.matmul(left, right)
        assert out.shape == expected.shape and out.dtype == np.int64
        assert np.array_equal(out, expected)

    def test_telemetry_names_the_path(self):
        multiplier = build("realm16-t0")
        image = make_image("cameraman").astype(np.int64) - 128
        blocks = image.reshape(32, 8, 32, 8).swapaxes(1, 2)
        with telemetry.recording() as rec:
            forward_dct(multiplier, blocks)
        snap = rec.snapshot
        assert snap.phase("mac.table").count == 2
        assert snap.phase("mac.direct").count == 0
        assert snap.counter("mac.products") == 2 * 1024 * 8 * 8 * 8
        data, params = trained_cnn_setup()
        with telemetry.recording() as rec:
            FixedPointCnn(params, multiplier).logits(data.test_x[:100])
        snap = rec.snapshot
        # the conv layer tables its weights; the FC layer's would not pay
        assert snap.phase("mac.table").count == 1
        assert snap.phase("mac.direct").count == 1
        assert snap.counter("mac.products") == 100 * (36 * 9 * 8 + 72 * 10)


class TestRowTables:
    @pytest.mark.parametrize("name", ["accurate", "alm-maa-m3"])
    @pytest.mark.parametrize(
        "depth, dtype",
        [((1 << 14) - 1, np.int32), ((1 << 14) + 1, np.int64)],
        ids=["int32", "int64"],
    )
    def test_sums_beside_the_int32_limit(self, name, depth, dtype, monkeypatch):
        # one output sums depth products 512 x 256 = 2**17 (exact on both
        # designs): 2**31 - 2**17, the largest sums the int32 buffer
        # takes, or 2**31 + 2**17, which only an int64 buffer holds
        chosen = []
        original = signed_module._sum_dtype

        def recording(depth, table):
            chosen.append(original(depth, table))
            return chosen[-1]

        monkeypatch.setattr(signed_module, "_sum_dtype", recording)
        multiplier = build(name)
        rng = np.random.default_rng(11)
        constant = rng.choice([-512, 300, 512], (2, depth))
        constant[0] = 512
        data = rng.integers(200, 257, (depth, 4))
        data[:, 0] = 256
        for left, right in ((constant, data), (data.T, constant.T)):
            out, tables, _ = mac_paths(multiplier, left, right)
            assert tables == 1
            assert out[0, 0] == depth << 17
            assert np.array_equal(out, definition(multiplier, left, right))
        assert chosen == [dtype, dtype]

    def test_row_tables_split_over_k_and_lanes(self, monkeypatch):
        # a 64-entry row table holds 4 lanes of one k: 10 lane slices of
        # each of 3 k, and blocks of one data element
        monkeypatch.setattr("repro.multipliers.signed.MAC_BLOCK", 64)
        multiplier = build("alm-maa-m3")
        rng = np.random.default_rng(13)
        constant = rng.choice([-2, 0, 3], (3, 40))
        data = rng.integers(0, 16, (50, 3))
        for left, right in ((data, constant), (constant.T, data.T)):
            out, tables, _ = mac_paths(multiplier, left, right)
            assert tables == 1
            assert np.array_equal(out, definition(multiplier, left, right))

    def test_a_deep_dct_stack_keeps_temporaries_bounded(self, monkeypatch):
        # 4,608 blocks make 18 x MAC_BLOCK products.  The row gathers need
        # the output, one operand-sized index and the int32 sums; the
        # products alone, even as int32, would take 4 output sizes.
        multiplier = build("realm16-t0")
        basis = dct_matrix_q7()
        data = np.random.default_rng(14).integers(-128, 128, (4608, 8, 8))
        assert data.size * 8 > 16 * MAC_BLOCK
        signed_matmul(multiplier, basis, data[:1])  # compile untraced
        tracemalloc.start()
        try:
            out, tables, _ = mac_paths(multiplier, basis, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tables == 1
        assert peak < 3 * out.nbytes
        monkeypatch.setattr("repro.multipliers.signed.TABLE_RATIO", 1 << 62)
        assert np.array_equal(out, signed_matmul(multiplier, basis, data))


class TestSignedMultiplier:
    def test_exhaustive_small(self):
        signed = accurate_signed(bitwidth=6)
        values = np.arange(-32, 32)
        a, b = np.meshgrid(values, values, indexing="ij")
        assert np.array_equal(signed.multiply(a.ravel(), b.ravel()), a.ravel() * b.ravel())

    def test_most_negative_operand(self):
        # |-2^(N-1)| needs N bits: the widened core must handle it
        signed = accurate_signed(bitwidth=16)
        assert int(signed.multiply(-32768, -32768)) == 32768 * 32768
        assert int(signed.multiply(-32768, 32767)) == -32768 * 32767

    def test_range_validation(self):
        signed = accurate_signed(bitwidth=16)
        with pytest.raises(ValueError):
            signed.multiply(32768, 1)
        with pytest.raises(ValueError):
            signed.multiply(1, -32769)

    def test_approximate_core_sign_structure(self):
        signed = SignedMultiplier(lambda n: RealmMultiplier(bitwidth=n, m=8), 16)
        a = np.array([-300, 300, -300, 300])
        b = np.array([-41, -41, 41, 41])
        products = signed.multiply(a, b)
        assert (np.sign(products) == [1, -1, -1, 1]).all()
        # magnitude independent of signs (sign-magnitude property)
        assert len(set(np.abs(products).tolist())) == 1

    def test_name_and_repr(self):
        signed = SignedMultiplier(lambda n: RealmMultiplier(bitwidth=n, m=4), 16)
        assert "REALM4" in signed.name
        assert "SignedMultiplier" in repr(signed)

    def test_bad_factory_rejected(self):
        with pytest.raises(ValueError):
            SignedMultiplier(lambda n: AccurateMultiplier(8), bitwidth=16)

    @given(signed_operands(16), signed_operands(16))
    @settings(max_examples=200, deadline=None)
    def test_sign_magnitude_property(self, a, b):
        signed = SignedMultiplier(lambda n: RealmMultiplier(bitwidth=n, m=16), 16)
        product = int(signed.multiply(a, b))
        # |-(2**15)| exceeds the signed interface; the widened unsigned
        # core is the right oracle for the magnitude
        magnitude = int(signed.core.multiply(abs(a), abs(b)))
        expected_sign = -1 if (a < 0) != (b < 0) and magnitude != 0 else 1
        assert product == expected_sign * magnitude


class TestDotProduct:
    def test_matches_numpy_with_accurate_core(self):
        rng = np.random.default_rng(5)
        a = rng.integers(-1000, 1000, 64)
        b = rng.integers(-1000, 1000, 64)
        signed = accurate_signed()
        assert int(dot_product(signed, a, b)) == int(np.dot(a, b))

    def test_shape_mismatch(self):
        signed = accurate_signed()
        with pytest.raises(ValueError):
            dot_product(signed, np.zeros(3), np.zeros(4))

    def test_approximate_close(self):
        rng = np.random.default_rng(6)
        a = rng.integers(1, 1 << 12, 256)
        b = rng.integers(1, 1 << 12, 256)
        signed = SignedMultiplier(lambda n: RealmMultiplier(bitwidth=n, m=16), 16)
        approx = int(dot_product(signed, a, b))
        exact = int(np.dot(a, b))
        assert abs(approx - exact) / exact < 0.01


class TestConvolve2d:
    def test_matches_scipy_style_valid_conv(self):
        rng = np.random.default_rng(7)
        image = rng.integers(0, 256, (12, 12))
        kernel = np.array([[1, 0, -1], [2, 0, -2], [1, 0, -1]])
        signed = accurate_signed()
        out = convolve2d(signed, image, kernel)
        expected = np.zeros((10, 10), dtype=np.int64)
        for i in range(10):
            for j in range(10):
                expected[i, j] = int(np.sum(image[i : i + 3, j : j + 3] * kernel))
        assert np.array_equal(out, expected)

    def test_kernel_too_big(self):
        signed = accurate_signed()
        with pytest.raises(ValueError):
            convolve2d(signed, np.zeros((2, 2)), np.ones((3, 3)))

    def test_sobel_with_realm_close_to_exact(self):
        rng = np.random.default_rng(8)
        image = rng.integers(0, 256, (16, 16))
        kernel = np.array([[1, 2, 1], [0, 0, 0], [-1, -2, -1]])
        exact = convolve2d(accurate_signed(), image, kernel)
        approx = convolve2d(
            SignedMultiplier(lambda n: RealmMultiplier(bitwidth=n, m=16), 16),
            image,
            kernel,
        )
        # kernel taps are tiny so products are near-exact
        assert np.abs(approx - exact).max() <= np.abs(exact).max() * 0.05 + 4
