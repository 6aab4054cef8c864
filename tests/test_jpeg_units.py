"""Unit tests for the JPEG substrate pieces: DCT, quantization, zig-zag."""

from __future__ import annotations

import numpy as np
import pytest

from repro.jpeg.dct import COEFF_BITS, dct_matrix_q7, forward_dct, inverse_dct
from repro.jpeg.images import IMAGE_NAMES, test_image as make_image
from repro.jpeg.psnr import mse, psnr
from repro.jpeg.quant import BASE_LUMINANCE, dequantize, quant_table, quantize
from repro.jpeg.zigzag import from_zigzag, to_zigzag, zigzag_order
from repro.multipliers.accurate import AccurateMultiplier


class TestDctMatrix:
    def test_orthonormal_within_quantization(self):
        basis = dct_matrix_q7() / float(1 << COEFF_BITS)
        gram = basis @ basis.T
        assert np.allclose(gram, np.eye(8), atol=0.02)

    def test_dc_row_constant(self):
        basis = dct_matrix_q7()
        assert len(set(basis[0].tolist())) == 1

    def test_coefficients_fit_q7(self):
        basis = dct_matrix_q7()
        assert np.abs(basis).max() <= 1 << (COEFF_BITS - 1)


class TestDctRoundtrip:
    def test_accurate_roundtrip_near_identity(self):
        rng = np.random.default_rng(21)
        blocks = rng.integers(-128, 128, (10, 8, 8))
        acc = AccurateMultiplier()
        recovered = inverse_dct(acc, forward_dct(acc, blocks))
        # Q7 basis quantization costs a couple of LSBs, no more
        assert np.abs(recovered - blocks).max() <= 3

    def test_dc_coefficient_tracks_mean(self):
        acc = AccurateMultiplier()
        flat = np.full((1, 8, 8), 100, dtype=np.int64)
        coefficients = forward_dct(acc, flat)
        # orthonormal DCT: DC = 8 * mean; the Q7-rounded DC basis entry
        # (45/128 vs 1/(2*sqrt(2))) costs ~0.55% per pass, i.e. ~10 here
        assert abs(int(coefficients[0, 0, 0]) - 800) <= 12
        assert np.abs(coefficients[0][np.unravel_index(range(1, 64), (8, 8))]).max() <= 1

    def test_approximate_multiplier_stays_close(self):
        from repro.core.realm import RealmMultiplier

        rng = np.random.default_rng(22)
        blocks = rng.integers(-128, 128, (10, 8, 8))
        acc = AccurateMultiplier()
        realm = RealmMultiplier(m=16, t=8)
        exact = forward_dct(acc, blocks)
        approx = forward_dct(realm, blocks)
        assert np.abs(approx - exact).max() <= 32  # a few percent of range


class TestQuantization:
    def test_quality_50_is_base_table(self):
        assert np.array_equal(quant_table(50), BASE_LUMINANCE)

    def test_higher_quality_divides_less(self):
        assert np.all(quant_table(90) <= quant_table(50))
        assert np.all(quant_table(10) >= quant_table(50))

    def test_entries_clipped_to_byte(self):
        assert quant_table(1).max() <= 255
        assert quant_table(100).min() >= 1

    def test_invalid_quality(self):
        with pytest.raises(ValueError):
            quant_table(0)
        with pytest.raises(ValueError):
            quant_table(101)

    def test_quantize_rounds_to_nearest(self):
        table = np.full((8, 8), 10, dtype=np.int64)
        coefficients = np.zeros((8, 8), dtype=np.int64)
        coefficients[0, 0] = 15
        coefficients[0, 1] = -15
        coefficients[0, 2] = 14
        levels = quantize(coefficients, table)
        assert levels[0, 0] == 2 and levels[0, 1] == -2 and levels[0, 2] == 1

    def test_dequantize_inverts_scale(self):
        table = quant_table(50)
        levels = np.ones((8, 8), dtype=np.int64)
        assert np.array_equal(dequantize(levels, table), table)


class TestZigzag:
    def test_known_prefix(self):
        rows, cols = zigzag_order()
        prefix = list(zip(rows[:6].tolist(), cols[:6].tolist()))
        assert prefix == [(0, 0), (0, 1), (1, 0), (2, 0), (1, 1), (0, 2)]

    def test_roundtrip(self):
        rng = np.random.default_rng(23)
        blocks = rng.integers(-100, 100, (5, 8, 8))
        assert np.array_equal(from_zigzag(to_zigzag(blocks)), blocks)

    def test_permutation_complete(self):
        rows, cols = zigzag_order()
        assert sorted(zip(rows.tolist(), cols.tolist())) == [
            (r, c) for r in range(8) for c in range(8)
        ]


class TestPsnr:
    def test_identical_images_infinite(self):
        image = make_image("cameraman")
        assert psnr(image, image) == np.inf

    def test_known_value(self):
        a = np.zeros((8, 8))
        b = np.full((8, 8), 16.0)
        assert mse(a, b) == pytest.approx(256.0)
        assert psnr(a, b) == pytest.approx(10 * np.log10(255**2 / 256))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros((4, 4)), np.zeros((8, 8)))


class TestImages:
    def test_deterministic(self):
        assert np.array_equal(make_image("lena"), make_image("lena"))

    def test_distinct_scenes(self):
        assert not np.array_equal(make_image("lena"), make_image("cameraman"))

    def test_shape_and_range(self):
        for name in IMAGE_NAMES:
            image = make_image(name)
            assert image.shape == (256, 256)
            assert image.dtype == np.uint8
            assert image.max() > 150 and image.min() < 100  # real dynamic range

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_image("baboon")


class TestExtraImages:
    def test_all_images_available(self):
        from repro.jpeg.images import ALL_IMAGE_NAMES

        for name in ALL_IMAGE_NAMES:
            image = make_image(name)
            assert image.shape == (256, 256)
            assert image.max() > 150 and image.min() < 100

    def test_extras_compress_like_the_canonical_set(self):
        # the stand-ins must be JPEG-compressible scenes, not noise:
        # quality-50 PSNR lands in the photographic 28-45 dB band
        from repro.jpeg.codec import roundtrip_psnr
        from repro.multipliers.accurate import AccurateMultiplier

        for name in ("peppers", "bridge"):
            quality_db, compressed = roundtrip_psnr(
                AccurateMultiplier(), make_image(name)
            )
            assert 26.0 < quality_db < 46.0, name
            assert compressed.bits_per_pixel < 4.0

    def test_table2_set_unchanged(self):
        from repro.jpeg.images import IMAGE_NAMES

        assert IMAGE_NAMES == ("cameraman", "lena", "livingroom")
