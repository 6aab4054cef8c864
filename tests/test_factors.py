"""Tests for the error-reduction factor mathematics (paper Eq. 8-13)."""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from repro.core.factors import (
    compute_factors,
    compute_factors_mse,
    dequantize_factors,
    mitchell_relative_error,
    quantize_factors,
    segment_denominator,
    segment_index,
    segment_numerator,
)
from repro.extensions.divider import compute_divider_factors

PRACTICAL_M = (1, 2, 4, 8, 16)

#: the oracle's dblquad tolerances: relative 1e-13, with an absolute floor
#: for the inner integrals that vanish at a triangle's apex, where a pure
#: relative tolerance makes quadpack chase roundoff
ORACLE_TOL = {"epsabs": 1e-17, "epsrel": 1e-13}


def _segment(m, i, j):
    return i / m, (i + 1) / m, j / m, (j + 1) / m


def _dblquad(f, x0, x1, y0, y1, kink=None):
    """``dblquad`` of scalar ``f(x, y)`` on a segment, split along ``y = kink(x)``."""

    def integrand(y, x):
        return f(x, y)

    if kink is None:
        return integrate.dblquad(integrand, x0, x1, y0, y1, **ORACLE_TOL)[0]

    def cut(x):
        return min(y1, max(y0, kink(x)))

    below, _ = integrate.dblquad(integrand, x0, x1, y0, cut, **ORACLE_TOL)
    above, _ = integrate.dblquad(integrand, x0, x1, cut, y1, **ORACLE_TOL)
    return below + above


def _antidiagonal(x):
    return 1.0 - x


def _diagonal(x):
    return x


def _mitchell_error(x, y):
    """Eq. 5 on scalars, written apart from the module's NumPy version."""
    if x + y < 1.0:
        return (1.0 + x + y) / ((1.0 + x) * (1.0 + y)) - 1.0
    return 2.0 * (x + y) / ((1.0 + x) * (1.0 + y)) - 1.0


def _weight(x, y):
    return 1.0 / ((1.0 + x) * (1.0 + y))


def _divider_error(x, y):
    approx = 1.0 + x - y if x >= y else (2.0 + x - y) / 2.0
    return approx * (1.0 + y) / (1.0 + x) - 1.0


@functools.lru_cache(maxsize=None)
def _oracle_mean(m):
    """Closed forms off the kink, ``dblquad`` split along ``x + y = 1`` on it."""
    table = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            if i + j == m - 1:
                numerator = _dblquad(_mitchell_error, *_segment(m, i, j), _antidiagonal)
            else:
                numerator = segment_numerator(m, i, j)
            table[i, j] = table[j, i] = -numerator / segment_denominator(m, i, j)
    return table


def _oracle_mse(m):
    table = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            kink = _antidiagonal if i + j == m - 1 else None
            numerator = _dblquad(
                lambda x, y: _mitchell_error(x, y) * _weight(x, y),
                *_segment(m, i, j),
                kink,
            )
            denominator = _dblquad(lambda x, y: _weight(x, y) ** 2, *_segment(m, i, j))
            table[i, j] = table[j, i] = -numerator / denominator
    return table


def _oracle_divider(m):
    table = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            kink = _diagonal if i == j else None
            numerator = _dblquad(_divider_error, *_segment(m, i, j), kink)
            denominator = _dblquad(lambda x, y: (1 + y) / (1 + x), *_segment(m, i, j))
            table[i, j] = -numerator / denominator
    return table


class TestMitchellRelativeError:
    def test_never_positive(self):
        x, y = np.meshgrid(np.linspace(0, 0.999, 101), np.linspace(0, 0.999, 101))
        errors = mitchell_relative_error(x, y)
        assert np.all(errors <= 0)

    def test_worst_case_at_center(self):
        # |error| peaks at x = y = 0.5: 0.25 / 2.25 = 1/9
        assert mitchell_relative_error(0.5, 0.5) == pytest.approx(-1.0 / 9.0)

    def test_zero_on_axes(self):
        assert mitchell_relative_error(0.0, 0.0) == 0.0
        assert mitchell_relative_error(0.7, 0.0) == pytest.approx(0.0)
        assert mitchell_relative_error(0.0, 0.3) == pytest.approx(0.0)

    def test_matches_direct_formula(self):
        x, y = 0.3, 0.4  # x + y < 1
        expected = (1 + x + y) / ((1 + x) * (1 + y)) - 1
        assert mitchell_relative_error(x, y) == pytest.approx(expected)
        x, y = 0.7, 0.8  # x + y >= 1
        expected = 2 * (x + y) / ((1 + x) * (1 + y)) - 1
        assert mitchell_relative_error(x, y) == pytest.approx(expected)

    def test_continuous_across_boundary(self):
        x = np.linspace(0.01, 0.99, 37)
        below = mitchell_relative_error(x, 1.0 - x - 1e-12)
        above = mitchell_relative_error(x, 1.0 - x + 1e-12)
        assert np.allclose(below, above, atol=1e-9)


class TestSegmentIntegrals:
    @pytest.mark.parametrize("m,i,j", [(4, 0, 0), (4, 3, 3), (8, 1, 5), (2, 0, 0)])
    def test_numerator_matches_quadrature(self, m, i, j):
        def integrand(y, x):
            return float(mitchell_relative_error(x, y))

        expected, _ = integrate.dblquad(
            integrand, i / m, (i + 1) / m, j / m, (j + 1) / m, epsabs=1e-12
        )
        assert segment_numerator(m, i, j) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("m,i,j", [(4, 1, 2), (8, 3, 4), (2, 0, 1), (16, 0, 15)])
    def test_crossing_segments_match_quadrature(self, m, i, j):
        assert i + j == m - 1  # these segments straddle x + y = 1
        def integrand(y, x):
            return float(mitchell_relative_error(x, y))

        expected, _ = integrate.dblquad(
            integrand, i / m, (i + 1) / m, j / m, (j + 1) / m, epsabs=1e-12
        )
        assert segment_numerator(m, i, j) == pytest.approx(expected, abs=1e-7)

    def test_denominator_closed_form(self):
        value = segment_denominator(4, 1, 2)
        expected = math.log((1 + 2 / 4) / (1 + 1 / 4)) * math.log(
            (1 + 3 / 4) / (1 + 2 / 4)
        )
        assert value == pytest.approx(expected)

    def test_whole_square_numerator_is_calm_bias(self):
        # integral of the error over [0,1)^2 is cALM's error bias: -3.85%
        assert segment_numerator(1, 0, 0) == pytest.approx(-0.0385, abs=1e-4)

    def test_invalid_segments_rejected(self):
        with pytest.raises(ValueError):
            segment_numerator(4, 4, 0)
        with pytest.raises(ValueError):
            segment_denominator(4, 0, -1)
        with pytest.raises(ValueError):
            segment_numerator(0, 0, 0)


class TestComputeFactors:
    @pytest.mark.parametrize("m", PRACTICAL_M)
    def test_symmetric(self, m):
        factors = compute_factors(m)
        assert np.allclose(factors, factors.T, atol=1e-12)

    @pytest.mark.parametrize("m", PRACTICAL_M)
    def test_bounds(self, m):
        # paper Section III-C: for practical M, s_ij is positive and < 0.25
        factors = compute_factors(m)
        assert factors.min() > 0.0
        assert factors.max() < 0.25

    def test_shape(self):
        assert compute_factors(8).shape == (8, 8)

    def test_definition(self):
        # s_ij = -numerator / denominator (Eq. 11)
        factors = compute_factors(4)
        expected = -segment_numerator(4, 1, 2) / segment_denominator(4, 1, 2)
        assert factors[1, 2] == pytest.approx(expected)

    def test_peak_on_antidiagonal(self):
        # Mitchell's error is worst near x + y = 1, so the largest factors
        # sit on the anti-diagonal of the table
        factors = compute_factors(8)
        anti = [factors[i, 7 - i] for i in range(8)]
        assert max(anti) == pytest.approx(factors.max())

    def test_m1_matches_calm_bias_ratio(self):
        # single-segment factor = bias / integral of weight = 0.0385/ln(2)^2
        factor = compute_factors(1)[0, 0]
        assert factor == pytest.approx(0.0385 / math.log(2) ** 2, abs=1e-4)

    def test_finer_segmentation_reduces_residual(self):
        # the residual per-segment average error must be ~0 by construction:
        # check via quadrature on one segment for M=4.  The integrand has
        # a kink on x + y = 1, which crosses this segment corner to
        # corner, so integrate each side of the line separately
        m, i, j = 4, 2, 1
        s = compute_factors(m)[i, j]

        def corrected(y, x):
            return float(mitchell_relative_error(x, y)) + s / ((1 + x) * (1 + y))

        def kink(x):
            return min((j + 1) / m, max(j / m, 1.0 - x))

        lower, _ = integrate.dblquad(
            corrected, i / m, (i + 1) / m, j / m, kink, epsabs=1e-12
        )
        upper, _ = integrate.dblquad(
            corrected, i / m, (i + 1) / m, kink, (j + 1) / m, epsabs=1e-12
        )
        assert lower + upper == pytest.approx(0.0, abs=1e-9)


class TestQuadratureOracle:
    """The fixed Gauss-Legendre rule against ``dblquad`` on the same pieces."""

    @pytest.mark.parametrize("m", (1, 2, 3, 4, 8, 16, 32, 64, 128))
    def test_mean_factors_match_dblquad(self, m):
        assert np.abs(compute_factors(m) - _oracle_mean(m)).max() <= 1e-14

    @pytest.mark.parametrize("m", (1, 2, 3, 4, 8))
    def test_mse_factors_match_split_dblquad(self, m):
        assert np.abs(compute_factors_mse(m) - _oracle_mse(m)).max() <= 1e-13

    @pytest.mark.parametrize("m", (1, 2, 3, 4, 8))
    def test_divider_factors_match_split_dblquad(self, m):
        assert np.abs(compute_divider_factors(m) - _oracle_divider(m)).max() <= 1e-13

    @pytest.mark.parametrize("m", (1, 2, 4, 8, 16, 32, 64, 128))
    def test_quantized_codes_match_oracle(self, m):
        for q in range(3, 33):
            assert np.array_equal(
                quantize_factors(compute_factors(m), q),
                quantize_factors(_oracle_mean(m), q),
            ), f"q={q}"

    @pytest.mark.parametrize("compute", [compute_factors, compute_factors_mse])
    def test_no_segments_rejected(self, compute):
        with pytest.raises(ValueError, match="M must be >= 1, got 0"):
            compute(0)


class TestMseFactors:
    def test_bounds_and_symmetry(self):
        factors = compute_factors_mse(4)
        assert np.allclose(factors, factors.T, atol=1e-9)
        assert factors.min() > 0.0
        assert factors.max() < 0.25

    def test_mse_factors_minimize_weighted_square(self):
        # on each segment, the MSE factor must give a lower integral of
        # (E + s*g)^2 than the mean-zero factor
        m, i, j = 4, 1, 1
        s_mean = compute_factors(m)[i, j]
        s_mse = compute_factors_mse(m)[i, j]

        def square(s):
            def f(y, x):
                g = 1.0 / ((1 + x) * (1 + y))
                return (float(mitchell_relative_error(x, y)) + s * g) ** 2

            value, _ = integrate.dblquad(
                f, i / m, (i + 1) / m, j / m, (j + 1) / m, epsabs=1e-12
            )
            return value

        assert square(s_mse) <= square(s_mean) + 1e-12


class TestQuantization:
    def test_round_to_nearest(self):
        codes = quantize_factors(np.array([[0.0781, 0.0783]]), 6)
        # 0.0781 * 64 = 4.9984 -> 5 ; 0.0783 * 64 = 5.0112 -> 5
        assert codes.tolist() == [[5, 5]]

    def test_paper_configuration_fits_q_minus_2_bits(self):
        for m in (4, 8, 16):
            codes = quantize_factors(compute_factors(m), 6)
            assert codes.max() < (1 << 4)
            assert codes.min() >= 0

    def test_clamps_boundary_code(self):
        codes = quantize_factors(np.array([[0.2499]]), 6)
        assert codes[0, 0] == 15  # would round to 16 without the clamp

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            quantize_factors(np.array([[0.3]]), 6)
        with pytest.raises(ValueError):
            quantize_factors(np.array([[-0.01]]), 6)
        with pytest.raises(ValueError):
            quantize_factors(np.array([[0.1]]), 2)

    def test_dequantize_inverts_grid(self):
        codes = quantize_factors(compute_factors(4), 6)
        values = dequantize_factors(codes, 6)
        assert np.all(np.abs(values - compute_factors(4)) <= 0.5 / 64 + 1e-12)

    @given(st.integers(min_value=4, max_value=12))
    @settings(max_examples=10, deadline=None)
    def test_quantization_error_bounded_by_half_lsb(self, q):
        # q >= 4 keeps every M=4 code below the q-2-bit clamp, so plain
        # round-to-nearest semantics (half-LSB bound) apply
        factors = compute_factors(4)
        values = dequantize_factors(quantize_factors(factors, q), q)
        assert np.all(np.abs(values - factors) <= 0.5 / (1 << q) + 1e-12)

    def test_aggressive_quantization_clamps_to_storable_range(self):
        # at q=3 only one stored bit remains: codes must clamp, not overflow
        codes = quantize_factors(compute_factors(4), 3)
        assert codes.max() <= 1


class TestSegmentIndex:
    def test_msb_slicing(self):
        fractions = np.array([0b000_0000, 0b111_1111, 0b100_0000, 0b011_1111])
        assert segment_index(fractions, 7, 4).tolist() == [0, 3, 2, 1]

    def test_m_one_always_zero(self):
        assert segment_index(np.array([5, 99]), 7, 1).tolist() == [0, 0]

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            segment_index(np.array([1]), 7, 3)

    def test_rejects_too_narrow_fraction(self):
        with pytest.raises(ValueError):
            segment_index(np.array([1]), 2, 16)

    @given(
        st.integers(min_value=0, max_value=(1 << 15) - 1),
        st.sampled_from([2, 4, 8, 16]),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_float_bucketing(self, fraction, m):
        index = int(segment_index(np.array([fraction]), 15, m)[0])
        assert index == int(fraction / (1 << 15) * m)
