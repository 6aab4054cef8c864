"""Fixed-point FIR filtering through approximate multipliers.

Digital signal processing is the other workload class the approximate-
multiplier literature targets (SSM/ESSM [14] are "for digital signal
processing and classification applications").  This module provides the
standard study: a windowed-sinc low-pass FIR filter in 16-bit fixed
point, every tap multiplication routed through a pluggable multiplier,
and the output SNR measured against the double-precision reference.

Fixed-point layout (mirrors a DSP MAC slice):

* samples are signed Q15-scaled integers in ``[-2**15, 2**15 - 1]``;
* coefficients are Q15 too (a unity-gain low-pass has taps well inside
  ±0.5 so the magnitudes stay far below ``2**15``);
* products go through the shared sign-magnitude MAC,
  :func:`repro.multipliers.signed.signed_matmul`; the accumulator is
  exact; the final ``>> 15`` rescales.
"""

from __future__ import annotations

import numpy as np

from ..multipliers.base import Multiplier
from ..multipliers.signed import signed_matmul

__all__ = [
    "lowpass_taps",
    "quantize_q15",
    "fir_filter",
    "multitone_signal",
    "output_snr_db",
]

Q = 15  # fraction bits of samples and coefficients


def lowpass_taps(num_taps: int = 63, cutoff: float = 0.2) -> np.ndarray:
    """Hamming-windowed-sinc low-pass prototype (float, unity DC gain).

    ``cutoff`` is the -6 dB frequency as a fraction of the sample rate.
    """
    if num_taps < 3 or num_taps % 2 == 0:
        raise ValueError(f"num_taps must be odd and >= 3, got {num_taps}")
    if not 0.0 < cutoff < 0.5:
        raise ValueError(f"cutoff must be in (0, 0.5), got {cutoff}")
    n = np.arange(num_taps) - (num_taps - 1) / 2
    sinc = np.sinc(2.0 * cutoff * n)
    window = 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(num_taps) / (num_taps - 1))
    taps = sinc * window
    return taps / taps.sum()


def quantize_q15(values: np.ndarray) -> np.ndarray:
    """Round to Q15 integers, clipped to the signed 16-bit range."""
    scaled = np.rint(np.asarray(values, dtype=np.float64) * (1 << Q))
    return np.clip(scaled, -(1 << Q), (1 << Q) - 1).astype(np.int64)


def fir_filter(
    multiplier: Multiplier, samples_q: np.ndarray, taps_q: np.ndarray
) -> np.ndarray:
    """'Valid'-mode FIR convolution with approximate products.

    ``samples_q`` and ``taps_q`` are Q15 integers; the result is Q15 with
    exact accumulation and a rounding right-shift, like a hardware MAC.
    """
    samples_q = np.asarray(samples_q, dtype=np.int64)
    taps_q = np.asarray(taps_q, dtype=np.int64)
    if len(samples_q) < len(taps_q):
        raise ValueError(
            f"signal of {len(samples_q)} samples too short for "
            f"{len(taps_q)} taps"
        )
    windows = np.lib.stride_tricks.sliding_window_view(samples_q, len(taps_q))
    accumulator = signed_matmul(multiplier, windows, taps_q[:, None])[:, 0]
    half = np.int64(1) << (Q - 1)
    return (accumulator + half) >> Q


def multitone_signal(
    length: int = 4096,
    passband: tuple[float, ...] = (0.02, 0.05, 0.11),
    stopband: tuple[float, ...] = (0.31, 0.43),
    seed: int = 2020,
) -> np.ndarray:
    """Test signal: in-band tones + out-of-band tones + mild noise (float)."""
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    signal = np.zeros(length)
    for frequency in passband:
        signal += 0.22 * np.sin(2.0 * np.pi * frequency * t + rng.uniform(0, np.pi))
    for frequency in stopband:
        signal += 0.12 * np.sin(2.0 * np.pi * frequency * t + rng.uniform(0, np.pi))
    signal += rng.normal(0.0, 0.01, length)
    return np.clip(signal, -0.999, 0.999)


def output_snr_db(reference: np.ndarray, test: np.ndarray) -> float:
    """SNR of ``test`` against ``reference`` in dB (both same scale)."""
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape:
        raise ValueError(f"shape mismatch: {reference.shape} vs {test.shape}")
    noise_power = np.mean((test - reference) ** 2)
    if noise_power == 0.0:
        return float("inf")
    return float(10.0 * np.log10(np.mean(reference**2) / noise_power))
