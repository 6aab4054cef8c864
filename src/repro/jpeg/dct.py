"""Fixed-point 8x8 DCT/IDCT with a pluggable multiplier (Section IV-D).

The paper implements JPEG "in 16-bit fixed-point arithmetic, using
accurate and approximate multipliers".  This module is that arithmetic
core: the 2-D type-II DCT computed as ``C @ X @ C.T`` (and its inverse
``C.T @ Z @ C``) where the orthonormal basis ``C`` is quantized to Q7
fixed point and **every multiplication is routed through the supplied
unsigned multiplier** by :func:`repro.multipliers.signed.signed_matmul`,
the shared sign-magnitude MAC (the paper's signed extension, Section
III-C).  Accumulation is exact, as in a hardware MAC whose multiplier is
the approximate unit; only the rounding shift after each pass is local.

Ranges (proof the datapath stays within 16-bit magnitudes):

* level-shifted pixels are in ``[-128, 127]``; Q7 coefficients in
  ``[-64, 64]`` -> first-pass products ``<= 8192``, rescaled rows
  ``<= ~502``;
* second-pass products ``<= 64 * 502 = 32128 < 2**15``; final DCT
  coefficients ``<= ~1024``, and the IDCT mirrors the same bounds.
"""

from __future__ import annotations

import numpy as np

from ..multipliers.base import Multiplier
from ..multipliers.signed import signed_matmul

__all__ = ["dct_matrix_q7", "forward_dct", "inverse_dct"]

#: fixed-point fraction bits of the DCT basis
COEFF_BITS = 7


def dct_matrix_q7() -> np.ndarray:
    """Orthonormal 8x8 DCT-II basis, rounded to Q7 integers."""
    k = np.arange(8)
    basis = np.cos((2 * k[None, :] + 1) * k[:, None] * np.pi / 16.0)
    basis[0, :] *= 1.0 / np.sqrt(2.0)
    basis *= 0.5  # orthonormal scale for N=8
    return np.rint(basis * (1 << COEFF_BITS)).astype(np.int64)


def _fixed_point_matmul(
    multiplier: Multiplier, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """``(left @ right) >> COEFF_BITS``, rounded, with approximate products."""
    half = 1 << (COEFF_BITS - 1)
    return (signed_matmul(multiplier, left, right) + half) >> COEFF_BITS


def forward_dct(multiplier: Multiplier, blocks: np.ndarray) -> np.ndarray:
    """2-D DCT of level-shifted 8x8 blocks (stack-shaped ``(..., 8, 8)``)."""
    basis = dct_matrix_q7()
    rows = _fixed_point_matmul(multiplier, basis, blocks)
    return _fixed_point_matmul(multiplier, rows, basis.T)


def inverse_dct(multiplier: Multiplier, coefficients: np.ndarray) -> np.ndarray:
    """Inverse 2-D DCT back to level-shifted pixels."""
    basis = dct_matrix_q7()
    rows = _fixed_point_matmul(multiplier, basis.T, coefficients)
    return _fixed_point_matmul(multiplier, rows, basis)
