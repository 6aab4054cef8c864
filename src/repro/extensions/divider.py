"""REALM-style approximate division — the method carried to the other
operation of Mitchell's 1962 paper.

Mitchell's original work [8] covers multiplication *and* division by
binary logarithms; REALM corrects only the multiplier.  This module
applies the paper's segment-correction methodology to the divider, as a
demonstration that the Eq. 8-11 machinery generalizes:

* the classical log divider computes ``lg(A) - lg(B) ~= (ka-kb) + (x-y)``
  and the linear antilog, giving

  ```
  Q̃ = 2^(ka-kb) (1 + x - y)        if x >= y
  Q̃ = 2^(ka-kb-1) (2 + x - y)      if x <  y
  ```

* the relative error ``Ẽ = Q̃/Q - 1`` with ``Q = 2^(ka-kb) (1+x)/(1+y)``
  is double-sided (unlike the multiplier's one-sided error):

  ```
  Ẽ = (1+x-y)(1+y)/(1+x) - 1 =  y (x - y) / (1+x) - ... (expanded in code)
  ```

* per segment ``(i, j)`` of the unit square, the correction ``d_ij``
  added to the antilog mantissa zeroes the average relative error; the
  derivation mirrors Eq. 9-11 with the divider's weight
  ``g(x, y) = (1+y)/(1+x)``:

  ```
  d_ij = - (∫∫ Ẽ) / (∫∫ g)        over the segment
  ```

  The error has a kink along ``x = y``, which crosses each diagonal
  segment corner to corner.  Those segments are cut into their ``x >= y``
  and ``x < y`` triangles, and every piece is integrated with the
  multiplier's one fixed Gauss-Legendre rule
  (:func:`repro.core.factors.rectangle_integral` and
  :func:`~repro.core.factors.triangle_integral`), never across the kink
  and with no adaptive quadrature.

Unlike the multiplier's factors the divider's corrections are *signed*
(the error is double-sided), so the hardwired LUT stores two's-complement
codes.  Everything else — interval independence, the ``M^2`` table, the
segment-select from fraction MSBs — carries over unchanged, which is the
point of the demonstration.
"""

from __future__ import annotations

import functools

import numpy as np

from ..core.bitops import floor_log2, log_fraction, shift_value
from ..core.factors import rectangle_integral, triangle_integral
from ..multipliers.base import as_operands

__all__ = [
    "divider_relative_error",
    "compute_divider_factors",
    "MitchellDivider",
    "RealmDivider",
]


def divider_relative_error(x, y):
    """Relative error of the classical log divider over the unit square."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    exact = (1.0 + x) / (1.0 + y)
    approx = np.where(x >= y, 1.0 + x - y, (2.0 + x - y) / 2.0)
    return approx / exact - 1.0


@functools.lru_cache(maxsize=None)
def _divider_factors_cached(m: int) -> tuple[tuple[float, ...], ...]:
    def weight(x, y):
        return (1.0 + y) / (1.0 + x)

    def factor(i, j):
        x0, x1 = i / m, (i + 1) / m
        y0, y1 = j / m, (j + 1) / m
        if i == j:  # the x >= y and x < y triangles either side of the kink
            numerator = triangle_integral(
                divider_relative_error, x1, y0, x0 - x1, y1 - y0
            ) + triangle_integral(divider_relative_error, x0, y1, x1 - x0, y0 - y1)
        else:
            numerator = rectangle_integral(divider_relative_error, x0, x1, y0, y1)
        return -numerator / rectangle_integral(weight, x0, x1, y0, y1)

    return tuple(tuple(factor(i, j) for j in range(m)) for i in range(m))


def compute_divider_factors(m: int) -> np.ndarray:
    """Signed per-segment corrections for the log divider."""
    if m < 1:
        raise ValueError(f"number of segments M must be >= 1, got {m}")
    return np.array(_divider_factors_cached(m), dtype=float)


class MitchellDivider:
    """Classical log-based integer divider: ``floor-approximation of A/B``.

    Returns 0 when ``A < B`` would make the true quotient 0... more
    precisely it mirrors the multiplier models: the output is the floored
    approximate quotient, and division by zero raises.
    """

    family = "cALM-div"

    def __init__(self, bitwidth: int = 16):
        if not 2 <= bitwidth <= 31:
            raise ValueError(f"bitwidth must be in [2, 31], got {bitwidth}")
        self.bitwidth = bitwidth

    @property
    def name(self) -> str:
        return f"{self.family}{self.bitwidth}"

    def _mantissa_correction(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        return np.zeros(i.shape)

    def divide(self, a, b) -> np.ndarray:
        a, b = as_operands(a, b, self.bitwidth)
        scalar = a.ndim == 0
        if scalar:
            a = a.reshape(1)
            b = b.reshape(1)
        if np.any(b == 0):
            raise ZeroDivisionError("division by zero")
        width = self.bitwidth - 1
        zero = a == 0
        safe_a = np.where(zero, 1, a)
        ka = floor_log2(safe_a)
        kb = floor_log2(b)
        xa = log_fraction(safe_a, ka, self.bitwidth)
        xb = log_fraction(b, kb, self.bitwidth)

        i, j = self._segments(xa, xb, width)
        correction = np.rint(
            self._mantissa_correction(i, j) * (1 << width)
        ).astype(np.int64)

        # fraction difference on the 2^-width grid, then the antilog with
        # the borrow handling of the module docstring.  The correction is
        # derived at the 2^(ka-kb) scale; the borrow branch's mantissa
        # lives one binade lower, so the correction doubles there.
        diff = xa - xb
        borrow = diff < 0
        mantissa = np.where(borrow, (2 << width) + diff, (1 << width) + diff)
        mantissa = mantissa + np.where(borrow, 2 * correction, correction)
        exponent = ka - kb - borrow.astype(np.int64)
        quotient = np.maximum(shift_value(mantissa, exponent - width), 0)
        result = np.where(zero, 0, quotient)
        return result[0] if scalar else result

    def _segments(self, xa, xb, width):
        return np.zeros_like(xa), np.zeros_like(xb)

    __call__ = divide


class RealmDivider(MitchellDivider):
    """Log divider with REALM-style per-segment corrections.

    ``q`` quantizes the (negative) corrections to the ``2^-q`` grid like
    the multiplier's LUT — the divider's factors stay above ``-0.25`` for
    practical ``M``, so ``q - 2`` magnitude bits suffice.  ``q=None``
    keeps full float precision (the default for error studies); the
    structural netlist (:mod:`repro.circuits.divider_rtl`) requires a
    quantized instance.
    """

    family = "REALM-div"

    def __init__(self, bitwidth: int = 16, m: int = 8, q: int | None = None):
        super().__init__(bitwidth)
        if m < 1 or (m & (m - 1)) != 0:
            raise ValueError(f"M must be a power of two >= 1, got {m}")
        if q is not None and q < 3:
            raise ValueError(f"correction precision q must be >= 3, got {q}")
        self.m = m
        self.q = q
        factors = compute_divider_factors(m)
        if np.any(factors <= -0.25) or np.any(factors > 0.0):
            raise AssertionError("divider factors outside (-0.25, 0]")
        if q is None:
            self.factors = factors
            self.codes = None
        else:
            self.codes = np.rint(factors * (1 << q)).astype(np.int64)
            self.factors = self.codes / float(1 << q)

    @property
    def name(self) -> str:
        suffix = "" if self.q is None else f", q={self.q}"
        return f"{self.family}{self.m}{suffix}"

    def _segments(self, xa, xb, width):
        logm = self.m.bit_length() - 1
        if logm == 0:
            return np.zeros_like(xa), np.zeros_like(xb)
        return xa >> (width - logm), xb >> (width - logm)

    def _mantissa_correction(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        return self.factors[i, j]
