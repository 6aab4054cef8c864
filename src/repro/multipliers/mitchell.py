"""Classical approximate log-based multiplier (cALM), Mitchell 1962 [8].

Operands are decomposed as ``A = 2**ka * (1 + x)``; the linear-log
approximation ``lg(A) ~= ka + x`` turns multiplication into addition
(paper Eq. 1-2), and the linear antilog turns the sum back into the
approximate product (paper Eq. 3).

The fixed-point datapath is modeled exactly: the two log values are formed
by concatenating the characteristic and the ``N-1``-bit fraction, added
with an exact adder, and the sum is scaled by the output barrel shifter
(which floors away fraction bits for small products, like the hardware).

Mitchell's multiplier never overestimates: its relative error lies in
``[-11.11%, 0]`` with mean -3.85% (paper Table I), which is precisely the
bias REALM's per-segment factors remove.
"""

from __future__ import annotations

import numpy as np

from ..core.bitops import floor_log2, log_fraction, mask, shift_value, truncate_fraction
from ..core.factors import segment_index
from .base import Multiplier

__all__ = ["CorrectedLogMultiplier", "MitchellMultiplier", "log_operands", "antilog"]


def log_operands(
    a: np.ndarray, b: np.ndarray, bitwidth: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Characteristics and fractions of both operands, zero-safe.

    Returns ``(ka, kb, xa, xb, nonzero)`` where fractions are
    ``bitwidth - 1``-bit integers.  Zero operands (which have no leading
    one; real designs detect them separately) yield ``k = x = 0`` and are
    flagged through ``nonzero`` so callers can force a zero product.
    """
    nonzero = (a > 0) & (b > 0)
    safe_a = np.where(a > 0, a, 1)
    safe_b = np.where(b > 0, b, 1)
    ka = floor_log2(safe_a)
    kb = floor_log2(safe_b)
    xa = log_fraction(safe_a, ka, bitwidth)
    xb = log_fraction(safe_b, kb, bitwidth)
    return ka, kb, xa, xb, nonzero


def antilog(log_sum: np.ndarray, fraction_width: int) -> np.ndarray:
    """Linear antilog of a fixed-point log value (paper Eq. 3).

    ``log_sum`` carries the characteristic in the bits above
    ``fraction_width`` and the fraction below; the result is
    ``2**k * (1 + f)`` computed as a barrel shift of the mantissa
    ``1.f`` (flooring fraction bits that fall below the integer LSB).
    """
    characteristic = log_sum >> fraction_width
    fraction = log_sum & mask(fraction_width)
    mantissa = (np.int64(1) << fraction_width) | fraction
    return shift_value(mantissa, characteristic - fraction_width)


class MitchellMultiplier(Multiplier):
    """cALM: the classical approximate log-based multiplier [8]."""

    family = "cALM"

    def _multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        width = self.bitwidth - 1
        ka, kb, xa, xb, nonzero = log_operands(a, b, self.bitwidth)
        log_a = (ka << width) | xa
        log_b = (kb << width) | xb
        product = antilog(log_a + log_b, width)
        return np.where(nonzero, product, 0)


class CorrectedLogMultiplier(Multiplier):
    """Mitchell's log product plus a segment-selected correction.

    The datapath of the paper's Fig. 3, shared by REALM and MBM: the
    fractions are truncated by ``t`` bits with a forced rounding 1, the
    ``log2(M)`` fraction MSBs of each operand select a ``q``-bit code of
    the ``(M, M)`` LUT ``lut_codes``, and the code (halved on a fraction
    carry) is added before the final scaling.  REALM holds ``M**2``
    codes; MBM is the same datapath with ``M = 1``, a single constant.
    Subclasses provide ``t``, ``q``, ``lut_codes`` and ``overflow``
    (``"extend"`` keeps the ``2N + 1``-bit corrected product,
    ``"saturate"`` clamps it to ``2**(2N) - 1``).
    """

    def _multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        raw_width = self.bitwidth - 1
        ka, kb, xa, xb, nonzero = log_operands(a, b, self.bitwidth)

        # Segment selection uses the fraction MSBs, which truncation never
        # touches (Fig. 3: x_msbs / y_msbs feed the LUT mux select lines).
        m = self.lut_codes.shape[0]
        i = segment_index(xa, raw_width, m)
        j = segment_index(xb, raw_width, m)
        s_codes = self.lut_codes[i, j]

        # Fraction truncation with the forced rounding 1 (t+1 bits dropped).
        width = raw_width - self.t
        xa_t = truncate_fraction(xa, self.t, raw_width)
        xb_t = truncate_fraction(xb, self.t, raw_width)

        fraction_sum = xa_t + xb_t  # width+1 bits; MSB is c_of
        carry = fraction_sum >> width

        # Fixed-point realization of Eq. 13.  The LUT output is added to
        # the fraction sum, so it is aligned to the fraction grid
        # (2**-width): factor bits below that grid are floored away by the
        # adder wiring.  For the paper's q=6 this matters only at t=9,
        # where the halved factor s_ij/2 loses its LSB — which is exactly
        # the paper's observed t=9 bias/error jump (Table I).
        s_full = shift_value(s_codes, width - self.q)
        s_half = shift_value(s_codes, width - self.q - 1)
        mantissa = np.where(
            carry == 0,
            # 2**(ka+kb)   * (1 + x + y + s_ij)
            (np.int64(1) << width) + fraction_sum + s_full,
            # 2**(ka+kb+1) * (x + y + s_ij/2); fraction_sum already >= 2**width
            fraction_sum + s_half,
        )
        product = shift_value(mantissa, ka + kb + carry - width)
        product = np.where(nonzero, product, 0)
        if self.overflow == "saturate":
            product = np.minimum(product, mask(2 * self.bitwidth))
        return product
