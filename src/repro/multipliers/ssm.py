"""SSM and ESSM: static segment multipliers, Narayanamoorthy et al. [14].

**SSM(m)** picks one of two static ``m``-bit segments of each ``N``-bit
operand: the low segment (bits ``m-1..0``) when the upper ``N-m`` bits are
all zero — in which case the operand is represented exactly — and the high
segment (bits ``N-1..N-m``) otherwise, dropping the low ``N-m`` bits.  The
two segments feed an exact ``m x m`` multiplier and the product is shifted
back.  Pure truncation makes SSM one-sided: it never overestimates
(Table I: max error 0, negative bias).

**ESSM(m)** ("extended" SSM) adds a middle segment so the truncation loss
shrinks: for the paper's ESSM8 on 16-bit operands the candidate segments
are bits ``15..8``, ``11..4`` and ``7..0``, selected by the position of the
leading one (in ``15..12``, ``11..8``, or below).  The worst loss drops
from ~50% of an operand (SSM8) to ``255/4351 ~= 5.9%``, i.e. the -11.26%
product peak of Table I.
"""

from __future__ import annotations

import numpy as np

from .base import ProductFormMultiplier

__all__ = ["SsmMultiplier", "EssmMultiplier"]


class SsmMultiplier(ProductFormMultiplier):
    """SSM with segment width ``m`` [14]."""

    family = "SSM"

    def __init__(self, bitwidth: int = 16, m: int = 8):
        super().__init__(bitwidth)
        if not 2 <= m < bitwidth:
            raise ValueError(f"segment width m must be in [2, {bitwidth - 1}], got {m}")
        self.m = m

    @property
    def name(self) -> str:
        return f"SSM (m={self.m})"

    def _approximate(self, v: np.ndarray) -> np.ndarray:
        """The selected segment, shifted back into place.

        Shifting each segment back before the exact multiply gives the
        hardware's shifted ``m x m`` product: ``(s_a 2^i)(s_b 2^j) = s_a
        s_b 2^(i+j)``, exactly in int64.
        """
        shift = np.where(v < (np.int64(1) << self.m), 0, self.bitwidth - self.m)
        return (v >> shift) << shift


class EssmMultiplier(ProductFormMultiplier):
    """ESSM: SSM extended with a middle segment [14].

    Segments are ``m`` bits wide and start at offsets ``N-m``,
    ``(N-m)//2`` and ``0``; the highest segment that still contains the
    operand's leading one is selected.  The paper's ESSM8 is
    ``bitwidth=16, m=8``.
    """

    family = "ESSM"

    def __init__(self, bitwidth: int = 16, m: int = 8):
        super().__init__(bitwidth)
        if not 2 <= m < bitwidth:
            raise ValueError(f"segment width m must be in [2, {bitwidth - 1}], got {m}")
        if (bitwidth - m) % 2 != 0:
            raise ValueError(
                f"ESSM needs an even N-m for the middle segment offset, "
                f"got N={bitwidth}, m={m}"
            )
        self.m = m

    @property
    def name(self) -> str:
        return f"ESSM{self.m} (m={self.m})"

    def _approximate(self, v: np.ndarray) -> np.ndarray:
        """The highest segment holding the leading one, shifted back."""
        n, m = self.bitwidth, self.m
        high_offset = n - m
        mid_offset = high_offset // 2
        shift = np.where(
            v >= (np.int64(1) << (m + mid_offset)),
            high_offset,
            np.where(v >= (np.int64(1) << m), mid_offset, 0),
        )
        return (v >> shift) << shift
