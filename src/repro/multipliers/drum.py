"""DRUM: dynamic range unbiased multiplier, Hashemi et al., ICCAD 2015 [3].

DRUM extracts a ``k``-bit fragment of each operand starting at its leading
one, forces the fragment's LSB to 1 (the unbiasing trick: the constant 1
stands in for the expected value of the truncated tail), multiplies the two
fragments with an exact ``k x k`` multiplier, and shifts the product back.
Operands that already fit in ``k`` bits pass through unmodified, so small
products are exact — this is the "dynamic range" part.

The forced-1 makes over- and under-estimation equally likely, giving DRUM
its near-zero bias and symmetric ``~±2**-(k-1)``-per-operand peak errors
(Table I: k=8 → ±1.5%).
"""

from __future__ import annotations

import numpy as np

from ..core.bitops import floor_log2
from .base import ProductFormMultiplier

__all__ = ["DrumMultiplier"]


class DrumMultiplier(ProductFormMultiplier):
    """DRUM with fragment width ``k`` [3]."""

    family = "DRUM"

    def __init__(self, bitwidth: int = 16, k: int = 6):
        super().__init__(bitwidth)
        if not 3 <= k <= bitwidth:
            raise ValueError(f"fragment width k must be in [3, {bitwidth}], got {k}")
        self.k = k

    @property
    def name(self) -> str:
        return f"DRUM (k={self.k})"

    def _approximate(self, v: np.ndarray) -> np.ndarray:
        """Leading-one-aligned ``k``-bit fragment with forced LSB, rescaled."""
        leading = floor_log2(np.where(v > 0, v, 1))
        shift = np.maximum(leading - (self.k - 1), 0)
        fragment = (v >> shift) | np.where(shift > 0, np.int64(1), np.int64(0))
        return fragment << shift
