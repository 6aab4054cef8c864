"""MBM: minimally biased multiplier, Saadat et al., TCAD 2018 [4].

MBM couples Mitchell's multiplier with a *single* error-correction term for
the whole multiplier, computed by averaging the actual error over a
complete power-of-two interval (paper Section II).  Mitchell's absolute
error is ``2**(ka+kb) * x*y`` for ``x + y < 1`` and
``2**(ka+kb) * (1-x)(1-y)`` otherwise; averaged over the unit square the
correction mantissa is

.. math::

    c = 2 \\int\\int_{x+y<1} xy \\, dx\\,dy = 2 \\cdot \\tfrac{1}{24}
      = \\tfrac{1}{12} \\approx 0.0833

which, quantized to the same ``q = 6``-bit grid REALM uses, becomes the
hardwired constant ``5/64 = 0.078125``.  The correction is added to the log
mantissa before the final scaling, exactly like REALM's ``s_ij`` but with
one value instead of ``M**2`` — REALM's Section II observes this is why
MBM's bias is low while its mean/peak error stay high.

MBM shares REALM's fraction-truncation knob ``t`` (truncate ``t`` LSBs,
force the next bit to 1), and runs REALM's datapath
(:class:`~repro.multipliers.mitchell.CorrectedLogMultiplier`) with its
constant as a 1x1 LUT.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .mitchell import CorrectedLogMultiplier

__all__ = ["MbmMultiplier", "MBM_CORRECTION"]

#: exact mean of Mitchell's error mantissa over a power-of-two interval
MBM_CORRECTION = Fraction(1, 12)


class MbmMultiplier(CorrectedLogMultiplier):
    """MBM [4] with truncation parameter ``t`` and ``q``-bit correction."""

    family = "MBM"

    #: the corrected product is kept at full width, as REALM's default
    overflow = "extend"

    def __init__(self, bitwidth: int = 16, t: int = 0, q: int = 6):
        super().__init__(bitwidth)
        if not 0 <= t < bitwidth - 1:
            raise ValueError(f"t must be in [0, {bitwidth - 2}], got {t}")
        if q < 3:
            raise ValueError(f"correction precision q must be >= 3, got {q}")
        self.t = t
        self.q = q
        #: correction constant on the 2**-q grid (round to nearest)
        self.correction_code = int(round(MBM_CORRECTION * (1 << q)))

    @property
    def name(self) -> str:
        return f"MBM (t={self.t})"

    @property
    def lut_codes(self) -> np.ndarray:
        """The correction constant as REALM's LUT with ``M = 1``."""
        return np.array([[self.correction_code]], dtype=np.int64)
