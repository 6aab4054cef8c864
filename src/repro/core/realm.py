"""REALM: the reduced-error approximate log-based multiplier (paper Fig. 3).

The functional model mirrors the hardware datapath bit for bit (its
``_multiply`` is :class:`~repro.multipliers.mitchell.CorrectedLogMultiplier`'s,
which MBM runs with a 1x1 LUT):

1. Leading-one detectors and input barrel shifters produce the
   characteristics ``ka, kb`` and the ``N-1``-bit log fractions ``x, y``.
2. The fractions are truncated by ``t`` bits with a forced rounding 1
   (paper Section III-C: ``t+1`` shifter output bits are dropped).
3. The ``log2(M)`` MSBs of each fraction select the segment, and the
   quantized error-reduction factor ``s_ij`` is fetched from the hardwired
   constant-input LUT mux.
4. The fractions are added; the carry-out ``c_of`` selects ``s_ij`` or
   ``s_ij >> 1`` (the 2x1 mux of Fig. 3) so that Eq. 13 is realized before
   the final scaling.
5. The output barrel shifter scales the corrected mantissa by
   ``2**(ka + kb + c_of)``; fraction bits that fall below the integer LSB
   are floored away (the paper's second special case).

The paper's first special case — the corrected product overflowing to
``2N + 1`` bits for operands near ``2**N - 1`` — is handled by the
``overflow`` mode: ``"extend"`` (default) keeps the exact wider value, as
the error characterization needs, while ``"saturate"`` clamps to
``2**(2N) - 1`` like a strictly ``2N``-bit output port would.
"""

from __future__ import annotations

from ..multipliers.mitchell import CorrectedLogMultiplier
from .config import RealmConfig
from .factors import compute_factors, compute_factors_mse, quantize_factors

__all__ = ["RealmMultiplier"]


class RealmMultiplier(CorrectedLogMultiplier):
    """The proposed REALM multiplier (paper Section III).

    Parameters mirror :class:`repro.core.config.RealmConfig`; a config
    object may also be passed directly.  The LUT codes are computed once at
    construction (the paper computes them offline and hardwires them).

    >>> realm = RealmMultiplier(m=16, t=0)
    >>> int(realm.multiply(40000, 50000))  # doctest: +SKIP
    """

    family = "REALM"

    def __init__(
        self,
        bitwidth: int = 16,
        m: int = 16,
        t: int = 0,
        q: int = 6,
        objective: str = "mean",
        overflow: str = "extend",
        config: RealmConfig | None = None,
    ):
        if config is None:
            config = RealmConfig(
                bitwidth=bitwidth, m=m, t=t, q=q, objective=objective
            )
        super().__init__(config.bitwidth)
        if overflow not in ("extend", "saturate"):
            raise ValueError(
                f"overflow must be 'extend' or 'saturate', got {overflow!r}"
            )
        self.config = config
        self.overflow = overflow
        factors = (
            compute_factors(config.m)
            if config.objective == "mean"
            else compute_factors_mse(config.m)
        )
        #: (M, M) int LUT codes; value = code / 2**q  (paper Section III-C)
        self.lut_codes = quantize_factors(factors, config.q)

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def t(self) -> int:
        return self.config.t

    @property
    def q(self) -> int:
        return self.config.q
