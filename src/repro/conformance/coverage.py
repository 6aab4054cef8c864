"""Structural operand coverage over REALM's native coordinates.

Uniform Monte-Carlo rarely lands on the operand regions where
approximate-multiplier bugs concentrate — segment boundaries, leading-one
transitions, carry chains (Masadeh et al., PAPERS.md).  This module makes
those regions *countable*: every operand pair is mapped to a cell in the
log-domain coordinate system the REALM datapath itself computes with,

* the **leading-one interval pair** ``(ka, kb)`` — which power-of-two
  interval each operand falls in (the LOD output);
* the **segment cell** ``(i, j)`` — the ``log2(M)`` fraction MSBs of each
  operand, i.e. which entry of the ``M x M`` correction LUT the pair
  selects;
* the **fraction-LSB pattern** ``(pa, pb)`` — the low bits of the log
  fractions, the bits truncation and the forced rounding 1 interact with.

Not every cell is reachable: an operand in interval ``ka`` has only
``ka`` variable fraction bits, so for ``ka < log2(M)`` only segment
indices that are multiples of ``M / 2**ka`` occur.  The map knows the
exact reachable set (:meth:`CoverageMap.reachable_segments`), so coverage
fractions are over *reachable* cells — 100% is attainable and the fuzzer
in :mod:`repro.conformance.fuzz` targets exactly the uncovered remainder.

Hit counters export as a telemetry gauge (``conform.coverage``) and a
JSON-stable report dict; both are pure functions of the evaluated pair
stream, so they are bit-identical at any fuzzing worker count.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core.factors import segment_index
from ..multipliers.mitchell import log_operands

__all__ = ["CoverageMap", "FAMILY_SEGMENTS", "default_segments"]

#: fraction LSBs tracked per operand (2 bits -> 16 joint patterns)
LSB_BITS = 2

#: the families whose segment grid is not the 4x4 default of a design
#: with no power-of-two ``m`` of its own.  scaleTRIM gets an 8x8 grid:
#: its error surface is stratified by the ``t``-bit scaled fraction and
#: the compensation buckets, which a 4x4 grid would alias together.
FAMILY_SEGMENTS: dict[str, int] = {"scaleTRIM": 8}


def default_segments(multiplier) -> int:
    """The natural segment grid for a design: its own ``M`` when the
    config carries one (REALM), else its family's
    :data:`FAMILY_SEGMENTS` entry, else 4."""
    config = getattr(multiplier, "config", None)
    m = getattr(config, "m", None)
    if isinstance(m, int) and m >= 1 and (m & (m - 1)) == 0:
        return m
    return FAMILY_SEGMENTS.get(multiplier.family, 4)


@dataclasses.dataclass
class CoverageMap:
    """Hit counters over ``(ka, kb) x (i, j)`` cells plus LSB patterns.

    ``cells[ka, kb, i, j]`` counts pairs whose operands fell in leading-one
    intervals ``(ka, kb)`` and selected segment cell ``(i, j)``;
    ``lsb[pa, pb]`` counts joint fraction-LSB patterns.  Pairs with a zero
    operand have no leading one and are tallied in ``zero_pairs``.
    """

    bitwidth: int
    m: int = 4
    lsb_bits: int = LSB_BITS

    def __post_init__(self):
        if self.m < 1 or (self.m & (self.m - 1)) != 0:
            raise ValueError(f"segment count m must be a power of two, got {self.m}")
        logm = self.m.bit_length() - 1
        if logm > self.bitwidth - 1:
            raise ValueError(
                f"m={self.m} needs {logm} fraction bits; "
                f"bitwidth {self.bitwidth} has {self.bitwidth - 1}"
            )
        if not 0 <= self.lsb_bits <= self.bitwidth - 1:
            raise ValueError(f"lsb_bits out of range: {self.lsb_bits}")
        n = self.bitwidth
        self.cells = np.zeros((n, n, self.m, self.m), dtype=np.int64)
        self.lsb = np.zeros((1 << self.lsb_bits, 1 << self.lsb_bits), dtype=np.int64)
        self.zero_pairs = 0
        self.pairs = 0

    # -- coordinate mapping ---------------------------------------------

    def coordinates(self, a, b):
        """Map operand arrays to ``(ka, kb, i, j, pa, pb, nonzero)``."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        width = self.bitwidth - 1
        ka, kb, xa, xb, nonzero = log_operands(a, b, self.bitwidth)
        i = segment_index(xa, width, self.m)
        j = segment_index(xb, width, self.m)
        pmask = (1 << self.lsb_bits) - 1
        return ka, kb, i, j, xa & pmask, xb & pmask, nonzero

    def newly_covered(self, a, b) -> np.ndarray:
        """Mask of pairs that would hit a currently-empty segment cell."""
        ka, kb, i, j, _, _, nonzero = self.coordinates(a, b)
        return nonzero & (self.cells[ka, kb, i, j] == 0)

    def update(self, a, b) -> int:
        """Tally a batch of pairs; returns how many new cells were hit."""
        a = np.atleast_1d(np.asarray(a, dtype=np.int64))
        b = np.atleast_1d(np.asarray(b, dtype=np.int64))
        ka, kb, i, j, pa, pb, nonzero = self.coordinates(a, b)
        before = int(np.count_nonzero(self.cells))
        np.add.at(self.cells, (ka[nonzero], kb[nonzero], i[nonzero], j[nonzero]), 1)
        np.add.at(self.lsb, (pa[nonzero], pb[nonzero]), 1)
        self.zero_pairs += int(np.count_nonzero(~nonzero))
        self.pairs += int(a.size)
        return int(np.count_nonzero(self.cells)) - before

    # -- reachability ----------------------------------------------------

    def reachable_segments(self, k: int) -> np.ndarray:
        """Segment indices an interval-``k`` operand can select.

        Interval ``k`` leaves ``k`` variable fraction bits, so for
        ``k < log2(M)`` only every ``M / 2**k``-th index occurs.
        """
        step = max(1, self.m >> min(k, self.m.bit_length() - 1))
        return np.arange(0, self.m, step, dtype=np.int64)

    def reachable_mask(self) -> np.ndarray:
        """Boolean mask over ``cells`` of the reachable coordinate tuples."""
        n = self.bitwidth
        per_k = np.zeros((n, self.m), dtype=bool)
        for k in range(n):
            per_k[k, self.reachable_segments(k)] = True
        return per_k[:, None, :, None] & per_k[None, :, None, :]

    def reachable_lsb_mask(self) -> np.ndarray:
        """Reachable joint LSB patterns (all of them when the fraction is
        at least ``lsb_bits`` wide, i.e. ``bitwidth - 1 >= lsb_bits``)."""
        count = 1 << self.lsb_bits
        if self.bitwidth - 1 >= self.lsb_bits:
            per = np.ones(count, dtype=bool)
        else:
            per = np.zeros(count, dtype=bool)
            step = 1 << (self.lsb_bits - (self.bitwidth - 1))
            per[::step] = True
        return per[:, None] & per[None, :]

    # -- queries ---------------------------------------------------------

    def uncovered(self) -> np.ndarray:
        """Reachable-but-unhit ``(ka, kb, i, j)`` tuples, lexicographic."""
        missing = self.reachable_mask() & (self.cells == 0)
        return np.argwhere(missing)

    def uncovered_lsb(self) -> np.ndarray:
        """Reachable-but-unhit ``(pa, pb)`` patterns, lexicographic."""
        missing = self.reachable_lsb_mask() & (self.lsb == 0)
        return np.argwhere(missing)

    def segment_cell_coverage(self) -> float:
        """Hit fraction of the reachable ``(ka, kb, i, j)`` cells."""
        reachable = self.reachable_mask()
        total = int(np.count_nonzero(reachable))
        hit = int(np.count_nonzero(self.cells[reachable]))
        return hit / total if total else 1.0

    def lsb_coverage(self) -> float:
        reachable = self.reachable_lsb_mask()
        total = int(np.count_nonzero(reachable))
        hit = int(np.count_nonzero(self.lsb[reachable]))
        return hit / total if total else 1.0

    def full_cover(self) -> bool:
        return self.uncovered().size == 0 and self.uncovered_lsb().size == 0

    # -- reporting -------------------------------------------------------

    def segment_table(self) -> np.ndarray:
        """Hit counts aggregated over intervals: an ``(M, M)`` grid."""
        return self.cells.sum(axis=(0, 1))

    def report(self) -> dict:
        """JSON-stable summary (pure function of the evaluated pairs)."""
        reachable = self.reachable_mask()
        lsb_reachable = self.reachable_lsb_mask()
        return {
            "bitwidth": self.bitwidth,
            "m": self.m,
            "lsb_bits": self.lsb_bits,
            "pairs": int(self.pairs),
            "zero_pairs": int(self.zero_pairs),
            "segment_cells": {
                "reachable": int(np.count_nonzero(reachable)),
                "hit": int(np.count_nonzero(self.cells[reachable])),
                "coverage": round(self.segment_cell_coverage(), 6),
            },
            "lsb_patterns": {
                "reachable": int(np.count_nonzero(lsb_reachable)),
                "hit": int(np.count_nonzero(self.lsb[lsb_reachable])),
                "coverage": round(self.lsb_coverage(), 6),
            },
            "segment_table": self.segment_table().tolist(),
        }
