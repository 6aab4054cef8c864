"""Compiled evaluation kernels — the default multiply path of the repo.

The functional models *interpret* a design per call, walking a handful
of NumPy ops per batch, and the reference gate-level simulator walks the
netlist gate by gate through Python dicts.  This package **compiles**
each design once into a fused evaluator and caches it:

* :func:`compile_kernel` / :func:`kernel_for` specialize a
  :class:`~repro.multipliers.base.Multiplier` into a
  :class:`CompiledKernel` — for the log/segment families the quantized
  ``s_ij`` LUT, ``t``-truncation and LOD collapse into per-operand
  table lookups plus a few vectorized int64 ops; AM1/AM2 become gathers
  from one 8-bit-chunk OR-product table; IntALP walks its plane
  hierarchy through per-level half-plane tables.  Every registered
  family compiles so; a model with no specializer (a subclass that
  overrides the datapath) gets an exhaustive product table when narrow,
  otherwise a transparent interpreted fallback (still bit-identical, by
  construction).  Large batches are evaluated in cache-sized blocks
  along their leading axis.
* :func:`compile_netlist` lowers a levelized
  :class:`~repro.logic.netlist.Netlist` into a straight-line
  bit-parallel program over uint64-packed stimulus lanes
  (:class:`NetlistKernel`) — 64 vectors per word, one NumPy call per
  ``(level, cell)`` group instead of one dict walk per gate.  It is the
  package's one gate evaluator: output words, every net's packed
  waveform (power, pipeline registers) and stuck-at faults as extra
  program steps.

:meth:`Multiplier.multiply <repro.multipliers.base.Multiplier.multiply>`
runs every batch through :func:`kernel_for` unless called with
``compiled=False``, which selects the interpreted datapath: the
reference the conformance ``model`` layer, the metamorphic relations
and the formal replays must use, so that their checks stay
model-versus-kernel.  Kernels are **bit-identical** to the interpreted
paths (sworn to by the Hypothesis sweep in ``tests/test_kernels.py``
and the ``kernel`` conformance layer of :mod:`repro.conformance`).
The compile cache is keyed on the registry fingerprint *and*
:data:`KERNEL_VERSION`, so a kernel-generation change can never serve
stale tables, and holds at most :data:`KERNEL_CACHE_BYTES` of tables,
evicting the least recently used kernels.
"""

from __future__ import annotations

from .compiler import (
    KERNEL_CACHE_BYTES,
    KERNEL_VERSION,
    CompiledKernel,
    cached_kernel_bytes,
    cached_kernel_count,
    clear_kernel_cache,
    compile_kernel,
    kernel_for,
)
from .netlist import NetlistKernel, compile_netlist

__all__ = [
    "KERNEL_CACHE_BYTES",
    "KERNEL_VERSION",
    "CompiledKernel",
    "NetlistKernel",
    "cached_kernel_bytes",
    "cached_kernel_count",
    "clear_kernel_cache",
    "compile_kernel",
    "compile_netlist",
    "kernel_for",
]
