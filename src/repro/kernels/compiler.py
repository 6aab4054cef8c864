"""Kernel compiler: model -> fused evaluator, with a fingerprint cache.

Dispatch is structural: :func:`~repro.multipliers.base.datapath_family`
names the family class whose datapath a model runs unmodified, and that
class keys the table specializer of :mod:`repro.kernels.tables` that
folds it.  A subclass that overrides ``_multiply`` (or AM's
``_accumulate``/``_recover``, or a product form's ``_approximate``)
has no family, and gets the generic ladder, which evaluates through the
override.  Every registered family has a specializer; the models left
without one (such overriding subclasses, DNNCO windows beyond the
deficit-table budget) get the exhaustive product table when the operand
width allows and a transparent interpreted fallback otherwise — every
model therefore *has* a kernel, and every kernel is bit-identical to the
interpreted datapath.

The compile cache is keyed on ``(registry fingerprint, KERNEL_VERSION)``:
the fingerprint covers every functional attribute of the instance (the
same content address the warehouse trusts), and the version bumps
whenever kernel *generation* changes — so a new kernel scheme can never
serve tables compiled by an old one.  The cache is bounded by
:data:`KERNEL_CACHE_BYTES` of tables and evicts least recently used
kernels, since the kernel is every multiply's default path.
"""

from __future__ import annotations

import collections
import dataclasses
import threading

from collections.abc import Callable

import numpy as np

from ..analysis.cache import cache_key
from ..core.realm import RealmMultiplier
from ..multipliers.alm import ApproxAdderLogMultiplier
from ..multipliers.accurate import AccurateMultiplier
from ..multipliers.am import Am1Multiplier, Am2Multiplier
from ..multipliers.base import Multiplier, datapath_family
from ..multipliers.dnnco import DnnCoMultiplier
from ..multipliers.drum import DrumMultiplier
from ..multipliers.implm import ImpLmMultiplier
from ..multipliers.intalp import IntAlpMultiplier
from ..multipliers.mbm import MbmMultiplier
from ..multipliers.mitchell import MitchellMultiplier
from ..multipliers.registry import fingerprint
from ..multipliers.scaletrim import ScaleTrimMultiplier
from ..multipliers.ssm import EssmMultiplier, SsmMultiplier
from . import tables

__all__ = [
    "KERNEL_CACHE_BYTES",
    "KERNEL_VERSION",
    "CompiledKernel",
    "cached_kernel_bytes",
    "cached_kernel_count",
    "clear_kernel_cache",
    "compile_kernel",
    "kernel_for",
]

#: bump on ANY change to kernel generation; part of every cache key
KERNEL_VERSION = 4

#: table bytes the compile cache may hold before it evicts the least
#: recently used kernels.  Table I alone compiles ~50 MB of tables; a
#: sweep uses one design at a time, and recompiling is cheap (the shared
#: operand tables of :mod:`repro.kernels.tables` are cached apart)
KERNEL_CACHE_BYTES = 4 << 20


@dataclasses.dataclass(frozen=True)
class CompiledKernel:
    """One design specialized into a fused evaluator.

    ``kind`` records the compilation strategy — ``"table"`` (per-operand
    decomposition tables), ``"full-table"`` (exhaustive product table),
    ``"direct"`` (closed form, e.g. the accurate ``a * b``) or
    ``"interpreted"`` (fallback wrapping the model's ``_multiply``).
    ``table_bytes`` is the precomputed memory the kernel holds.

    Calling the kernel follows the ``_multiply`` contract: validated,
    broadcast, at-least-1-D int64 arrays in, int64 products out.
    """

    name: str
    family: str
    bitwidth: int
    kind: str
    version: int
    table_bytes: int
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.evaluate(a, b)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<CompiledKernel {self.name!r} N={self.bitwidth} "
            f"kind={self.kind} tables={self.table_bytes}B v{self.version}>"
        )


def _compile_direct(model):
    return (lambda a, b: a * b), "direct", 0


def _compile_interpreted(model):
    return model._multiply, "interpreted", 0


#: elements per evaluation block.  Table kernels are memory-bound: on a
#: multi-megasample batch every elementwise temporary streams through
#: DRAM, while at 2**15 elements the working set (a handful of 256 KB
#: temporaries plus the operand tables) stays cache-resident — measured
#: ~3x faster at 2**20 samples than evaluating the batch in one sweep.
_BLOCK = 1 << 15


def _blocked(evaluate):
    """Evaluate in blocks of about :data:`_BLOCK` elements, split along
    the leading axis (whole rows of an N-d batch per block).  While a
    row holds more than :data:`_BLOCK` elements, the split moves one
    axis in, row by row."""

    def run(a, b):
        if a.size <= _BLOCK:
            return evaluate(a, b)
        axis, row = 0, a.size // a.shape[0]
        while row > _BLOCK:
            axis += 1
            row //= a.shape[axis]
        step = _BLOCK // row
        out = np.empty(a.shape, dtype=np.int64)
        for index in np.ndindex(a.shape[:axis]):
            for start in range(0, a.shape[axis], step):
                block = (*index, slice(start, start + step))
                out[block] = evaluate(a[block], b[block])
        return out

    return run


#: family class -> specializer (see :func:`datapath_family`)
_SPECIALIZERS: dict[type, Callable] = {
    AccurateMultiplier: _compile_direct,
    RealmMultiplier: tables.compile_realm,
    MbmMultiplier: tables.compile_realm,
    ApproxAdderLogMultiplier: tables.compile_alm,
    MitchellMultiplier: tables.compile_mitchell,
    ImpLmMultiplier: tables.compile_implm,
    DrumMultiplier: tables.compile_product_form,
    SsmMultiplier: tables.compile_product_form,
    EssmMultiplier: tables.compile_product_form,
    ScaleTrimMultiplier: tables.compile_scaletrim,
    DnnCoMultiplier: tables.compile_dnnco,
    Am1Multiplier: tables.compile_am,
    Am2Multiplier: tables.compile_am,
    IntAlpMultiplier: tables.compile_intalp,
}


def compile_kernel(model: Multiplier) -> CompiledKernel:
    """Specialize one model into a :class:`CompiledKernel` (uncached)."""
    builder = _SPECIALIZERS.get(datapath_family(model))
    wide = model.bitwidth > tables.OPERAND_TABLE_MAX_BITWIDTH
    if wide and builder is not _compile_direct:
        builder = None  # decomposition tables would stop fitting cache
    built = builder(model) if builder is not None else None
    if built is None:
        if model.bitwidth <= tables.FULL_TABLE_MAX_BITWIDTH:
            built = tables.compile_full_table(model)
        else:
            built = _compile_interpreted(model)
    evaluate, kind, table_bytes = built
    if kind in ("table", "full-table"):
        evaluate = _blocked(evaluate)
    return CompiledKernel(
        name=model.name,
        family=model.family,
        bitwidth=model.bitwidth,
        kind=kind,
        version=KERNEL_VERSION,
        table_bytes=table_bytes,
        evaluate=evaluate,
    )


# ----------------------------------------------------------------------
# compile cache
# ----------------------------------------------------------------------

#: least recently used first
_CACHE: collections.OrderedDict[tuple[str, int], CompiledKernel] = (
    collections.OrderedDict()
)
_LOCK = threading.Lock()


def kernel_for(model: Multiplier) -> CompiledKernel:
    """The cached kernel of a model, compiling on first use.

    Two model instances with equal registry fingerprints (same class,
    bitwidth and functional attributes) share one kernel; a kernel
    compiled under a different :data:`KERNEL_VERSION` is never returned.
    Compiling evicts the least recently used kernels until the cached
    tables fit :data:`KERNEL_CACHE_BYTES`; the newest kernel always stays.
    """
    key = (cache_key(fingerprint(model)), KERNEL_VERSION)
    with _LOCK:
        kernel = _CACHE.get(key)
        if kernel is not None:
            _CACHE.move_to_end(key)
            return kernel
        kernel = _CACHE[key] = compile_kernel(model)
        held = sum(cached.table_bytes for cached in _CACHE.values())
        while held > KERNEL_CACHE_BYTES and len(_CACHE) > 1:
            _, evicted = _CACHE.popitem(last=False)
            held -= evicted.table_bytes
    return kernel


def clear_kernel_cache() -> None:
    """Drop every cached kernel (tests and long-lived servers)."""
    with _LOCK:
        _CACHE.clear()


def cached_kernel_count() -> int:
    """Number of kernels currently cached."""
    return len(_CACHE)


def cached_kernel_bytes() -> int:
    """Table bytes the cached kernels hold (at most
    :data:`KERNEL_CACHE_BYTES`, unless one kernel alone exceeds it)."""
    with _LOCK:
        return sum(kernel.table_bytes for kernel in _CACHE.values())
