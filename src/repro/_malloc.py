"""Pin glibc's malloc thresholds so large NumPy temporaries are reused.

glibc serves an allocation at or above ``M_MMAP_THRESHOLD`` with a
fresh ``mmap`` and gives it back on ``free``; heap memory above
``M_TRIM_THRESHOLD`` at the top of the heap is returned to the kernel.
Both start low (128 KiB) and grow only when a large mmapped block is
freed, so a process's allocator behaviour depends on which temporaries
it happened to free first.  Until they have grown, every multi-megabyte
NumPy temporary is a new mapping whose pages fault in again: a warm
``characterize(calm, 2**17)`` takes about 3.4k minor faults.

:func:`pin` fixes both thresholds at the ceiling glibc's own heuristic
climbs to on 64-bit hosts (``M_MMAP_THRESHOLD`` 32 MiB,
``M_TRIM_THRESHOLD`` twice that), so temporaries come from the heap and
keep their pages.  ``repro/__init__.py`` calls it once, so the library,
the CLI, serve shards and pool workers all run with the same allocator.
"""

from __future__ import annotations

import ctypes
import sys

__all__ = ["MMAP_THRESHOLD", "TRIM_THRESHOLD", "pin"]

#: glibc's ``DEFAULT_MMAP_THRESHOLD_MAX`` on 64-bit hosts: the largest
#: value ``mallopt(M_MMAP_THRESHOLD, ...)`` accepts
MMAP_THRESHOLD = 32 << 20

#: what the dynamic heuristic sets beside that mmap threshold (2x)
TRIM_THRESHOLD = 64 << 20

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def pin() -> bool:
    """Set both thresholds; True when glibc accepted them.

    A no-op returning False off Linux, on a libc other than glibc, or if
    the symbols cannot be loaded; never raises.
    """
    if not sys.platform.startswith("linux"):
        return False
    try:
        libc = ctypes.CDLL(None)
        if not hasattr(libc, "gnu_get_libc_version"):
            return False
        mallopt = libc.mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mmap = mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        trim = mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    except (OSError, AttributeError):
        return False
    return bool(mmap and trim)
