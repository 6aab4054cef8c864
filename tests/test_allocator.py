"""The allocator pin of ``repro._malloc``: warm NumPy temporaries reuse
heap pages instead of faulting in fresh mappings.

The fault count is taken in a fresh interpreter, because the allocator
state of the test process depends on every test that ran before.
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import sys

import pytest

from repro import _malloc

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: minor page faults of a second characterize(calm, 2**17) after a first
#: (measured: about 3.4k with glibc's dynamic thresholds, 0 pinned)
MAX_WARM_FAULTS = 300

PROBE = """
import resource, sys
sys.path.insert(0, {src!r})
from repro import build, characterize
model = build("calm")
characterize(model, samples=1 << 17, seed=2)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
characterize(model, samples=1 << 17, seed=2)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _glibc() -> bool:
    if not sys.platform.startswith("linux"):
        return False
    try:
        return hasattr(ctypes.CDLL(None), "gnu_get_libc_version")
    except OSError:
        return False


glibc_only = pytest.mark.skipif(not _glibc(), reason="pins glibc malloc only")


@glibc_only
def test_pin_is_accepted():
    assert _malloc.pin() is True


def test_pin_is_a_no_op_off_linux(monkeypatch):
    monkeypatch.setattr(sys, "platform", "darwin")
    assert _malloc.pin() is False


@glibc_only
def test_warm_characterize_does_not_page_fault():
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("REPRO_CACHE_DIR", "REPRO_WAREHOUSE_DIR", "REPRO_TELEMETRY_DIR")
    }
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(src=SRC)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    faults = int(done.stdout.split()[-1])
    assert faults < MAX_WARM_FAULTS
