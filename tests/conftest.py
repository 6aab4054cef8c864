"""Shared fixtures for the test suite.

The suite leans on three levels of rigor:

* exhaustive checks at small bitwidths (every operand pair);
* seeded random vectors at the paper's 16-bit width, always including the
  corner cases (0, 1, powers of two, all-ones) that trip log datapaths;
* hypothesis property tests on the core data structures.
"""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(0x5EA1)


@pytest.fixture(scope="session")
def operands16(rng) -> tuple[np.ndarray, np.ndarray]:
    """Random 16-bit operand pairs with the troublesome corners prepended."""
    corners = np.array(
        [0, 1, 2, 3, 255, 256, 257, 32767, 32768, 32769, 65534, 65535],
        dtype=np.int64,
    )
    a = np.concatenate([corners, np.repeat(corners, len(corners))])
    b = np.concatenate([corners, np.tile(corners, len(corners))])
    ra = rng.integers(0, 1 << 16, 4000)
    rb = rng.integers(0, 1 << 16, 4000)
    return np.concatenate([a, ra]), np.concatenate([b, rb])


@pytest.fixture(scope="session")
def exhaustive8() -> tuple[np.ndarray, np.ndarray]:
    """Every 8-bit operand pair."""
    values = np.arange(256, dtype=np.int64)
    a, b = np.meshgrid(values, values, indexing="ij")
    return a.ravel(), b.ravel()


@pytest.fixture()
def task_blocks(monkeypatch):
    """``task_blocks(n)`` caps every Monte-Carlo engine task at ``n``
    blocks (``parallel.GROUP_BLOCKS``) for the test; ``task_blocks(1)``
    gives the one-block batches that fault and resume tests target."""
    from repro.analysis import parallel

    def cap(blocks: int) -> None:
        monkeypatch.setattr(parallel, "GROUP_BLOCKS", blocks)

    return cap
