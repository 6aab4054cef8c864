"""Deterministic substreams and block-major campaigns for characterization.

The Monte-Carlo engine draws operands in fixed :data:`BLOCK`-sample blocks,
each from its own counter-based substream
``np.random.default_rng([seed, block_index])``.  Because a block's content
depends only on ``(seed, block_index)`` — never on who computed the blocks
before it — any block can be produced independently, in any process, and
the full input stream is a pure function of ``(seed, samples)``.

Per-block :class:`~repro.analysis.metrics.Accumulator` objects are merged
in ascending block order, which pins the floating-point addition order, so
the resulting :class:`~repro.analysis.metrics.ErrorMetrics` are
bit-identical at any ``workers`` count and however the blocks are grouped
into tasks.  A task (and one inter-process message) covers at most
:data:`GROUP_BLOCKS` blocks.

A campaign characterizes many designs on one stream, block-major: a task
covers a group of blocks and every design that still needs them.  The
designs that share a draw (the same bitwidth and seed, or the same
sampler) share its blocks: :func:`campaign_task` draws each block, and
computes its exact products, nonzero mask and nonzero products, once per
task.  Each design still gets its own per-block accumulators, so a
campaign returns exactly what one run per design would.

Because every block is a pure function of ``(seed, block_index)``, any
block can be recomputed anywhere — the failure-handling layer in
:mod:`repro.analysis.runtime` (retries, timeouts, pool rebuilds,
serial degradation, checkpoint/resume) leans on exactly this property:
no recovery path can change the result.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from . import telemetry
from .metrics import accumulate_chunk

__all__ = [
    "BLOCK",
    "GROUP_BLOCKS",
    "SamplerDraw",
    "UniformDraw",
    "block_plan",
    "campaign_task",
    "draw_uniform_block",
    "group_blocks",
    "substream",
]

#: fixed draw granularity (samples per substream); changing this changes
#: the input stream — bump ``montecarlo.ENGINE_VERSION`` if you do
BLOCK = 1 << 16

#: bytes of one block's shared arrays: operands, exact products and
#: nonzero products (int64) plus the nonzero mask
BLOCK_BYTES = BLOCK * (4 * 8 + 1)

#: bound on a group's shared arrays, which stay live while each design of
#: the group runs over them (and looks its kernel up once for the group)
GROUP_BYTES = 8 << 20

#: most blocks one task covers
GROUP_BLOCKS = max(1, GROUP_BYTES // BLOCK_BYTES)


def substream(seed: int, index: int) -> np.random.Generator:
    """The independent generator of block ``index`` for a run seed."""
    return np.random.default_rng([seed, index])


def block_plan(samples: int) -> list[tuple[int, int]]:
    """The canonical ``(block_index, count)`` partition of a run.

    Every block is :data:`BLOCK` samples except a possibly-shorter tail, so
    the partition — and therefore the stream — depends only on ``samples``.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    full, tail = divmod(samples, BLOCK)
    plan = [(index, BLOCK) for index in range(full)]
    if tail:
        plan.append((full, tail))
    return plan


def group_blocks(
    blocks: list[tuple[int, int]], workers: int | None = None
) -> list[list[tuple[int, int]]]:
    """Group consecutive blocks into per-task batches.

    A batch covers at most :data:`GROUP_BLOCKS` blocks.  With ``workers``
    > 1 it is also small enough that every worker gets a batch, as long
    as there are blocks enough.
    """
    per_task = GROUP_BLOCKS
    if workers and workers > 1:
        per_task = min(per_task, max(1, len(blocks) // workers))
    return [blocks[i : i + per_task] for i in range(0, len(blocks), per_task)]


def draw_uniform_block(
    bitwidth: int, seed: int, index: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform i.i.d. operand pair arrays for one block (paper input model)."""
    rng = substream(seed, index)
    high = 1 << bitwidth
    return rng.integers(0, high, count), rng.integers(0, high, count)


@dataclasses.dataclass(frozen=True)
class UniformDraw:
    """The paper's input model: uniform ``bitwidth``-bit operand pairs."""

    bitwidth: int
    seed: int

    def __call__(self, index: int, count: int):
        return draw_uniform_block(self.bitwidth, self.seed, index, count)


@dataclasses.dataclass(frozen=True)
class SamplerDraw:
    """A custom operand distribution: ``sampler(rng, count)`` called with
    block ``index``'s substream.

    ``sampler`` must be picklable (a plain function or one of the sampler
    dataclasses in :mod:`repro.analysis.montecarlo`) to run with workers.
    """

    sampler: object
    seed: int

    def __call__(self, index: int, count: int):
        a, b = self.sampler(substream(self.seed, index), count)
        return np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)


def campaign_task(draws, designs, positions, blocks, on_result=None) -> list:
    """Accumulators of one batch: each design in ``positions`` over ``blocks``.

    ``designs`` is the campaign's list of ``(draw_index, multiplier)`` and
    ``draws`` its operand draws, each called as ``draw(block_index,
    count)``.  Per draw, the batch's blocks are drawn and their exact
    products, nonzero mask and nonzero products computed once
    (``mc.sample`` spans); then each design of the draw runs over all of
    them (``mc.block`` spans).  Returns one ``(accumulators, seconds)``
    pair per position: the design's per-block accumulators and the wall
    seconds it cost, its own multiplies and accumulation plus an equal
    share of its draw.  ``on_result(position, pair)``, when given, gets
    each pair as soon as its design is done.
    """
    tele = telemetry.get()
    results = {}
    with tele.held():  # one burst of sink writes per batch
        for draw_index, draw in enumerate(draws):
            members = [p for p in positions if designs[p][0] == draw_index]
            if not members:
                continue
            start = time.perf_counter()
            shared = []
            for index, count in blocks:
                with tele.span("mc.sample", block=index):
                    a, b = draw(index, count)
                    exact = a * b
                    valid = exact != 0
                    shared.append((index, a, b, exact, valid, exact[valid]))
            share = (time.perf_counter() - start) / len(members)
            for position in members:
                multiplier = designs[position][1]
                start = time.perf_counter()
                accumulators = []
                for index, a, b, exact, valid, exact_nz in shared:
                    with tele.span("mc.block", block=index, design=multiplier.name):
                        accumulators.append(
                            accumulate_chunk(
                                multiplier.multiply(a, b), exact, valid, exact_nz
                            )
                        )
                results[position] = (
                    accumulators, share + time.perf_counter() - start
                )
                if on_result is not None:
                    on_result(position, results[position])
    return [results[p] for p in positions]
