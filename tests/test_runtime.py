"""Tests for the resilient execution layer (``repro.analysis.runtime``).

The invariant under test everywhere: a run that completes — retried,
rebuilt, degraded or resumed — produces an accumulator bit-identical to
an undisturbed serial run, and a run that cannot complete raises a
:class:`BatchFailure` naming the exact blocks.  Failure injection here is
done with plain in-test task wrappers; the cross-process chaos harness
has its own suite in ``test_chaos.py``.
"""

from __future__ import annotations

import dataclasses
import math
import os

import pytest

from repro.analysis.metrics import Accumulator
from repro.analysis.parallel import (
    BLOCK,
    UniformDraw,
    block_plan,
    campaign_task,
    group_blocks,
)
from repro.analysis.runtime import (
    BatchFailure,
    Checkpoint,
    CorruptResultError,
    ResiliencePolicy,
    SharedPool,
    monotonic_progress,
    run_campaign,
    validate_batch,
)
from repro.multipliers.mitchell import MitchellMultiplier

#: three blocks — two full, one short tail — one block per batch
SAMPLES = 2 * BLOCK + 1234
SEED = 11

#: a policy that never actually sleeps (tests stay fast and deterministic)
FAST = dict(sleep=lambda s: None, jitter=lambda low, high: low)


def uniform_task(multiplier, seed, blocks) -> list[Accumulator]:
    """One design's per-block accumulators on uniform operands."""
    draw = UniformDraw(multiplier.bitwidth, seed)
    ((accumulators, _),) = campaign_task((draw,), ((0, multiplier),), (0,), blocks)
    return accumulators


@dataclasses.dataclass(frozen=True)
class OneDesign:
    """A per-block task as a one-design campaign task (picklable)."""

    task: object

    def __call__(self, *args, on_result=None):
        *task_args, _, blocks = args
        return [(self.task(*task_args, blocks), 0.0)]


def run_plan(task, task_args, plan, *, checkpoint=None, **options):
    """``run_campaign`` for one design whose ``task(*task_args, blocks)``
    returns one accumulator per block; the runtime's contracts are
    tested through it with plain per-block fault-injecting tasks."""
    (total,) = run_campaign(
        OneDesign(task), task_args, plan, ["run"],
        checkpoints=[checkpoint], **options,
    )
    return total


def clean_run(multiplier, samples=SAMPLES, seed=SEED) -> Accumulator:
    """The undisturbed serial reference every recovery path must match."""
    return run_plan(uniform_task, (multiplier, seed), block_plan(samples))


@pytest.fixture()
def one_block_batches(task_blocks):
    """One block per batch, so a per-block fault fails one batch."""
    task_blocks(1)


class FlakyTask:
    """``uniform_task`` that fails its target batch a set number of times."""

    def __init__(self, fails=0, block=0, make_error=None):
        self.fails = fails
        self.block = block
        self.make_error = make_error or (lambda: RuntimeError("transient fault"))
        self.calls: list[int] = []

    def __call__(self, multiplier, seed, blocks):
        self.calls.append(blocks[0][0])
        if blocks[0][0] == self.block and self.fails > 0:
            self.fails -= 1
            raise self.make_error()
        return uniform_task(multiplier, seed, blocks)


class TestResiliencePolicy:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(max_retries=-1)
        with pytest.raises(ValueError):
            ResiliencePolicy(batch_timeout=0)
        with pytest.raises(ValueError):
            ResiliencePolicy(batch_timeout=-1.5)
        with pytest.raises(ValueError):
            ResiliencePolicy(backoff_base=-0.1)
        with pytest.raises(ValueError):
            ResiliencePolicy(backoff_base=1.0, backoff_cap=0.5)
        with pytest.raises(ValueError):
            ResiliencePolicy(max_pool_rebuilds=-1)

    def test_next_delay_decorrelated_jitter(self):
        # jitter pinned to the upper bound: delay_n = min(cap, 3*delay_{n-1})
        policy = ResiliencePolicy(
            backoff_base=0.05, backoff_cap=2.0, jitter=lambda low, high: high
        )
        delays = []
        previous = policy.backoff_base
        for _ in range(5):
            previous = policy.next_delay(previous)
            delays.append(previous)
        assert delays == pytest.approx([0.15, 0.45, 1.35, 2.0, 2.0])

    def test_next_delay_lower_bound_is_base(self):
        policy = ResiliencePolicy(
            backoff_base=0.05, backoff_cap=2.0, jitter=lambda low, high: low
        )
        assert policy.next_delay(1.0) == pytest.approx(0.05)

    def test_pause_uses_injected_sleep(self):
        slept = []
        policy = ResiliencePolicy(sleep=slept.append)
        policy.pause(0.25)
        policy.pause(0.0)  # zero never sleeps
        assert slept == [0.25]


class TestValidateBatch:
    BLOCKS = [(0, 10), (1, 5)]

    @staticmethod
    def _acc(count):
        acc = Accumulator()
        acc.count = count
        acc.all_count = count
        return acc

    def test_accepts_matching_accumulators(self):
        validate_batch(self.BLOCKS, [self._acc(10), self._acc(5)])

    def test_rejects_non_list(self):
        with pytest.raises(CorruptResultError, match="list of accumulators"):
            validate_batch(self.BLOCKS, None)

    def test_rejects_truncated_result(self):
        with pytest.raises(CorruptResultError, match="2 block"):
            validate_batch(self.BLOCKS, [self._acc(10)])

    def test_rejects_wrong_element_type(self):
        with pytest.raises(CorruptResultError, match="expected an Accumulator"):
            validate_batch(self.BLOCKS, [self._acc(10), {"count": 5}])

    def test_rejects_wrong_sample_count(self):
        with pytest.raises(CorruptResultError, match="block 1"):
            validate_batch(self.BLOCKS, [self._acc(10), self._acc(6)])

    def test_rejects_inconsistent_nonzero_count(self):
        bad = self._acc(10)
        bad.count = 11  # more nonzero samples than samples
        with pytest.raises(CorruptResultError, match="block 0"):
            validate_batch(self.BLOCKS, [bad, self._acc(5)])


class TestBatchFailure:
    def test_names_the_blocks_and_cause(self):
        error = BatchFailure(
            "REALM16 (t=0)", [(3, BLOCK), (4, 100)], attempts=3, cause="boom"
        )
        assert error.label == "REALM16 (t=0)"
        assert error.blocks == [(3, BLOCK), (4, 100)]
        assert error.attempts == 3
        message = str(error)
        assert "blocks[3..4]" in message
        assert f"{BLOCK + 100} samples" in message
        assert "'REALM16 (t=0)'" in message
        assert "3 attempt(s)" in message
        assert "boom" in message


class TestCheckpoint:
    PAYLOAD = {"kind": "test", "seed": SEED, "samples": SAMPLES}

    def _checkpoint(self, tmp_path, **kwargs):
        return Checkpoint(tmp_path, "deadbeef", dict(self.PAYLOAD), **kwargs)

    def test_round_trip_bit_exact(self, tmp_path):
        blocks = uniform_task(MitchellMultiplier(), SEED, [(0, BLOCK), (1, 77)])
        state = {0: blocks[0], 1: blocks[1], 2: Accumulator()}
        ckpt = self._checkpoint(tmp_path)
        ckpt.save(state)
        loaded = ckpt.load()
        # dataclass equality is field-by-field float equality — bit-exact
        # round trip through JSON, including the empty block's infinities
        assert loaded == state
        assert loaded[2].peak_min == math.inf
        assert loaded[2].peak_max == -math.inf

    def test_missing_file_loads_empty(self, tmp_path):
        assert self._checkpoint(tmp_path).load() == {}

    def test_corrupt_file_loads_empty(self, tmp_path):
        ckpt = self._checkpoint(tmp_path)
        ckpt.save({0: Accumulator()})
        ckpt.path.write_text("{not json")
        assert ckpt.load() == {}

    def test_payload_mismatch_loads_empty(self, tmp_path):
        ckpt = self._checkpoint(tmp_path)
        ckpt.save({0: Accumulator()})
        other = Checkpoint(tmp_path, "deadbeef", {**self.PAYLOAD, "seed": 12})
        assert other.load() == {}

    def test_version_mismatch_loads_empty(self, tmp_path, monkeypatch):
        ckpt = self._checkpoint(tmp_path)
        ckpt.save({0: Accumulator()})
        monkeypatch.setattr("repro.analysis.runtime.CHECKPOINT_VERSION", 2)
        assert ckpt.load() == {}

    def test_discard_is_idempotent(self, tmp_path):
        ckpt = self._checkpoint(tmp_path)
        ckpt.save({0: Accumulator()})
        assert ckpt.path.exists()
        ckpt.discard()
        ckpt.discard()
        assert not ckpt.path.exists()


@pytest.mark.usefixtures("one_block_batches")
class TestRunPlanSerial:
    def test_matches_plain_serial_run(self):
        calm = MitchellMultiplier()
        resilient = run_plan(
            uniform_task,
            (calm, SEED),
            block_plan(SAMPLES),
            policy=ResiliencePolicy(**FAST),
        )
        assert resilient == clean_run(calm)

    def test_retry_then_success_is_bit_identical(self):
        calm = MitchellMultiplier()
        flaky = FlakyTask(fails=2, block=1)
        slept = []
        events = []
        policy = ResiliencePolicy(
            max_retries=2, sleep=slept.append, jitter=lambda low, high: high
        )
        result = run_plan(
            flaky,
            (calm, SEED),
            block_plan(SAMPLES),
            policy=policy,
            on_event=events.append,
        )
        assert result == clean_run(calm)
        assert flaky.calls == [0, 1, 1, 1, 2]
        retries = [e for e in events if e["event"] == "retry"]
        assert [e["attempt"] for e in retries] == [1, 2]
        assert all("transient fault" in e["cause"] for e in retries)
        # one decorrelated-jitter pause per retry, growing 3x up to the cap
        assert slept == pytest.approx([0.15, 0.45])

    def test_retry_exhaustion_raises_batch_failure(self):
        flaky = FlakyTask(fails=99, block=1)
        with pytest.raises(BatchFailure) as excinfo:
            run_plan(
                flaky,
                (MitchellMultiplier(), SEED),
                block_plan(SAMPLES),
                policy=ResiliencePolicy(max_retries=1, **FAST),
            )
        failure = excinfo.value
        assert failure.blocks == [(1, BLOCK)]
        assert failure.attempts == 2  # initial try + one retry
        assert "blocks[1..1]" in str(failure)

    def test_corrupt_result_is_retried_not_merged(self):
        calm = MitchellMultiplier()

        class CorruptOnce:
            def __init__(self):
                self.armed = True

            def __call__(self, multiplier, seed, blocks):
                out = uniform_task(multiplier, seed, blocks)
                if self.armed and blocks[0][0] == 0:
                    self.armed = False
                    out[0].all_count += 1  # lies about its sample coverage
                return out

        events = []
        result = run_plan(
            CorruptOnce(),
            (calm, SEED),
            block_plan(SAMPLES),
            policy=ResiliencePolicy(max_retries=2, **FAST),
            on_event=events.append,
        )
        assert result == clean_run(calm)
        retries = [e for e in events if e["event"] == "retry"]
        assert len(retries) == 1
        assert "block 0" in retries[0]["cause"]

    def test_checkpoint_saved_on_failure_and_resumed(self, tmp_path):
        calm = MitchellMultiplier()
        payload = {"kind": "test-resume", "seed": SEED, "samples": SAMPLES}
        ckpt = Checkpoint(tmp_path, "abc123", payload)
        bomb = FlakyTask(fails=99, block=2)
        with pytest.raises(BatchFailure):
            run_plan(
                bomb,
                (calm, SEED),
                block_plan(SAMPLES),
                policy=ResiliencePolicy(max_retries=0, **FAST),
                checkpoint=ckpt,
            )
        assert ckpt.path.exists()  # blocks 0 and 1 persisted

        counting = FlakyTask()
        events = []
        resumed = run_plan(
            counting,
            (calm, SEED),
            block_plan(SAMPLES),
            checkpoint=Checkpoint(tmp_path, "abc123", dict(payload)),
            on_event=events.append,
        )
        # only the interrupted block was recomputed, result is bit-identical
        assert counting.calls == [2]
        assert resumed == clean_run(calm)
        assert events[0]["event"] == "resume"
        assert events[0]["blocks_done"] == 2
        assert not ckpt.path.exists()  # discarded after a clean finish

    def test_resume_ignores_checkpoint_for_other_plan(self, tmp_path):
        calm = MitchellMultiplier()
        payload = {"kind": "test-stale", "samples": SAMPLES}
        stale = Checkpoint(tmp_path, "key", payload)
        # a checkpointed block whose sample count disagrees with the plan
        wrong = Accumulator()
        wrong.count = wrong.all_count = 17
        stale.save({0: wrong})
        counting = FlakyTask()
        result = run_plan(
            counting,
            (calm, SEED),
            block_plan(SAMPLES),
            checkpoint=Checkpoint(tmp_path, "key", dict(payload)),
        )
        assert counting.calls == [0, 1, 2]  # nothing was trusted
        assert result == clean_run(calm)

    def test_checkpoint_discarded_on_clean_success(self, tmp_path):
        calm = MitchellMultiplier()
        ckpt = Checkpoint(tmp_path, "clean", {"kind": "t"})
        run_plan(
            uniform_task, (calm, SEED), block_plan(SAMPLES), checkpoint=ckpt
        )
        assert not ckpt.path.exists()
        assert not list((tmp_path / "checkpoints").glob("*.tmp*"))

    def test_progress_reports_cumulative_samples(self):
        seen = []
        run_plan(
            uniform_task,
            (MitchellMultiplier(), SEED),
            block_plan(SAMPLES),
            on_progress=seen.append,
        )
        assert seen == [BLOCK, 2 * BLOCK, SAMPLES]


class FailOnceAcrossProcesses:
    """A task that fails its target block exactly once, pool-safe.

    Pool submissions pickle the task, so in-object counters reset per
    worker; an ``O_EXCL`` marker file makes "already fired" visible to
    every process exactly once.
    """

    def __init__(self, block, marker):
        self.block = block
        self.marker = str(marker)

    def __call__(self, multiplier, seed, blocks):
        if blocks[0][0] == self.block:
            try:
                os.close(os.open(self.marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                pass
            else:
                raise RuntimeError("transient fault")
        return uniform_task(multiplier, seed, blocks)


@pytest.mark.usefixtures("one_block_batches")
class TestMonotonicProgress:
    """Regression suite for the ``on_progress`` monotonicity contract:
    retried/duplicated batch deliveries must never surface as a
    ``samples_done`` value that repeats or moves backwards."""

    def test_wrapper_suppresses_regressions_and_duplicates(self):
        seen = []
        report = monotonic_progress(seen.append)
        # a retried early block completing after later blocks would,
        # unclamped, replay lower totals into the callback stream
        for value in [BLOCK, 2 * BLOCK, BLOCK, 2 * BLOCK, 3 * BLOCK]:
            report(value)
        assert seen == [BLOCK, 2 * BLOCK, 3 * BLOCK]

    def test_wrapper_passes_none_through(self):
        assert monotonic_progress(None) is None

    def test_serial_retry_stream_is_strictly_increasing(self):
        calm = MitchellMultiplier()
        flaky = FlakyTask(fails=2, block=0)
        seen = []
        result = run_plan(
            flaky,
            (calm, SEED),
            block_plan(SAMPLES),
            policy=ResiliencePolicy(max_retries=2, **FAST),
            on_progress=seen.append,
        )
        assert result == clean_run(calm)
        assert seen == sorted(set(seen))  # strictly increasing
        assert seen[-1] == SAMPLES

    def test_pooled_retry_after_later_block_stays_monotonic(self, tmp_path):
        """The ISSUE scenario: with workers, a failed early batch is
        retried and completes *after* later batches have reported — the
        callback stream must still be strictly increasing and end at the
        full sample count."""
        calm = MitchellMultiplier()
        # block 0 fails on its first execution (the marker file carries
        # the "already fired" state across worker processes, since each
        # pool submission pickles its own copy of the task); blocks 1
        # and 2 complete and report before its retry lands
        flaky = FailOnceAcrossProcesses(block=0, marker=tmp_path / "fired")
        seen = []
        result = run_plan(
            flaky,
            (calm, SEED),
            block_plan(SAMPLES),
            workers=2,
            policy=ResiliencePolicy(max_retries=2, **FAST),
            on_progress=seen.append,
        )
        assert result == clean_run(calm)
        assert len(seen) == 3
        assert seen == sorted(set(seen))
        assert seen[-1] == SAMPLES

    def test_resume_then_progress_stays_monotonic(self, tmp_path):
        calm = MitchellMultiplier()
        payload = {"kind": "test-monotonic", "seed": SEED, "samples": SAMPLES}
        bomb = FlakyTask(fails=99, block=2)
        with pytest.raises(BatchFailure):
            run_plan(
                bomb,
                (calm, SEED),
                block_plan(SAMPLES),
                policy=ResiliencePolicy(max_retries=0, **FAST),
                checkpoint=Checkpoint(tmp_path, "mono", dict(payload)),
            )
        seen = []
        resumed = run_plan(
            FlakyTask(),
            (calm, SEED),
            block_plan(SAMPLES),
            checkpoint=Checkpoint(tmp_path, "mono", dict(payload)),
            on_progress=seen.append,
        )
        assert resumed == clean_run(calm)
        # the resume report (2 blocks done) then the final total
        assert seen == [2 * BLOCK, SAMPLES]


class TestGroupBlocks:
    def test_partitions_in_order(self, task_blocks):
        task_blocks(2)
        plan = block_plan(3 * BLOCK + 5)
        groups = group_blocks(plan)
        assert [len(g) for g in groups] == [2, 2]
        assert [g[0][0] for g in groups] == [0, 2]

    def test_group_shared_arrays_are_bounded(self):
        from repro.analysis.parallel import BLOCK_BYTES, GROUP_BLOCKS, GROUP_BYTES

        assert GROUP_BLOCKS * BLOCK_BYTES <= GROUP_BYTES
        groups = group_blocks(block_plan(64 * BLOCK))
        assert max(len(g) for g in groups) == GROUP_BLOCKS

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_every_worker_gets_a_batch(self, workers):
        groups = group_blocks(block_plan(4 * BLOCK), workers)
        assert len(groups) >= workers
        assert [b for g in groups for b in g] == block_plan(4 * BLOCK)


class AlwaysFailBlock:
    """Pool-safe task that fails its target block on every execution."""

    def __init__(self, block):
        self.block = block

    def __call__(self, multiplier, seed, blocks):
        if blocks[0][0] == self.block:
            raise RuntimeError("permanent fault")
        return uniform_task(multiplier, seed, blocks)


@pytest.mark.usefixtures("one_block_batches")
class TestSharedPool:
    """The serve layer's reusable executor (see DESIGN.md §10)."""

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError, match="workers"):
            SharedPool(0)

    def test_acquire_is_lazy_and_sticky(self):
        with SharedPool(2) as pool:
            assert not pool.live
            first = pool.acquire()
            assert pool.live
            assert pool.acquire() is first
            assert pool.rebuilds == 0
        assert not pool.live

    def test_invalidate_forces_fresh_executor(self):
        with SharedPool(2) as pool:
            first = pool.acquire()
            pool.invalidate()
            assert pool.rebuilds == 1
            assert not pool.live
            assert pool.acquire() is not first

    def test_run_plan_reuses_executor_across_campaigns(self):
        calm = MitchellMultiplier()
        with SharedPool(2) as pool:
            one = run_plan(
                uniform_task, (calm, SEED), block_plan(SAMPLES),
                policy=ResiliencePolicy(**FAST), pool=pool,
            )
            # the clean exit left the executor alive ...
            assert pool.live
            executor = pool.acquire()
            two = run_plan(
                uniform_task, (calm, SEED), block_plan(SAMPLES),
                policy=ResiliencePolicy(**FAST), pool=pool,
            )
            # ... and the second campaign borrowed the very same one
            assert pool.acquire() is executor
            assert pool.rebuilds == 0
        reference = clean_run(calm)
        assert one == reference
        assert two == reference

    def test_failed_campaign_invalidates_shared_pool(self):
        calm = MitchellMultiplier()
        with SharedPool(2) as pool:
            with pytest.raises(BatchFailure):
                run_plan(
                    AlwaysFailBlock(1), (calm, SEED),
                    block_plan(SAMPLES),
                    policy=ResiliencePolicy(max_retries=0, **FAST),
                    pool=pool,
                )
            # the compromised executor was discarded, never reused
            assert pool.rebuilds >= 1
            assert not pool.live
            # and the pool recovers: the next campaign gets a fresh one
            clean = run_plan(
                uniform_task, (calm, SEED), block_plan(SAMPLES),
                policy=ResiliencePolicy(**FAST), pool=pool,
            )
        assert clean == clean_run(calm)
