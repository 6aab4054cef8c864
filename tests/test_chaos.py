"""Chaos-harness tests: injected worker faults end well or fail loudly.

Every scenario here must terminate in one of exactly two ways:

* a result **bit-identical** to an undisturbed serial run, or
* a structured :class:`BatchFailure` naming the failed batch —

never a silently wrong metric and never a bare ``BrokenProcessPool``.
Faults are injected through :mod:`repro.analysis.chaos`: in-process plans
for serial runs, the ``REPRO_CHAOS`` environment variable (inherited by
pool workers) for parallel ones.
"""

from __future__ import annotations

import pytest

from repro.analysis import chaos
from repro.analysis.chaos import CHAOS_ENV, ChaosPlan, FaultSpec
from repro.analysis.designspace import sweep
from repro.analysis.montecarlo import characterize
from repro.analysis.parallel import BLOCK
from repro.analysis.runtime import BatchFailure, ResiliencePolicy
from repro.multipliers.mitchell import MitchellMultiplier
from repro.multipliers.registry import build

SAMPLES = 2 * BLOCK  # two blocks, one per batch
SEED = 7

#: no real sleeping between retries
FAST = dict(sleep=lambda s: None, jitter=lambda low, high: low)


@pytest.fixture(autouse=True)
def clean_plan(monkeypatch, task_blocks):
    """Every test starts and ends with no active fault plan, and runs
    one block per batch so that each fault hits one batch."""
    monkeypatch.delenv(CHAOS_ENV, raising=False)
    task_blocks(1)
    chaos.uninstall()
    yield
    chaos.uninstall()


@pytest.fixture()
def calm():
    return MitchellMultiplier()


@pytest.fixture()
def reference(calm):
    return characterize(calm, samples=SAMPLES, seed=SEED)


def run(calm, *, workers=None, policy=None, progress=None, **kwargs):
    return characterize(
        calm,
        samples=SAMPLES,
        seed=SEED,
        workers=workers,
        policy=policy,
        progress=progress,
        **kwargs,
    )


class TestHarness:
    def test_wrap_is_identity_when_inactive(self):
        task = object()
        assert chaos.wrap(task) is task

    def test_fault_spec_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(kind="explode", block=0)
        with pytest.raises(ValueError, match="times"):
            FaultSpec(kind="raise", block=0, times=0)
        with pytest.raises(ValueError, match="seconds"):
            FaultSpec(kind="hang", block=0, seconds=-1.0)

    def test_plan_round_trips_through_env(self, tmp_path, monkeypatch):
        plan = ChaosPlan(
            (FaultSpec(kind="raise", block=1, design="cALM", times=2),),
            str(tmp_path),
        )
        monkeypatch.setenv(CHAOS_ENV, plan.to_json())
        assert chaos.active_plan() == plan

    def test_claim_counts_firings_exactly(self, tmp_path):
        spec = FaultSpec(kind="raise", block=0, times=2)
        plan = ChaosPlan((spec,), str(tmp_path))
        assert [plan.claim(0, spec) for _ in range(4)] == [True, True, False, False]


class TestSerialFaults:
    def test_raise_is_retried_bit_identical(self, tmp_path, calm, reference):
        chaos.install([FaultSpec(kind="raise", block=1, times=1)], tmp_path)
        events = []
        result = run(
            calm, policy=ResiliencePolicy(max_retries=2, **FAST),
            progress=events.append,
        )
        assert result == reference
        retries = [e for e in events if e.get("event") == "retry"]
        assert len(retries) == 1 and retries[0]["batch"] == 1

    def test_raise_exhaustion_is_structured(self, tmp_path, calm):
        chaos.install([FaultSpec(kind="raise", block=1, times=99)], tmp_path)
        with pytest.raises(BatchFailure) as excinfo:
            run(calm, policy=ResiliencePolicy(max_retries=0, **FAST))
        assert excinfo.value.blocks == [(1, BLOCK)]
        assert "blocks[1..1]" in str(excinfo.value)
        assert "injected fault" in str(excinfo.value)

    def test_corrupt_result_is_caught_and_retried(self, tmp_path, calm, reference):
        chaos.install([FaultSpec(kind="corrupt", block=0, times=1)], tmp_path)
        events = []
        result = run(
            calm, policy=ResiliencePolicy(max_retries=2, **FAST),
            progress=events.append,
        )
        assert result == reference
        retries = [e for e in events if e.get("event") == "retry"]
        assert len(retries) == 1
        # the validation layer, not the task, flagged the corruption
        assert "block 0" in retries[0]["cause"]
        assert "expected" in retries[0]["cause"]

    def test_corrupt_never_merges_silently(self, tmp_path, calm):
        chaos.install([FaultSpec(kind="corrupt", block=0, times=99)], tmp_path)
        with pytest.raises(BatchFailure) as excinfo:
            run(calm, policy=ResiliencePolicy(max_retries=1, **FAST))
        assert excinfo.value.blocks[0][0] == 0


class TestParallelFaults:
    """Pool-path faults, injected through the environment so forked
    workers inherit the plan."""

    def _arm(self, monkeypatch, tmp_path, *specs):
        plan = ChaosPlan(tuple(specs), str(tmp_path))
        monkeypatch.setenv(CHAOS_ENV, plan.to_json())

    def test_crashed_worker_rebuilds_pool(self, tmp_path, monkeypatch, calm, reference):
        self._arm(monkeypatch, tmp_path, FaultSpec(kind="crash", block=0, times=1))
        events = []
        result = run(
            calm, workers=2, policy=ResiliencePolicy(max_retries=2, **FAST),
            progress=events.append,
        )
        assert result == reference
        assert any(e.get("event") == "pool-rebuild" for e in events)

    def test_persistent_crashes_degrade_to_serial(
        self, tmp_path, monkeypatch, calm, reference
    ):
        # every pooled attempt crashes; the crash fault only fires inside
        # worker processes, so degraded in-process execution completes
        self._arm(monkeypatch, tmp_path, FaultSpec(kind="crash", block=0, times=99))
        events = []
        result = run(
            calm,
            workers=2,
            policy=ResiliencePolicy(max_retries=0, max_pool_rebuilds=1, **FAST),
            progress=events.append,
        )
        assert result == reference
        assert any(e.get("event") == "degraded" for e in events)

    def test_hung_worker_times_out_and_recovers(
        self, tmp_path, monkeypatch, calm, reference
    ):
        self._arm(
            monkeypatch, tmp_path,
            FaultSpec(kind="hang", block=1, times=1, seconds=5.0),
        )
        events = []
        result = run(
            calm,
            workers=2,
            policy=ResiliencePolicy(max_retries=2, batch_timeout=0.5, **FAST),
            progress=events.append,
        )
        assert result == reference
        assert any(e.get("event") == "pool-rebuild" for e in events)

    def test_hung_worker_exhausts_into_structured_error(
        self, tmp_path, monkeypatch, calm
    ):
        self._arm(
            monkeypatch, tmp_path,
            FaultSpec(kind="hang", block=1, times=99, seconds=5.0),
        )
        with pytest.raises(BatchFailure) as excinfo:
            run(
                calm,
                workers=2,
                policy=ResiliencePolicy(
                    max_retries=0, batch_timeout=0.3, max_pool_rebuilds=99, **FAST
                ),
            )
        assert excinfo.value.blocks == [(1, BLOCK)]
        assert "no result within 0.3s" in str(excinfo.value)


class BlockCounter:
    """Counting wrapper around ``campaign_task`` for resume accounting:
    records each executed (design, block) pair in execution order."""

    def __init__(self, inner):
        self.inner = inner
        self.executed: list[tuple[str, int]] = []

    def __call__(self, draws, designs, positions, blocks, on_result=None):
        self.executed.extend(
            (designs[p][1].name, index) for p in positions for index, _ in blocks
        )
        return self.inner(draws, designs, positions, blocks, on_result)


@pytest.fixture()
def count_blocks(monkeypatch):
    """Count every (design, block) pair computed by serial campaigns."""
    from repro.analysis import montecarlo, parallel

    counter = BlockCounter(parallel.campaign_task)
    monkeypatch.setattr(montecarlo, "campaign_task", counter)
    return counter


class TestCheckpointResume:
    def test_characterize_resumes_only_unfinished_blocks(
        self, tmp_path, calm, count_blocks, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        samples = 4 * BLOCK
        reference = characterize(calm, samples=samples, seed=SEED)
        count_blocks.executed.clear()

        chaos.install(
            [FaultSpec(kind="raise", block=2, times=99)], tmp_path / "chaos"
        )
        with pytest.raises(BatchFailure):
            characterize(
                calm, samples=samples, seed=SEED,
                checkpoint=True,
                policy=ResiliencePolicy(max_retries=0, **FAST),
            )
        assert count_blocks.executed == [(calm.name, 0), (calm.name, 1)]

        chaos.uninstall()
        count_blocks.executed.clear()
        # checkpoint=True alone resumes: the rerun skips blocks 0..1
        resumed = characterize(calm, samples=samples, seed=SEED, checkpoint=True)
        assert count_blocks.executed == [(calm.name, 2), (calm.name, 3)]
        assert resumed == reference

    def test_sweep_resumes_from_checkpoints(self, tmp_path, count_blocks, monkeypatch):
        """An interrupted ``designspace.sweep`` rerun with
        ``checkpoint=True`` recomputes only the unfinished (design, block)
        pairs, in block-major order, from checkpoints under
        ``$REPRO_CACHE_DIR``."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        ids = ("calm", "drum-k8", "realm4-t9")
        samples = 4 * BLOCK
        reference = {
            p.name: p.metrics
            for p in sweep(ids, samples=samples)
        }
        count_blocks.executed.clear()
        calm, drum, realm = (build(name).name for name in ids)

        # interrupt the sweep on the batch of block 2, which holds drum
        chaos.install(
            [FaultSpec(kind="raise", block=2, times=99, design=drum)],
            tmp_path / "chaos",
        )
        with pytest.raises(BatchFailure) as excinfo:
            sweep(
                ids, samples=samples,
                checkpoint=True,
                policy=ResiliencePolicy(max_retries=0, **FAST),
            )
        assert "blocks[2..2]" in str(excinfo.value)
        # one-block groups: blocks 0..1 finished for all three designs
        assert count_blocks.executed == [
            (calm, 0), (drum, 0), (realm, 0), (calm, 1), (drum, 1), (realm, 1),
        ]

        chaos.uninstall()
        count_blocks.executed.clear()
        resumed = {
            p.name: p.metrics
            for p in sweep(ids, samples=samples, checkpoint=True)
        }
        # every design resumes blocks 2..3 from its own checkpoint
        assert count_blocks.executed == [
            (calm, 2), (drum, 2), (realm, 2), (calm, 3), (drum, 3), (realm, 3),
        ]
        assert resumed == reference
