"""Tests for the Monte-Carlo characterization engine."""

from __future__ import annotations

import pytest

import numpy as np

from repro.analysis.montecarlo import (
    characterize,
    characterize_many,
    characterize_workload,
    gaussian_sampler,
    sample_pairs,
)
from repro.core.realm import RealmMultiplier
from repro.multipliers.accurate import AccurateMultiplier
from repro.multipliers.mitchell import MitchellMultiplier


class TestCharacterize:
    def test_deterministic(self):
        realm = RealmMultiplier(m=4)
        first = characterize(realm, samples=1 << 16, seed=7)
        second = characterize(realm, samples=1 << 16, seed=7)
        assert first == second

    def test_seed_changes_stream(self):
        realm = RealmMultiplier(m=4)
        first = characterize(realm, samples=1 << 16, seed=7)
        second = characterize(realm, samples=1 << 16, seed=8)
        assert first != second

    def test_accurate_multiplier_is_error_free(self):
        metrics = characterize(AccurateMultiplier(), samples=1 << 16)
        assert metrics.bias == 0.0
        assert metrics.mean_error == 0.0
        assert metrics.peak_min == 0.0 and metrics.peak_max == 0.0

    def test_chunking_does_not_change_result(self, task_blocks):
        # exact invariance: per-block accumulators merge in block order,
        # so how blocks group into tasks is purely a batching choice
        calm = MitchellMultiplier()
        whole = characterize(calm, samples=3 << 16)
        task_blocks(1)
        pieces = characterize(calm, samples=3 << 16)
        assert whole == pieces

    def test_workers_bit_identical(self):
        realm = RealmMultiplier(m=4)
        serial = characterize(realm, samples=1 << 17, seed=5, workers=1)
        parallel = characterize(realm, samples=1 << 17, seed=5, workers=2)
        assert serial == parallel

    def test_workers_and_chunk_commute(self, task_blocks):
        calm = MitchellMultiplier()
        b = characterize(calm, samples=(1 << 17) + 123)
        task_blocks(1)
        a = characterize(calm, samples=(1 << 17) + 123, workers=2)
        assert a == b

    def test_sample_counting_excludes_zero_products(self):
        metrics = characterize(AccurateMultiplier(), samples=1 << 14)
        # uniform over [0, 2^16): pairs with a zero are ~2^-15 of samples
        assert metrics.samples <= 1 << 14
        assert metrics.samples > (1 << 14) * 0.999

    def test_rejects_bad_sample_count(self):
        with pytest.raises(ValueError):
            characterize(AccurateMultiplier(), samples=0)


class TestArgumentValidation:
    """Nonsensical engine arguments fail loudly at the API boundary,
    before any pool or cache machinery runs."""

    def test_rejects_negative_samples(self):
        with pytest.raises(ValueError, match="samples"):
            characterize(AccurateMultiplier(), samples=-5)

    def test_rejects_non_integer_samples(self):
        with pytest.raises(ValueError, match="samples"):
            characterize(AccurateMultiplier(), samples=True)
        with pytest.raises(ValueError, match="samples"):
            characterize(AccurateMultiplier(), samples=2.5)

    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError, match="workers"):
            characterize(AccurateMultiplier(), samples=1 << 12, workers=-1)

    def test_characterize_many_validates_too(self):
        with pytest.raises(ValueError, match="samples"):
            characterize_many({"a": AccurateMultiplier()}, samples=0)


class TestCharacterizeMany:
    def test_dict_and_pairs(self):
        designs = {"calm": MitchellMultiplier(), "acc": AccurateMultiplier()}
        from_dict = characterize_many(designs, samples=1 << 14)
        from_pairs = characterize_many(list(designs.items()), samples=1 << 14)
        assert from_dict == from_pairs
        assert from_dict["acc"].mean_error == 0.0

    def test_shared_input_stream(self):
        # the same seed must drive identical inputs across designs, so the
        # accurate design's exact products match cALM's reference stream
        results = characterize_many(
            {"a": MitchellMultiplier(), "b": MitchellMultiplier()},
            samples=1 << 14,
        )
        assert results["a"] == results["b"]

    def test_forwards_chunk_and_workers(self, task_blocks):
        designs = {"realm": RealmMultiplier(m=4), "calm": MitchellMultiplier()}
        alone = characterize(designs["realm"], samples=1 << 16)
        task_blocks(1)
        serial = characterize_many(designs, samples=1 << 16)
        parallel = characterize_many(designs, samples=1 << 16, workers=2)
        assert serial == parallel
        # and the results are the same as characterizing one by one
        assert serial["realm"] == alone

    def test_per_design_progress_callback(self):
        designs = {"a": MitchellMultiplier(), "b": AccurateMultiplier()}
        events = []
        characterize_many(designs, samples=1 << 14, progress=events.append)
        assert [e["design"] for e in events] == ["a", "b"]
        for event in events:
            assert event["event"] == "design"
            assert event["total"] == 2
            assert event["seconds"] >= 0.0

    def test_parallel_progress_covers_every_design(self):
        designs = {"a": MitchellMultiplier(), "b": AccurateMultiplier()}
        events = []
        characterize_many(
            designs, samples=1 << 14, workers=2, progress=events.append
        )
        assert sorted(e["design"] for e in events) == ["a", "b"]


class TestSamplePairs:
    def test_yields_operand_blocks(self):
        blocks = list(sample_pairs(8, 100_000, seed=1))
        assert sum(a.size for a, _ in blocks) == 100_000
        assert all(a.size == b.size for a, b in blocks)
        for a, b in blocks:
            assert a.min() >= 0 and b.min() >= 0
            assert a.max() < 256 and b.max() < 256  # bitwidth respected

    def test_deterministic_and_seeded(self):
        first = [a for a, _ in sample_pairs(16, 1 << 17, seed=9)]
        second = [a for a, _ in sample_pairs(16, 1 << 17, seed=9)]
        other = [a for a, _ in sample_pairs(16, 1 << 17, seed=10)]
        assert all(np.array_equal(x, y) for x, y in zip(first, second))
        assert not all(np.array_equal(x, y) for x, y in zip(first, other))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            list(sample_pairs(16, 0))
        with pytest.raises(ValueError):
            list(sample_pairs(0, 16))


class TestCharacterizeWorkload:
    def test_chunk_invariant(self, task_blocks):
        # regression: the workload stream must depend only on (seed,
        # samples), never on how blocks group into tasks
        realm = RealmMultiplier(m=4)
        sampler = gaussian_sampler(16)
        large = characterize_workload(realm, sampler, samples=3 << 16, seed=3)
        task_blocks(1)
        small = characterize_workload(realm, sampler, samples=3 << 16, seed=3)
        assert small == large

    def test_workers_bit_identical(self):
        realm = RealmMultiplier(m=4)
        sampler = gaussian_sampler(16)
        serial = characterize_workload(realm, sampler, samples=1 << 16, seed=3)
        parallel = characterize_workload(
            realm, sampler, samples=1 << 16, seed=3, workers=2
        )
        assert serial == parallel


class TestCampaign:
    """``characterize_many`` is block-major: each block is drawn once per
    campaign and every design is evaluated on it, with results identical
    to one ``characterize`` per design."""

    @staticmethod
    def _designs():
        from repro.multipliers.registry import build

        return [
            ("calm", build("calm")),
            ("realm16-t0", build("realm16-t0")),
            ("drum-k8", build("drum-k8")),
            ("realm8-t4@8", build("realm8-t4", 8)),
        ]

    def test_each_block_is_drawn_once(self, monkeypatch, task_blocks):
        from repro.analysis import parallel, telemetry
        from repro.multipliers.registry import build

        draws = []
        real_draw = parallel.draw_uniform_block

        def counting_draw(bitwidth, seed, index, count):
            draws.append(index)
            return real_draw(bitwidth, seed, index, count)

        monkeypatch.setattr(parallel, "draw_uniform_block", counting_draw)
        task_blocks(1)
        designs = [(name, build(name)) for name in ("calm", "mbm-t0", "drum-k8")]
        blocks = 3
        with telemetry.recording() as rec:
            characterize_many(
                designs, samples=blocks * parallel.BLOCK, warehouse=False,
            )
        assert draws == list(range(blocks))
        assert rec.snapshot.phase("mc.sample").count == blocks
        assert rec.snapshot.phase("mc.block").count == blocks * len(designs)
        assert rec.snapshot.phase("finalize").count == len(designs)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("task_samples", [1 << 16, 3 << 16, None])
    def test_matches_one_run_per_design(self, workers, task_samples, task_blocks):
        # four blocks, the last one short; three 16-bit designs and one
        # built at 8 bits, which draws its own stream
        from repro.analysis.parallel import BLOCK

        samples = (3 << 16) + 777
        designs = self._designs()
        alone = {
            name: characterize(multiplier, samples=samples, seed=11, warehouse=False)
            for name, multiplier in designs
        }
        if task_samples is not None:
            task_blocks(task_samples // BLOCK)
        campaign = characterize_many(
            designs, samples=samples, seed=11, workers=workers, warehouse=False,
        )
        for name, _ in designs:
            assert campaign[name] == alone[name], name

    def test_design_seconds_share_the_campaign(self):
        import time

        events = []
        start = time.perf_counter()
        characterize_many(
            self._designs(), samples=1 << 17, warehouse=False,
            progress=events.append,
        )
        wall = time.perf_counter() - start
        designs = [e for e in events if e["event"] == "design"]
        assert [e["index"] for e in designs] == [1, 2, 3, 4]
        assert all(e["total"] == 4 and e["seconds"] > 0 for e in designs)
        # each design's own work plus its share of the draws: together
        # they are the campaign's compute, never more than its wall time
        assert 0.5 * wall < sum(e["seconds"] for e in designs) <= wall

    def test_rejects_duplicate_names_before_any_work(self, monkeypatch):
        from repro.analysis import montecarlo

        def no_work(*args, **kwargs):
            raise AssertionError("a campaign started")

        monkeypatch.setattr(montecarlo, "campaign_task", no_work)
        with pytest.raises(ValueError, match="duplicate design name 'x'"):
            characterize_many(
                [("x", MitchellMultiplier()), ("x", RealmMultiplier(m=4))],
                samples=1 << 12,
            )
