"""Telemetry subsystem tests: registry semantics, sinks, process safety.

Covers the ISSUE 3 acceptance surface:

* deterministic timings via injectable wall/CPU clocks (the same
  injection pattern the runtime uses for sleep/jitter);
* zero-overhead no-op behaviour when disabled;
* per-pid worker sink files merged by the parent after a pool drains;
* ``--trace`` CLI round trip whose summarized leaf-phase wall times sum
  to within 10% of the total runtime;
* warehouse hit/miss counters against a deliberately warmed warehouse;
* chaos interplay: retry/rebuild/degraded counters exactly matching the
  chaos harness's cross-process fault firing counts.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis import chaos, telemetry
from repro.analysis.chaos import CHAOS_ENV, ChaosPlan, FaultSpec
from repro.analysis.montecarlo import characterize, characterize_many
from repro.analysis.parallel import BLOCK
from repro.analysis.runtime import ResiliencePolicy
from repro.analysis.telemetry import (
    TELEMETRY_ENV,
    JsonlSink,
    MemorySink,
    PhaseStat,
    Telemetry,
    TelemetrySnapshot,
)
from repro.cli import main
from repro.multipliers.registry import build

#: no real sleeping between retries
FAST = dict(sleep=lambda s: None, jitter=lambda low, high: low)


@pytest.fixture(autouse=True)
def clean_telemetry(monkeypatch):
    """Every test starts and ends deactivated, with no env activation."""
    monkeypatch.delenv(TELEMETRY_ENV, raising=False)
    monkeypatch.delenv(CHAOS_ENV, raising=False)
    telemetry.disable()
    chaos.uninstall()
    yield
    telemetry.disable()
    chaos.uninstall()


@pytest.fixture()
def calm():
    return build("calm")


def tick_clock(step=1.0):
    """A deterministic clock: each call advances by ``step``."""
    state = {"now": 0.0}

    def clock():
        value = state["now"]
        state["now"] += step
        return value

    return clock


class TestRegistry:
    def test_held_events_reach_the_sink_together_at_the_end(self):
        tele = Telemetry(MemorySink())
        with tele.held():
            with tele.span("phase"):
                pass
            tele.counter("c")
            with tele.held():  # nested: still one hold
                tele.gauge("g", 1.0)
            assert tele.sink.records == []
            # the registry itself is never held back
            assert tele.snapshot().phase("phase").count == 1
        assert [r["event"] for r in tele.sink.records] == ["span", "counter", "gauge"]
        tele.counter("after")
        assert tele.sink.records[-1]["name"] == "after"

    def test_counters_accumulate(self):
        tele = Telemetry()
        tele.counter("a")
        tele.counter("a", 4)
        tele.counter("b", 2)
        snap = tele.snapshot()
        assert snap.counters == {"a": 5, "b": 2}

    def test_gauges_keep_last_value(self):
        tele = Telemetry()
        tele.gauge("rate", 1.0)
        tele.gauge("rate", 3.5)
        assert tele.snapshot().gauges == {"rate": 3.5}

    def test_deterministic_clock_injection(self):
        # wall advances 1s per call, cpu 0.25s: a span reads each clock
        # twice (enter + exit), so the measured durations are exact
        tele = Telemetry(MemorySink(), wall=tick_clock(1.0), cpu=tick_clock(0.25))
        with tele.span("phase", block=7):
            pass
        stat = tele.snapshot().phase("phase")
        assert stat == PhaseStat(count=1, wall=1.0, cpu=0.25)
        span_events = [r for r in tele.sink.records if r["event"] == "span"]
        assert len(span_events) == 1
        assert span_events[0]["wall"] == 1.0
        assert span_events[0]["cpu"] == 0.25
        assert span_events[0]["block"] == 7

    def test_spans_aggregate_per_name(self):
        tele = Telemetry(wall=tick_clock(1.0), cpu=tick_clock(0.5))
        for _ in range(3):
            with tele.span("phase"):
                pass
        stat = tele.snapshot().phase("phase")
        assert stat.count == 3
        assert stat.wall == pytest.approx(3.0)
        assert stat.cpu == pytest.approx(1.5)

    def test_span_records_even_when_body_raises(self):
        tele = Telemetry(wall=tick_clock(1.0))
        with pytest.raises(RuntimeError):
            with tele.span("phase"):
                raise RuntimeError("boom")
        assert tele.snapshot().phase("phase").count == 1

    def test_snapshot_delta(self):
        tele = Telemetry(wall=tick_clock(1.0), cpu=tick_clock(1.0))
        tele.counter("hits", 2)
        with tele.span("phase"):
            pass
        before = tele.snapshot()
        tele.counter("hits", 3)
        with tele.span("phase"):
            pass
        delta = tele.snapshot().delta(before)
        assert delta.counters == {"hits": 3}
        assert delta.phase("phase").count == 1
        # unchanged names drop out of the delta entirely
        tele.counter("other")
        assert "hits" not in tele.snapshot().delta(tele.snapshot()).counters

    def test_snapshot_is_immutable_copy(self):
        tele = Telemetry()
        tele.counter("a")
        snap = tele.snapshot()
        tele.counter("a")
        assert snap.counters == {"a": 1}
        assert isinstance(snap, TelemetrySnapshot)


class TestDisabled:
    def test_get_returns_disabled_singleton(self):
        tele = telemetry.get()
        assert tele is telemetry.DISABLED
        assert not tele.enabled

    def test_disabled_methods_are_noops(self):
        tele = telemetry.get()
        tele.counter("c")
        tele.gauge("g", 1.0)
        tele.event("e", detail="x")
        with tele.span("s"):
            pass
        snap = tele.snapshot()
        assert snap.counters == {} and snap.gauges == {} and snap.phases == {}

    def test_disabled_span_is_shared_noop(self):
        tele = telemetry.get()
        assert tele.span("a") is tele.span("b")

    def test_merge_workers_is_noop_when_disabled(self, tmp_path):
        (tmp_path / "events-1.jsonl").write_text(
            json.dumps({"event": "counter", "name": "x", "value": 1}) + "\n"
        )
        assert telemetry.merge_workers() == 0

    def test_engine_runs_without_telemetry(self, calm):
        # the full characterize path with the disabled singleton active
        metrics = characterize(calm, samples=1 << 12)
        assert metrics.samples > 0
        assert telemetry.get().snapshot().phases == {}


class TestActivation:
    def test_env_activates_and_writes_per_pid_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TELEMETRY_ENV, str(tmp_path))
        tele = telemetry.get()
        assert tele.enabled
        tele.counter("x")
        own = tmp_path / f"events-{os.getpid()}.jsonl"
        assert own.exists()
        record = json.loads(own.read_text().splitlines()[0])
        assert record["name"] == "x" and record["pid"] == os.getpid()

    def test_get_is_cached_per_process(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TELEMETRY_ENV, str(tmp_path))
        assert telemetry.get() is telemetry.get()

    def test_enable_without_directory_is_memory_only(self, tmp_path):
        tele = telemetry.enable()
        tele.counter("x")
        assert tele.snapshot().counters == {"x": 1}
        assert TELEMETRY_ENV not in os.environ
        assert list(tmp_path.iterdir()) == []

    def test_disable_clears_activation(self, tmp_path):
        telemetry.enable(directory=tmp_path)
        telemetry.disable()
        assert telemetry.get() is telemetry.DISABLED
        assert TELEMETRY_ENV not in os.environ

    def test_recording_without_activation(self, calm):
        # recording() must work with telemetry globally off
        with telemetry.recording() as rec:
            metrics = characterize(calm, samples=1 << 12)
        snap = rec.snapshot
        assert metrics.samples > 0
        assert snap.phase("characterize").count == 1
        assert snap.phase("mc.block").count == 1
        # ... and must not leave a registry behind
        assert telemetry.get() is telemetry.DISABLED


class TestSinks:
    def test_jsonl_sink_appends_and_flushes(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path)
        sink.emit({"event": "a"})
        # flushed immediately: readable before close
        assert json.loads(path.read_text()) == {"event": "a"}
        sink.emit({"event": "b"})
        sink.close()
        assert len(path.read_text().splitlines()) == 2

    def test_corrupt_lines_are_skipped_on_read(self, tmp_path):
        path = tmp_path / "events.jsonl"
        good = json.dumps({"event": "counter", "name": "x", "value": 2})
        path.write_text(good + "\n{truncated mid-wri")
        summary = telemetry.summarize_trace(path)
        assert summary["counters"] == {"x": 2}
        assert summary["events"] == 1


class TestWorkerMerge:
    def test_absorb_folds_counters_gauges_spans(self):
        tele = Telemetry(MemorySink())
        tele.absorb({"event": "counter", "name": "hits", "value": 2, "pid": 1})
        tele.absorb({"event": "gauge", "name": "rate", "value": 5.0, "pid": 1})
        tele.absorb(
            {"event": "span", "name": "mc.block", "wall": 0.5, "cpu": 0.25, "pid": 1}
        )
        snap = tele.snapshot()
        assert snap.counter("hits") == 2
        assert snap.gauges["rate"] == 5.0
        assert snap.phase("mc.block") == PhaseStat(1, 0.5, 0.25)
        # absorbed events are re-emitted into this process's sink verbatim
        assert len(tele.sink.records) == 3

    def test_merge_reads_removes_and_reemits_worker_files(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(TELEMETRY_ENV, str(tmp_path))
        tele = telemetry.enable(directory=tmp_path)
        worker = tmp_path / "events-99999.jsonl"
        worker.write_text(
            json.dumps({"event": "counter", "name": "w", "value": 3, "t": 1.0})
            + "\n"
            + json.dumps(
                {"event": "span", "name": "mc.block", "wall": 0.1, "cpu": 0.1, "t": 0.5}
            )
            + "\n"
        )
        merged = telemetry.merge_workers(tele)
        assert merged == 2
        assert not worker.exists()
        snap = tele.snapshot()
        assert snap.counter("w") == 3
        assert snap.phase("mc.block").count == 1
        own = tmp_path / f"events-{os.getpid()}.jsonl"
        events = [json.loads(line) for line in own.read_text().splitlines()]
        assert any(r.get("name") == "w" for r in events)

    def test_merge_never_consumes_own_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TELEMETRY_ENV, str(tmp_path))
        tele = telemetry.enable(directory=tmp_path)
        tele.counter("mine")
        assert telemetry.merge_workers(tele) == 0
        assert (tmp_path / f"events-{os.getpid()}.jsonl").exists()

    def test_pooled_run_merges_worker_events(self, tmp_path, calm, task_blocks):
        """The acceptance case: a 2-worker run leaves exactly one merged
        parent file whose mc.block spans carry worker pids."""
        task_blocks(1)
        tele = telemetry.enable(directory=tmp_path)
        characterize(calm, samples=4 * BLOCK, workers=2)
        snap = tele.snapshot()
        assert snap.phase("mc.block").count == 4
        assert snap.gauges["pool.workers"] == 2
        assert 0.0 < snap.gauges["pool.utilization"] <= 1.0
        files = sorted(p.name for p in tmp_path.glob("events-*.jsonl"))
        assert files == [f"events-{os.getpid()}.jsonl"]
        pids = {
            json.loads(line).get("pid")
            for line in (tmp_path / files[0]).read_text().splitlines()
        }
        assert len(pids) > 1  # parent + at least one worker


class TestEngineIntegration:
    def test_serial_run_phases_and_gauges(self, calm, task_blocks):
        task_blocks(1)
        tele = telemetry.enable()
        characterize(calm, samples=2 * BLOCK)
        snap = tele.snapshot()
        assert snap.phase("characterize").count == 1
        assert snap.phase("mc.block").count == 2
        assert snap.phase("finalize").count == 1
        assert snap.gauges["mc.samples_per_sec"] > 0
        assert snap.gauges["runtime.blocks_per_sec"] > 0

    def test_warmed_cache_counters(self, tmp_path, calm):
        """Acceptance: counters match a deliberately warmed warehouse — one
        miss cold, one hit (and nothing recomputed) warm."""
        tele = telemetry.enable()
        with telemetry.recording() as rec:
            cold = characterize(calm, samples=BLOCK, warehouse=tmp_path)
        cold_snap = rec.snapshot
        assert cold_snap.counter("warehouse.misses") == 1
        assert cold_snap.counter("warehouse.records") == 1
        assert cold_snap.counter("warehouse.hits") == 0
        with telemetry.recording() as rec:
            warm = characterize(calm, samples=BLOCK, warehouse=tmp_path)
        warm_snap = rec.snapshot
        assert warm == cold
        assert warm_snap.counter("warehouse.hits") == 1
        assert warm_snap.counter("warehouse.misses") == 0
        assert warm_snap.phase("mc.block").count == 0  # nothing recomputed
        telemetry.disable()
        assert tele.snapshot().counter("warehouse.misses") == 1

    def test_checkpoint_writes_counted(self, tmp_path, calm, monkeypatch, task_blocks):
        task_blocks(1)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        with telemetry.recording() as rec:
            characterize(calm, samples=2 * BLOCK, checkpoint=True)
        snap = rec.snapshot
        assert snap.counter("runtime.checkpoint_writes") == 2
        assert snap.phase("checkpoint.save").count == 2

    def test_characterize_many_returns_snapshot(self, calm):
        with telemetry.recording() as rec:
            results = characterize_many([("calm", calm)], samples=BLOCK)
        assert set(results) == {"calm"}
        assert rec.snapshot.phase("mc.block").count == 1

    def test_sweep_returns_snapshot(self):
        from repro.analysis.designspace import sweep

        with telemetry.recording() as rec:
            points = sweep(("calm", "realm16-t0"), samples=BLOCK)
        assert len(points) == 2
        assert rec.snapshot.phase("mc.block").count == 2

    def test_progress_events_still_delivered(self, calm, task_blocks):
        """Telemetry-backed events must not break the progress callback."""
        task_blocks(1)
        events = []
        telemetry.enable()
        characterize(calm, samples=2 * BLOCK, progress=events.append)
        kinds = [e["event"] for e in events]
        assert kinds.count("progress") == 2
        assert kinds[-1] == "done"


class TestCliTrace:
    def test_trace_summary_within_ten_percent_of_runtime(self, tmp_path, capsys):
        """ISSUE acceptance: a traced 2^16-sample characterize produces a
        JSONL trace whose leaf-phase wall times sum to within 10% of the
        total runtime."""
        trace = tmp_path / "trace.jsonl"
        code = main(
            [
                "characterize", "realm16-t0",
                "--samples", str(1 << 16),
                "--trace", str(trace),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert trace.exists()
        summary = telemetry.summarize_trace(trace)
        total = summary["phases"]["characterize"].wall
        leaves = sum(
            stat.wall
            for name, stat in summary["phases"].items()
            if name != "characterize"
        )
        assert total > 0
        assert abs(leaves - total) / total < 0.10
        assert summary["total_wall"] is not None
        assert summary["total_wall"] >= total
        # tracing deactivated cleanly
        assert telemetry.get() is telemetry.DISABLED
        assert TELEMETRY_ENV not in os.environ

    def test_trace_records_cache_hit_on_warm_run(self, tmp_path, capsys):
        store = tmp_path / "warehouse"
        args = [
            "characterize", "calm", "--samples", str(1 << 16),
            "--warehouse", str(store),
        ]
        assert main(args) == 0
        trace = tmp_path / "warm.jsonl"
        assert main(args + ["--trace", str(trace)]) == 0
        capsys.readouterr()
        summary = telemetry.summarize_trace(trace)
        assert summary["counters"].get("warehouse.hits") == 1
        assert "warehouse.misses" not in summary["counters"]
        assert summary["phases"]["mc.block"].count == 0 if "mc.block" in summary["phases"] else True

    def test_summarize_subcommand_prints_table(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "characterize", "calm", "--samples", str(1 << 16),
                    "--trace", str(trace),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["telemetry", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "phase" in out and "mc.block" in out and "wall s" in out

    def test_trace_opens_with_a_start_line(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        with telemetry.tracing(trace) as tele:
            tele.counter("x")
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        assert events[0]["event"] == "trace.start"
        assert events[0]["schema"] == events[-1]["schema"]
        assert [e["event"] for e in events[1:]] == ["counter", "trace.complete"]

    def test_summarize_missing_trace_errors(self, tmp_path, capsys):
        assert main(["telemetry", "summarize", str(tmp_path / "nope.jsonl")]) == 1

    def test_retrace_to_same_path_replaces_previous_trace(self, tmp_path):
        # regression: tracing used to append, so re-tracing to the same
        # path mixed two runs and summarize_trace double-counted
        trace = tmp_path / "trace.jsonl"
        for _ in range(2):
            with telemetry.tracing(trace) as tele:
                tele.counter("x")
        summary = telemetry.summarize_trace(trace)
        assert summary["counters"] == {"x": 1}
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        assert sum(e.get("event") == "trace.complete" for e in events) == 1

    def test_tracing_ignores_stale_worker_files_in_parent_dir(self, tmp_path):
        # regression: the drop zone was the trace's parent directory, so
        # merge absorbed (and deleted) events-*.jsonl leftovers that a
        # crashed or concurrent traced run had parked there
        stale = tmp_path / "events-99999.jsonl"
        stale.write_text(
            json.dumps({"event": "counter", "name": "stale", "value": 7, "t": 1.0})
            + "\n"
        )
        trace = tmp_path / "trace.jsonl"
        with telemetry.tracing(trace) as tele:
            tele.counter("mine")
        summary = telemetry.summarize_trace(trace)
        assert summary["counters"] == {"mine": 1}
        assert stale.exists()  # someone else's evidence, left untouched
        # the per-run drop zone was cleaned up
        assert list(tmp_path.glob("trace.jsonl.workers-*")) == []


class TestChaosInterplay:
    """Satellite: telemetry counters exactly match chaos firing counts."""

    def _firings(self, directory, spec):
        # single-spec plans: the claim lock files are claim-0-<slot>, one
        # per claim attempt; firings are the claims that won a slot
        claims = len(list(directory.glob("claim-0-*")))
        return min(spec.times, claims)

    def test_retry_counter_matches_serial_raise_firings(
        self, tmp_path, calm, task_blocks
    ):
        task_blocks(1)
        spec = FaultSpec(kind="raise", block=1, times=2)
        chaos.install([spec], tmp_path)
        tele = telemetry.enable()
        characterize(
            calm, samples=2 * BLOCK,
            policy=ResiliencePolicy(max_retries=3, **FAST),
        )
        fired = self._firings(tmp_path, spec)
        assert fired == 2
        assert tele.snapshot().counter("runtime.retries") == fired

    def test_retry_counter_matches_corrupt_firings(self, tmp_path, calm, task_blocks):
        task_blocks(1)
        spec = FaultSpec(kind="corrupt", block=0, times=1)
        chaos.install([spec], tmp_path)
        tele = telemetry.enable()
        characterize(
            calm, samples=2 * BLOCK,
            policy=ResiliencePolicy(max_retries=2, **FAST),
        )
        assert self._firings(tmp_path, spec) == 1
        assert tele.snapshot().counter("runtime.retries") == 1

    def test_rebuild_counter_matches_crash_firings(
        self, tmp_path, monkeypatch, calm, task_blocks
    ):
        task_blocks(1)
        spec = FaultSpec(kind="crash", block=0, times=1)
        plan = ChaosPlan((spec,), str(tmp_path))
        monkeypatch.setenv(CHAOS_ENV, plan.to_json())
        tele = telemetry.enable()
        characterize(
            calm, samples=2 * BLOCK, workers=2,
            policy=ResiliencePolicy(max_retries=2, **FAST),
        )
        fired = self._firings(tmp_path, spec)
        snap = tele.snapshot()
        assert fired == 1
        # one crash kills the pool exactly once; no degradation
        assert snap.counter("runtime.pool_rebuilds") == fired
        assert snap.counter("runtime.degraded") == 0

    def test_degraded_counter_after_persistent_crashes(
        self, tmp_path, monkeypatch, calm, task_blocks
    ):
        task_blocks(1)
        spec = FaultSpec(kind="crash", block=0, times=99)
        plan = ChaosPlan((spec,), str(tmp_path))
        monkeypatch.setenv(CHAOS_ENV, plan.to_json())
        tele = telemetry.enable()
        characterize(
            calm, samples=2 * BLOCK, workers=2,
            policy=ResiliencePolicy(max_retries=0, max_pool_rebuilds=1, **FAST),
        )
        snap = tele.snapshot()
        # rebuild budget exhausted: rebuilds = budget + 1, degraded once
        assert snap.counter("runtime.pool_rebuilds") == 2
        assert snap.counter("runtime.degraded") == 1
