"""Tests for content addressing, the state directory, and the reuse of
Monte-Carlo results through the experiment warehouse."""

from __future__ import annotations

import json
import os
import sqlite3
import time

from repro.analysis import telemetry
from repro.analysis.cache import (
    STALE_TEMP_SECONDS,
    cache_key,
    clear_cache,
    resolve_cache_dir,
    sweep_stale_temps,
)
from repro.analysis.montecarlo import (
    characterize,
    characterize_workload,
    gaussian_sampler,
)
from repro.core.realm import RealmMultiplier
from repro.multipliers.accurate import AccurateMultiplier
from repro.multipliers.registry import build, fingerprint
from repro.warehouse import Warehouse

#: multiply-call counter shared by CountingAccurate instances; module-level
#: so the instances carry no mutable attributes into their fingerprints
CALLS = {"n": 0}


class CountingAccurate(AccurateMultiplier):
    def _multiply(self, a, b):
        CALLS["n"] += 1
        return super()._multiply(a, b)


def _rows(directory):
    """Every result row recorded in the warehouse under ``directory``."""
    return Warehouse(directory / "warehouse.db").results()


def _edit_data(directory, edit):
    """Rewrite every stored row's data with ``edit(data)`` (a hand edit)."""
    connection = sqlite3.connect(directory / "warehouse.db")
    for row_id, text in connection.execute("SELECT id, data FROM results").fetchall():
        connection.execute(
            "UPDATE results SET data = ? WHERE id = ?",
            (edit(json.loads(text)), row_id),
        )
    connection.commit()
    connection.close()


class TestCacheRoundtrip:
    def test_hit_skips_multiply_and_equals_miss(self, tmp_path):
        multiplier = CountingAccurate()
        CALLS["n"] = 0
        first = characterize(multiplier, samples=1 << 14, warehouse=tmp_path)
        assert CALLS["n"] > 0
        CALLS["n"] = 0
        second = characterize(multiplier, samples=1 << 14, warehouse=tmp_path)
        assert CALLS["n"] == 0  # served from the store, multiply never ran
        assert second == first  # bit-exact float round-trip through JSON

    def test_stats_count_hits_and_misses(self, tmp_path):
        multiplier = RealmMultiplier(m=4)
        with telemetry.recording() as rec:
            characterize(multiplier, samples=1 << 13, warehouse=tmp_path)
            characterize(multiplier, samples=1 << 13, warehouse=tmp_path)
        assert rec.snapshot.counter("warehouse.misses") == 1
        assert rec.snapshot.counter("warehouse.hits") == 1
        assert rec.snapshot.counter("warehouse.records") == 2

    def test_progress_reports_cache_outcome(self, tmp_path):
        events = []
        multiplier = RealmMultiplier(m=4)
        for warehouse in (False, tmp_path, tmp_path):
            characterize(
                multiplier, samples=1 << 13, warehouse=warehouse,
                progress=events.append,
            )
        outcomes = [e["cache"] for e in events if e["event"] == "done"]
        assert outcomes == ["off", "miss", "warehouse"]

    def test_corrupted_entry_falls_back_to_recompute(self, tmp_path):
        multiplier = RealmMultiplier(m=4)
        first = characterize(multiplier, samples=1 << 13, warehouse=tmp_path)
        _edit_data(tmp_path, lambda data: "{not json")
        second = characterize(multiplier, samples=1 << 13, warehouse=tmp_path)
        assert second == first
        # the recompute was recorded as a fresh row that loads cleanly
        latest = _rows(tmp_path)[-1]
        assert not latest.reused
        assert latest.data["samples"] > 0

    def test_rejects_entry_with_wrong_fields(self, tmp_path):
        multiplier = RealmMultiplier(m=4)
        first = characterize(multiplier, samples=1 << 13, warehouse=tmp_path)
        _edit_data(
            tmp_path,
            lambda data: json.dumps({k: v for k, v in data.items() if k != "bias"}),
        )
        (row,) = _rows(tmp_path)
        wh = Warehouse(tmp_path / "warehouse.db")
        assert wh.latest_metrics(row.fingerprint) is None
        assert characterize(multiplier, samples=1 << 13, warehouse=tmp_path) == first
        assert [row.reused for row in _rows(tmp_path)] == [False, False]

    def test_workload_runs_cache_too(self, tmp_path):
        realm = RealmMultiplier(m=4)
        sampler = gaussian_sampler(16)
        CALLS["n"] = 0
        first = characterize_workload(
            CountingAccurate(), sampler, samples=1 << 13, warehouse=tmp_path
        )
        assert CALLS["n"] > 0
        CALLS["n"] = 0
        with telemetry.recording() as rec:
            second = characterize_workload(
                CountingAccurate(), sampler, samples=1 << 13, warehouse=tmp_path
            )
        assert second == first
        assert CALLS["n"] == 0  # zero model evaluations on the warm run
        assert rec.snapshot.counter("warehouse.hits") == 1
        # a workload row never stands in for the uniform run of the design
        uniform = characterize(realm, samples=1 << 13, warehouse=tmp_path)
        assert uniform != characterize_workload(
            realm, sampler, samples=1 << 13, warehouse=tmp_path
        )
        kinds = [run.kind for run in Warehouse(tmp_path / "warehouse.db").runs()]
        assert kinds == ["workload", "workload", "characterize", "workload"]

    def test_unfingerprintable_sampler_skips_cache(self, tmp_path):
        realm = RealmMultiplier(m=4)
        high = (1 << 16) - 1

        def sampler(rng, n):  # a closure: no stable fingerprint
            return rng.integers(0, high, n), rng.integers(0, high, n)

        characterize_workload(realm, sampler, samples=1 << 13, warehouse=tmp_path)
        assert list(tmp_path.iterdir()) == []  # nothing recorded, no store


class TestCacheKeys:
    def test_key_changes_with_design_knobs_and_seed(self, tmp_path):
        # (M, t, q) and seed all land on distinct entries
        runs = [
            (RealmMultiplier(m=8, t=0), 2020),
            (RealmMultiplier(m=4, t=0), 2020),
            (RealmMultiplier(m=8, t=3), 2020),
            (RealmMultiplier(m=8, t=0, q=5), 2020),
            (RealmMultiplier(m=8, t=0), 7),
        ]
        for multiplier, seed in runs:
            characterize(multiplier, samples=1 << 12, seed=seed, warehouse=tmp_path)
        rows = _rows(tmp_path)
        assert not any(row.reused for row in rows)
        assert len({row.fingerprint for row in rows}) == len(runs)

    def test_key_changes_with_samples(self):
        base = {"design": fingerprint(RealmMultiplier(m=8)), "seed": 2020}
        assert cache_key({**base, "samples": 1 << 12}) != cache_key(
            {**base, "samples": 1 << 13}
        )

    def test_fingerprint_distinguishes_registry_designs(self):
        prints = [json.dumps(fingerprint(build(name)), sort_keys=True)
                  for name in ("realm16-t0", "realm16-t1", "calm", "drum-k6", "drum-k5")]
        assert len(set(prints)) == len(prints)

    def test_fingerprint_is_stable_across_instances(self):
        assert fingerprint(RealmMultiplier(m=8, t=2)) == fingerprint(
            RealmMultiplier(m=8, t=2)
        )

    def test_fingerprint_has_no_memory_addresses(self):
        # function-valued attributes (e.g. ALM's adder) must describe by
        # qualified name, or keys churn on every process
        for name in ("alm-soa-m9", "alm-maa-m3"):
            assert " at 0x" not in json.dumps(fingerprint(build(name)))


class TestCacheResolution:
    def test_off_by_default_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert resolve_cache_dir(None) is None
        assert resolve_cache_dir(False) is None

    def test_env_var_opts_in_globally(self, monkeypatch, tmp_path):
        # the state directory holds the default warehouse (and checkpoints
        # and certificates), never a metrics file of its own
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_WAREHOUSE_DIR", raising=False)
        assert resolve_cache_dir(None) == tmp_path
        characterize(RealmMultiplier(m=4), samples=1 << 12)
        assert list(tmp_path.iterdir()) == []
        characterize(RealmMultiplier(m=4), samples=1 << 12, warehouse=True)
        assert len(_rows(tmp_path / "warehouse")) == 1
        assert list(tmp_path.rglob("*.json")) == []

    def test_explicit_false_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_WAREHOUSE_DIR", str(tmp_path))
        characterize(RealmMultiplier(m=4), samples=1 << 12, warehouse=False)
        assert list(tmp_path.iterdir()) == []

    def test_invalidate_and_clear(self, tmp_path):
        # clearing the state directory drops its warehouse: nothing
        # recorded there is reused afterwards
        multiplier = RealmMultiplier(m=4)
        store = tmp_path / "warehouse"
        characterize(multiplier, samples=1 << 12, warehouse=store)
        characterize(multiplier, samples=1 << 13, warehouse=store)
        assert clear_cache(tmp_path) == 1
        with telemetry.recording() as rec:
            characterize(multiplier, samples=1 << 12, warehouse=store)
        assert rec.snapshot.counter("warehouse.misses") == 1


def _backdate(path, age_seconds):
    past = time.time() - age_seconds
    os.utime(path, (past, past))


class TestStaleTempSweep:
    """Orphaned ``*.tmp<pid>`` files (a writer that died between write
    and rename) must be garbage-collected, never a live writer's file."""

    def test_sweeps_only_old_temps(self, tmp_path):
        orphan = tmp_path / "aaa.tmp123"
        orphan.write_text("x")
        _backdate(orphan, STALE_TEMP_SECONDS + 60)
        live = tmp_path / "bbb.tmp456"
        live.write_text("y")  # a concurrent writer: too young to sweep
        entry = tmp_path / "ccc.json"
        entry.write_text("{}")
        assert sweep_stale_temps(tmp_path) == 1
        assert not orphan.exists()
        assert live.exists() and entry.exists()

    def test_missing_directory_is_a_noop(self, tmp_path):
        assert sweep_stale_temps(tmp_path / "never-created") == 0

    def test_clear_cache_drops_checkpoints_and_temps(self, tmp_path):
        characterize(
            RealmMultiplier(m=4), samples=1 << 12, warehouse=tmp_path / "warehouse"
        )
        ckpt_dir = tmp_path / "checkpoints"
        ckpt_dir.mkdir()
        (ckpt_dir / "run.json").write_text("{}")
        orphan = ckpt_dir / "run.tmp1"
        orphan.write_text("x")
        _backdate(orphan, STALE_TEMP_SECONDS + 60)
        assert clear_cache(tmp_path) == 2  # the database + the checkpoint
        assert not (tmp_path / "warehouse" / "warehouse.db").exists()
        assert not (ckpt_dir / "run.json").exists()
        assert not orphan.exists()


class TestClearCacheSubsystems:
    """clear_cache must empty every store that lives under the state
    directory — one regression per subsystem so a future store addition
    that forgets to register its glob fails here by name."""

    def test_clears_checkpoints(self, tmp_path):
        checkpoints = tmp_path / "checkpoints"
        checkpoints.mkdir()
        (checkpoints / "sweep.json").write_text("{}")
        assert clear_cache(tmp_path) == 1
        assert list(checkpoints.glob("*.json")) == []

    def test_clears_warehouse_database_and_quarantines(self, tmp_path):
        warehouse = tmp_path / "warehouse"
        warehouse.mkdir()
        (warehouse / "warehouse.db").write_text("not a real db")
        (warehouse / "warehouse.db.corrupt-123").write_text("evidence")
        assert clear_cache(tmp_path) == 2
        assert list(warehouse.iterdir()) == []

    def test_clears_every_store_in_one_call(self, tmp_path):
        for name in ("checkpoints", "warehouse"):
            (tmp_path / name).mkdir()
        (tmp_path / "checkpoints" / "run.json").write_text("{}")
        (tmp_path / "warehouse" / "warehouse.db").write_text("x")
        assert clear_cache(tmp_path) == 2
        for name in ("checkpoints", "warehouse"):
            assert list((tmp_path / name).iterdir()) == []

    def test_sweeps_stale_temps_in_subdirectories(self, tmp_path):
        checkpoints = tmp_path / "checkpoints"
        checkpoints.mkdir()
        orphan = checkpoints / "run.tmp42"
        orphan.write_text("x")
        _backdate(orphan, STALE_TEMP_SECONDS + 60)
        assert clear_cache(tmp_path) == 0  # temps are swept, not counted
        assert not orphan.exists()
