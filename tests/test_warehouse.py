"""Tests for the experiment warehouse: store, incremental recompute,
concurrency, corruption containment, migration and the trend report."""

from __future__ import annotations

import json
import os
import sqlite3
import subprocess
import sys

import pytest

from repro.analysis import telemetry
from repro.analysis.cache import clear_cache
from repro.analysis.designspace import sweep
from repro.analysis.montecarlo import characterize, characterize_many
from repro.core.realm import RealmMultiplier
from repro.experiments import table1_errors
from repro.multipliers.registry import build
from repro.warehouse import (
    SCHEMA_VERSION,
    Provenance,
    SchemaError,
    Warehouse,
    WarehouseError,
    build_trends,
    create_schema,
    metrics_fields,
    open_warehouse,
    render_json,
    render_text,
    resolve_warehouse_path,
)

SAMPLES = 1 << 12

PROVENANCE = Provenance(git_rev="f" * 40, engine_version=2, kernel_version=1)


def _metrics(**overrides):
    from repro.analysis.metrics import ErrorMetrics

    fields = {
        "bias": -0.125,
        "mean_error": 3.5,
        "peak_min": -11.0,
        "peak_max": 4.0,
        "variance": 9.25,
        "rms": 4.0,
        "nmed": 0.01,
        "samples": SAMPLES,
        "peak_certified": None,
    }
    fields.update(overrides)
    return ErrorMetrics(**fields)


def _record(wh, design="calm", metrics=None, reused=False, **run_kw):
    metrics = metrics if metrics is not None else _metrics()
    payload = {"kind": "uniform", "design": design, "samples": SAMPLES, "seed": 0}
    run_kw.setdefault("provenance", PROVENANCE)
    run_kw.setdefault("created", 1754600000.0)
    return wh.record_run(
        "characterize",
        [(design, payload, metrics_fields(metrics), reused)],
        seed=0,
        samples=SAMPLES,
        **run_kw,
    )


class TestStore:
    def test_roundtrip_preserves_metrics_exactly(self, tmp_path):
        wh = Warehouse(tmp_path / "warehouse.db")
        metrics = _metrics(
            bias=0.1 + 0.2,  # not exactly 0.3: repr semantics must survive
            peak_certified=(-11.000000000000002, 3.9999999999999996),
        )
        payload = {"kind": "uniform", "design": "calm", "seed": 0}
        from repro.analysis.cache import cache_key

        wh.record_run(
            "characterize",
            [("calm", payload, metrics_fields(metrics), False)],
            seed=0,
            samples=SAMPLES,
            provenance=PROVENANCE,
            created=1754600000.0,
        )
        row = wh.latest(cache_key(payload))
        assert row.payload == payload
        assert row.design == "calm"
        assert not row.reused
        assert wh.latest_metrics(cache_key(payload)) == metrics

    def test_run_carries_full_provenance(self, tmp_path):
        wh = Warehouse(tmp_path / "warehouse.db")
        _record(
            wh,
            wall_seconds=1.25,
            counters={"warehouse.hits": 3, "warehouse.deltas": 1},
        )
        (run,) = wh.runs()
        assert run.kind == "characterize"
        assert run.git_rev == "f" * 40
        assert run.engine_version == 2
        assert run.kernel_version == 1
        assert run.seed == 0
        assert run.samples == SAMPLES
        assert run.wall_seconds == 1.25
        assert run.created == 1754600000.0
        assert run.counters == {"warehouse.hits": 3, "warehouse.deltas": 1}

    def test_latest_returns_newest_row_for_fingerprint(self, tmp_path):
        wh = Warehouse(tmp_path / "warehouse.db")
        _record(wh, metrics=_metrics(mean_error=1.0))
        _record(wh, metrics=_metrics(mean_error=2.0), reused=True)
        from repro.analysis.cache import cache_key

        payload = {"kind": "uniform", "design": "calm", "samples": SAMPLES, "seed": 0}
        row = wh.latest(cache_key(payload))
        assert row.data["mean_error"] == 2.0
        assert row.reused

    def test_unknown_fingerprint_and_invalid_data_are_misses(self, tmp_path):
        wh = Warehouse(tmp_path / "warehouse.db")
        assert wh.latest("0" * 64) is None
        assert wh.latest_metrics("0" * 64) is None
        wh.record_run(
            "conformance",
            [("calm", {"kind": "conformance"}, {"pairs": 7}, False)],
            provenance=PROVENANCE,
            created=1754600000.0,
        )
        from repro.analysis.cache import cache_key

        # a conformance row is not a metrics row: treated as a miss
        assert wh.latest_metrics(cache_key({"kind": "conformance"})) is None

    def test_record_run_is_atomic(self, tmp_path):
        wh = Warehouse(tmp_path / "warehouse.db")
        bad = object()  # not JSON-serializable: the insert fails mid-run

        with pytest.raises(WarehouseError):
            wh.record_run(
                "characterize",
                [
                    ("a", {"d": "a"}, {"x": 1}, False),
                    ("b", {"d": "b"}, {"x": bad}, False),
                ],
                provenance=PROVENANCE,
                created=1754600000.0,
            )
        # nothing landed: not the run, not the first (valid) result row
        assert wh.count_runs() == 0
        assert wh.count_results() == 0

    def test_export_is_deterministic(self, tmp_path):
        wh = Warehouse(tmp_path / "warehouse.db")
        _record(wh, "calm")
        _record(wh, "mbm-t0")
        first = json.dumps(wh.export(), sort_keys=True)
        second = json.dumps(wh.export(), sort_keys=True)
        assert first == second
        exported = wh.export()
        assert exported["schema_version"] == SCHEMA_VERSION
        assert [len(run["results"]) for run in exported["runs"]] == [1, 1]


class TestResolution:
    def test_off_by_default_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_WAREHOUSE_DIR", raising=False)
        assert resolve_warehouse_path(None) is None
        assert resolve_warehouse_path(False) is None

    def test_env_var_opts_in(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_WAREHOUSE_DIR", str(tmp_path))
        assert resolve_warehouse_path(None) == tmp_path / "warehouse.db"

    def test_true_falls_back_to_cache_dir(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_WAREHOUSE_DIR", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert (
            resolve_warehouse_path(True)
            == tmp_path / "warehouse" / "warehouse.db"
        )

    def test_explicit_paths(self, tmp_path):
        assert resolve_warehouse_path(tmp_path) == tmp_path / "warehouse.db"
        db = tmp_path / "other.db"
        assert resolve_warehouse_path(db) == db

    def test_false_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_WAREHOUSE_DIR", str(tmp_path))
        assert resolve_warehouse_path(False) is None
        characterize(
            RealmMultiplier(m=4), samples=SAMPLES, warehouse=False
        )
        assert not (tmp_path / "warehouse.db").exists()

    def test_env_var_opts_in_characterize(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_WAREHOUSE_DIR", str(tmp_path))
        characterize(RealmMultiplier(m=4), samples=SAMPLES)
        wh = Warehouse(tmp_path / "warehouse.db")
        assert wh.count_runs() == 1


class TestIncrementalRecompute:
    def test_warm_run_is_bit_identical_and_runs_nothing(self, tmp_path):
        designs = [("calm", build("calm")), ("mbm-t0", build("mbm-t0"))]
        cold = characterize_many(
            designs, samples=SAMPLES, warehouse=tmp_path
        )
        with telemetry.recording() as rec:
            warm = characterize_many(
                designs, samples=SAMPLES, warehouse=tmp_path
            )
        snap = rec.snapshot
        assert warm == cold  # ErrorMetrics dataclasses: bit-exact equality
        assert snap.counter("warehouse.hits") == 2
        assert snap.counter("warehouse.misses") == 0
        assert snap.counter("warehouse.deltas") == 0
        # the proof of "zero model evaluations": no engine phase ever ran
        assert snap.phase("characterize").count == 0

    def test_single_changed_design_recomputes_alone(self, tmp_path):
        designs = [
            ("calm", build("calm")),
            ("realm", RealmMultiplier(m=4, t=0)),
            ("mbm-t0", build("mbm-t0")),
        ]
        cold = characterize_many(
            designs, samples=SAMPLES, warehouse=tmp_path
        )
        # change one design's knobs: its fingerprint (and only its) moves
        changed = [
            ("calm", build("calm")),
            ("realm", RealmMultiplier(m=4, t=3)),
            ("mbm-t0", build("mbm-t0")),
        ]
        with telemetry.recording() as rec:
            delta = characterize_many(
                changed, samples=SAMPLES, warehouse=tmp_path
            )
        snap = rec.snapshot
        assert snap.counter("warehouse.deltas") == 1
        assert snap.counter("warehouse.hits") == 2
        assert snap.phase("characterize").count == 1
        # untouched designs come back bit-identical from the store
        assert delta["calm"] == cold["calm"]
        assert delta["mbm-t0"] == cold["mbm-t0"]
        # the changed design matches a cold standalone run exactly
        fresh = characterize(
            RealmMultiplier(m=4, t=3),
            samples=SAMPLES,
            warehouse=False,
        )
        assert delta["realm"] == fresh

    def test_progress_covers_reused_and_recomputed_designs(self, tmp_path):
        characterize_many(
            [("calm", build("calm"))], samples=SAMPLES, warehouse=tmp_path,
        )
        events = []
        characterize_many(
            [("calm", build("calm")), ("mbm-t0", build("mbm-t0"))],
            samples=SAMPLES, warehouse=tmp_path,
            progress=events.append,
        )
        designs = [e for e in events if e["event"] == "design"]
        assert [(e["design"], e["index"], e["total"]) for e in designs] == [
            ("calm", 1, 2), ("mbm-t0", 2, 2),
        ]
        assert designs[0]["cache"] == "warehouse"
        assert designs[0]["seconds"] == 0.0
        assert designs[1]["cache"] == "miss"

    def test_reused_flags_and_counters_recorded(self, tmp_path):
        designs = [("calm", build("calm")), ("mbm-t0", build("mbm-t0"))]
        characterize_many(designs, samples=SAMPLES, warehouse=tmp_path)
        characterize_many(designs, samples=SAMPLES, warehouse=tmp_path)
        wh = Warehouse(tmp_path / "warehouse.db")
        cold_run, warm_run = wh.runs()
        assert [r.reused for r in wh.results(cold_run.id)] == [False, False]
        assert [r.reused for r in wh.results(warm_run.id)] == [True, True]
        # the cold run captured its recompute counters (one engine phase
        # per recomputed design); the warm run ran nothing
        assert cold_run.counters.get("phase.characterize") == 2
        assert warm_run.counters == {}

    def test_recomputed_rows_were_computed(self, tmp_path, monkeypatch):
        """A row recorded as recomputed (``reused=False``) belongs to a
        design whose model actually ran; a run served from elsewhere must
        not claim fresh provenance.  With ``$REPRO_CACHE_DIR`` set, the
        state directory holds no metrics that could serve it."""
        from repro.multipliers.base import Multiplier

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "state"))
        designs = [("calm", build("calm")), ("drum-k8", build("drum-k8"))]
        characterize_many(designs, samples=SAMPLES, warehouse=False)
        ran = set()
        original = Multiplier.multiply

        def multiply(self, a, b, **kwargs):
            ran.add(self.name)
            return original(self, a, b, **kwargs)

        monkeypatch.setattr(Multiplier, "multiply", multiply)
        characterize_many(designs, samples=SAMPLES, warehouse=tmp_path)
        wh = Warehouse(tmp_path / "warehouse.db")
        (run,) = wh.runs()
        rows = wh.results(run.id)
        assert len(rows) == len(designs)
        displays = {name: multiplier.name for name, multiplier in designs}
        for row in rows:
            assert row.reused or displays[row.design] in ran, row.design


class TestSweepIntegration:
    IDS = ("calm", "mbm-t0")

    def test_warm_sweep_zero_model_evaluations(self, tmp_path):
        cold = sweep(
            self.IDS, samples=SAMPLES, source="model",
            warehouse=tmp_path,
        )
        with telemetry.recording() as rec:
            warm = sweep(
                self.IDS, samples=SAMPLES, source="model",
                warehouse=tmp_path,
            )
        snap = rec.snapshot
        assert snap.counter("warehouse.deltas") == 0
        assert snap.counter("warehouse.hits") == len(self.IDS)
        assert snap.phase("characterize").count == 0  # zero evaluations
        assert warm == cold  # DesignPoints embed the metrics: bit-identical

    def test_sweep_rows_carry_synthesis_columns(self, tmp_path):
        points = sweep(
            self.IDS, samples=SAMPLES, source="model",
            warehouse=tmp_path,
        )
        wh = Warehouse(tmp_path / "warehouse.db")
        (run,) = wh.runs(kind="sweep")
        rows = {r.design: r for r in wh.results(run.id)}
        for point in points:
            assert rows[point.name].data["area_reduction"] == point.area_reduction
            assert rows[point.name].data["power_reduction"] == point.power_reduction
            assert rows[point.name].data["source"] == "model"

    def test_delta_sweep_bit_identical_on_changed_design(self, tmp_path, monkeypatch):
        import repro.analysis.designspace as designspace

        cold = {
            p.name: p
            for p in sweep(
                self.IDS, samples=SAMPLES, source="model",
                warehouse=tmp_path,
            )
        }
        # mutate one design underneath the registry: only it may re-run
        changed = RealmMultiplier(m=4, t=3)
        real_build = designspace.build
        monkeypatch.setattr(
            designspace,
            "build",
            lambda name: changed if name == "calm" else real_build(name),
        )
        with telemetry.recording() as rec:
            delta = {
                p.name: p
                for p in sweep(
                    self.IDS, samples=SAMPLES, source="model",
                    warehouse=tmp_path,
                )
            }
        snap = rec.snapshot
        assert snap.counter("warehouse.deltas") == 1
        assert snap.phase("characterize").count == 1
        assert delta["mbm-t0"].metrics == cold["mbm-t0"].metrics
        fresh = characterize(changed, samples=SAMPLES, warehouse=False)
        assert delta["calm"].metrics == fresh

    def test_table1_records_one_run(self, tmp_path):
        rows = table1_errors(
            samples=SAMPLES, ids=self.IDS, warehouse=tmp_path
        )
        assert {row["name"] for row in rows} == set(self.IDS)
        wh = Warehouse(tmp_path / "warehouse.db")
        (run,) = wh.runs(kind="table1")
        assert run.samples == SAMPLES
        assert wh.designs() == sorted(self.IDS)


class TestConcurrency:
    def test_two_processes_interleave_without_lost_rows(self, tmp_path):
        db = tmp_path / "warehouse.db"
        Warehouse(db).connect()  # schema exists before the writers race
        script = """
import sys
sys.path.insert(0, {src!r})
from repro.warehouse import Provenance, Warehouse
wh = Warehouse({db!r})
tag = sys.argv[1]
prov = Provenance(git_rev=None, engine_version=2, kernel_version=1)
for index in range(20):
    wh.record_run(
        "characterize",
        [(f"{{tag}}-{{index}}", {{"design": f"{{tag}}-{{index}}"}}, {{"x": index}}, False)],
        seed=index,
        provenance=prov,
        created=1754600000.0,
    )
print("done", tag)
""".format(src=os.path.join(os.path.dirname(os.path.dirname(__file__)), "src"),
           db=str(db))
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, tag],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for tag in ("alpha", "beta")
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert "done" in out
        wh = Warehouse(db)
        assert wh.count_runs() == 40
        assert wh.count_results() == 40
        designs = set(wh.designs())
        for tag in ("alpha", "beta"):
            for index in range(20):
                assert f"{tag}-{index}" in designs


class TestCorruption:
    def test_corrupt_db_is_quarantined_and_rebuilt(self, tmp_path):
        db = tmp_path / "warehouse.db"
        db.write_bytes(b"this is not a sqlite database, not even close")
        with telemetry.recording() as rec:
            metrics = characterize(
                RealmMultiplier(m=4), samples=SAMPLES,
                warehouse=tmp_path,
            )
        assert metrics.samples > 0  # the run itself never failed
        assert rec.snapshot.counter("warehouse.quarantined") == 1
        quarantined = list(tmp_path.glob("warehouse.db.corrupt-*"))
        assert len(quarantined) == 1  # the evidence stays on disk
        wh = Warehouse(db)  # and the rebuilt store recorded the run
        assert wh.count_runs() == 1

    def test_truncated_db_is_quarantined(self, tmp_path):
        db = tmp_path / "warehouse.db"
        wh = Warehouse(db)
        _record(wh)
        wh.close()
        db.write_bytes(db.read_bytes()[: db.stat().st_size // 3])
        metrics = characterize(
            RealmMultiplier(m=4), samples=SAMPLES,
            warehouse=tmp_path,
        )
        assert metrics.samples > 0
        assert list(tmp_path.glob("warehouse.db.corrupt-*"))

    def test_newer_schema_is_refused_not_downgraded(self, tmp_path):
        db = tmp_path / "warehouse.db"
        wh = Warehouse(db)
        _record(wh)
        wh.connect().execute(
            "UPDATE meta SET value = '99' WHERE key = 'schema_version'"
        )
        wh.close()
        with pytest.raises(WarehouseError):
            Warehouse(db).connect()
        # open_warehouse degrades to "warehouse off", never crashes
        with telemetry.recording() as rec:
            assert open_warehouse(tmp_path) is None
        assert rec.snapshot.counter("warehouse.errors") == 1
        metrics = characterize(
            RealmMultiplier(m=4), samples=SAMPLES,
            warehouse=tmp_path,
        )
        assert metrics.samples > 0
        # the future database survives untouched for the newer build
        row = sqlite3.connect(db).execute(
            "SELECT value FROM meta WHERE key='schema_version'"
        ).fetchone()
        assert row[0] == "99"


class TestDamagedStore:
    """A store that opens cleanly (``quick_check`` passes) but has lost
    its ``results`` table: every entry point returns what it returns
    with the warehouse off, and counts the failure."""

    @pytest.fixture
    def damaged(self, tmp_path):
        characterize(build("calm"), SAMPLES, warehouse=tmp_path)
        connection = sqlite3.connect(tmp_path / "warehouse.db")
        connection.execute("DROP TABLE results")
        connection.commit()
        connection.close()
        return tmp_path

    def test_every_read_is_a_warehouse_error(self, tmp_path):
        wh = Warehouse(tmp_path / "warehouse.db")
        _record(wh)
        for table in ("results", "runs", "meta"):
            wh.connect().execute(f"DROP TABLE {table}")
        reads = (
            lambda: wh.latest("0" * 64),
            lambda: wh.latest_metrics("0" * 64),
            wh.certificates,
            wh.runs,
            wh.results,
            wh.designs,
            wh.count_runs,
            wh.count_results,
            lambda: wh.schema_version,
            wh.export,
        )
        for read in reads:
            with pytest.raises(WarehouseError, match="no such table"):
                read()
        wh.close()

    def test_a_failing_store_never_takes_a_run_down(
        self, damaged, monkeypatch, capsys
    ):
        from repro.cli import main
        from repro.conformance import fuzz, render_json
        from repro.experiments import cnn_study

        events = []
        emit = telemetry.Telemetry.event

        def spy(self, name, **fields):
            if name == "warehouse.error":
                events.append(fields)
            emit(self, name, **fields)

        monkeypatch.setattr(telemetry.Telemetry, "event", spy)

        def formal(warehouse):
            flags = ["--no-warehouse"] if warehouse is False else [
                "--warehouse", str(warehouse)
            ]
            code = main(
                ["formal", "--design", "calm", "--bitwidth", "8", "--max-error", *flags]
            )
            return code, capsys.readouterr().out

        ids = ("calm", "mbm-t0")
        entry_points = {
            "characterize": lambda w: characterize(build("calm"), SAMPLES, warehouse=w),
            "table1_errors": lambda w: table1_errors(SAMPLES, ids, warehouse=w),
            "sweep": lambda w: sweep(ids, samples=SAMPLES, warehouse=w),
            "cnn_study": lambda w: cnn_study(["accurate", "calm"], warehouse=w),
            "fuzz": lambda w: render_json(fuzz("realm4-t0", 1 << 10, warehouse=w)),
            "formal": formal,
        }
        for name, run in entry_points.items():
            expected = run(False)
            events.clear()
            with telemetry.recording() as rec:
                got = run(damaged)
            assert got == expected, name
            assert rec.snapshot.counter("warehouse.errors") >= 1, name
            assert events, name
            for event in events:
                assert event["kind"] and "no such table" in event["cause"], name


class TestMigration:
    def _v1_database(self, path):
        connection = sqlite3.connect(path)
        create_schema(connection, version=1)
        connection.execute("BEGIN IMMEDIATE")
        cursor = connection.execute(
            "INSERT INTO runs (kind, created, wall_seconds, git_rev,"
            " engine_version, kernel_version, seed, samples)"
            " VALUES ('characterize', 1700000000.0, 2.5, 'abc', 2, 1, 0, 4096)"
        )
        connection.execute(
            "INSERT INTO results (run_id, design, fingerprint, payload, data)"
            " VALUES (?, 'calm', 'deadbeef', '{}', '{\"mean_error\": 3.5}')",
            (cursor.lastrowid,),
        )
        connection.commit()
        connection.close()

    def test_v1_upgrades_in_place_losing_no_rows(self, tmp_path):
        db = tmp_path / "warehouse.db"
        self._v1_database(db)
        wh = Warehouse(db)
        wh.connect()
        assert wh.schema_version == SCHEMA_VERSION
        (run,) = wh.runs()
        assert run.kind == "characterize"
        assert run.git_rev == "abc"
        assert run.counters == {}  # the new column defaults clean
        (result,) = wh.results(run.id)
        assert result.design == "calm"
        assert result.data == {"mean_error": 3.5}
        assert result.reused is False
        # and a v2 write into the migrated store works
        _record(wh, "mbm-t0")
        assert wh.count_runs() == 2

    def test_create_schema_rejects_unknown_versions(self, tmp_path):
        connection = sqlite3.connect(tmp_path / "x.db")
        with pytest.raises(SchemaError):
            create_schema(connection, version=0)
        with pytest.raises(SchemaError):
            create_schema(connection, version=SCHEMA_VERSION + 1)


class TestClearCache:
    def test_clear_cache_drops_warehouse_and_subsystem_stores(self, tmp_path):
        # one file in every subsystem store under the state directory
        (tmp_path / "checkpoints").mkdir()
        (tmp_path / "checkpoints" / "a.json").write_text("{}")
        wh_dir = tmp_path / "warehouse"
        wh_dir.mkdir()
        (wh_dir / "warehouse.db").write_bytes(b"db")
        (wh_dir / "warehouse.db.corrupt-123").write_bytes(b"old")
        assert clear_cache(tmp_path) == 3
        assert list(tmp_path.rglob("*.json")) == []
        assert list(wh_dir.iterdir()) == []

    def test_clear_cache_covers_a_real_warehouse(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_WAREHOUSE_DIR", raising=False)
        characterize(RealmMultiplier(m=4), samples=SAMPLES, warehouse=True)
        assert (tmp_path / "warehouse" / "warehouse.db").exists()
        assert list(tmp_path.glob("*.json")) == []  # no metrics file beside it
        assert clear_cache(tmp_path) == 1  # the database
        assert not (tmp_path / "warehouse" / "warehouse.db").exists()


class TestTrendReport:
    def test_trends_track_error_across_runs(self, tmp_path):
        wh = Warehouse(tmp_path / "warehouse.db")
        _record(wh, metrics=_metrics(mean_error=3.5))
        _record(wh, metrics=_metrics(mean_error=3.25), reused=False)
        trends = build_trends(wh)
        assert [run["recomputed"] for run in trends["runs"]] == [1, 1]
        points = trends["designs"]["calm"]
        assert [p["mean_error"] for p in points] == [3.5, 3.25]
        text = render_text(trends)
        assert "calm" in text and "recorded runs (2)" in text

    def test_certified_peaks_preferred(self, tmp_path):
        wh = Warehouse(tmp_path / "warehouse.db")
        _record(wh, metrics=_metrics(peak_certified=(-9.5, 2.5)))
        (point,) = build_trends(wh)["designs"]["calm"]
        assert point["certified"]
        assert point["peak_min"] == -9.5
        assert point["peak_max"] == 2.5

    def test_json_rendering_is_byte_stable(self, tmp_path):
        wh = Warehouse(tmp_path / "warehouse.db")
        _record(wh, "calm")
        _record(wh, "mbm-t0")
        assert render_json(build_trends(wh)) == render_json(build_trends(wh))

    def test_filters(self, tmp_path):
        wh = Warehouse(tmp_path / "warehouse.db")
        _record(wh, "calm")
        wh.record_run(
            "conformance",
            [("calm", {"kind": "conformance"}, {"pairs": 9}, False)],
            provenance=PROVENANCE,
            created=1754600001.0,
        )
        assert len(build_trends(wh)["runs"]) == 2
        assert len(build_trends(wh, kind="conformance")["runs"]) == 1
        assert len(build_trends(wh, limit=1)["runs"]) == 1

    def test_empty_store_renders_cleanly(self, tmp_path):
        wh = Warehouse(tmp_path / "warehouse.db")
        trends = build_trends(wh)
        assert trends["runs"] == []
        assert "empty" in render_text(trends)

    def test_trajectories_split_by_how_runs_sampled(self, tmp_path):
        from repro.analysis.montecarlo import GaussianSampler, characterize_workload

        calm = build("calm")
        characterize(calm, samples=SAMPLES, warehouse=tmp_path)
        characterize_workload(
            calm, GaussianSampler(16), samples=SAMPLES, warehouse=tmp_path
        )
        characterize(calm, samples=2 * SAMPLES, warehouse=tmp_path)
        trends = build_trends(Warehouse(tmp_path / "warehouse.db"))
        (name,) = trends["designs"]
        assert [
            (p["kind"], p["sampler"], p["samples"]) for p in trends["designs"][name]
        ] == [
            ("characterize", "uniform", SAMPLES),
            ("workload", "GaussianSampler", SAMPLES),
            ("characterize", "uniform", 2 * SAMPLES),
        ]
        text = render_text(trends)
        assert "design trajectories (3):" in text
        rows = [line for line in text.splitlines() if line.startswith(name)]
        assert len(rows) == 3
        assert [row.split()[1:4] for row in rows] == [
            ["characterize", "uniform", str(SAMPLES)],
            ["workload", "GaussianSampler", str(SAMPLES)],
            ["characterize", "uniform", str(2 * SAMPLES)],
        ]


class TestProvenanceCapture:
    def test_revision_is_read_once_per_process(self, tmp_path, monkeypatch):
        from repro.warehouse import provenance

        spawned = []
        run = subprocess.run

        def counting_run(*args, **kwargs):
            spawned.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(provenance.subprocess, "run", counting_run)
        provenance._code_rev.cache_clear()
        wh = Warehouse(tmp_path / "warehouse.db")
        for design in ("calm", "mbm-t0", "drum-k8"):
            _record(wh, design, provenance=None)
        assert len(spawned) == 1
        assert len({run.git_rev for run in wh.runs()}) == 1


class TestCampaignRecording:
    def test_conformance_run_recorded(self, tmp_path):
        from repro.conformance import fuzz

        result = fuzz("realm4-t0", budget=1 << 10, warehouse=tmp_path)
        wh = Warehouse(tmp_path / "warehouse.db")
        (run,) = wh.runs(kind="conformance")
        (row,) = wh.results(run.id)
        assert row.data["pairs"] == result.pairs
        assert row.data["total_divergences"] == result.total_divergences
        assert row.data["full_cover"] == result.full_cover
        assert run.samples == result.pairs

    def test_formal_cli_records_certificates(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "formal", "--design", "realm-8-m4-q4", "--bitwidth", "8",
                "--max-error", "--warehouse", str(tmp_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        wh = Warehouse(tmp_path / "warehouse.db")
        (run,) = wh.runs(kind="formal")
        (row,) = wh.results(run.id)
        assert row.data["kind"] == "worst-case-error"
        assert row.data["exact"] and row.data["replayed"]
