"""Conformance subsystem: oracles, coverage map, fuzzer, shrinker, reports.

The suite proves the harness itself is trustworthy before trusting its
verdicts: agreement across every layer on healthy designs, guaranteed
detection + minimal shrinking of an injected bug, hand-counted coverage
exactness on the 4-bit grid, and bit-identical results at any worker
count and across repeated runs.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings

from repro.analysis import chaos, telemetry
from repro.conformance import (
    CoverageMap,
    DifferentialOracle,
    build_report,
    default_segments,
    fuzz,
    render_json,
    render_text,
    resolve_design,
    shrink_pair,
)
from repro.conformance.oracles import (
    COMMUTE_FAMILIES,
    POW2_SHIFT_FAMILIES,
    UNDERESTIMATE_FAMILIES,
)
from repro.core.realm import RealmMultiplier
from repro.multipliers.registry import build
from tests.strategies import ALL_IDS, operand_pairs

_REALM_MULTIPLY = RealmMultiplier.multiply


# ---------------------------------------------------------------------------
# design resolution
# ---------------------------------------------------------------------------


class TestResolveDesign:
    def test_registry_id(self):
        design, model, rtl_factory, servable = resolve_design("realm16-t0")
        assert design == "realm16-t0"
        assert model.bitwidth == 16
        assert servable
        assert rtl_factory is not None

    def test_adhoc_realm_spec(self):
        design, model, rtl_factory, servable = resolve_design("realm-8-m4-q5")
        assert design == "realm-8-m4-q5"
        assert model.bitwidth == 8
        assert model.config.m == 4
        assert model.config.q == 5
        assert not servable  # the serving registry cannot resolve ad-hoc specs
        assert rtl_factory is not None

    def test_adhoc_spec_with_truncation(self):
        _, model, _, _ = resolve_design("realm-16-m16-q6-t4")
        assert model.config.t == 4

    def test_unknown_design_raises_keyerror_with_hint(self):
        with pytest.raises(KeyError, match="unknown design"):
            resolve_design("not-a-design")

    def test_registry_id_with_bitwidth_override(self):
        _, model, _, _ = resolve_design("calm", bitwidth=8)
        assert model.bitwidth == 8


# ---------------------------------------------------------------------------
# oracle agreement on healthy designs (realm / mitchell / drum families)
# ---------------------------------------------------------------------------


AGREEMENT_DESIGNS = [
    "realm16-t0",  # REALM with correction LUT
    "realm4-t9",  # heavily truncated REALM
    "calm",  # pure Mitchell-family log multiplier
    "alm-soa-m6",  # Mitchell with approximate adder
    "drum-k8",  # dynamic range truncation
    "drum-k5",
    "accurate",
]


class TestOracleAgreement:
    @pytest.mark.parametrize("design", AGREEMENT_DESIGNS)
    def test_all_layers_agree(self, design):
        result = fuzz(design, 768, seed=7)
        assert result.ok, render_text(result)
        assert result.total_divergences == 0
        assert "model" in result.layers
        assert "rtl" in result.layers
        assert "serve" in result.layers
        assert "formal" in result.layers
        assert "exact" in result.layers
        assert not result.skipped_layers

    def test_adhoc_realm_spec_skips_serve(self):
        result = fuzz("realm-16-m4-q5", 2048, seed=0)
        assert result.ok, render_text(result)
        assert "serve" in result.skipped_layers
        assert result.layers == ("model", "rtl", "kernel", "formal", "exact")

    def test_relations_follow_family(self):
        oracle = DifferentialOracle("realm16-t0")
        assert "commute" in oracle.relations
        assert "pow2-shift" in oracle.relations
        # REALM's correction LUT can overestimate: no underestimate bound
        assert "underestimate" not in oracle.relations
        truncating = DifferentialOracle("ssm-m8")
        assert "underestimate" in truncating.relations

    def test_family_sets_cover_known_structures(self):
        # the metamorphic relation tables must track the registry families
        for name in ("realm16-t0", "calm", "mbm-t0"):
            assert build(name).family in POW2_SHIFT_FAMILIES
        for name in ("drum-k8", "ssm-m8", "essm8"):
            assert build(name).family not in POW2_SHIFT_FAMILIES
        assert build("am1-nb9").family not in COMMUTE_FAMILIES
        assert build("ssm-m9").family in UNDERESTIMATE_FAMILIES

    @given(pair=operand_pairs(16))
    @settings(max_examples=60, deadline=None)
    def test_check_pair_clean_on_healthy_design(self, pair):
        # property sweep: no single pair trips any relation on REALM
        oracle = _MODEL_ONLY_ORACLE
        a, b = pair
        for kind, name in (
            ("relation", "commute"),
            ("relation", "pow2-shift"),
            ("layer", "exact"),
        ):
            assert not oracle.check_pair(kind, name, a, b)


# model+exact oracle reused by the property sweep (module-level so
# hypothesis examples share the built model)
_MODEL_ONLY_ORACLE = DifferentialOracle("realm16-t0", layers=("model", "exact"))


# ---------------------------------------------------------------------------
# injected bugs are caught and shrunk
# ---------------------------------------------------------------------------


def _broken_on_a_third(self, a, b, *, compiled=None):
    """``RealmMultiplier.multiply`` off by one on a third of the nonzero pairs."""
    products = _REALM_MULTIPLY(self, a, b, compiled=compiled)
    a = np.asarray(a)
    b = np.asarray(b)
    return np.where((a > 0) & (b > 0) & ((7 * a + b) % 3 == 0), products + 1, products)


FUZZ = importlib.import_module("repro.conformance.fuzz")


def _one_group_per_batch(batches):
    """``fuzz._groups`` with every non-empty batch its own group: one
    oracle pass per batch."""
    return ([(a, b)] for a, b in batches if a.size)


class TestBatchedEvaluate:
    def test_batches_return_what_one_call_per_batch_returns(self, monkeypatch):
        monkeypatch.setattr(RealmMultiplier, "multiply", _broken_on_a_third)
        oracle = DifferentialOracle("realm-8-m4-q5")
        rng = np.random.default_rng(9)
        a = rng.integers(0, 256, 700)
        b = rng.integers(0, 256, 700)
        sizes = [256, 256, 1, 0, 187]
        records, total = oracle.evaluate(a, b, limit=4, batches=sizes)
        want_records, want_total = [], 0
        for start, stop in zip(np.cumsum([0, *sizes[:-1]]), np.cumsum(sizes)):
            part, count = oracle.evaluate(a[start:stop], b[start:stop], limit=4)
            want_records += part
            want_total += count
        assert total == want_total > len(records)
        assert records == want_records

    def test_batch_sizes_must_cover_the_pairs(self):
        oracle = DifferentialOracle("realm-8-m4-q5", layers=("model", "exact"))
        pairs = np.arange(1, 9, dtype=np.int64)
        with pytest.raises(ValueError, match="add up"):
            oracle.evaluate(pairs, pairs, batches=[4, 3])


class TestInjectedBugs:
    def test_monkeypatched_model_is_caught_and_shrunk(self, monkeypatch):
        from repro.core.realm import RealmMultiplier

        original = RealmMultiplier.multiply

        def broken(self, a, b, *, compiled=None):
            products = original(self, a, b, compiled=compiled)
            a = np.asarray(a)
            b = np.asarray(b)
            return np.where((a > 0) & (b > 0), products + 1, products)

        monkeypatch.setattr(RealmMultiplier, "multiply", broken)
        result = fuzz("realm-8-m4-q5", 1024, seed=0)
        assert not result.ok
        assert result.total_divergences > 0
        # the divergence shrinks to the smallest pair that triggers it
        assert result.shrunk
        for entry in result.shrunk:
            assert entry["shrunk_a"] == 1
            assert entry["shrunk_b"] == 1

    def test_chaos_corrupt_fault_breaks_model(self, tmp_path):
        from repro.warehouse import Warehouse

        spec = chaos.FaultSpec(kind="corrupt", block=0, design="realm-8-m4-q5")
        chaos.install([spec], tmp_path / "claims")
        try:
            result = fuzz("realm-8-m4-q5", 1024, seed=0, warehouse=tmp_path)
        finally:
            chaos.uninstall()
        assert not result.ok
        for entry in result.shrunk:
            assert entry["shrunk_a"].bit_length() <= 8
            assert entry["shrunk_b"].bit_length() <= 8
        # the campaign's warehouse row keeps the shrunk pairs for replay
        with Warehouse(tmp_path / "warehouse.db") as wh:
            (run,) = wh.runs(kind="conformance")
            (row,) = wh.results(run.id)
        assert row.design == "realm-8-m4-q5"
        assert row.data["counterexamples"] == result.shrunk

    def test_chaos_fault_for_other_design_is_ignored(self, tmp_path):
        spec = chaos.FaultSpec(kind="corrupt", block=0, design="some-other-id")
        chaos.install([spec], tmp_path / "claims")
        try:
            result = fuzz("realm-8-m4-q5", 512, seed=0)
        finally:
            chaos.uninstall()
        assert result.ok


# ---------------------------------------------------------------------------
# serve-layer fleet lifecycle
# ---------------------------------------------------------------------------

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: one batch through the serve layer, then the oracle is dropped unclosed
#: (as a temporary, and as a global that lives until interpreter exit)
DROPPED_ORACLES = """
import sys
sys.path.insert(0, {src!r})
import numpy as np
from repro.conformance import DifferentialOracle
pairs = np.arange(1, 33, dtype=np.int64)
DifferentialOracle("calm", 8).evaluate(pairs, pairs[::-1].copy())
kept = DifferentialOracle("calm", 8, layers=("model", "serve"))
kept.evaluate(pairs, pairs)
"""


class TestServeFleet:
    def test_one_campaign_starts_one_fleet(self, monkeypatch, tmp_path):
        from repro.serve import Supervisor

        starts = []
        up = Supervisor.up

        async def counted_up(self):
            starts.append(self)
            await up(self)

        monkeypatch.setattr(Supervisor, "up", counted_up)
        spec = chaos.FaultSpec(kind="corrupt", block=0, design="calm")
        chaos.install([spec], tmp_path / "claims")
        try:
            result = fuzz("calm", 512, seed=0, bitwidth=8)
        finally:
            chaos.uninstall()
        # the corrupted model diverges from serve, so shrinking re-asked it
        assert "layer:serve" in result.counts
        assert any(entry["name"] == "serve" for entry in result.shrunk)
        assert len(starts) == 1
        assert starts[0].draining  # fuzz closed its oracle

    def test_close_is_idempotent_and_needs_no_fleet(self):
        DifferentialOracle("calm", 8, layers=("model", "exact")).close()
        oracle = DifferentialOracle("calm", 8, layers=("model", "serve"))
        pairs = np.arange(1, 9, dtype=np.int64)
        assert oracle.evaluate(pairs, pairs)[1] == 0
        oracle.close()
        oracle.close()

    def test_dropped_oracle_prints_nothing(self):
        done = subprocess.run(
            [sys.executable, "-c", DROPPED_ORACLES.format(src=SRC)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""


# ---------------------------------------------------------------------------
# shrinker
# ---------------------------------------------------------------------------


class TestShrinker:
    def test_deterministic(self):
        check = lambda a, b: a >= 5 and b >= 3  # noqa: E731
        first = shrink_pair(check, 60000, 41234)
        second = shrink_pair(check, 60000, 41234)
        assert first == second

    def test_locally_minimal(self):
        check = lambda a, b: a >= 5 and b >= 3  # noqa: E731
        a, b = shrink_pair(check, 60000, 41234)
        assert check(a, b)
        # no single halving, bit-clear or decrement may still fail the check
        assert not check(a >> 1, b)
        assert not check(a, b >> 1)
        assert not check(a - 1, b)
        assert not check(a, b - 1)

    def test_single_bit_bug_shrinks_to_that_bit(self):
        check = lambda a, b: bool(a & 0b100) and b > 0  # noqa: E731
        a, b = shrink_pair(check, 0xFFFF, 0xFFFF)
        assert a == 0b100
        assert b == 1

    def test_non_diverging_pair_unchanged(self):
        assert shrink_pair(lambda a, b: False, 123, 456) == (123, 456)

    def test_oracle_check_pair_drives_shrink(self):
        # underestimate violation on a patched truncating model
        oracle = DifferentialOracle("realm-8-m4-q5", layers=("model", "exact"))
        assert not oracle.check_pair("layer", "exact", 0, 77)
        assert not oracle.check_pair("layer", "exact", 1 << 4, 0)


# ---------------------------------------------------------------------------
# coverage map: hand-counted 4-bit grid
# ---------------------------------------------------------------------------


class TestCoverageMap4Bit:
    """Exactness against hand counts for ``N=4, M=4``.

    Per operand: interval k leaves k variable fraction bits, so segment
    reachability is k=0 -> {0}, k=1 -> {0, 2}, k=2 and 3 -> {0, 1, 2, 3}:
    11 reachable ``(k, i)`` combos, hence ``11^2 = 121`` joint cells.
    """

    def test_reachable_cell_count(self):
        cm = CoverageMap(4, 4)
        assert int(np.count_nonzero(cm.reachable_mask())) == 121
        assert cm.uncovered().shape[0] == 121

    def test_reachable_segments_per_interval(self):
        cm = CoverageMap(4, 4)
        assert cm.reachable_segments(0).tolist() == [0]
        assert cm.reachable_segments(1).tolist() == [0, 2]
        assert cm.reachable_segments(2).tolist() == [0, 1, 2, 3]
        assert cm.reachable_segments(3).tolist() == [0, 1, 2, 3]

    def test_exhaustive_sweep_reaches_every_cell(self):
        cm = CoverageMap(4, 4)
        values = np.arange(16, dtype=np.int64)
        a, b = np.meshgrid(values, values, indexing="ij")
        cm.update(a.ravel(), b.ravel())
        assert cm.segment_cell_coverage() == 1.0
        assert cm.uncovered().size == 0
        # 15 nonzero values per operand -> 225 nonzero pairs, 31 with a zero
        assert int(cm.cells.sum()) == 225
        assert cm.zero_pairs == 31
        assert cm.pairs == 256

    def test_specific_coordinates(self):
        cm = CoverageMap(4, 4)
        # a=5=0b101: k=2, fraction '01' aligns to 0b010, segment 0b010>>1=1
        ka, kb, i, j, pa, pb, nonzero = cm.coordinates([5], [1])
        assert (int(ka[0]), int(i[0])) == (2, 1)
        # b=1: k=0, only segment 0 reachable
        assert (int(kb[0]), int(j[0])) == (0, 0)
        assert bool(nonzero[0])

    def test_hit_counts_accumulate(self):
        cm = CoverageMap(4, 4)
        assert cm.update([5, 5], [1, 1]) == 1  # one new cell, hit twice
        assert cm.cells[2, 0, 1, 0] == 2
        assert cm.update([5], [1]) == 0  # already covered

    def test_report_is_json_stable(self):
        cm = CoverageMap(4, 4)
        cm.update([5, 9], [3, 12])
        first = json.dumps(cm.report(), sort_keys=True)
        second = json.dumps(cm.report(), sort_keys=True)
        assert first == second
        assert json.loads(first)["segment_cells"]["reachable"] == 121

    def test_rejects_non_power_of_two_m(self):
        with pytest.raises(ValueError, match="power of two"):
            CoverageMap(8, 5)

    def test_default_segments_follows_design(self):
        assert default_segments(build("realm16-t0")) == 16
        assert default_segments(build("scaletrim-t4-c2")) == 8
        assert default_segments(build("mbm-t0")) == 4
        assert default_segments(build("drum-k8")) == 4

    def test_16bit_reachable_count_matches_formula(self):
        # N=16, M=4: per-operand combos 1+2+4*14 = 59 -> 59^2 joint cells
        cm = CoverageMap(16, 4)
        assert int(np.count_nonzero(cm.reachable_mask())) == 59 * 59


# ---------------------------------------------------------------------------
# determinism and worker invariance
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_repeat_runs_bit_identical(self):
        first = fuzz("realm-8-m4-q5", 800, seed=11)
        second = fuzz("realm-8-m4-q5", 800, seed=11)
        assert render_json(first) == render_json(second)

    def test_grouping_invariance(self, monkeypatch):
        with telemetry.recording() as rec:
            grouped = fuzz("realm-8-m4-q5", 600, seed=3)
        monkeypatch.setattr(FUZZ, "_groups", _one_group_per_batch)
        with telemetry.recording() as per_batch_rec:
            per_batch = fuzz("realm-8-m4-q5", 600, seed=3)
        assert (
            rec.snapshot.phase("conform.eval").count
            < per_batch_rec.snapshot.phase("conform.eval").count
        )
        assert render_json(grouped) == render_json(per_batch)

    def test_grouping_invariance_past_the_record_limit(self, monkeypatch):
        # a model broken on a third of its nonzero pairs: every batch holds
        # more divergences per check than the record limit, so the fused
        # pass must cut its records per batch as one pass per batch does
        monkeypatch.setattr(RealmMultiplier, "multiply", _broken_on_a_third)
        grouped = fuzz("realm-8-m4-q5", 1500, seed=4, limit=3)
        monkeypatch.setattr(FUZZ, "_groups", _one_group_per_batch)
        per_batch = fuzz("realm-8-m4-q5", 1500, seed=4, limit=3)
        assert not grouped.ok
        assert sum(grouped.counts.values()) < grouped.total_divergences
        assert render_json(grouped) == render_json(per_batch)

    def test_campaign_builds_the_corpus_once(self, monkeypatch):
        edges = FUZZ.segment_edge_values
        calls = []

        def counting(bitwidth, m):
            calls.append((bitwidth, m))
            return edges(bitwidth, m)

        FUZZ.corpus_pairs.cache_clear()
        monkeypatch.setattr(FUZZ, "segment_edge_values", counting)
        fuzz("realm-16-m4-q5", 20000, seed=0)
        assert calls == [(16, 4)]

    def test_serial_campaign_evaluates_one_group_per_round(self):
        with telemetry.recording() as rec:
            result = fuzz("realm-16-m4-q5", 20000, seed=0)
        # the corpus and every planned round fit in ROUND_PAIRS pairs
        assert rec.snapshot.phase("conform.eval").count == result.rounds

    def test_groups_split_at_round_pairs(self, monkeypatch):
        monkeypatch.setattr(FUZZ, "ROUND_PAIRS", 2 * FUZZ.BATCH_PAIRS)
        with telemetry.recording() as rec:
            result = fuzz("realm-16-m4-q5", 6000, seed=0)
        corpus = FUZZ.corpus_pairs(16, 4)[0].size
        corpus_batches = -(-corpus // FUZZ.BATCH_PAIRS)
        # the corpus round in groups of two batches, then one per round
        groups = -(-corpus_batches // 2) + result.rounds - 1
        assert rec.snapshot.phase("conform.eval").count == groups

    def test_different_seeds_differ(self):
        first = fuzz("realm-8-m4-q5", 400, seed=0)
        second = fuzz("realm-8-m4-q5", 400, seed=1)
        # both clean, but the evaluated pair streams must differ
        assert first.ok and second.ok
        assert render_json(first) != render_json(second)

    def test_acceptance_slice_full_cover_quickly(self):
        # the tier-1 slice of the acceptance criterion: full cover of the
        # 16-bit m=4 grid well inside the budget, zero divergences
        result = fuzz("realm-16-m4-q5", 20000, seed=0)
        assert result.ok
        assert result.coverage.segment_cell_coverage() >= 0.95
        assert result.full_cover
        assert result.pairs <= 20000


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


class TestReport:
    def test_build_report_structure(self):
        result = fuzz("realm-8-m4-q5", 400, seed=5)
        report = build_report(result)
        assert report["ok"] is True
        assert report["design"] == "realm-8-m4-q5"
        assert report["coverage"]["segment_cells"]["reachable"] > 0
        assert report["divergences"]["total"] == 0
        json.dumps(report)  # serializable as-is

    def test_render_text_contains_table_and_verdict(self):
        result = fuzz("realm-8-m4-q5", 400, seed=5)
        text = render_text(result)
        assert "i\\j" in text
        assert "verdict     OK" in text

    def test_failing_report_lists_shrunk_pairs(self, monkeypatch, tmp_path):
        from repro.core.realm import RealmMultiplier

        original = RealmMultiplier.multiply

        def broken(self, a, b, *, compiled=None):
            products = original(self, a, b, compiled=compiled)
            a = np.asarray(a)
            b = np.asarray(b)
            return np.where((a > 0) & (b > 0), products + 1, products)

        monkeypatch.setattr(RealmMultiplier, "multiply", broken)
        result = fuzz("realm-8-m4-q5", 400, seed=5)
        text = render_text(result)
        assert "verdict     FAIL" in text
        assert "shrunk counterexample" in text
        report = build_report(result)
        assert report["ok"] is False
        assert report["divergences"]["shrunk"]


# ---------------------------------------------------------------------------
# nightly: full-budget sweep over one design per registry family
# ---------------------------------------------------------------------------

FAMILY_REPRESENTATIVES = sorted(
    {build(name).family: name for name in ALL_IDS}.values()
)


@pytest.mark.nightly
@pytest.mark.skipif(
    not os.environ.get("REPRO_NIGHTLY"),
    reason="full-budget conformance sweep runs in the nightly job "
    "(set REPRO_NIGHTLY=1)",
)
@pytest.mark.parametrize("design", FAMILY_REPRESENTATIVES)
def test_nightly_full_budget_conformance(design):
    result = fuzz(design, 1 << 16, seed=0)
    assert result.ok, render_text(result)
    assert result.coverage.segment_cell_coverage() >= 0.95
