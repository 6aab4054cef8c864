"""Tests for the calibrated synthesis cost model (Table I's design columns).

Absolute calibration is pinned to the paper's accurate-multiplier
reference; the orderings the paper's conclusions rest on must emerge from
the structural models (see DESIGN.md for the documented absolute
compression of the log-family reductions).
"""

from __future__ import annotations

import pytest

from repro import paper
from repro.circuits.catalog import netlist_for
from repro.experiments import table1_synthesis
from repro.multipliers.registry import TABLE1_IDS
from repro.synth import cost
from repro.synth.cost import reductions, synthesize, synthesize_design


class TestCalibration:
    def test_accurate_matches_paper_reference(self):
        result = synthesize_design("accurate")
        assert result.area_um2 == pytest.approx(paper.ACCURATE_AREA_UM2, rel=1e-9)
        assert result.power_uw == pytest.approx(paper.ACCURATE_POWER_UW, rel=1e-9)

    def test_reductions_zero_for_reference(self):
        area, power = reductions("accurate")
        assert area == pytest.approx(0.0)
        assert power == pytest.approx(0.0)

    def test_synthesize_design_cached(self):
        assert synthesize_design("calm") is synthesize_design("calm")

    def test_table1_synthesizes_each_design_once(self, monkeypatch):
        # reductions(name) and synthesize_design(name) share one entry
        estimates = []
        estimate = cost.estimate_power
        monkeypatch.setattr(
            cost,
            "estimate_power",
            lambda *args, **kwargs: estimates.append(1) or estimate(*args, **kwargs),
        )
        cost._synthesized.cache_clear()
        cost._estimated.cache_clear()
        table1_synthesis()
        assert cost._synthesized.cache_info().misses == len(TABLE1_IDS) + 1 == 73
        # the calibration reads the accurate design's own estimate
        assert len(estimates) == 73

    def test_synthesize_matches_design_path(self):
        direct = synthesize(netlist_for("calm"))
        cached = synthesize_design("calm")
        assert direct.area_um2 == pytest.approx(cached.area_um2)
        assert direct.power_uw == pytest.approx(cached.power_uw)


class TestRealmKnobOrderings:
    def test_truncation_monotonically_shrinks_area(self):
        # paper Section III-C: t reduces shifter/adder widths
        areas = [synthesize_design(f"realm8-t{t}").area_um2 for t in range(10)]
        assert all(a >= b for a, b in zip(areas, areas[1:]))

    def test_more_segments_cost_more(self):
        # paper: higher M -> larger LUT mux -> more area
        assert (
            synthesize_design("realm16-t0").area_um2
            > synthesize_design("realm8-t0").area_um2
            > synthesize_design("realm4-t0").area_um2
        )

    def test_every_approximate_design_beats_accurate_in_power(self):
        for name in ("realm16-t0", "realm4-t9", "calm", "drum-k8", "ssm-m8"):
            _, power = reductions(name)
            assert power > 0

    def test_realm_overhead_over_calm_is_small(self):
        # the hardwired LUT's claim: REALM4 costs at most ~15% more than
        # bare cALM despite the correction machinery
        realm = synthesize_design("realm4-t0")
        calm = synthesize_design("calm")
        assert realm.area_um2 < calm.area_um2 * 1.25


class TestCrossFamilyOrderings:
    def test_alm_cheaper_than_calm(self):
        # approximate log adders only remove logic
        assert (
            synthesize_design("alm-soa-m12").area_um2
            < synthesize_design("alm-maa-m12").area_um2 * 1.05
        )
        assert (
            synthesize_design("alm-soa-m12").area_um2
            < synthesize_design("calm").area_um2
        )

    def test_soa_monotone_in_m(self):
        areas = [
            synthesize_design(f"alm-soa-m{m}").area_um2 for m in (3, 6, 9, 11, 12)
        ]
        assert all(a >= b for a, b in zip(areas, areas[1:]))

    def test_drum_monotone_in_k(self):
        areas = [synthesize_design(f"drum-k{k}").area_um2 for k in (8, 7, 6, 5, 4)]
        assert all(a >= b for a, b in zip(areas, areas[1:]))

    def test_am2_recovery_is_expensive(self):
        # Table I: AM2's exact error accumulation nearly cancels the
        # savings; AM1's OR recovery is much cheaper
        assert (
            synthesize_design("am2-nb13").area_um2
            > synthesize_design("am1-nb13").area_um2 * 1.5
        )

    def test_intalp_l2_most_expensive_log_design(self):
        # Table I: IntALP-L2 posts the worst area reduction of the
        # fraction-domain designs (17.8%)
        l2 = synthesize_design("intalp-l2").area_um2
        assert l2 > synthesize_design("intalp-l1").area_um2
        assert l2 > synthesize_design("calm").area_um2
        assert l2 > synthesize_design("mbm-t0").area_um2

    def test_implm_costs_more_than_calm(self):
        # nearest-one detection + signed fractions cost real hardware
        assert (
            synthesize_design("implm-ea").area_um2
            > synthesize_design("calm").area_um2
        )

    def test_depth_reported(self):
        result = synthesize_design("accurate")
        assert result.depth > 10
        assert result.gate_count > 500


class TestReductionRanges:
    def test_realm_reduction_band(self):
        # the paper's headline band is 50-76% area / 66-86% power; our
        # cost model compresses absolute numbers (documented) but the
        # REALM family must still span a wide band in the same order
        low_area, low_power = reductions("realm16-t0")
        high_area, high_power = reductions("realm4-t9")
        assert high_area - low_area > 20
        assert high_power - low_power > 25
        assert low_area > 25 and high_power < 90


class TestEnergyMetrics:
    def test_energy_per_op(self):
        result = synthesize_design("accurate")
        # 821.9 uW at 1 GHz = 0.8219 pJ/op
        assert result.energy_per_op_pj == pytest.approx(0.8219, abs=0.001)

    def test_edp(self):
        from repro.synth.timing import analyze_timing

        result = synthesize_design("calm")
        delay = analyze_timing(netlist_for("calm")).critical_path_ps
        edp = result.energy_delay_product(delay)
        assert edp > 0
        assert edp == pytest.approx(result.energy_per_op_pj * delay / 1000)

    def test_edp_validation(self):
        with pytest.raises(ValueError):
            synthesize_design("calm").energy_delay_product(0)
