"""Tests for static timing analysis and the synthesis report."""

from __future__ import annotations

import pytest

from repro.circuits.catalog import netlist_for
from repro.circuits.realm_rtl import realm_netlist
from repro.logic.netlist import Netlist
from repro.synth import cost
from repro.synth.report import design_report
from repro.synth.timing import CELL_DELAY_PS, analyze_timing


class TestTiming:
    def test_single_gate(self):
        nl = Netlist("t")
        a, b = nl.new_input("a"), nl.new_input("b")
        nl.set_outputs([nl.add("AND2", a, b)])
        report = analyze_timing(nl)
        assert report.critical_path_ps == pytest.approx(CELL_DELAY_PS["AND2"])
        assert report.levels == 1
        assert report.critical_path_cells == ("AND2",)
        assert report.meets_timing

    def test_chain_accumulates(self):
        nl = Netlist("t")
        a = nl.new_input("a")
        signal = a
        for index in range(10):
            # alternate inputs to defeat the same-input folding
            other = nl.new_input(f"b{index}")
            signal = nl.add("XOR2", signal, other)
        nl.set_outputs([signal])
        report = analyze_timing(nl)
        assert report.levels == 10
        assert report.critical_path_ps == pytest.approx(10 * CELL_DELAY_PS["XOR2"])

    def test_wallace_violates_1ghz_unit_sized(self):
        # the DESIGN.md discussion: the deep accurate multiplier cannot
        # meet 1 GHz without sizing, which is where the paper's area
        # reference gets its extra weight
        report = analyze_timing(netlist_for("accurate"))
        assert not report.meets_timing
        assert report.max_frequency_ghz < 1.0

    def test_truncation_shortens_realm_path(self):
        slow = analyze_timing(realm_netlist(16, m=8, t=0))
        fast = analyze_timing(realm_netlist(16, m=8, t=9))
        assert fast.critical_path_ps < slow.critical_path_ps

    def test_empty_netlist(self):
        nl = Netlist("t")
        a = nl.new_input("a")
        nl.set_outputs([a])
        report = analyze_timing(nl)
        assert report.critical_path_ps == 0.0
        assert report.max_frequency_ghz == float("inf")

    def test_invalid_clock(self):
        nl = Netlist("t")
        a = nl.new_input("a")
        nl.set_outputs([a])
        with pytest.raises(ValueError):
            analyze_timing(nl, clock_ps=0)

    def test_path_trace_consistent(self):
        report = analyze_timing(netlist_for("calm"))
        assert len(report.critical_path_cells) == report.levels
        total = sum(CELL_DELAY_PS[c] for c in report.critical_path_cells)
        assert total == pytest.approx(report.critical_path_ps)


class TestDesignReport:
    def test_contains_all_sections(self):
        text = design_report(realm_netlist(16, m=4, t=2))
        for marker in ("Design:", "Area", "Power", "Timing", "critical path"):
            assert marker in text

    def test_one_power_estimate(self, monkeypatch):
        netlist = netlist_for("calm")
        first = design_report(netlist)  # calibrates the cost model
        estimates = []
        estimate = cost.estimate_power
        monkeypatch.setattr(
            cost,
            "estimate_power",
            lambda *args, **kwargs: estimates.append(1) or estimate(*args, **kwargs),
        )
        assert design_report(netlist) == first
        assert len(estimates) == 1

    def test_cell_shares_sum_sensibly(self):
        text = design_report(netlist_for("ssm-m8"))
        shares = [
            float(line.split("%")[0].split()[-1])
            for line in text.splitlines()
            if "% of cell area" in line
        ]
        assert sum(shares) == pytest.approx(100.0, abs=1.0)
