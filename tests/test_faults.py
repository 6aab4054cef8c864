"""Tests for stuck-at fault injection and coverage."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.wallace import wallace_netlist
from repro.kernels.netlist import compile_netlist
from repro.logic.faults import Fault, fault_coverage, fault_impact, fault_sites
from repro.logic.netlist import Netlist


def _and_netlist():
    nl = Netlist("t")
    a, b = nl.new_input("a"), nl.new_input("b")
    out = nl.add("AND2", a, b)
    nl.set_outputs([out])
    return nl, a, b, out


class TestInjection:
    """Faults forced into the netlist kernel's program."""

    def test_stuck_output(self):
        nl, a, b, out = _and_netlist()
        kernel = compile_netlist(nl).with_faults([Fault(out, False)])
        got = kernel.evaluate_words([[a], [b]], [np.array([1]), np.array([1])])
        assert got.tolist() == [0]

    def test_stuck_input(self):
        nl, a, b, out = _and_netlist()
        kernel = compile_netlist(nl).with_faults([Fault(a, True)])
        got = kernel.evaluate_words([[a], [b]], [np.array([0]), np.array([1])])
        assert got.tolist() == [1]  # a forced high -> AND goes high

    def test_no_faults_is_plain_simulation(self):
        nl, a, b, out = _and_netlist()
        kernel = compile_netlist(nl)
        plain = kernel.with_faults([])
        assert plain.step_count == kernel.step_count
        got = plain.evaluate_words([[a], [b]], [np.array([1, 0]), np.array([1, 1])])
        assert got.tolist() == [1, 0]

    def test_last_fault_on_a_net_wins(self):
        nl, a, b, out = _and_netlist()
        kernel = compile_netlist(nl).with_faults([Fault(out, True), Fault(out, False)])
        got = kernel.evaluate_words([[a], [b]], [np.array([1]), np.array([1])])
        assert got.tolist() == [0]

    def test_fault_on_an_undriven_net_rejected(self):
        nl, *_ = _and_netlist()
        with pytest.raises(ValueError, match="neither inputs nor gate outputs"):
            compile_netlist(nl).with_faults([Fault(99, True)])

    def test_fault_str(self):
        assert str(Fault(7, True)) == "net7/SA1"


class TestSites:
    def test_counts(self):
        nl, *_ = _and_netlist()
        sites = fault_sites(nl)
        # 2 inputs + 1 gate output, both polarities
        assert len(sites) == 6


class TestImpact:
    def test_detected_fault(self):
        nl, a, b, out = _and_netlist()
        vectors = [np.array([1, 1, 0, 0]), np.array([1, 0, 1, 0])]
        impact = fault_impact(nl, [[a], [b]], vectors, Fault(out, True))
        # AND is 1 only for (1,1): SA1 on the output flips 3 of 4 vectors
        assert impact.detection_rate == pytest.approx(0.75)

    def test_benign_fault(self):
        nl, a, b, out = _and_netlist()
        vectors = [np.array([1]), np.array([1])]
        impact = fault_impact(nl, [[a], [b]], vectors, Fault(out, True))
        assert impact.detection_rate == 0.0

    def test_relative_error_reported(self):
        nl = wallace_netlist(4)
        nl.prune()
        top_output = nl.outputs[-1]
        rng = np.random.default_rng(111)
        a = rng.integers(1, 16, 64)
        b = rng.integers(1, 16, 64)
        impact = fault_impact(
            nl, [nl.inputs[:4], nl.inputs[4:]], [a, b], Fault(top_output, True)
        )
        # forcing the MSB of the product high is a large relative error
        assert impact.mean_relative_error > 0.5


class TestCoverage:
    def test_rich_vectors_cover_multiplier(self):
        nl = wallace_netlist(4)
        nl.prune()
        rng = np.random.default_rng(112)
        a = rng.integers(0, 16, 128)
        b = rng.integers(0, 16, 128)
        coverage = fault_coverage(nl, [nl.inputs[:4], nl.inputs[4:]], [a, b])
        assert coverage > 0.95

    def test_single_vector_covers_little(self):
        nl = wallace_netlist(4)
        nl.prune()
        coverage = fault_coverage(
            nl, [nl.inputs[:4], nl.inputs[4:]], [np.array([0]), np.array([0])]
        )
        # a*0: most internal faults are masked
        assert coverage < 0.5

    def test_subset_of_faults(self):
        nl, a, b, out = _and_netlist()
        vectors = [np.array([1, 0]), np.array([1, 1])]
        coverage = fault_coverage(
            nl, [[a], [b]], vectors, faults=[Fault(out, True), Fault(out, False)]
        )
        assert coverage == pytest.approx(1.0)

    def test_empty_fault_list(self):
        nl, a, b, _ = _and_netlist()
        assert fault_coverage(nl, [[a], [b]], [np.array([1]), np.array([1])], faults=[]) == 1.0


class TestRealmCampaign:
    """Stuck-at campaign on the synthesized REALM datapath itself.

    The generic machinery above exercises toy netlists and the Wallace
    reference; this campaign runs against ``realm_netlist`` — the RTL
    this paper is about — ranking sites by error impact the way a test
    engineer would pick scan-pattern targets.
    """

    @pytest.fixture(scope="class")
    def campaign(self):
        from repro.circuits.realm_rtl import realm_netlist

        nl = realm_netlist(8, m=4, t=0)
        nl.prune()
        rng = np.random.default_rng(113)
        vectors = [rng.integers(1, 256, 96), rng.integers(1, 256, 96)]
        groups = [nl.inputs[:8], nl.inputs[8:]]
        return nl, groups, vectors

    def test_random_vectors_cover_realm(self, campaign):
        nl, groups, vectors = campaign
        assert fault_coverage(nl, groups, vectors) > 0.9

    def test_impact_ranking_finds_critical_sites(self, campaign):
        nl, groups, vectors = campaign
        sites = fault_sites(nl)
        assert len(sites) > 100  # both polarities on every net
        impacts = sorted(
            (fault_impact(nl, groups, vectors, fault) for fault in sites),
            key=lambda impact: impact.mean_relative_error,
            reverse=True,
        )
        top, bottom = impacts[0], impacts[-1]
        # the worst site corrupts the product badly and is easy to detect;
        # the tail of the ranking is near-benign
        assert top.mean_relative_error > 0.5
        assert top.detection_rate > 0.3
        assert bottom.mean_relative_error < 0.01

    def test_a_fault_sample_compiles_once(self, campaign, monkeypatch):
        from repro.logic import faults

        nl, groups, vectors = campaign
        compiles = []
        compile_once = faults.compile_netlist
        monkeypatch.setattr(
            faults,
            "compile_netlist",
            lambda netlist: compiles.append(netlist) or compile_once(netlist),
        )
        sample = fault_sites(nl)[::7]
        impacts = faults.fault_impacts(nl, groups, vectors, sample)
        assert len(compiles) == 1
        # the same impacts as each fault evaluated on its own
        assert impacts == [fault_impact(nl, groups, vectors, fault) for fault in sample]

    def test_output_msb_fault_dominates(self, campaign):
        nl, groups, vectors = campaign
        msb = Fault(nl.outputs[-1], True)
        impact = fault_impact(nl, groups, vectors, msb)
        # forcing the product MSB high is catastrophic in relative terms
        assert impact.mean_relative_error > 0.5
        assert impact.detection_rate > 0.5
