"""Tests for pipelining: cuts, cost, and cycle-accurate equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.realm_rtl import realm_netlist
from repro.circuits.wallace import wallace_netlist
from repro.kernels.netlist import NetlistKernel
from repro.logic.netlist import Netlist
from repro.logic.pipeline import (
    pipeline_cuts,
    pipeline_netlist,
    simulate_pipeline,
)
from repro.logic.sim import evaluate_words
from repro.synth.timing import analyze_timing


class TestCuts:
    def test_single_stage_is_identity(self):
        netlist = wallace_netlist(6)
        netlist.prune()
        assert pipeline_cuts(netlist, 1) == [0] * netlist.gate_count

    def test_stages_respect_dependencies(self):
        netlist = wallace_netlist(8)
        netlist.prune()
        assignment = pipeline_cuts(netlist, 4)
        stage_of_net = {}
        for gate, stage in zip(netlist.gates, assignment):
            for i in gate.inputs:
                assert stage_of_net.get(i, 0) <= stage
            stage_of_net[gate.output] = stage

    def test_all_stages_used(self):
        netlist = wallace_netlist(8)
        netlist.prune()
        assignment = pipeline_cuts(netlist, 3)
        assert set(assignment) == {0, 1, 2}

    def test_invalid_stage_count(self):
        netlist = wallace_netlist(4)
        netlist.prune()
        with pytest.raises(ValueError):
            pipeline_cuts(netlist, 0)


class TestCostAndTiming:
    def test_pipelining_raises_throughput(self):
        netlist = wallace_netlist(16)
        netlist.prune()
        combinational = analyze_timing(netlist).critical_path_ps
        pipe = pipeline_netlist(netlist, 4)
        assert max(pipe.stage_delays()) < combinational / 2
        assert pipe.throughput_ghz > 1000.0 / combinational

    def test_register_cost_grows_with_stages(self):
        netlist = realm_netlist(16, m=8, t=0)
        two = pipeline_netlist(netlist, 2)
        four = pipeline_netlist(netlist, 4)
        assert four.register_count > two.register_count
        assert four.register_area > two.register_area

    def test_deep_pipeline_meets_1ghz(self):
        # the alternative to sizing: the accurate multiplier closes 1 GHz
        # with a few pipeline stages
        netlist = wallace_netlist(16)
        netlist.prune()
        pipe = pipeline_netlist(netlist, 4)
        assert pipe.clock_ps < 1000.0

    def test_latency(self):
        netlist = wallace_netlist(8)
        netlist.prune()
        assert pipeline_netlist(netlist, 3).latency_cycles == 2

    def test_repr(self):
        netlist = wallace_netlist(4)
        netlist.prune()
        assert "stages" in repr(pipeline_netlist(netlist, 2))


class TestCycleAccurateSimulation:
    @pytest.mark.parametrize("stages", [1, 2, 3, 4])
    def test_matches_combinational_with_latency(self, stages):
        netlist = wallace_netlist(6)
        netlist.prune()
        pipe = pipeline_netlist(netlist, stages)
        rng = np.random.default_rng(81)
        cycles = 24
        a = rng.integers(0, 64, cycles)
        b = rng.integers(0, 64, cycles)
        buses = [netlist.inputs[:6], netlist.inputs[6:]]

        streamed = simulate_pipeline(pipe, buses, [a, b])
        reference = evaluate_words(netlist, buses, [a, b])
        latency = pipe.latency_cycles
        usable = cycles - latency
        assert np.array_equal(streamed[latency:], reference[:usable])

    def test_realm_datapath_pipelines(self):
        netlist = realm_netlist(8, m=4, t=0)
        pipe = pipeline_netlist(netlist, 3)
        rng = np.random.default_rng(82)
        cycles = 16
        a = rng.integers(0, 256, cycles)
        b = rng.integers(0, 256, cycles)
        buses = [netlist.inputs[:8], netlist.inputs[8:]]
        streamed = simulate_pipeline(pipe, buses, [a, b])
        reference = evaluate_words(netlist, buses, [a, b])
        latency = pipe.latency_cycles
        assert np.array_equal(streamed[latency:], reference[: cycles - latency])

    def test_one_result_per_cycle(self):
        # full throughput: distinct operands every cycle yield distinct
        # results every cycle after the fill latency
        netlist = wallace_netlist(4)
        netlist.prune()
        pipe = pipeline_netlist(netlist, 2)
        a = np.arange(1, 11)
        b = np.full(10, 3)
        buses = [netlist.inputs[:4], netlist.inputs[4:]]
        streamed = simulate_pipeline(pipe, buses, [a, b])
        assert streamed[pipe.latency_cycles :].tolist() == [
            v * 3 for v in range(1, 10 + 1 - pipe.latency_cycles)
        ]


class TestPipelinePower:
    def test_registers_add_power(self):
        netlist = wallace_netlist(8)
        netlist.prune()
        from repro.logic.activity import estimate_power

        combinational = estimate_power(netlist, vectors=1024)
        pipe = pipeline_netlist(netlist, 3)
        piped = pipe.estimate_power(vectors=1024)
        assert piped.dynamic_uw > combinational.dynamic_uw
        assert piped.leakage_uw > combinational.leakage_uw

    def test_single_stage_adds_nothing(self):
        netlist = wallace_netlist(8)
        netlist.prune()
        from repro.logic.activity import estimate_power

        pipe = pipeline_netlist(netlist, 1)
        assert (
            pipe.estimate_power(vectors=512).dynamic_uw
            == estimate_power(netlist, vectors=512).dynamic_uw
        )

    @pytest.mark.parametrize("stages", [1, 3])
    def test_one_kernel_run_per_estimate(self, monkeypatch, stages):
        # the registers' toggle rates come from the combinational run
        runs = []
        run = NetlistKernel._run
        monkeypatch.setattr(
            NetlistKernel, "_run", lambda *args: runs.append(1) or run(*args)
        )
        netlist = wallace_netlist(8)
        netlist.prune()
        pipe = pipeline_netlist(netlist, stages)
        pipe.estimate_power(vectors=512)
        assert len(runs) == 1

    def test_more_stages_more_register_power(self):
        netlist = wallace_netlist(8)
        netlist.prune()
        two = pipeline_netlist(netlist, 2).estimate_power(vectors=512)
        five = pipeline_netlist(netlist, 5).estimate_power(vectors=512)
        assert five.dynamic_uw > two.dynamic_uw
