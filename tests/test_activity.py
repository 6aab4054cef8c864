"""Tests for the switching-activity / power estimation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.catalog import netlist_for
from repro.logic.activity import estimate_power, markov_stream
from repro.logic.netlist import Netlist
from repro.logic.sim import simulate


def markov_loop(length, toggle_rate, probability, rng):
    """The chain stepped one bit at a time: the oracle of the vectorized form."""
    p01 = toggle_rate / (2.0 * (1.0 - probability))
    p10 = toggle_rate / (2.0 * probability)
    uniform = rng.random(length)
    bits = np.empty(length, dtype=bool)
    state = rng.random() < probability
    for t in range(length):
        if state:
            state = uniform[t] >= p10
        else:
            state = uniform[t] < p01
        bits[t] = state
    return bits


class TestMarkovStream:
    @pytest.mark.parametrize(
        "probability, toggle_rate",
        [
            (0.3, 0.25),  # p01 < p10
            (0.8, 0.2),  # p01 > p10
            (0.5, 0.25),  # the paper's conditions, p01 == p10
            (0.7, 0.0),  # r = 0: the state never changes
            (0.3, 0.6),  # r = 2 min(p, 1 - p): every 0 rises
            (0.5, 1.0),  # r = 2 min(p, 1 - p) at p = 1/2: it alternates
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1, 45])
    def test_matches_the_bit_serial_chain(self, probability, toggle_rate, seed):
        for length in (0, 1, 2, 4096):
            got = markov_stream(
                length, toggle_rate, probability, np.random.default_rng(seed)
            )
            want = markov_loop(
                length, toggle_rate, probability, np.random.default_rng(seed)
            )
            assert got.dtype == bool
            assert np.array_equal(got, want)

    def test_statistics(self):
        rng = np.random.default_rng(1)
        bits = markov_stream(200_000, toggle_rate=0.25, probability=0.5, rng=rng)
        assert bits.mean() == pytest.approx(0.5, abs=0.01)
        toggles = np.count_nonzero(bits[1:] != bits[:-1]) / (len(bits) - 1)
        assert toggles == pytest.approx(0.25, abs=0.01)

    def test_asymmetric_probability(self):
        rng = np.random.default_rng(2)
        bits = markov_stream(200_000, toggle_rate=0.2, probability=0.8, rng=rng)
        assert bits.mean() == pytest.approx(0.8, abs=0.01)
        toggles = np.count_nonzero(bits[1:] != bits[:-1]) / (len(bits) - 1)
        assert toggles == pytest.approx(0.2, abs=0.01)

    def test_unreachable_toggle_rate_rejected(self):
        with pytest.raises(ValueError):
            markov_stream(100, toggle_rate=0.9, probability=0.9)

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            markov_stream(100, probability=0.0)


def power_loop(netlist, vectors, seed):
    """Per-gate toggle counting on the reference simulator: the oracle of
    the kernel's popcounts and ordered sums."""
    rng = np.random.default_rng(seed)
    stimulus = {net: markov_stream(vectors, rng=rng) for net in netlist.inputs}
    waves = simulate(netlist, stimulus)
    dynamic_fj_per_cycle = leakage_nw = toggle_sum = 0.0
    for gate in netlist.gates:
        wave = waves[gate.output]
        rate = int(np.count_nonzero(wave[1:] != wave[:-1])) / (vectors - 1)
        dynamic_fj_per_cycle += gate.cell.energy * rate
        leakage_nw += gate.cell.leakage
        toggle_sum += rate
    return (
        dynamic_fj_per_cycle * 1e9 * 1e-9,
        leakage_nw * 1e-3,
        toggle_sum / max(netlist.gate_count, 1),
        vectors,
    )


class TestEstimatePower:
    @pytest.mark.parametrize("name", ["realm8-t2", "alm-soa-m3"])
    def test_matches_the_per_gate_loop(self, name):
        # 2 vectors, word boundaries and padding in the last word
        netlist = netlist_for(name, 8)
        for vectors in (2, 63, 64, 65, 100, 4097):
            report = estimate_power(netlist, vectors=vectors, seed=vectors)
            assert (
                report.dynamic_uw,
                report.leakage_uw,
                report.mean_toggle_rate,
                report.vectors,
            ) == power_loop(netlist, vectors, vectors)

    def _toy_netlist(self):
        nl = Netlist("toy")
        a, b = nl.new_input("a"), nl.new_input("b")
        nl.set_outputs([nl.add("AND2", a, b)])
        return nl

    def test_positive_components(self):
        report = estimate_power(self._toy_netlist(), vectors=512, seed=3)
        assert report.dynamic_uw > 0
        assert report.leakage_uw > 0
        assert report.total_uw == report.dynamic_uw + report.leakage_uw
        assert 0 < report.mean_toggle_rate < 1

    def test_deterministic(self):
        nl = self._toy_netlist()
        first = estimate_power(nl, vectors=512, seed=3)
        second = estimate_power(nl, vectors=512, seed=3)
        assert first == second

    def test_higher_toggle_rate_more_power(self):
        nl = self._toy_netlist()
        calm_inputs = estimate_power(nl, vectors=4096, seed=4, toggle_rate=0.1)
        busy_inputs = estimate_power(nl, vectors=4096, seed=4, toggle_rate=0.5)
        assert busy_inputs.dynamic_uw > calm_inputs.dynamic_uw

    def test_requires_two_vectors(self):
        with pytest.raises(ValueError):
            estimate_power(self._toy_netlist(), vectors=1)

    def test_bigger_netlist_more_power(self):
        from repro.circuits.wallace import wallace_netlist

        small = estimate_power(wallace_netlist(4), vectors=1024, seed=5)
        large = estimate_power(wallace_netlist(8), vectors=1024, seed=5)
        assert large.dynamic_uw > small.dynamic_uw
        assert large.leakage_uw > small.leakage_uw
