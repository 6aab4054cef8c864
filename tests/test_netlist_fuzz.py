"""Property-based fuzzing of the logic substrate.

Hypothesis generates random feed-forward netlists; every generated design
must survive the substrate's full round trips — simulation vs. a direct
Python evaluation oracle, the netlist kernel's waveforms and stuck-at
faults vs. the reference simulator, JSON serialization, Verilog
re-interpretation, pruning, and pipelining — without changing function.
This is the substrate-wide contract the hand-written designs rely on.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.netlist import compile_netlist
from repro.logic.cells import CELLS
from repro.logic.faults import fault_sites
from repro.logic.netlist import CONST0, CONST1, Netlist
from repro.logic.pipeline import pipeline_netlist, simulate_pipeline
from repro.logic.serialize import from_json, to_json
from repro.logic.sim import evaluate_words, simulate

#: vector counts around the kernel's 64-vector words
LANE_COUNTS = (1, 63, 64, 65)

_CELL_NAMES = sorted(CELLS)


@st.composite
def random_netlists(draw):
    """A random DAG of 1-25 gates over 2-6 primary inputs."""
    input_count = draw(st.integers(min_value=2, max_value=6))
    gate_count = draw(st.integers(min_value=1, max_value=25))
    nl = Netlist("fuzz")
    nets = [nl.new_input(f"in{i}") for i in range(input_count)]
    nets += [CONST0, CONST1]
    plan = []  # mirror of the construction for the oracle
    for g in range(gate_count):
        cell_name = draw(st.sampled_from(_CELL_NAMES))
        arity = CELLS[cell_name].inputs
        chosen = [
            nets[draw(st.integers(min_value=0, max_value=len(nets) - 1))]
            for _ in range(arity)
        ]
        out = nl.add(cell_name, *chosen)
        plan.append((cell_name, tuple(chosen), out))
        nets.append(out)
    # outputs: a random non-empty subset of driven nets
    output_count = draw(st.integers(min_value=1, max_value=min(6, len(nets))))
    outputs = [
        nets[draw(st.integers(min_value=0, max_value=len(nets) - 1))]
        for _ in range(output_count)
    ]
    nl.set_outputs(outputs)
    return nl, plan


def _oracle(plan, inputs, stimulus):
    """Direct Python evaluation of the construction plan."""
    values = {CONST0: False, CONST1: True}
    values.update(stimulus)
    for cell_name, chosen, out in plan:
        operands = [np.array([values[i]]) for i in chosen]
        values[out] = bool(CELLS[cell_name].evaluate(*operands)[0])
    return values


@given(random_netlists(), st.integers(min_value=0, max_value=(1 << 12) - 1))
@settings(max_examples=60, deadline=None)
def test_simulation_matches_oracle(netlist_plan, pattern):
    netlist, plan = netlist_plan
    stimulus_bits = {
        net: bool((pattern >> position) & 1)
        for position, net in enumerate(netlist.inputs)
    }
    stimulus = {net: np.array([bit]) for net, bit in stimulus_bits.items()}
    waves = simulate(netlist, stimulus)
    oracle = _oracle(plan, netlist.inputs, stimulus_bits)
    for net in netlist.outputs:
        if net in (CONST0, CONST1):
            continue
        assert bool(waves[net][0]) == oracle[net]


def _unpacked(waves: np.ndarray, count: int) -> np.ndarray:
    """Kernel value matrix -> one boolean row per net, ``count`` long."""
    return np.unpackbits(waves.view(np.uint8), axis=1, bitorder="little")[
        :, :count
    ].astype(bool)


@given(random_netlists(), st.integers(min_value=0, max_value=(1 << 32) - 1))
@settings(max_examples=60, deadline=None)
def test_kernel_waveforms_match_reference(netlist_plan, seed):
    netlist, _ = netlist_plan
    kernel = compile_netlist(netlist)
    rng = np.random.default_rng(seed)
    for count in LANE_COUNTS:
        stimulus = rng.random((len(netlist.inputs), count)) < 0.5
        waves = _unpacked(kernel.waveforms(stimulus), count)
        for net, wave in simulate(netlist, dict(zip(netlist.inputs, stimulus))).items():
            assert np.array_equal(waves[net], wave), (count, net)


def _tied(netlist: Netlist, net: int, tie: int) -> Netlist:
    """A copy whose consumers (gates and outputs) of ``net`` read ``tie``."""
    document = json.loads(to_json(netlist))
    for gate in document["gates"]:
        gate["inputs"] = [tie if i == net else i for i in gate["inputs"]]
    document["outputs"] = [tie if i == net else i for i in document["outputs"]]
    return from_json(json.dumps(document))


@given(random_netlists(), st.data())
@settings(max_examples=60, deadline=None)
def test_forced_net_matches_tied_consumers(netlist_plan, data):
    netlist, _ = netlist_plan
    fault = data.draw(st.sampled_from(fault_sites(netlist)))
    tie = CONST1 if fault.stuck_value else CONST0
    faulty = compile_netlist(netlist).with_faults([fault])
    tied = _tied(netlist, fault.net, tie)
    rng = np.random.default_rng(data.draw(st.integers(0, (1 << 32) - 1)))
    for count in LANE_COUNTS:
        stimulus = rng.random((len(netlist.inputs), count)) < 0.5
        waves = _unpacked(faulty.waveforms(stimulus), count)
        assert np.all(waves[fault.net] == fault.stuck_value)
        for net, wave in simulate(tied, dict(zip(netlist.inputs, stimulus))).items():
            if net != fault.net:
                assert np.array_equal(waves[net], wave), (count, net)
        # the integer path fault_impact and fault_coverage read
        values = (stimulus << np.arange(len(netlist.inputs))[:, None]).sum(axis=0)
        assert np.array_equal(
            faulty.evaluate_words([netlist.inputs], [values]),
            evaluate_words(tied, [tied.inputs], [values]),
        )


@given(random_netlists())
@settings(max_examples=40, deadline=None)
def test_json_roundtrip_preserves_function(netlist_plan):
    netlist, _ = netlist_plan
    restored = from_json(to_json(netlist))
    rng = np.random.default_rng(17)
    stimulus = {
        net: rng.random(32) < 0.5 for net in netlist.inputs
    }
    original_waves = simulate(netlist, stimulus)
    restored_waves = simulate(restored, stimulus)
    for net in netlist.outputs:
        if net in (CONST0, CONST1):
            continue
        assert np.array_equal(original_waves[net], restored_waves[net])


@given(random_netlists())
@settings(max_examples=40, deadline=None)
def test_prune_preserves_outputs(netlist_plan):
    netlist, _ = netlist_plan
    rng = np.random.default_rng(18)
    stimulus = {net: rng.random(16) < 0.5 for net in netlist.inputs}
    before = simulate(netlist, stimulus)
    reference = {
        net: before[net]
        for net in netlist.outputs
        if net not in (CONST0, CONST1)
    }
    netlist.prune()
    after = simulate(netlist, stimulus)
    for net, expected in reference.items():
        assert np.array_equal(after[net], expected)


@given(random_netlists(), st.integers(min_value=2, max_value=4))
@settings(max_examples=25, deadline=None)
def test_pipelining_preserves_function(netlist_plan, stages):
    netlist, _ = netlist_plan
    netlist.prune()
    if not netlist.gates:
        return
    pipe = pipeline_netlist(netlist, stages)
    rng = np.random.default_rng(19)
    cycles = stages + 4
    width = len(netlist.inputs)
    values = rng.integers(0, 1 << width, cycles)
    streamed = simulate_pipeline(pipe, [netlist.inputs], [values])
    reference = evaluate_words(netlist, [netlist.inputs], [values])
    latency = pipe.latency_cycles
    assert np.array_equal(streamed[latency:], reference[: cycles - latency])
