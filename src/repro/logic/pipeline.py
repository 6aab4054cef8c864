"""Pipelining: register insertion, cycle-accurate simulation, throughput.

The paper's multipliers are single-cycle combinational blocks behind I/O
registers; at 1 GHz the deep ones only close timing after heavy sizing.
The other classical answer is pipelining, and this module provides it:

* :func:`pipeline_cuts` slices a combinational netlist into ``stages``
  delay-balanced stages (cuts chosen on the static-timing arrival times);
* :class:`PipelinedNetlist` holds the stage structure plus the pipeline
  registers on every cut net, knows its own cost (register area/power
  overhead) and timing (clock = slowest stage + register overhead);
* :func:`simulate_pipeline` runs it cycle-accurately: results appear
  ``stages - 1`` cycles after their operands, one result per cycle —
  verified bit-exact against the combinational netlist by the tests.

Register cost uses a 45 nm-class DFF (area/energy in
:data:`REGISTER_AREA`/``REGISTER_ENERGY``); timing adds the usual
clk-to-q + setup margin per stage.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .activity import ActivityReport, estimate_power
from .netlist import CONST0, CONST1, Netlist
from .sim import bus_to_int, int_to_bus
from ..synth.timing import CELL_DELAY_PS

__all__ = [
    "PipelinedNetlist",
    "pipeline_cuts",
    "pipeline_netlist",
    "simulate_pipeline",
    "REGISTER_AREA",
    "REGISTER_ENERGY",
    "REGISTER_OVERHEAD_PS",
]

#: 45 nm-class DFF cell: area in um^2, switching energy in fJ
REGISTER_AREA = 4.522
REGISTER_ENERGY = 8.6
#: clk-to-q plus setup margin charged per pipeline stage, in ps
REGISTER_OVERHEAD_PS = 95.0


def _arrival_times(netlist: Netlist) -> dict[int, float]:
    arrival: dict[int, float] = {CONST0: 0.0, CONST1: 0.0}
    for net in netlist.inputs:
        arrival[net] = 0.0
    for gate in netlist.gates:
        delay = CELL_DELAY_PS[gate.cell.name]
        arrival[gate.output] = delay + max(arrival[i] for i in gate.inputs)
    return arrival


def pipeline_cuts(netlist: Netlist, stages: int) -> list[int]:
    """Assign every gate to a stage (0-based), balancing stage delay.

    Gates are placed by their arrival time into equal slices of the
    critical path; a gate never lands in an earlier stage than any of its
    fan-in gates, so every cut is a legal retiming boundary.
    """
    if stages < 1:
        raise ValueError(f"stages must be >= 1, got {stages}")
    arrival = _arrival_times(netlist)
    critical = max(
        (arrival[gate.output] for gate in netlist.gates), default=0.0
    )
    if critical == 0.0:
        return [0] * netlist.gate_count
    slice_width = critical / stages
    assignment: list[int] = []
    stage_of_net: dict[int, int] = {}
    for gate in netlist.gates:
        by_time = min(int((arrival[gate.output] - 1e-9) / slice_width), stages - 1)
        by_deps = max(
            (stage_of_net.get(i, 0) for i in gate.inputs), default=0
        )
        stage = max(by_time, by_deps)
        assignment.append(stage)
        stage_of_net[gate.output] = stage
    return assignment


@dataclasses.dataclass
class PipelinedNetlist:
    """A combinational netlist cut into register-separated stages."""

    netlist: Netlist
    stages: int
    assignment: list[int]  # gate index -> stage
    registered_nets: list[set[int]]  # per cut: nets registered at that cut

    @property
    def register_count(self) -> int:
        return sum(len(nets) for nets in self.registered_nets)

    @property
    def register_area(self) -> float:
        return self.register_count * REGISTER_AREA

    def stage_delays(self) -> list[float]:
        """Pure combinational delay of each stage in ps."""
        starts: dict[int, float] = {CONST0: 0.0, CONST1: 0.0}
        for net in self.netlist.inputs:
            starts[net] = 0.0
        delays = [0.0] * self.stages
        local: dict[int, float] = dict(starts)
        stage_of_net: dict[int, int] = {}
        for gate, stage in zip(self.netlist.gates, self.assignment):
            arrivals = []
            for i in gate.inputs:
                if stage_of_net.get(i, 0) < stage or i in starts:
                    arrivals.append(0.0)  # comes from a register or input
                else:
                    arrivals.append(local[i])
            t = CELL_DELAY_PS[gate.cell.name] + max(arrivals, default=0.0)
            local[gate.output] = t
            stage_of_net[gate.output] = stage
            delays[stage] = max(delays[stage], t)
        return delays

    @property
    def clock_ps(self) -> float:
        """Minimum clock period: slowest stage plus register overhead."""
        return max(self.stage_delays(), default=0.0) + REGISTER_OVERHEAD_PS

    @property
    def throughput_ghz(self) -> float:
        return 1000.0 / self.clock_ps

    @property
    def latency_cycles(self) -> int:
        return self.stages - 1

    def estimate_power(
        self, vectors: int = 4096, seed: int = 45, clock_hz: float = 1e9
    ):
        """Total power including the pipeline registers.

        Combinational power comes from the usual activity estimate of the
        underlying netlist; each register adds clock-pin switching every
        cycle plus data-dependent output switching at the registered
        net's own toggle rate, read from the same kernel run.  Returns an
        :class:`~repro.logic.activity.ActivityReport`.
        """
        base = estimate_power(
            self.netlist, vectors=vectors, seed=seed, clock_hz=clock_hz
        )
        if self.register_count == 0:
            return base
        register_fj = 0.0
        for nets in self.registered_nets:
            for net in nets:
                rate = float(base.toggle_rates[net])
                # clock pin toggles every cycle (~40% of DFF energy) plus
                # data-dependent Q switching
                register_fj += REGISTER_ENERGY * (0.4 + 0.6 * rate)
        register_uw = register_fj * clock_hz * 1e-9
        return ActivityReport(
            dynamic_uw=base.dynamic_uw + register_uw,
            leakage_uw=base.leakage_uw + self.register_count * 0.08,
            mean_toggle_rate=base.mean_toggle_rate,
            vectors=vectors,
            toggle_rates=base.toggle_rates,
        )

    def __repr__(self) -> str:
        return (
            f"<PipelinedNetlist {self.netlist.name!r} x{self.stages} stages, "
            f"{self.register_count} regs, clock {self.clock_ps:.0f} ps>"
        )


def pipeline_netlist(netlist: Netlist, stages: int) -> PipelinedNetlist:
    """Cut a combinational netlist into a pipeline.

    A net is registered at cut ``k`` (between stage ``k`` and ``k+1``)
    when it is produced in a stage ``<= k`` (or is a primary input) and
    consumed in a stage ``> k`` — every crossing gets exactly one
    register per cut, matching how a retiming tool charges registers.
    """
    assignment = pipeline_cuts(netlist, stages)
    stage_of_net: dict[int, int] = {}
    for gate, stage in zip(netlist.gates, assignment):
        stage_of_net[gate.output] = stage

    consumers: dict[int, int] = {}
    for gate, stage in zip(netlist.gates, assignment):
        for i in gate.inputs:
            consumers[i] = max(consumers.get(i, 0), stage)
    for net in netlist.outputs:
        consumers[net] = stages - 1

    registered: list[set[int]] = [set() for _ in range(max(stages - 1, 0))]
    for net, last_use in consumers.items():
        if net in (CONST0, CONST1):
            continue
        born = stage_of_net.get(net, 0)  # inputs are born in stage 0
        for cut in range(born, last_use):
            registered[cut].add(net)
    return PipelinedNetlist(netlist, stages, assignment, registered)


def simulate_pipeline(
    pipe: PipelinedNetlist, operand_buses: list[list[int]], operand_values
) -> np.ndarray:
    """Cycle-accurate simulation of the pipelined design.

    ``operand_values`` are per-bus integer arrays of T cycles; the return
    value is the output bus per cycle, with the first
    ``latency_cycles`` entries produced from pipeline bubbles (zeros fed
    in before cycle 0).  The tests check that entry ``t + latency`` equals
    the combinational result of the cycle-``t`` operands.
    """
    netlist = pipe.netlist
    values = [np.asarray(v, dtype=np.int64) for v in operand_values]
    cycles = len(values[0])
    last = pipe.stages - 1

    stage_of_net: dict[int, int] = {}
    for gate, stage in zip(netlist.gates, pipe.assignment):
        stage_of_net[gate.output] = stage

    # pipeline registers: one boolean vector per cut, batch dimension = 1
    register_state: list[dict[int, bool]] = [
        {net: False for net in nets} for nets in pipe.registered_nets
    ]
    outputs = np.zeros(cycles, dtype=np.int64)

    for cycle in range(cycles):
        stimulus: dict[int, bool] = {}
        for bus, vals in zip(operand_buses, values):
            bits = int_to_bus(np.array([vals[cycle]]), len(bus))[0]
            for position, net in enumerate(bus):
                stimulus[net] = bool(bits[position])

        wire: dict[int, bool] = dict(stimulus)

        def read(net: int, consumer_stage: int) -> bool:
            """Value of ``net`` as seen by logic in ``consumer_stage``."""
            if net == CONST0:
                return False
            if net == CONST1:
                return True
            born = stage_of_net.get(net, 0)  # primary inputs are born at 0
            if consumer_stage == 0 or (
                born == consumer_stage and net in stage_of_net
            ):
                return wire[net]  # same-stage wire (or stage-0 stimulus)
            # crossing nets are registered at every cut they span; the
            # consumer reads the register immediately before its stage
            return register_state[consumer_stage - 1][net]

        for gate, stage in zip(netlist.gates, pipe.assignment):
            operands = tuple(
                np.array([read(i, stage)]) for i in gate.inputs
            )
            wire[gate.output] = bool(gate.cell.evaluate(*operands)[0])

        # outputs are sampled before the clock edge, i.e. from the last
        # stage's combinational logic fed by the pre-edge registers
        bits = [read(net, last) for net in netlist.outputs]
        outputs[cycle] = int(bus_to_int(np.array([bits], dtype=bool))[0])

        # clock edge: cut c captures from cut c-1's register (shift chain)
        # when the net also crosses that cut, else from this cycle's wire
        new_state = [dict(state) for state in register_state]
        for cut in range(len(pipe.registered_nets) - 1, -1, -1):
            for net in pipe.registered_nets[cut]:
                if cut > 0 and net in pipe.registered_nets[cut - 1]:
                    new_state[cut][net] = register_state[cut - 1][net]
                else:
                    new_state[cut][net] = wire.get(net, False)
        register_state = new_state
    return outputs
