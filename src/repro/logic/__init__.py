"""Gate-level substrate: cells, netlists, reference simulation, activity/power."""

from .activity import ActivityReport, estimate_power, markov_stream
from .cells import CELLS, Cell, cell
from .netlist import CONST0, CONST1, Gate, Netlist
from .sim import bus_to_int, evaluate_words, int_to_bus, simulate
from .faults import Fault, fault_coverage, fault_impact, fault_impacts, fault_sites
from .pipeline import (
    PipelinedNetlist,
    pipeline_cuts,
    pipeline_netlist,
    simulate_pipeline,
)
from .serialize import check_equivalence, from_json, to_json
from .verilog import testbench, to_verilog

__all__ = [
    "ActivityReport",
    "CELLS",
    "CONST0",
    "CONST1",
    "Fault",
    "Cell",
    "Gate",
    "Netlist",
    "PipelinedNetlist",
    "bus_to_int",
    "cell",
    "estimate_power",
    "evaluate_words",
    "fault_coverage",
    "fault_impact",
    "fault_impacts",
    "fault_sites",
    "int_to_bus",
    "markov_stream",
    "check_equivalence",
    "from_json",
    "pipeline_cuts",
    "pipeline_netlist",
    "simulate",
    "simulate_pipeline",
    "testbench",
    "to_json",
    "to_verilog",
]
