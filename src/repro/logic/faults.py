"""Stuck-at fault injection, impact analysis, and test coverage.

Two reasons this lives in an approximate-arithmetic library:

* **test coverage** — the classic single-stuck-at metric: what fraction
  of faults does a vector set detect?  Used to sanity-check that the
  equivalence-test vectors actually exercise the datapaths.
* **graceful degradation** — approximate-computing folklore says that
  error-tolerant datapaths also tolerate hardware faults better than
  exact ones; the fault-impact histogram (how much does a random stuck-at
  move the output?) makes that measurable per design
  (``bench_ablation_faults``).

Faults are expressed as ``(net, stuck_value)`` pairs and injected into
the kernel's program (``NetlistKernel.with_faults``) — the netlist
itself is never modified.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..kernels.netlist import compile_netlist
from .netlist import Netlist

__all__ = [
    "Fault",
    "fault_sites",
    "fault_impact",
    "fault_impacts",
    "fault_coverage",
]


@dataclasses.dataclass(frozen=True)
class Fault:
    """A single stuck-at fault on a net."""

    net: int
    stuck_value: bool

    def __str__(self) -> str:
        return f"net{self.net}/SA{int(self.stuck_value)}"


def fault_sites(netlist: Netlist) -> list[Fault]:
    """Both polarities on every signal net (inputs + gate outputs)."""
    nets = list(netlist.inputs) + [gate.output for gate in netlist.gates]
    return [Fault(net, value) for net in nets for value in (False, True)]


@dataclasses.dataclass(frozen=True)
class FaultImpact:
    """Output damage of one fault over a vector set."""

    fault: Fault
    detection_rate: float  # fraction of vectors with any output change
    mean_relative_error: float  # vs golden outputs, zero-golden skipped


def fault_impacts(
    netlist: Netlist,
    operand_buses,
    operand_values,
    faults: list[Fault],
) -> list[FaultImpact]:
    """How each stuck-at fault alone moves the outputs over a vector set.

    The netlist is compiled and its fault-free outputs computed once for
    the whole list.
    """
    kernel = compile_netlist(netlist)
    golden = kernel.evaluate_words(operand_buses, operand_values)
    nonzero = golden != 0
    impacts = []
    for fault in faults:
        faulty = kernel.with_faults([fault]).evaluate_words(operand_buses, operand_values)
        if np.any(nonzero):
            relative = np.abs(faulty[nonzero] - golden[nonzero]) / golden[nonzero]
            mean_relative = float(relative.mean())
        else:
            mean_relative = 0.0
        impacts.append(
            FaultImpact(
                fault=fault,
                detection_rate=float((faulty != golden).mean()),
                mean_relative_error=mean_relative,
            )
        )
    return impacts


def fault_impact(
    netlist: Netlist,
    operand_buses,
    operand_values,
    fault: Fault,
) -> FaultImpact:
    """How one stuck-at fault moves the outputs over a vector set."""
    return fault_impacts(netlist, operand_buses, operand_values, [fault])[0]


def fault_coverage(
    netlist: Netlist,
    operand_buses,
    operand_values,
    faults: list[Fault] | None = None,
) -> float:
    """Single-stuck-at coverage of a vector set (detected / total).

    A fault is detected when at least one vector makes any output differ
    from the golden response — the standard ATPG metric.
    """
    faults = faults if faults is not None else fault_sites(netlist)
    if not faults:
        return 1.0
    impacts = fault_impacts(netlist, operand_buses, operand_values, faults)
    return sum(impact.detection_rate > 0 for impact in impacts) / len(faults)
