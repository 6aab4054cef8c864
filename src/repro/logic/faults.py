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


def _responses(netlist: Netlist, operand_buses, operand_values, faults):
    """The golden output words, then those under each fault alone."""
    kernel = compile_netlist(netlist)
    yield kernel.evaluate_words(operand_buses, operand_values)
    for fault in faults:
        yield kernel.with_faults([fault]).evaluate_words(operand_buses, operand_values)


@dataclasses.dataclass(frozen=True)
class FaultImpact:
    """Output damage of one fault over a vector set."""

    fault: Fault
    detection_rate: float  # fraction of vectors with any output change
    mean_relative_error: float  # vs golden outputs, zero-golden skipped


def fault_impact(
    netlist: Netlist,
    operand_buses,
    operand_values,
    fault: Fault,
) -> FaultImpact:
    """How one stuck-at fault moves the outputs over a vector set."""
    golden, faulty = _responses(netlist, operand_buses, operand_values, [fault])
    changed = faulty != golden
    nonzero = golden != 0
    if np.any(nonzero):
        relative = np.abs(faulty[nonzero] - golden[nonzero]) / golden[nonzero]
        mean_relative = float(relative.mean())
    else:
        mean_relative = 0.0
    return FaultImpact(
        fault=fault,
        detection_rate=float(changed.mean()),
        mean_relative_error=mean_relative,
    )


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
    responses = _responses(netlist, operand_buses, operand_values, faults)
    golden = next(responses)
    detected = sum(bool(np.any(faulty != golden)) for faulty in responses)
    return detected / len(faults)
