"""Human-readable synthesis reports, RTL-compiler style.

``design_report`` collects everything the flow knows about one design —
area by cell type, power split, timing, I/O widths — into a text block
shaped like the reports a commercial tool prints after synthesis.  Used by
the CLI's ``fig3`` command, the hardware example, and anyone evaluating a
configuration.
"""

from __future__ import annotations

from ..logic.netlist import Netlist
from .cost import synthesize
from .timing import analyze_timing

__all__ = ["design_report"]


def design_report(netlist: Netlist, clock_ps: float = 1000.0) -> str:
    """Area / power / timing report for one netlist."""
    result = synthesize(netlist)
    timing = analyze_timing(netlist, clock_ps)
    histogram = netlist.cell_histogram()

    lines = [
        f"Design: {netlist.name}",
        f"  ports:    {len(netlist.inputs)} in / {len(netlist.outputs)} out",
        f"  gates:    {netlist.gate_count}  (logic depth {netlist.depth()})",
        "",
        "Area (calibrated):",
        f"  total:    {result.area_um2:10.1f} um^2",
    ]
    total_raw = netlist.area() or 1.0
    for cell_name, count in histogram.most_common():
        from ..logic.cells import cell

        share = cell(cell_name).area * count / total_raw * 100.0
        lines.append(f"  {cell_name:8s} x{count:<5d} {share:5.1f}% of cell area")
    lines += [
        "",
        "Power (1 GHz, 25% toggle / 50% probability):",
        f"  total:    {result.power_uw:10.1f} uW",
        f"  mean gate toggle rate: {result.mean_toggle_rate:.3f} /cycle",
        "",
        f"Timing (clock {timing.clock_ps:.0f} ps):",
        f"  critical path: {timing.critical_path_ps:7.1f} ps over "
        f"{timing.levels} levels",
        f"  slack:         {timing.slack_ps:+7.1f} ps "
        f"({'MET' if timing.meets_timing else 'VIOLATED — needs sizing'})",
        f"  max frequency: {timing.max_frequency_ghz:.2f} GHz (unit-sized cells)",
    ]
    return "\n".join(lines)
