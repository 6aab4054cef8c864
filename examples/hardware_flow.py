#!/usr/bin/env python3
"""The gate-level side: build, simulate, and cost a REALM netlist.

Walks the EDA substrate end to end: generate the Fig. 3 datapath as a
netlist, prove it bit-equivalent to the functional model, estimate its
switching power under the paper's conditions (1 GHz, 25% toggle, 50%
probability), and compare against the accurate Wallace multiplier — the
Table I "design metrics" flow in miniature.

Run:  python examples/hardware_flow.py
"""

import numpy as np

from repro.circuits.realm_rtl import realm_netlist
from repro.circuits.wallace import wallace_netlist
from repro.core.realm import RealmMultiplier
from repro.kernels import compile_netlist
from repro.synth.cost import synthesize

# ----------------------------------------------------------------------
# 1. Generate the Fig. 3 datapath.
# ----------------------------------------------------------------------
netlist = realm_netlist(bitwidth=16, m=8, t=4)
print(f"{netlist.name}: {netlist.gate_count} gates, depth {netlist.depth()}")
print("cell mix:", dict(netlist.cell_histogram()))

# ----------------------------------------------------------------------
# 2. Prove it against the functional model (the library does this for
#    every design in its test suite), on the bit-parallel netlist kernel.
# ----------------------------------------------------------------------
rng = np.random.default_rng(1)
a = rng.integers(0, 1 << 16, 5000)
b = rng.integers(0, 1 << 16, 5000)
kernel = compile_netlist(netlist)
hardware = kernel.evaluate_words([netlist.inputs[:16], netlist.inputs[16:]], [a, b])
model = RealmMultiplier(bitwidth=16, m=8, t=4).multiply(a, b)
assert np.array_equal(hardware, model)
print(f"\nnetlist == functional model on {len(a)} random vectors: OK")

# ----------------------------------------------------------------------
# 3. Cost it against the accurate multiplier (Table I's normalization).
# ----------------------------------------------------------------------
realm_cost = synthesize(netlist)
accurate = wallace_netlist(16)
accurate.prune()
accurate_cost = synthesize(accurate)

area_reduction, power_reduction = realm_cost.reductions(accurate_cost)
print(f"\naccurate Wallace: {accurate_cost.area_um2:7.1f} um^2  {accurate_cost.power_uw:6.1f} uW")
print(f"REALM8 (t=4):     {realm_cost.area_um2:7.1f} um^2  {realm_cost.power_uw:6.1f} uW")
print(f"reduction:        area {area_reduction:.1f}%   power {power_reduction:.1f}%")

# ----------------------------------------------------------------------
# 4. The truncation knob as a hardware lever.
# ----------------------------------------------------------------------
print("\ntruncation sweep (M=8):")
for t in (0, 3, 6, 9):
    cost = synthesize(realm_netlist(16, m=8, t=t))
    print(
        f"  t={t}:  {cost.gate_count:4d} gates  {cost.area_um2:7.1f} um^2  "
        f"{cost.power_uw:6.1f} uW"
    )
