"""Ablations on the factor derivation itself.

Two studies around the paper's mathematical formulation:

* **REALM(M=1) vs MBM** — the paper argues (Section II) that its
  relative-error objective is the right one and that MBM's single
  absolute-error correction is the degenerate case.  With one segment,
  REALM's factor (0.0801) and MBM's (1/12 = 0.0833) even quantize to the
  same q=6 code, making the two designs product-identical — measured here.
* **mean vs MSE objective** — the paper's future-work variant (our
  Eq. 8 modified for mean square error): per-segment least-squares
  factors trade a little bias for lower RMS error.  Run at q = 10,
  where the two objectives' LUT codes differ for every M measured.
"""

from __future__ import annotations

import numpy as np
from conftest import BENCH_SAMPLES, run_once

from repro.analysis.montecarlo import characterize
from repro.core.realm import RealmMultiplier
from repro.experiments import format_table
from repro.multipliers.mbm import MbmMultiplier

#: LUT precision of the objective ablation
OBJECTIVE_Q = 10


def test_ablation_m1_vs_mbm(benchmark, record_result):
    def measure():
        return {
            "REALM(M=1)": characterize(
                RealmMultiplier(m=1, t=0), samples=BENCH_SAMPLES
            ),
            "MBM(t=0)": characterize(MbmMultiplier(t=0), samples=BENCH_SAMPLES),
            "cALM-equiv": characterize(
                RealmMultiplier(m=1, t=0, q=20), samples=BENCH_SAMPLES
            ),
        }

    results = run_once(benchmark, measure)
    rows = [
        (name, f"{m.bias:+.3f}", f"{m.mean_error:.3f}", f"{m.variance:.2f}")
        for name, m in results.items()
    ]
    record_result(
        "ablation_m1_vs_mbm", format_table(["design", "bias%", "ME%", "var"], rows)
    )
    # at q=6 the quantized corrections coincide -> identical metrics
    assert results["REALM(M=1)"] == results["MBM(t=0)"]


def test_ablation_mean_vs_mse_objective(benchmark, record_result):
    # at the paper's q = 6 both objectives quantize to the same LUT codes
    # for every M here (and at q = 8 still for M = 16); q = 10 is the
    # first precision at which all three pairs differ
    designs = {
        (m, objective): RealmMultiplier(m=m, t=0, q=OBJECTIVE_Q, objective=objective)
        for m in (4, 8, 16)
        for objective in ("mean", "mse")
    }
    for m in (4, 8, 16):
        assert not np.array_equal(
            designs[(m, "mean")].lut_codes, designs[(m, "mse")].lut_codes
        )

    def measure():
        return {
            key: characterize(realm, samples=BENCH_SAMPLES)
            for key, realm in designs.items()
        }

    results = run_once(benchmark, measure)
    rows = [
        (
            f"REALM{m} q={OBJECTIVE_Q} ({objective})",
            f"{metrics.bias:+.3f}",
            f"{metrics.mean_error:.3f}",
            f"{metrics.rms:.3f}",
            f"{metrics.peak_min:.2f}",
            f"{metrics.peak_max:.2f}",
        )
        for (m, objective), metrics in results.items()
    ]
    record_result(
        "ablation_objectives",
        format_table(["design", "bias%", "ME%", "RMS%", "min%", "max%"], rows),
    )
    # the MSE factors must not be worse in RMS terms (they optimize it);
    # quantization can blur the tiny M=16 gap, hence the epsilon
    for m in (4, 8, 16):
        assert results[(m, "mse")].rms <= results[(m, "mean")].rms * 1.02
