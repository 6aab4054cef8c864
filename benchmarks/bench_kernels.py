"""Compiled kernels versus interpreted evaluation, in pairs/sec.

The headline numbers of the kernel subsystem: each benchmark evaluates
one operand batch through both engines and records the measured
speedup in ``extra_info`` (the CI artifact tabulates these).  Model
kernels are expected to clear ~5x on the log families at Monte-Carlo
batch sizes, ~3x on the AM1/AM2 chunk tables and 5-9x on IntALP's
table-driven plane walk; the JPEG-shaped case times an N-d
``(..., 8, 8, 8)`` DCT product stack, which the kernels evaluate in
blocks along its leading axis.  The bit-parallel netlist
kernel clears ~5x over the per-gate simulator at fuzzing batch sizes.

Run directly (``python benchmarks/bench_kernels.py``) for a quick
wall-clock table without pytest-benchmark.
"""

from __future__ import annotations

import time

import numpy as np

from repro.circuits.catalog import netlist_for
from repro.kernels import compile_netlist, kernel_for
from repro.logic.sim import evaluate_words
from repro.multipliers.registry import build

#: Monte-Carlo-sized batch for the model kernels
MODEL_PAIRS = 1 << 19
#: fuzzing-sized batch for the gate-level engines
NETLIST_PAIRS = 1 << 15

MODEL_DESIGNS = [
    "realm16-t3", "mbm-t4", "calm", "alm-soa-m9", "drum-k6", "ssm-m9",
    "am1-nb13", "am2-nb13", "intalp-l1", "intalp-l2",
]
#: one 256x256 image's DCT products: (block rows, block cols, i, k, j)
JPEG_STACK = (32, 32, 8, 8, 8)
NETLIST_DESIGNS = ["realm16-t3", "accurate", "mbm-t4", "drum-k6"]


def _operands(seed: int, pairs, bitwidth: int = 16):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 1 << bitwidth, pairs, dtype=np.int64)
    b = rng.integers(0, 1 << bitwidth, pairs, dtype=np.int64)
    return a, b


def _time(fn, repeat: int = 3) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _record_speedup(benchmark, pairs: int, interpreted_seconds: float):
    rate = pairs / benchmark.stats["mean"]
    benchmark.extra_info["pairs_per_sec"] = round(rate)
    benchmark.extra_info["interpreted_pairs_per_sec"] = round(
        pairs / interpreted_seconds
    )
    benchmark.extra_info["speedup"] = round(
        interpreted_seconds / benchmark.stats["mean"], 2
    )


def _model_case(design: str, shape=MODEL_PAIRS):
    model = build(design, 16)
    kernel = kernel_for(model)
    a, b = _operands(11, shape)
    assert np.array_equal(kernel(a, b), model._multiply(a, b))
    return model, kernel, a, b


def _netlist_case(design: str):
    netlist = netlist_for(design, 16)
    kernel = compile_netlist(netlist)
    buses = [netlist.inputs[:16], netlist.inputs[16:]]
    a, b = _operands(13, NETLIST_PAIRS)
    assert np.array_equal(
        kernel.evaluate_words(buses, [a, b]),
        evaluate_words(netlist, buses, [a, b]),
    )
    return netlist, kernel, buses, a, b


def _bench_model(benchmark, design: str, shape=MODEL_PAIRS):
    model, kernel, a, b = _model_case(design, shape)
    interpreted = _time(lambda: model._multiply(a, b))
    benchmark(lambda: kernel(a, b))
    benchmark.extra_info["design"] = design
    benchmark.extra_info["kind"] = kernel.kind
    _record_speedup(benchmark, a.size, interpreted)


def _bench_netlist(benchmark, design: str):
    _, kernel, buses, a, b = _netlist_case(design)
    netlist = kernel.netlist
    interpreted = _time(lambda: evaluate_words(netlist, buses, [a, b]))
    benchmark(lambda: kernel.evaluate_words(buses, [a, b]))
    benchmark.extra_info["design"] = design
    benchmark.extra_info["steps"] = kernel.step_count
    benchmark.extra_info["gates"] = netlist.gate_count
    _record_speedup(benchmark, NETLIST_PAIRS, interpreted)


def test_perf_kernel_realm(benchmark):
    """REALM16: packed-table kernel vs the interpreted datapath."""
    _bench_model(benchmark, "realm16-t3")


def test_perf_kernel_mbm(benchmark):
    """MBM: packed (k, xt) table vs the interpreted datapath."""
    _bench_model(benchmark, "mbm-t4")


def test_perf_kernel_mitchell(benchmark):
    """cALM: packed log table vs the interpreted datapath."""
    _bench_model(benchmark, "calm")


def test_perf_kernel_am1(benchmark):
    """AM1: chunk OR-product tables vs the interpreted OR tree."""
    _bench_model(benchmark, "am1-nb13")


def test_perf_kernel_am2(benchmark):
    """AM2: chunk OR-product tables vs the interpreted OR tree."""
    _bench_model(benchmark, "am2-nb13")


def test_perf_kernel_intalp(benchmark):
    """IntALP L=2: table-driven plane walk vs the interpreted walk."""
    _bench_model(benchmark, "intalp-l2")


def test_perf_kernel_jpeg_stack(benchmark):
    """REALM16 on a JPEG-shaped N-d DCT product stack."""
    _bench_model(benchmark, "realm16-t3", JPEG_STACK)


def test_perf_netlist_kernel_realm(benchmark):
    """REALM16 gate-level: bit-parallel program vs per-gate simulation."""
    _bench_netlist(benchmark, "realm16-t3")


def test_perf_netlist_kernel_wallace(benchmark):
    """Accurate Wallace tree: the densest netlist in the catalog."""
    _bench_netlist(benchmark, "accurate")


def main() -> None:
    print(f"model kernels ({MODEL_PAIRS} pairs; jpeg-stack {JPEG_STACK}):")
    cases = [(design, design, MODEL_PAIRS) for design in MODEL_DESIGNS]
    cases.append(("jpeg-stack", "realm16-t3", JPEG_STACK))
    for label, design, shape in cases:
        model, kernel, a, b = _model_case(design, shape)
        ti = _time(lambda: model._multiply(a, b))
        tk = _time(lambda: kernel(a, b), repeat=5)
        print(
            f"  {label:<14} {kernel.kind:<12} "
            f"interp {a.size / ti / 1e6:7.1f}M/s   "
            f"kernel {a.size / tk / 1e6:7.1f}M/s   "
            f"speedup {ti / tk:5.1f}x"
        )
    print(f"netlist kernels ({NETLIST_PAIRS} pairs):")
    for design in NETLIST_DESIGNS:
        netlist, kernel, buses, a, b = _netlist_case(design)
        ti = _time(lambda: evaluate_words(netlist, buses, [a, b]))
        tk = _time(lambda: kernel.evaluate_words(buses, [a, b]), repeat=5)
        print(
            f"  {design:<14} {netlist.gate_count:>5} gates -> "
            f"{kernel.step_count:>3} steps   "
            f"interp {NETLIST_PAIRS / ti / 1e6:5.2f}M/s   "
            f"kernel {NETLIST_PAIRS / tk / 1e6:5.2f}M/s   "
            f"speedup {ti / tk:5.1f}x"
        )


if __name__ == "__main__":
    main()
