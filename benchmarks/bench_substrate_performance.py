"""Throughput benchmarks of the substrate itself.

The other benches time one-shot regenerations; these measure the
steady-state rates a user plans around: functional-model multiplication
throughput (what bounds a 2^24 characterization), gate-level simulation
throughput, netlist construction, factor computation and the JPEG entropy
coder.  pytest-
benchmark's statistics (multiple rounds) apply here, unlike the
deterministic one-shot benches.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import telemetry
from repro.circuits.catalog import netlist_for
from repro.core.factors import _factors_cached, compute_factors
from repro.core.realm import RealmMultiplier
from repro.jpeg.codec import compress
from repro.jpeg.huffman import decode_blocks, encode_blocks
from repro.jpeg.images import test_image
from repro.logic.sim import evaluate_words
from repro.multipliers.mitchell import MitchellMultiplier
from repro.multipliers.registry import build

VECTOR_BATCH = 1 << 18


def test_perf_realm_functional_throughput(benchmark):
    realm = RealmMultiplier(m=16, t=0)
    rng = np.random.default_rng(1)
    a = rng.integers(0, 1 << 16, VECTOR_BATCH)
    b = rng.integers(0, 1 << 16, VECTOR_BATCH)
    result = benchmark(realm.multiply, a, b)
    assert len(result) == VECTOR_BATCH
    # the paper's 2^24 characterization must stay minutes-scale: require
    # at least 2M products/s from the functional model
    assert benchmark.stats["mean"] < VECTOR_BATCH / 2e6


def test_perf_mitchell_functional_throughput(benchmark):
    calm = MitchellMultiplier()
    rng = np.random.default_rng(2)
    a = rng.integers(0, 1 << 16, VECTOR_BATCH)
    b = rng.integers(0, 1 << 16, VECTOR_BATCH)
    result = benchmark(calm.multiply, a, b)
    assert len(result) == VECTOR_BATCH


def test_perf_gate_level_simulation(benchmark):
    netlist = netlist_for("realm16-t0")
    rng = np.random.default_rng(3)
    a = rng.integers(0, 1 << 16, 4096)
    b = rng.integers(0, 1 << 16, 4096)
    buses = [netlist.inputs[:16], netlist.inputs[16:]]
    result = benchmark(evaluate_words, netlist, buses, [a, b])
    assert len(result) == 4096


def test_perf_netlist_construction(benchmark):
    def build():
        return netlist_for("realm16-t0")

    netlist = benchmark(build)
    assert netlist.gate_count > 500


def test_perf_disabled_telemetry_is_free(benchmark):
    # the telemetry hooks live inside the engine's per-block hot path, so
    # the disabled singleton must be cheap enough to never show up in a
    # characterization profile
    telemetry.disable()
    tele = telemetry.get()
    assert tele is telemetry.DISABLED
    ops = 10_000

    def hot_loop():
        for i in range(ops):
            with tele.span("bench.noop", block=i):
                tele.counter("bench.count")
        return ops

    assert benchmark(hot_loop) == ops
    # well under a microsecond per span+counter pair (measured ~0.3us);
    # at ~260 pairs per 2^24-sample run this is nanoseconds of total cost
    assert benchmark.stats["mean"] / ops < 2e-6


def test_perf_factor_computation(benchmark):
    def compute():
        _factors_cached.cache_clear()
        return compute_factors(16)

    factors = benchmark(compute)
    assert factors.shape == (16, 16)


def test_perf_entropy_coding(benchmark):
    # Table II's lossless stage alone: the cameraman levels at quality 50,
    # encoded and decoded; the stream's size turns the time into a bit rate
    image = test_image("cameraman")
    count = image.size // 64
    data = compress(build("accurate"), image, quality=50).data
    levels = decode_blocks(data, count)

    def roundtrip():
        return decode_blocks(encode_blocks(levels), count)

    assert np.array_equal(benchmark(roundtrip), levels)
    benchmark.extra_info["bits"] = 8 * len(data)
