"""Compiled-kernel equivalence: the fused evaluators of ``repro.kernels``
must be bit-identical to the interpreted paths they replace.

Three fronts: a Hypothesis sweep of every registry family at every
supported width against the interpreted model, the bit-parallel netlist
kernel against the per-gate simulator, and a seeded compiled-layer
conformance slice through the differential oracle.  Plus the cache
contract (one kernel per (fingerprint, version), bounded, flushable)
and the default path: the paper's tables come out the same when every
multiply is forced onto the interpreted datapath.
"""

from __future__ import annotations

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.catalog import netlist_for
from repro.kernels import (
    KERNEL_CACHE_BYTES,
    KERNEL_VERSION,
    cached_kernel_bytes,
    cached_kernel_count,
    clear_kernel_cache,
    compile_kernel,
    compile_netlist,
    kernel_for,
)
from repro.kernels.compiler import _BLOCK
from repro.kernels.netlist import _pack_words, _unpack_words
from repro.logic.sim import bus_to_int, evaluate_words, int_to_bus
from repro.multipliers.accurate import AccurateMultiplier
from repro.multipliers.am import Am1Multiplier
from repro.multipliers.base import Multiplier
from repro.multipliers.dnnco import DnnCoMultiplier
from repro.multipliers.intalp import IntAlpMultiplier
from repro.multipliers.registry import TABLE1_IDS, build
from tests.strategies import ALL_IDS, bitwidths, design_ids, operands

AM_IDS = [name for name in ALL_IDS if name.startswith(("am1", "am2"))]


def build_or_skip(name: str, bitwidth: int):
    """Registry configurations that need more width than ``bitwidth``
    (e.g. a DRUM k exceeding N) raise ValueError; skip those combos."""
    try:
        return build(name, bitwidth)
    except ValueError:
        return None


# ----------------------------------------------------------------------
# model kernels vs interpreted models
# ----------------------------------------------------------------------


class TestModelKernelEquivalence:
    @given(design_ids(), bitwidths, st.data())
    @settings(max_examples=200, deadline=None)
    def test_compiled_matches_interpreted(self, name, bitwidth, data):
        model = build_or_skip(name, bitwidth)
        if model is None:
            return
        a = data.draw(operands(bitwidth), label="a")
        b = data.draw(operands(bitwidth), label="b")
        compiled = int(model.multiply(a, b, compiled=True))
        interpreted = int(model.multiply(a, b, compiled=False))
        assert compiled == interpreted

    @pytest.mark.parametrize("bitwidth", [4, 8, 16])
    @pytest.mark.parametrize("name", ALL_IDS)
    def test_batch_bit_identity(self, name, bitwidth):
        model = build_or_skip(name, bitwidth)
        if model is None:
            pytest.skip(f"{name} unbuildable at N={bitwidth}")
        rng = np.random.default_rng(hash((name, bitwidth)) % (1 << 32))
        a = rng.integers(0, 1 << bitwidth, 4096).astype(np.int64)
        b = rng.integers(0, 1 << bitwidth, 4096).astype(np.int64)
        # force the corners every datapath special-cases
        top = (1 << bitwidth) - 1
        a[:4] = [0, 0, 1, top]
        b[:4] = [0, top, 1, top]
        kernel = kernel_for(model)
        assert np.array_equal(kernel(a, b), model._multiply(a, b))

    @pytest.mark.parametrize("bitwidth", [4, 8, 16])
    @pytest.mark.parametrize(
        "name",
        ["scaletrim-t3-c2", "scaletrim-t4-c0", "scaletrim-t4-c2",
         "scaletrim-t6-c3", "dnnco-l4", "dnnco-l6", "dnnco-l8"],
    )
    def test_new_family_specializers_are_tables(self, name, bitwidth):
        # the scaleTRIM/DNNCO specializers must actually engage (kind
        # "table", bounded precomputed bytes), not fall through to the
        # generic full-table/interpreted ladder
        model = build_or_skip(name, bitwidth)
        if model is None:
            pytest.skip(f"{name} unbuildable at N={bitwidth}")
        kernel = kernel_for(model)
        assert kernel.kind == "table"
        assert 0 < kernel.table_bytes <= 2 << 20

    def test_dnnco_wide_window_falls_back_interpreted(self):
        # beyond l = 8 the 4**l deficit table would blow the budget; the
        # specializer hands the model back to the interpreted path and
        # stays bit-identical
        model = DnnCoMultiplier(16, l=10)
        kernel = compile_kernel(model)
        assert kernel.kind == "interpreted"
        rng = np.random.default_rng(4)
        a = rng.integers(0, 1 << 16, 4096).astype(np.int64)
        b = rng.integers(0, 1 << 16, 4096).astype(np.int64)
        assert np.array_equal(kernel(a, b), model._multiply(a, b))

    def test_blocked_evaluation_matches_single_sweep(self):
        # batches beyond the cache-blocking threshold split internally;
        # the seams must be invisible
        model = build("realm16-t3", 16)
        kernel = kernel_for(model)
        rng = np.random.default_rng(5)
        size = 3 * _BLOCK + 17
        a = rng.integers(0, 1 << 16, size).astype(np.int64)
        b = rng.integers(0, 1 << 16, size).astype(np.int64)
        assert np.array_equal(kernel(a, b), model._multiply(a, b))

    def test_scalar_multiply_compiled(self):
        model = build("realm16-t3", 16)
        assert int(model.multiply(777, 888, compiled=True)) == int(
            model.multiply(777, 888, compiled=False)
        )

    def test_broadcast_multiply_compiled(self):
        model = build("mbm-t4", 16)
        b = np.array([1, 2, 3, 40000])
        assert np.array_equal(
            model.multiply(12345, b, compiled=True),
            model.multiply(12345, b, compiled=False),
        )

    def test_default_path_matches_both_engines(self):
        a = np.arange(256, dtype=np.int64)
        for name in ("calm", "am1-nb13", "intalp-l2"):
            model = build(name, 8)
            default = model.multiply(a, a[::-1])
            assert np.array_equal(default, model.multiply(a, a[::-1], compiled=True))
            assert np.array_equal(default, model.multiply(a, a[::-1], compiled=False))

    def test_broadcast_nd_batch_is_blocked(self):
        # a CNN-style broadcast batch, several blocks along the leading axis
        model = build("realm16-t3", 16)
        rng = np.random.default_rng(6)
        x = rng.integers(0, 1 << 16, (40, 36, 9, 1))
        w = rng.integers(0, 1 << 16, (1, 9, 8))
        a, b = np.broadcast_arrays(x, w)
        assert a.size > _BLOCK
        got = model.multiply(x, w)
        assert got.shape == a.shape
        assert np.array_equal(got, model._multiply(a, b))

    def test_short_leading_axis_is_blocked_inside_rows(self):
        # a leading row wider than _BLOCK is cut inside the row, so the
        # temporaries stay a block's, not the batch's (at (1, 2**20) one
        # block peaked at about 8x the flat call)
        model = build("realm16-t0")
        rng = np.random.default_rng(7)
        a = rng.integers(0, 1 << 16, 1 << 20)
        b = rng.integers(0, 1 << 16, 1 << 20)
        model.multiply(a[:1], b[:1])  # compile untraced

        def traced(shape):
            tracemalloc.start()
            try:
                out = model.multiply(a.reshape(shape), b.reshape(shape))
                return out, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        flat, flat_peak = traced(a.shape)
        for shape in [(1, 1 << 20), (2, 1 << 19)]:
            out, peak = traced(shape)
            assert np.array_equal(out.ravel(), flat), shape
            assert peak <= 1.5 * flat_peak, (shape, peak, flat_peak)

    @pytest.mark.parametrize("bitwidth", [12, 16, 20])
    @pytest.mark.parametrize("name", ["am1-nb13", "am2-nb13", "am1-nb5"])
    def test_am_kernels_are_tables(self, name, bitwidth):
        model = build(name, bitwidth)
        kernel = compile_kernel(model)
        assert kernel.kind == "table"
        rng = np.random.default_rng(bitwidth)
        a = rng.integers(0, 1 << bitwidth, 4096).astype(np.int64)
        b = rng.integers(0, 1 << bitwidth, 4096).astype(np.int64)
        a[:2], b[:2] = (1 << bitwidth) - 1, (1 << bitwidth) - 1
        assert np.array_equal(kernel(a, b), model._multiply(a, b))

    @pytest.mark.parametrize("name", AM_IDS)
    def test_am_kernels_exhaustive_8bit(self, name, exhaustive8):
        model = build(name, 8)
        kernel = compile_kernel(model)
        assert kernel.kind == "table"
        a, b = exhaustive8
        assert np.array_equal(kernel(a, b), model._multiply(a, b))

    @pytest.mark.parametrize("fit", ["interp", "ls"])
    @pytest.mark.parametrize("level", range(1, 9))
    def test_intalp_kernel_exhaustive_8bit(self, level, fit, exhaustive8):
        model = IntAlpMultiplier(8, level=level, fit=fit)
        kernel = compile_kernel(model)
        assert kernel.kind == "table"
        a, b = exhaustive8
        assert np.array_equal(kernel(a, b), model._multiply(a, b))

    @pytest.mark.parametrize("fit", ["interp", "ls"])
    @pytest.mark.parametrize("level", range(1, 9))
    @pytest.mark.parametrize("bitwidth", [12, 16])
    def test_intalp_kernel_wide(self, bitwidth, level, fit):
        # random pairs plus pairs on the walk's boundaries: the diagonal
        # x == y, the anti-diagonal x + y == 1, and a grid of fractions
        # in eighths (on the deeper medians) with powers of two and their
        # neighbours
        model = IntAlpMultiplier(bitwidth, level=level, fit=fit)
        kernel = compile_kernel(model)
        assert kernel.kind == "table"
        rng = np.random.default_rng(bitwidth * 100 + level)
        octave = np.int64(1) << rng.integers(1, bitwidth, 4096)
        diagonal = octave + rng.integers(1, octave)
        anti_diagonal = 3 * octave - diagonal
        grid = np.unique(
            [(1 << k) + j * (1 << k >> 3) for k in range(bitwidth) for j in range(8)]
            + [0, (1 << bitwidth) - 1]
            + [(1 << k) + 1 for k in range(1, bitwidth - 1)]
            + [(1 << k) - 1 for k in range(2, bitwidth + 1)]
        )
        a = np.concatenate(
            [rng.integers(0, 1 << bitwidth, 1 << 14), diagonal, diagonal,
             np.repeat(grid, grid.size)]
        )
        b = np.concatenate(
            [rng.integers(0, 1 << bitwidth, 1 << 14), diagonal, anti_diagonal,
             np.tile(grid, grid.size)]
        )
        assert np.array_equal(kernel(a, b), model._multiply(a, b))

    def test_overriding_subclass_is_not_specialized(self):
        # a subclass that changes the product must never be served its
        # parent family's kernel: the ladder evaluates through the override
        class OffByOne(AccurateMultiplier):
            def _multiply(self, a, b):
                return a * b + 1

        class NoRecovery(Am1Multiplier):
            def _recover(self, errors):
                return np.zeros_like(errors[0])

        for model in (OffByOne(16), NoRecovery(16), OffByOne(8)):
            kernel = compile_kernel(model)
            assert kernel.kind in ("interpreted", "full-table")
            a = np.array([3, 40000, 65535]) % (1 << model.bitwidth)
            assert np.array_equal(
                model.multiply(a, a), model.multiply(a, a, compiled=False)
            )
        assert int(OffByOne(16).multiply(3, 5)) == 16


# ----------------------------------------------------------------------
# netlist kernels vs the per-gate simulator
# ----------------------------------------------------------------------


NETLIST_CASES = [
    ("accurate", 8),
    ("realm8-t2", 8),
    ("realm16-t3", 16),
    ("mbm-t4", 8),
    ("calm", 8),
    ("drum-k4", 8),
    ("ssm-m8", 16),
]


class TestNetlistKernel:
    @pytest.mark.parametrize("name,bitwidth", NETLIST_CASES)
    def test_matches_interpreted_simulator(self, name, bitwidth):
        netlist = netlist_for(name, bitwidth)
        kernel = compile_netlist(netlist)
        rng = np.random.default_rng(hash((name, bitwidth)) % (1 << 32))
        a = rng.integers(0, 1 << bitwidth, 500).astype(np.int64)
        b = rng.integers(0, 1 << bitwidth, 500).astype(np.int64)
        a[:2] = [0, (1 << bitwidth) - 1]
        b[:2] = [0, (1 << bitwidth) - 1]
        buses = [netlist.inputs[:bitwidth], netlist.inputs[bitwidth:]]
        assert np.array_equal(
            kernel.evaluate_words(buses, [a, b]),
            evaluate_words(netlist, buses, [a, b]),
        )

    @pytest.mark.parametrize("count", [1, 63, 64, 65, 200])
    def test_lane_boundaries(self, count):
        # batch sizes straddling the 64-vector word boundary
        netlist = netlist_for("realm8-t2", 8)
        kernel = compile_netlist(netlist)
        rng = np.random.default_rng(count)
        a = rng.integers(0, 256, count).astype(np.int64)
        b = rng.integers(0, 256, count).astype(np.int64)
        buses = [netlist.inputs[:8], netlist.inputs[8:]]
        assert np.array_equal(
            kernel.evaluate_words(buses, [a, b]),
            evaluate_words(netlist, buses, [a, b]),
        )

    def test_missing_stimulus_raises(self):
        netlist = netlist_for("accurate", 4)
        kernel = compile_netlist(netlist)
        with pytest.raises(ValueError, match="stimulus missing"):
            kernel.evaluate_words([netlist.inputs[:4]], [np.array([1])])

    def test_value_validation_matches_simulator(self):
        netlist = netlist_for("accurate", 4)
        kernel = compile_netlist(netlist)
        buses = [netlist.inputs[:4], netlist.inputs[4:]]
        with pytest.raises(ValueError, match="outside"):
            kernel.evaluate_words(buses, [np.array([16]), np.array([1])])
        with pytest.raises(ValueError, match="outside"):
            kernel.evaluate_words(buses, [np.array([1]), np.array([-1])])

    def test_length_mismatch_raises(self):
        netlist = netlist_for("accurate", 4)
        kernel = compile_netlist(netlist)
        buses = [netlist.inputs[:4], netlist.inputs[4:]]
        with pytest.raises(ValueError, match="disagree on length"):
            kernel.evaluate_words(buses, [np.array([1, 2]), np.array([3])])

    @pytest.mark.parametrize("width", [1, 8, 16, 32, 63])
    @pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 4097])
    def test_transposes_match_reference(self, width, count):
        rng = np.random.default_rng(1000 * width + count)
        top = (1 << width) - 1
        values = rng.integers(0, top, count, dtype=np.int64, endpoint=True)
        values[: min(count, 2)] = [0, top][: min(count, 2)]
        bits = int_to_bus(values, width)
        # lane [i, j // 64] holds bit i of value j at bit j % 64
        want = np.zeros((width, (count + 63) // 64), dtype=np.uint64)
        vector, bit = np.nonzero(bits)
        np.bitwise_or.at(
            want,
            (bit, vector // 64),
            np.left_shift(np.uint64(1), (vector % 64).astype(np.uint64)),
        )
        lanes = _pack_words(values, width)
        assert lanes.dtype == np.uint64
        assert np.array_equal(lanes, want)
        assert np.array_equal(_unpack_words(lanes, count), bus_to_int(bits))

    def test_transposes_reject_what_the_reference_rejects(self):
        with pytest.raises(ValueError, match="outside"):
            _pack_words(np.array([256], dtype=np.int64), 8)
        with pytest.raises(ValueError, match="outside"):
            _pack_words(np.array([3, -1], dtype=np.int64), 8)
        with pytest.raises(ValueError, match="exceeds"):
            _unpack_words(np.zeros((64, 1), dtype=np.uint64), 1)

    @given(
        st.lists(
            st.integers(min_value=0, max_value=(1 << 20) - 1),
            min_size=1,
            max_size=130,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_pack_unpack_roundtrip(self, values):
        array = np.asarray(values, dtype=np.int64)
        assert np.array_equal(
            _unpack_words(_pack_words(array, 20), array.size), array
        )


# ----------------------------------------------------------------------
# compile cache
# ----------------------------------------------------------------------


class TestKernelCache:
    def test_equal_fingerprints_share_one_kernel(self):
        clear_kernel_cache()
        first = kernel_for(build("realm16-t3", 16))
        second = kernel_for(build("realm16-t3", 16))
        assert first is second
        assert cached_kernel_count() == 1

    def test_distinct_configurations_get_distinct_kernels(self):
        clear_kernel_cache()
        kernel_for(build("realm16-t3", 16))
        kernel_for(build("realm16-t3", 8))
        kernel_for(build("realm16-t0", 16))
        assert cached_kernel_count() == 3

    def test_clear(self):
        kernel_for(build("calm", 8))
        assert cached_kernel_count() > 0
        clear_kernel_cache()
        assert cached_kernel_count() == 0

    def test_version_stamped(self):
        kernel = compile_kernel(build("realm16-t3", 16))
        assert kernel.version == KERNEL_VERSION
        assert kernel.kind == "table"
        assert kernel.table_bytes > 0

    def test_dropped_kernel_frees_its_tables_at_once(self):
        # an evicted kernel must not wait for the cycle collector: with
        # 72 designs cycling through the LRU, tables kept by a reference
        # cycle raised a warehouse replay's peak RSS by about 30 MB
        model = build("realm16-t3", 16)
        compile_kernel(model)  # warm any table caches untraced
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            kernel = compile_kernel(model)
            tables = kernel.table_bytes
            del kernel
            left = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            gc.enable()
        assert left < tables // 2

    def test_single_segment_lut_shares_one_operand_table(self):
        # MBM's 1x1 LUT leaves no segment field, so both operands gather
        # from one 2**16-word table (two equal ones cost 25% a product)
        kernel = compile_kernel(build("mbm-t0", 16))
        assert kernel.kind == "table"
        assert kernel.table_bytes == 8 * (1 << 16) + 2 * 8

    def test_fallback_kinds(self):
        # models with no specializer: full table while the operand space
        # is small, interpreted wrap beyond
        class Shifted(IntAlpMultiplier):
            def _multiply(self, a, b):
                return super()._multiply(a, b) >> 1

        assert compile_kernel(Shifted(8)).kind == "full-table"
        assert compile_kernel(DnnCoMultiplier(16, l=10)).kind == "interpreted"
        assert compile_kernel(build("accurate", 16)).kind == "direct"
        for bitwidth in (8, 16):
            assert compile_kernel(build("intalp-l2", bitwidth)).kind == "table"

    @pytest.mark.parametrize("name", ALL_IDS)
    def test_no_registered_design_runs_interpreted(self, name):
        assert compile_kernel(build(name, 16)).kind != "interpreted"

    def test_cache_stays_within_budget(self):
        clear_kernel_cache()
        for name in TABLE1_IDS:
            newest = kernel_for(build(name, 16))
        assert 0 < cached_kernel_bytes() <= KERNEL_CACHE_BYTES
        count = cached_kernel_count()
        assert kernel_for(build(TABLE1_IDS[-1], 16)) is newest
        assert cached_kernel_count() == count

    def test_oversized_kernel_stays_cached(self):
        # one kernel beyond the budget on its own evicts the rest but stays
        clear_kernel_cache()
        kernel_for(build("calm", 16))
        wide = kernel_for(build("realm16-t0", 20))
        assert wide.table_bytes > KERNEL_CACHE_BYTES
        assert cached_kernel_count() == 1
        assert kernel_for(build("realm16-t0", 20)) is wide
        clear_kernel_cache()


# ----------------------------------------------------------------------
# conformance: the kernel layer through the differential oracle
# ----------------------------------------------------------------------


class TestCompiledConformanceSlice:
    @pytest.mark.parametrize(
        "design",
        ["realm16-t3", "mbm-t4", "calm", "drum-k6", "intalp-l1", "intalp-l2"],
    )
    def test_seeded_fuzz_slice_is_clean(self, design):
        from repro.conformance import fuzz

        result = fuzz(
            design,
            budget=2048,
            seed=2026,
            layers=("model", "kernel", "exact"),
        )
        assert result.ok, f"kernel layer diverged for {design}"
        assert "kernel" in result.layers

    def test_rtl_layer_runs_compiled(self):
        from repro.conformance.oracles import DifferentialOracle

        oracle = DifferentialOracle("realm8-t2", bitwidth=8)
        assert oracle._rtl_kernel is not None
        records, total = oracle.evaluate(
            np.arange(256, dtype=np.int64),
            np.arange(255, -1, -1, dtype=np.int64),
        )
        assert total == 0, records

    def test_wrong_cached_kernel_is_caught(self, monkeypatch):
        # the model layer stays interpreted, so a kernel that disagrees
        # with the datapath shows up as kernel divergences instead of
        # silently becoming the reference
        from repro.conformance.oracles import DifferentialOracle
        from repro.kernels import compiler

        def wrong(model):
            kernel = compile_kernel(model)
            return dataclasses.replace(kernel, evaluate=lambda a, b: kernel(a, b) + 1)

        clear_kernel_cache()
        monkeypatch.setattr(compiler, "compile_kernel", wrong)
        try:
            oracle = DifferentialOracle("mbm-t4", layers=("model", "kernel"))
            records, total = oracle.evaluate(np.arange(1, 65), np.arange(64, 0, -1))
        finally:
            clear_kernel_cache()
        assert total == 64
        assert {record.key() for record in records} == {("layer", "kernel")}



# ----------------------------------------------------------------------
# the default path: the paper's tables with every multiply interpreted
# ----------------------------------------------------------------------


def interpreted_only(monkeypatch):
    """Force every ``Multiplier.multiply`` onto the interpreted datapath."""
    original = Multiplier.multiply

    def multiply(self, a, b, *, compiled=None):
        return original(self, a, b, compiled=False)

    monkeypatch.setattr(Multiplier, "multiply", multiply)


class TestDefaultPathRows:
    def test_table1_rows(self, monkeypatch):
        from repro.experiments import table1_errors

        def rows():
            return table1_errors(1 << 10, TABLE1_IDS, 7, warehouse=False)

        compiled = rows()
        interpreted_only(monkeypatch)
        assert rows() == compiled

    def test_table2_image_rows(self, monkeypatch):
        from repro import paper
        from repro.experiments import table2_jpeg

        monkeypatch.setattr(paper, "TABLE2_IMAGES", paper.TABLE2_IMAGES[:1])
        compiled = table2_jpeg(50, 7)
        interpreted_only(monkeypatch)
        assert table2_jpeg(50, 7) == compiled

    def test_cnn_study_rows(self, monkeypatch):
        from repro.experiments import cnn_study

        designs = ("am2-nb13", "realm16-t3")
        compiled = cnn_study(designs, 7, warehouse=False)
        interpreted_only(monkeypatch)
        assert cnn_study(designs, 7, warehouse=False) == compiled
