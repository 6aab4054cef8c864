"""Tests for the structural building blocks: adders, LOD, shifters, muxes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.adders import (
    equal_const,
    incrementer,
    loa_adder,
    maa_adder,
    ripple_adder,
    ripple_subtractor,
    soa_adder,
)
from repro.circuits.lod import leading_one, nearest_one, or_tree
from repro.circuits.logdatapath import log_front_end
from repro.circuits.mux import constant_lut, mux_tree
from repro.circuits.shifter import barrel_left, barrel_right, scaling_shifter
from repro.circuits.wallace import wallace_netlist
from repro.logic.netlist import Netlist
from repro.logic.sim import bus_to_int, int_to_bus, simulate
from repro.multipliers.mitchell import log_operands


def run(nl, buses, values, outputs):
    """Drive integer values onto buses and read `outputs` back as ints."""
    stimulus = {}
    shape = np.asarray(values[0]).shape
    for bus, vals in zip(buses, values):
        bits = int_to_bus(np.asarray(vals), len(bus))
        for position, net in enumerate(bus):
            stimulus[net] = bits[:, position]
    waves = simulate(nl, stimulus)
    from repro.logic.netlist import CONST0, CONST1

    columns = []
    for net in outputs:
        if net == CONST0:
            columns.append(np.zeros(shape, dtype=bool))
        elif net == CONST1:
            columns.append(np.ones(shape, dtype=bool))
        else:
            columns.append(waves[net])
    return bus_to_int(np.stack(columns, axis=1))


class TestRippleAdder:
    def test_exhaustive_4bit(self):
        nl = Netlist("add4")
        a = nl.input_bus("a", 4)
        b = nl.input_bus("b", 4)
        total, carry = ripple_adder(nl, a, b)
        nl.set_outputs(total + [carry])
        values = np.arange(16)
        av, bv = np.meshgrid(values, values, indexing="ij")
        got = run(nl, [a, b], [av.ravel(), bv.ravel()], total + [carry])
        assert np.array_equal(got, av.ravel() + bv.ravel())

    def test_mixed_widths_zero_extend(self):
        nl = Netlist("add")
        a = nl.input_bus("a", 6)
        b = nl.input_bus("b", 3)
        total, carry = ripple_adder(nl, a, b)
        got = run(nl, [a, b], [np.array([63]), np.array([7])], total + [carry])
        assert int(got[0]) == 70

    def test_carry_in(self):
        from repro.logic.netlist import CONST1

        nl = Netlist("add")
        a = nl.input_bus("a", 4)
        b = nl.input_bus("b", 4)
        total, carry = ripple_adder(nl, a, b, carry_in=CONST1)
        got = run(nl, [a, b], [np.array([7]), np.array([8])], total + [carry])
        assert int(got[0]) == 16


class TestSubtractorComparator:
    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=60, deadline=None)
    def test_difference_and_comparison(self, x, y):
        nl = Netlist("sub")
        a = nl.input_bus("a", 8)
        b = nl.input_bus("b", 8)
        diff, geq = ripple_subtractor(nl, a, b)
        nl.set_outputs(diff + [geq])
        got = run(nl, [a, b], [np.array([x]), np.array([y])], diff)
        comparison = run(nl, [a, b], [np.array([x]), np.array([y])], [geq])
        assert int(got[0]) == (x - y) % 256
        assert bool(comparison[0]) == (x >= y)


class TestIncrementerEqualConst:
    def test_incrementer(self):
        from repro.logic.netlist import CONST1

        nl = Netlist("inc")
        a = nl.input_bus("a", 4)
        out = incrementer(nl, a, CONST1)
        got = run(nl, [a], [np.arange(16)], out)
        assert np.array_equal(got, np.arange(16) + 1)

    def test_equal_const(self):
        nl = Netlist("eq")
        a = nl.input_bus("a", 5)
        hit = equal_const(nl, a, 19)
        got = run(nl, [a], [np.arange(32)], [hit])
        assert np.array_equal(got.astype(bool), np.arange(32) == 19)

    def test_equal_const_range_check(self):
        nl = Netlist("eq")
        a = nl.input_bus("a", 3)
        with pytest.raises(ValueError):
            equal_const(nl, a, 8)


class TestApproximateAdders:
    @pytest.mark.parametrize(
        "builder,model",
        [
            (loa_adder, "LOA"),
            (soa_adder, "SOA"),
            (maa_adder, "MAA"),
        ],
    )
    def test_matches_functional_model(self, builder, model):
        from repro.multipliers.alm import _ADDERS

        nl = Netlist("approx")
        a = nl.input_bus("a", 10)
        b = nl.input_bus("b", 10)
        total, carry = builder(nl, a, b, 4)
        rng = np.random.default_rng(12)
        av = rng.integers(0, 1 << 10, 500)
        bv = rng.integers(0, 1 << 10, 500)
        got = run(nl, [a, b], [av, bv], total + [carry])
        want = _ADDERS[model](av, bv, 4)
        assert np.array_equal(got, want)

    def test_m_range_validated(self):
        nl = Netlist("approx")
        a = nl.input_bus("a", 4)
        b = nl.input_bus("b", 4)
        with pytest.raises(ValueError):
            loa_adder(nl, a, b, 0)
        with pytest.raises(ValueError):
            soa_adder(nl, a, b, 5)


class TestLod:
    def test_exhaustive_8bit(self):
        nl = Netlist("lod")
        a = nl.input_bus("a", 8)
        onehot, k, nonzero = leading_one(nl, a)
        values = np.arange(1, 256)
        got_k = run(nl, [a], [values], k)
        got_onehot = run(nl, [a], [values], onehot)
        got_nz = run(nl, [a], [values], [nonzero])
        expected_k = np.array([v.bit_length() - 1 for v in range(1, 256)])
        assert np.array_equal(got_k, expected_k)
        assert np.array_equal(got_onehot, 1 << expected_k)
        assert np.all(got_nz == 1)

    def test_zero_input(self):
        nl = Netlist("lod")
        a = nl.input_bus("a", 8)
        onehot, k, nonzero = leading_one(nl, a)
        assert int(run(nl, [a], [np.array([0])], [nonzero])[0]) == 0
        assert int(run(nl, [a], [np.array([0])], k)[0]) == 0

    def test_nearest_one(self):
        nl = Netlist("nod")
        a = nl.input_bus("a", 8)
        _, k_near, round_up, _ = nearest_one(nl, a)
        values = np.arange(1, 256)
        got = run(nl, [a], [values], k_near)
        got_up = run(nl, [a], [values], [round_up])
        for v, kn, up in zip(values, got, got_up):
            k = int(v).bit_length() - 1
            expect_up = k > 0 and bool((v >> (k - 1)) & 1)
            assert bool(up) == expect_up
            assert kn == k + (1 if expect_up else 0)

    def test_or_tree_empty(self):
        from repro.logic.netlist import CONST0

        nl = Netlist("ot")
        assert or_tree(nl, []) == CONST0


class TestShifters:
    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=60, deadline=None)
    def test_barrel_left(self, value, amount):
        nl = Netlist("bl")
        data = nl.input_bus("d", 8)
        sel = nl.input_bus("s", 3)
        out = barrel_left(nl, data, sel, 12)
        got = run(nl, [data, sel], [np.array([value]), np.array([amount])], out)
        assert int(got[0]) == (value << amount) & 0xFFF

    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=60, deadline=None)
    def test_barrel_right(self, value, amount):
        nl = Netlist("br")
        data = nl.input_bus("d", 8)
        sel = nl.input_bus("s", 3)
        out = barrel_right(nl, data, sel)
        got = run(nl, [data, sel], [np.array([value]), np.array([amount])], out)
        assert int(got[0]) == value >> amount

    def test_scaling_shifter_floors(self):
        # mantissa 1.75 (fraction width 2), exponent 0 -> floor(1.75) = 1
        nl = Netlist("scale")
        mantissa = nl.input_bus("m", 3)
        exponent = nl.input_bus("e", 3)
        out = scaling_shifter(nl, mantissa, exponent, 2, 8)
        got = run(
            nl, [mantissa, exponent], [np.array([0b111]), np.array([0])], out
        )
        assert int(got[0]) == 1
        got = run(
            nl, [mantissa, exponent], [np.array([0b111]), np.array([4])], out
        )
        assert int(got[0]) == 0b11100  # 1.75 * 16


class TestLogFrontEnd:
    @pytest.mark.parametrize("n", range(2, 17))
    def test_matches_log_operands(self, n):
        # the gate-level front end shared by RTL and formulas against the
        # models' word-level one, on every operand (zero included)
        nl = Netlist(f"front{n}")
        a = nl.input_bus("a", n)
        op = log_front_end(nl, a)
        values = np.arange(1 << n, dtype=np.int64)
        k, _, x, _, nonzero = log_operands(values, values, n)
        assert np.array_equal(run(nl, [a], [values], op.characteristic), k)
        assert np.array_equal(run(nl, [a], [values], op.fraction), x)
        assert np.array_equal(run(nl, [a], [values], [op.nonzero]), nonzero)


class TestMuxes:
    def test_mux_tree(self):
        nl = Netlist("mux")
        options = [nl.input_bus(f"o{i}", 4) for i in range(4)]
        sel = nl.input_bus("s", 2)
        out = mux_tree(nl, options, sel)
        values = [np.array([3]), np.array([7]), np.array([11]), np.array([15])]
        for choice in range(4):
            got = run(nl, options + [sel], values + [np.array([choice])], out)
            assert int(got[0]) == int(values[choice][0])

    def test_mux_tree_option_overflow(self):
        nl = Netlist("mux")
        options = [nl.input_bus(f"o{i}", 2) for i in range(3)]
        sel = nl.input_bus("s", 1)
        with pytest.raises(ValueError):
            mux_tree(nl, options, sel)

    def test_constant_lut_exhaustive(self):
        rng = np.random.default_rng(13)
        table = rng.integers(0, 16, 16).tolist()
        nl = Netlist("lut")
        sel = nl.input_bus("s", 4)
        out = constant_lut(nl, table, 4, sel)
        got = run(nl, [sel], [np.arange(16)], out)
        assert got.tolist() == table

    def test_constant_lut_uniform_table_is_free(self):
        nl = Netlist("lut")
        sel = nl.input_bus("s", 3)
        constant_lut(nl, [5] * 8, 4, sel)
        assert nl.gate_count == 0  # folds to pure constants

    def test_constant_lut_range_check(self):
        nl = Netlist("lut")
        sel = nl.input_bus("s", 1)
        with pytest.raises(ValueError):
            constant_lut(nl, [16], 4, sel)


class TestWallace:
    def test_exhaustive_4x4(self):
        nl = wallace_netlist(4)
        values = np.arange(16)
        av, bv = np.meshgrid(values, values, indexing="ij")
        from repro.logic.sim import evaluate_words

        got = evaluate_words(nl, [nl.inputs[:4], nl.inputs[4:]], [av.ravel(), bv.ravel()])
        assert np.array_equal(got, av.ravel() * bv.ravel())

    def test_random_16bit(self, operands16):
        nl = wallace_netlist(16)
        from repro.logic.sim import evaluate_words

        a, b = operands16
        got = evaluate_words(nl, [nl.inputs[:16], nl.inputs[16:]], [a, b])
        assert np.array_equal(got, a * b)

    def test_structure_is_compressor_dominated(self):
        histogram = wallace_netlist(16).cell_histogram()
        assert histogram["XOR3"] == histogram["MAJ3"]  # paired full adders
        assert histogram["AND2"] >= 256  # the partial-product grid


class TestWallaceFinalAdderStyles:
    @pytest.mark.parametrize(
        "style", ["ripple", "sklansky", "kogge-stone", "brent-kung", "carry-select"]
    )
    def test_exact_for_every_final_adder(self, style):
        nl = wallace_netlist(8, final_adder=style)
        nl.prune()
        rng = np.random.default_rng(44)
        a = rng.integers(0, 256, 800)
        b = rng.integers(0, 256, 800)
        from repro.logic.sim import evaluate_words

        got = evaluate_words(nl, [nl.inputs[:8], nl.inputs[8:]], [a, b])
        assert np.array_equal(got, a * b)

    def test_prefix_final_adder_cuts_delay(self):
        from repro.synth.timing import analyze_timing

        ripple = wallace_netlist(16)
        ripple.prune()
        prefix = wallace_netlist(16, final_adder="kogge-stone")
        prefix.prune()
        assert (
            analyze_timing(prefix).critical_path_ps
            < analyze_timing(ripple).critical_path_ps * 0.75
        )
        assert prefix.area() > ripple.area()

    def test_unknown_style_rejected(self):
        with pytest.raises(ValueError):
            wallace_netlist(8, final_adder="magic")
