"""Tests for the formal layer: encoders, equivalence, certified bounds.

The load-bearing claim is the brute-force cross-check: for ≤8-bit
designs the certified worst case ``(a*, b*, err*)`` must equal the
maximum over the full ``2^2N`` operand grid, computed here by an
independent exact scan (integer cross-multiplication, no floats).  A
seeded slice of designs runs in tier-1; the full registry sweep is
``nightly``-marked, matching ``test_rtl_equivalence.py``.
"""

from __future__ import annotations

import os
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from repro.analysis import chaos
from repro.analysis.exhaustive import exhaustive_metrics
from repro.circuits.catalog import generator_for
from repro.conformance.fuzz import shrink_pair
from repro.conformance.oracles import LAYERS, DifferentialOracle, resolve_design
from repro.formal import (
    ENCODERS,
    UnsupportedDesignError,
    certify_worst_error,
    encode_kernel,
    encode_model,
    encode_netlist,
    prove_equivalence,
)
from repro.core.realm import RealmMultiplier
from repro.formal import backends as backends_module
from repro.formal import encode as encode_module
from repro.formal import equiv as equiv_module
from repro.formal.backends import _to_z3
from repro.formal.bounds import SWEEP_EXACT_MAX_BITWIDTH, _extreme_index
from repro.kernels import compile_netlist
from repro.multipliers.alm import AlmLoa
from repro.multipliers.base import datapath_family
from repro.multipliers.drum import DrumMultiplier
from repro.multipliers.registry import REGISTRY
from repro.multipliers.ssm import EssmMultiplier, SsmMultiplier

from tests.strategies import corner_operands

# tier-1 slice: one design per certification route (log-family interval,
# LUT-corrected REALM, truncation, product-form ratio, exact baseline,
# plus the two symbolic-only new families: compensated scaling and
# OR-column truncation), and two truth-table families (AM2's max error
# of 0 is tied across thousands of pairs)
SLICE_DESIGNS = [
    "realm8-t2", "mbm-t2", "calm", "drum-k5", "accurate",
    "scaletrim-t4-c2", "dnnco-l6", "am2-nb13", "intalp-l2",
]


def brute_force_extremes(model):
    """Exact error extremes over the full positive operand grid.

    Independent of the formal sweep: comparisons use integer
    cross-multiplication, and the lexicographically first ``(a, b)``
    wins ties — the same canonical witness the certificates promise.
    """
    values = np.arange(1, 1 << model.bitwidth, dtype=np.int64)
    a = np.repeat(values, values.size)
    b = np.tile(values, values.size)
    exact = a * b
    num = (np.asarray(model.multiply(a, b), dtype=np.int64) - exact).tolist()
    den = exact.tolist()
    pairs = list(zip(a.tolist(), b.tolist()))
    extremes = {}
    for direction, keep in (
        ("min", lambda n1, d1, n2, d2: n1 * d2 < n2 * d1),
        ("max", lambda n1, d1, n2, d2: n1 * d2 > n2 * d1),
    ):
        best = 0
        for i in range(1, len(num)):
            if keep(num[i], den[i], num[best], den[best]):
                best = i
        extremes[direction] = (Fraction(num[best], den[best]), *pairs[best])
    return extremes


def assert_matches_brute_force(design: str, bitwidth: int = 8) -> None:
    _, model, _, _ = resolve_design(design, bitwidth)
    bounds = certify_worst_error(design, bitwidth)
    assert bounds.exact, f"{design}: certificate not exact"
    assert bounds.replayed, f"{design}: witness failed model replay"
    reference = brute_force_extremes(model)
    for cert, direction in ((bounds.peak_min, "min"), (bounds.peak_max, "max")):
        want_err, want_a, want_b = reference[direction]
        assert cert.as_fraction() == want_err, f"{design} {direction}"
        assert (cert.a, cert.b) == (want_a, want_b), f"{design} {direction}"
        assert Fraction(cert.witness_num, cert.witness_den) == want_err


class TestCertifiedVsBruteForce:
    @pytest.mark.parametrize("design", SLICE_DESIGNS)
    def test_slice_matches_brute_force(self, design):
        assert_matches_brute_force(design)

    @pytest.mark.nightly
    @pytest.mark.skipif(
        not os.environ.get("REPRO_NIGHTLY"),
        reason="full-registry sweep runs nightly (set REPRO_NIGHTLY=1)",
    )
    @pytest.mark.parametrize("design", sorted(REGISTRY))
    def test_every_eightbit_design_matches_brute_force(self, design):
        try:
            resolve_design(design, 8)
        except ValueError as exc:
            pytest.skip(f"not buildable at 8 bits: {exc}")
        assert_matches_brute_force(design)

    def test_interval_route_agrees_with_sweep(self):
        # the wide-operand engines, forced at a sweepable width so their
        # answers can be checked against the exhaustive route
        for design in ("realm8-t2", "mbm-t2", "calm", "drum-k5", "accurate"):
            sweep = certify_worst_error(design, 8, method="sweep")
            interval = certify_worst_error(design, 8, method="interval")
            assert interval.exact, design
            for side in ("peak_min", "peak_max"):
                got = getattr(interval, side)
                want = getattr(sweep, side)
                assert got.as_fraction() == want.as_fraction(), (design, side)

    @pytest.mark.parametrize("design", ["ssm-m8", "essm8", "drum-k8"])
    def test_product_form_route_agrees_with_sweep(self, design):
        # the ratio route's certificate, at the narrowest width where
        # these ids build, against the exhaustive sweep, witnesses included
        interval = certify_worst_error(design, 10, method="interval")
        sweep = certify_worst_error(
            design, 10, method="sweep", sweep_max_bitwidth=10
        )
        assert interval.method == "ratio-exact"
        assert interval.exact and sweep.exact
        for side in ("peak_min", "peak_max"):
            got = getattr(interval, side).to_payload()
            assert got == getattr(sweep, side).to_payload(), (design, side)

    def test_sixteen_bit_bounds_are_sound(self):
        # pure-python at 16 bits gives honest outer bounds, not exact
        bounds = certify_worst_error("realm-16-m4-q3", method="interval",
                                     box_budget=2000)
        lo = bounds.peak_min
        hi = bounds.peak_max
        assert lo.as_fraction() <= Fraction(lo.witness_num, lo.witness_den)
        assert hi.as_fraction() >= Fraction(hi.witness_num, hi.witness_den)
        assert bounds.method in ("interval-bb", "ratio-exact")


class TestExactExtreme:
    def test_resolves_ratios_that_round_to_the_same_double(self):
        # 1 + 1/(d + 1) < 1 + 1/d differ by about 2**-54 at d = 2**27,
        # below half an ulp of 1.0: float64 ties them, exact order does not
        d = 1 << 27
        num = np.array([d + 2, d + 1, 3], dtype=np.int64)
        den = np.array([d + 1, d, 4], dtype=np.int64)
        assert num[0] / den[0] == num[1] / den[1]
        assert _extreme_index(num, den, largest=True) == 1
        assert _extreme_index(-num, den, largest=False) == 1
        assert _extreme_index(num, den, largest=False) == 2

    def test_exact_ties_keep_the_first_index(self):
        num = np.array([1, 3, 2, 6, -1], dtype=np.int64)
        den = np.array([3, 4, 4, 8, 2], dtype=np.int64)  # 3/4 == 6/8
        assert _extreme_index(num, den, largest=True) == 1
        assert _extreme_index(num, den, largest=False) == 4

    def test_sweep_refuses_widths_that_could_overflow(self):
        width = SWEEP_EXACT_MAX_BITWIDTH + 1
        with pytest.raises(UnsupportedDesignError, match="int64"):
            certify_worst_error(
                "calm", width, method="sweep", sweep_max_bitwidth=width
            )


class TestCertifiedDominatesSampling:
    BOUNDS = None

    @classmethod
    def bounds(cls):
        if cls.BOUNDS is None:
            cls.BOUNDS = certify_worst_error("realm8-t2", 8)
        return cls.BOUNDS

    @given(a=corner_operands(8), b=corner_operands(8))
    @settings(max_examples=300, deadline=None)
    def test_certified_extremes_contain_every_sample(self, a, b):
        if a == 0 or b == 0:
            return  # relative error undefined
        bounds = self.bounds()
        _, model, _, _ = resolve_design("realm8-t2", 8)
        err = Fraction(int(model.multiply(a, b)) - a * b, a * b)
        assert bounds.peak_min.as_fraction() <= err
        assert err <= bounds.peak_max.as_fraction()


class TestEquivalence:
    def test_realm_eightbit_all_legs_discharged(self):
        result = prove_equivalence("realm8-t2", 8)
        assert not result.refuted
        assert result.proved
        legs = {leg.leg: leg for leg in result.legs}
        assert legs["formula~model"].status == "proved"
        assert legs["model~kernel"].status == "proved"

    def test_adhoc_spec_proves(self):
        result = prove_equivalence("realm-8-m4-q5")
        assert result.proved, [leg.detail for leg in result.legs]

    def test_unsupported_design_raises(self):
        with pytest.raises(UnsupportedDesignError):
            encode_model(resolve_design("am1-nb13", 16)[1], "am1-nb13")

    @pytest.mark.parametrize("design", ["scaletrim-t4-c2", "dnnco-l6"])
    def test_new_families_eightbit_all_legs_discharged(self, design):
        result = prove_equivalence(design, 8)
        assert not result.refuted
        assert result.proved, [leg.detail for leg in result.legs]
        legs = {leg.leg: leg for leg in result.legs}
        assert legs["formula~model"].status == "proved"
        assert legs["model~kernel"].status == "proved"

    def test_bdd_backend_proves_a_truth_table_design(self):
        # the lazily built decision-diagram netlist must still match its table
        result = prove_equivalence("am1-nb13", 8, backend="bdd")
        legs = {leg.leg: leg for leg in result.legs}
        assert result.proved, [leg.detail for leg in result.legs]
        for name in ("model~rtl", "model~kernel"):
            assert (legs[name].status, legs[name].backend) == ("proved", "bdd")

    def test_truth_table_dag_equals_its_table(self):
        encoding = encode_model(resolve_design("am2-nb13", 8)[1], "am2-nb13")
        assert encoding.method == "truth-table"
        a, b = encode_module._pair_grid(8)
        inputs = encoding.netlist.inputs
        swept = compile_netlist(encoding.netlist).evaluate_words(
            [inputs[:8], inputs[8:]], [a, b]
        )
        np.testing.assert_array_equal(swept, encoding.table)

    def test_default_ladder_never_builds_a_table_dag(self, monkeypatch):
        def forbidden(table, bitwidth):
            raise AssertionError("truth-table netlist built on the exhaustive path")

        monkeypatch.setattr(encode_module, "_table_dag", forbidden)
        result = prove_equivalence("am2-nb13", 8)
        assert result.proved, [leg.detail for leg in result.legs]
        assert certify_worst_error("am2-nb13", 8).exact

    @pytest.mark.parametrize("z3", [False, True])
    def test_ladder_is_one_order_at_every_width(self, monkeypatch, z3):
        monkeypatch.setattr(backends_module, "z3_available", lambda: z3)
        order = ["exhaustive", "z3", "bdd"] if z3 else ["exhaustive", "bdd"]
        for bitwidth in (4, 8, 10, 12, 13, 16):
            ladder = backends_module.default_ladder(bitwidth)
            assert [rung.name for rung in ladder] == order

    def test_unknown_leg_names_each_rungs_reason(self, monkeypatch):
        # above 12 bits the exhaustive rung declines before the BDD rung;
        # both reasons must survive in the leg's detail
        default_ladder = equiv_module.default_ladder

        def small_budget_ladder(bitwidth):
            ladder = default_ladder(bitwidth)
            for rung in ladder:
                if isinstance(rung, backends_module.BddBackend):
                    rung.budget = 2000
            return ladder

        monkeypatch.setattr(backends_module, "z3_available", lambda: False)
        monkeypatch.setattr(equiv_module, "default_ladder", small_budget_ladder)
        legs = {leg.leg: leg for leg in prove_equivalence("realm16-t0", 16).legs}
        rtl = legs["model~rtl"]
        assert rtl.status == "unknown"
        assert "bdd: BDD exceeded 2000 nodes" in rtl.detail
        assert "exhaustive: 16 bits is above the 12-bit sweep limit" in rtl.detail

    @pytest.mark.parametrize("design", ["am1-nb13", "realm8-t2"])
    def test_gather_and_dag_agree_on_out_of_range_operands(self, design):
        # both reject an operand outside [0, 2**N) with the same error,
        # rather than silently drop its high bits
        _, model, _, _ = resolve_design(design, 8)
        for encoding in (encode_model(model, design), encode_kernel(model, design)):
            kernel = compile_netlist(encoding.netlist)
            buses = [encoding.netlist.inputs[:8], encoding.netlist.inputs[8:]]
            for a, b in ((256, 3), (300, 2), (-1, 4), (5, -2), (7, 1 << 9)):
                x, y = np.array([0, a]), np.array([9, b])
                with pytest.raises(ValueError) as from_kernel:
                    kernel.evaluate_words(buses, [x, y])
                with pytest.raises(ValueError) as from_table:
                    encoding.eval_pairs(x, y)
                assert str(from_table.value) == str(from_kernel.value)

    @pytest.mark.parametrize("design", ["scaletrim-t4-c2", "dnnco-l6"])
    def test_new_families_sixteen_bit_proves_or_skips(self, design):
        # at 16 bits the exhaustive sweep is out of reach and the
        # interval engines don't model these families; with an SMT
        # backend the certificate is exact, without one the failure must
        # be an honest UnsupportedDesignError, never a wrong bound
        try:
            bounds = certify_worst_error(design, 16)
        except UnsupportedDesignError as exc:
            assert str(exc)  # carries a reason, not a bare raise
            pytest.skip(f"16-bit certification unavailable: {exc}")
        assert bounds.replayed


#: one model per symbolic family: registry ids where one builds at
#: narrow widths, ad-hoc models for SSM, ESSM (even N - m) and ALM-LOA
SYMBOLIC_MODELS = {
    "REALM": lambda n: resolve_design("realm8-t2", n)[1],
    "REALM saturate": lambda n: RealmMultiplier(
        n, m=4, t=1, q=5, overflow="saturate"
    ),
    "MBM": lambda n: resolve_design("mbm-t2", n)[1],
    "cALM": lambda n: resolve_design("calm", n)[1],
    "ALM-LOA": lambda n: AlmLoa(n, m=3),
    "ALM-SOA": lambda n: resolve_design("alm-soa-m3", n)[1],
    "ALM-MAA": lambda n: resolve_design("alm-maa-m3", n)[1],
    "DRUM": lambda n: resolve_design("drum-k5", n)[1],
    "SSM": lambda n: SsmMultiplier(n, m=n - 3),
    "ESSM": lambda n: EssmMultiplier(n, m=n - 2),
    "scaleTRIM": lambda n: resolve_design("scaletrim-t4-c2", n)[1],
    "DNNCO": lambda n: resolve_design("dnnco-l6", n)[1],
    "Accurate": lambda n: resolve_design("accurate", n)[1],
}


class TestEncodingReuse:
    def test_prove_then_certify_builds_one_encoding(self, monkeypatch):
        builds = []
        encode_model = encode_module.encode_model

        def counted(model, design="?"):
            builds.append(design)
            return encode_model(model, design)

        monkeypatch.setattr(encode_module, "_RECENT", {})
        monkeypatch.setattr(encode_module, "encode_model", counted)
        assert prove_equivalence("drum-k5", 8).proved
        assert certify_worst_error("drum-k5", 8).exact
        assert builds == ["drum-k5"]
        assert prove_equivalence("calm", 8).proved
        assert builds == ["drum-k5", "calm"]

    def test_different_models_never_share_an_encoding(self, monkeypatch):
        monkeypatch.setattr(encode_module, "_RECENT", {})
        model_encoding = encode_module.model_encoding
        drum5 = model_encoding(DrumMultiplier(8, k=5), "drum")
        assert model_encoding(DrumMultiplier(8, k=5), "drum") is drum5
        drum6 = model_encoding(DrumMultiplier(8, k=6), "drum")
        assert drum6 is not drum5
        assert not np.array_equal(drum6.table, drum5.table)
        assert model_encoding(DrumMultiplier(8, k=5), "other") is not drum5
        assert len(encode_module._RECENT) == 1  # only the latest is held


class TestSymbolicEncoders:
    def test_every_symbolic_family_is_covered(self):
        families = {datapath_family(build(8)) for build in SYMBOLIC_MODELS.values()}
        assert families == set(ENCODERS)

    def test_overriding_subclass_is_not_its_family(self):
        # a DRUM subclass with its own datapath must not be encoded, or
        # given a netlist, as plain DRUM: at 8 bits its formula is its
        # own product table, and above that it has none
        class HalvedDrum(DrumMultiplier):
            def _multiply(self, a, b):
                return super()._multiply(a, b) // 2

        model = HalvedDrum(8, k=4)
        encoding = encode_model(model)
        assert encoding.method == "truth-table"
        a, b = encode_module._pair_grid(8)
        np.testing.assert_array_equal(
            encoding.table, model.multiply(a, b, compiled=False)
        )
        assert int(encoding.eval_pairs([200], [201])[0]) == 21632
        with pytest.raises(UnsupportedDesignError):
            encode_model(HalvedDrum(16, k=4))
        assert generator_for(model) is None

    @pytest.mark.parametrize("bitwidth", [8, 7])
    @pytest.mark.parametrize("name", sorted(SYMBOLIC_MODELS))
    def test_table_equals_interpreted_model(self, name, bitwidth):
        model = SYMBOLIC_MODELS[name](bitwidth)
        encoding = encode_model(model, name)
        assert encoding.method == "symbolic"
        a, b = encode_module._pair_grid(bitwidth)
        np.testing.assert_array_equal(
            encoding.table, model.multiply(a, b, compiled=False)
        )

    def test_stub_z3_lowering_agrees_with_eval_pairs(self):
        # the z3 backend's lowering, run on a stand-in that evaluates
        # z3's boolean surface on Python bools at one fixed assignment
        design_id, model, rtl_factory, _ = resolve_design("realm8-t2", 16)
        encodings = (
            encode_model(model, design_id),
            encode_netlist(rtl_factory(), 16, design_id),
        )
        rng = np.random.default_rng(0)
        pairs = [(0, 7), (1, 1), (65535, 65535)]
        pairs += [tuple(map(int, p)) for p in rng.integers(0, 1 << 16, (8, 2))]
        for a, b in pairs:
            bits = {f"a[{i}]": bool((a >> i) & 1) for i in range(16)}
            bits.update({f"b[{i}]": bool((b >> i) & 1) for i in range(16)})
            z3 = _stub_z3(bits)
            for encoding in encodings:
                variables = {}
                lowered = _to_z3(z3, encoding, variables)
                assert set(variables) == set(bits)
                value = sum(int(bit) << i for i, bit in enumerate(lowered))
                assert value == int(encoding.eval_pairs([a], [b])[0]), (
                    encoding.source, a, b
                )


def _stub_z3(assignment: dict[str, bool]):
    """A ``z3`` stand-in whose terms are Python bools at ``assignment``."""
    z3 = types.ModuleType("z3")
    z3.Bool = lambda label: assignment[label]
    z3.BoolVal = bool
    z3.And = lambda *terms: all(terms)
    z3.Or = lambda *terms: any(terms)
    z3.Xor = lambda x, y: x != y
    z3.Not = lambda x: not x
    z3.If = lambda cond, then, other: then if cond else other
    return z3


class TestFormalConformanceLayer:
    def test_formal_is_a_registered_layer(self):
        assert "formal" in LAYERS

    def test_chaos_corruption_refuted_with_shrunk_witness(self, tmp_path):
        spec = chaos.FaultSpec(
            kind="corrupt", block=0, design="realm16-t0", times=1 << 30
        )
        chaos.install([spec], tmp_path / "claims")
        try:
            oracle = DifferentialOracle(
                "realm16-t0", layers=("model", "formal")
            )
            rng = np.random.default_rng(0)
            a = rng.integers(0, 1 << 16, 256, dtype=np.int64)
            b = rng.integers(0, 1 << 16, 256, dtype=np.int64)
            records, total = oracle.evaluate(a, b)
            assert total > 0
            divergence = next(
                r for r in records if r.kind == "layer" and r.name == "formal"
            )
            witness = shrink_pair(
                lambda x, y: oracle.check_pair("layer", "formal", x, y),
                divergence.a,
                divergence.b,
            )
            # the corruption (+1 on nonzero products) reduces to the
            # smallest nonzero pair
            assert witness == (1, 1)
        finally:
            chaos.uninstall()

    def test_formal_layer_skips_unencodable_designs(self):
        oracle = DifferentialOracle("am1-nb13", layers=("model", "formal"))
        assert "formal" in oracle.skipped_layers


def _certificate(**fields) -> dict:
    """A 16-bit ``mbm-t2`` worst-case certificate payload."""
    payload = {
        "design": "mbm-t2", "bitwidth": 16, "kind": "worst-case-error",
        "method": "smt-ascent", "exact": True, "replayed": True,
        "peak_min": {"error_num": -1, "error_den": 12},
        "peak_max": {"error_num": 1, "error_den": 8},
    }
    payload.update(fields)
    return payload


def _record_formal(directory, *payloads) -> None:
    """Record payloads as one ``formal`` run, in ``repro formal``'s rows."""
    from repro.warehouse import Warehouse

    with Warehouse(directory / "warehouse.db") as wh:
        wh.record_run(
            "formal",
            [
                (payload["design"],
                 {"kind": "formal", "certificate": payload["kind"],
                  "design": payload["design"], "bitwidth": payload["bitwidth"]},
                 payload, False)
                for payload in payloads
            ],
        )


def _table1_rows(ids=("mbm-t2",), **kwargs) -> dict:
    from repro.experiments import table1_errors

    return {
        row["name"]: row
        for row in table1_errors(samples=2048, ids=list(ids), **kwargs)
    }


class TestCertificateStore:
    """Certificates are ``formal`` rows of the warehouse: Table I takes
    the newest worst-case row of a design at its bitwidth, and only when
    it is exact and replayed."""

    def test_roundtrip(self, tmp_path):
        from repro.warehouse import Warehouse

        calm6 = certify_worst_error("calm", 6).to_payload()
        _record_formal(tmp_path, _certificate(peak_max={"error_num": 1, "error_den": 2}))
        _record_formal(tmp_path, calm6, _certificate())
        with Warehouse(tmp_path / "warehouse.db") as wh:
            assert wh.certificates() == {
                ("calm", 6): calm6, ("mbm-t2", 16): _certificate()
            }
        rows = _table1_rows(("mbm-t2", "calm"), warehouse=tmp_path)
        assert (rows["mbm-t2"]["peak_min"], rows["mbm-t2"]["peak_max"]) == (
            100.0 * -1 / 12, 100.0 * 1 / 8
        )
        assert rows["mbm-t2"]["peak_certified"]
        # a 6-bit certificate says nothing about the 16-bit Table I row
        assert not rows["calm"]["peak_certified"]

    def test_kind_mismatch_returns_none(self, tmp_path):
        # an equivalence row is no worst-case certificate, and the newest
        # worst-case row is used only when exact and replayed
        for label, payload in [
            ("equivalence", _certificate(kind="equivalence")),
            ("inexact", _certificate(exact=False)),
            ("unreplayed", _certificate(replayed=False)),
        ]:
            _record_formal(tmp_path / label, payload)
            rows = _table1_rows(warehouse=tmp_path / label)
            assert not rows["mbm-t2"]["peak_certified"], label
        _record_formal(tmp_path / "equivalence", _certificate())
        _record_formal(tmp_path / "equivalence", _certificate(kind="equivalence"))
        assert _table1_rows(warehouse=tmp_path / "equivalence")["mbm-t2"]["peak_certified"]

    def test_corrupt_certificate_returns_none(self, tmp_path):
        from repro.warehouse import Warehouse

        _record_formal(tmp_path, _certificate())
        with Warehouse(tmp_path / "warehouse.db") as wh:
            wh.connect().execute("UPDATE results SET data = '{broken'")
            (row,) = wh.results()
            assert row.data is None
            assert wh.certificates() == {}
        assert not _table1_rows(warehouse=tmp_path)["mbm-t2"]["peak_certified"]

    def test_disabled_cache_stores_nothing(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        state = tmp_path / "state"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(state))
        monkeypatch.delenv("REPRO_WAREHOUSE_DIR", raising=False)
        code = main(["formal", "--design", "realm-8-m4-q4", "--bitwidth", "8",
                     "--max-error"])
        capsys.readouterr()
        assert code == 0
        assert not state.exists()  # no warehouse: nothing is recorded
        # the state directory alone brings no certificate in: Table I
        # reads the warehouse it is given
        _record_formal(state / "warehouse", _certificate())
        assert not _table1_rows()["mbm-t2"]["peak_certified"]
        assert _table1_rows(warehouse=True)["mbm-t2"]["peak_certified"]

    def test_formal_run_certifies_table1(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["formal", "--design", "drum-k8", "--max-error",
                     "--warehouse", str(tmp_path)])
        capsys.readouterr()
        assert code == 0
        rows = _table1_rows(("drum-k8", "calm"), warehouse=tmp_path)
        drum = rows["drum-k8"]
        assert drum["peak_certified"]
        assert (f"{drum['peak_min']:+.6f}", f"{drum['peak_max']:+.6f}") == (
            "-1.526627", "+1.568604"
        )
        assert not rows["calm"]["peak_certified"]


class TestPeakCertified:
    def test_full_range_exhaustive_sweep_certifies(self):
        _, model, _, _ = resolve_design("realm-8-m4-q5", None)
        metrics = exhaustive_metrics(model)
        assert metrics.peak_certified == (metrics.peak_min, metrics.peak_max)
        # row() and the design-space peak prefer the certified values
        assert metrics.row()[2:4] == metrics.peak_certified
        assert "certified peak" in str(metrics)

    def test_partial_range_sweep_does_not_certify(self):
        _, model, _, _ = resolve_design("realm-8-m4-q5", None)
        assert exhaustive_metrics(model, 32, 255).peak_certified is None

    def test_cache_roundtrips_and_tolerates_old_entries(self, tmp_path):
        from repro.analysis.cache import cache_key
        from repro.analysis.metrics import ErrorMetrics
        from repro.warehouse import Warehouse, metrics_fields

        metrics = ErrorMetrics(
            bias=0.1, mean_error=1.0, peak_min=-2.0, peak_max=3.0,
            variance=0.5, rms=1.1, nmed=0.2, samples=100,
            peak_certified=(-2.5, 3.5),
        )
        wh = Warehouse(tmp_path / "warehouse.db")
        wh.record_run("characterize", [("k", {"k": 1}, metrics_fields(metrics), False)])
        loaded = wh.latest_metrics(cache_key({"k": 1}))
        assert loaded == metrics
        assert loaded.peak_certified == (-2.5, 3.5)

        # rows written before the field existed still load
        fields = metrics_fields(metrics)
        del fields["peak_certified"]
        wh.record_run("characterize", [("k", {"k": 2}, fields, False)])
        old = wh.latest_metrics(cache_key({"k": 2}))
        assert old is not None and old.peak_certified is None

    def test_table1_prefers_stored_certificates(self, tmp_path):
        _record_formal(tmp_path, _certificate())
        rows = _table1_rows(("mbm-t2", "calm"), warehouse=tmp_path)
        assert rows["mbm-t2"]["peak_certified"]
        assert rows["mbm-t2"]["peak_min"] == pytest.approx(-100.0 / 12)
        assert rows["mbm-t2"]["peak_max"] == pytest.approx(100.0 / 8)
        assert not rows["calm"]["peak_certified"]


class TestFormalCli:
    def run(self, capsys, *argv):
        from repro.cli import main

        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out

    def test_prove_and_max_error(self, capsys):
        code, out = self.run(
            capsys, "formal", "--design", "realm-8-m4-q5",
            "--prove-equiv", "--max-error",
        )
        assert code == 0
        assert "proved" in out
        assert "peak_max" in out
        assert "exact" in out

    def test_requires_a_query(self, capsys):
        code, _ = self.run(capsys, "formal", "--design", "calm")
        assert code == 2

    def test_unknown_design_exits_two(self, capsys):
        code, _ = self.run(capsys, "formal", "--design", "nope", "--max-error")
        assert code == 2

    @pytest.mark.parametrize("design", ["calm", "accurate"])
    def test_ten_bit_proof_takes_the_exhaustive_rung(self, capsys, design):
        # one log-family and one product-form design: the sweep decides
        # every width up to 12 bits, so it runs before z3 and the BDD
        code, out = self.run(
            capsys, "formal", "--design", design, "--bitwidth", "10",
            "--prove-equiv",
        )
        assert code == 0
        (rtl,) = [line for line in out.splitlines() if "model~rtl" in line]
        assert "proved [exhaustive]" in rtl
