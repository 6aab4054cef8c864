"""Formal-layer wall-clock: encode, prove and certify per family and width.

Each benchmark measures one stage of the certification pipeline —
symbolic encoding (``formal.encode``), the 8-bit model~RTL~kernel proof
(``formal.prove_equiv``) and worst-case-error solving (``formal.solve``)
— for a representative design of each family at N ∈ {8, 12, 16}.
``extra_info`` records the route taken (exhaustive sweep, ratio
factorization, interval branch-and-bound, or SMT when z3 is installed)
and whether the answer is exact, so the CI artifact shows the fallback
ladder's cost at a glance.

Run directly (``python benchmarks/bench_formal.py``) for a quick
wall-clock table without pytest-benchmark.
"""

from __future__ import annotations

import time

from repro.conformance.oracles import resolve_design
from repro.formal import (
    UnsupportedDesignError,
    certify_worst_error,
    encode_model,
    prove_equivalence,
    z3_available,
)

#: one design per symbolically-encodable family, plus a truth-table
#: family (encodable at 8 bits only); built at several widths
FAMILY_DESIGNS = [
    "realm8-t2",  # REALM (LUT-corrected log)
    "mbm-t2",  # MBM (rounded correction)
    "calm",  # pure Mitchell log
    "drum-k5",  # dynamic range truncation
    "ssm-m8",  # static segment
    "accurate",  # exact baseline
    "am1-nb13",  # AM1 array multiplier (product table)
]

BITWIDTHS = [8, 12, 16]

#: keep the 16-bit interval engine quick: a small budget still yields a
#: sound (just looser) bound, which is what the timing should reflect
BENCH_BOX_BUDGET = 4000


def _certify(design: str, bitwidth: int):
    return certify_worst_error(design, bitwidth, box_budget=BENCH_BOX_BUDGET)


def _time(fn, repeat: int = 3) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _bench_encode(benchmark, design: str, bitwidth: int):
    _, model, _, _ = resolve_design(design, bitwidth)
    encoding = benchmark(lambda: encode_model(model, design))
    benchmark.extra_info["design"] = design
    benchmark.extra_info["bitwidth"] = bitwidth
    benchmark.extra_info["gates"] = encoding.netlist.gate_count


def _bench_solve(benchmark, design: str, bitwidth: int):
    bounds = benchmark(lambda: _certify(design, bitwidth))
    benchmark.extra_info["design"] = design
    benchmark.extra_info["bitwidth"] = bitwidth
    benchmark.extra_info["method"] = bounds.method
    benchmark.extra_info["exact"] = bounds.exact
    benchmark.extra_info["smt_backend"] = z3_available()


def test_perf_formal_encode_realm(benchmark):
    """REALM16 symbolic lowering at the paper's operand width."""
    _bench_encode(benchmark, "realm8-t2", 16)


def test_perf_formal_encode_calm(benchmark):
    """cALM symbolic lowering at the paper's operand width."""
    _bench_encode(benchmark, "calm", 16)


def test_perf_formal_prove_table(benchmark):
    """8-bit model~RTL~kernel proof of a truth-table family, as conform runs it."""
    result = benchmark(lambda: prove_equivalence("am1-nb13", 8))
    benchmark.extra_info["design"] = "am1-nb13"
    benchmark.extra_info["legs"] = {leg.leg: leg.status for leg in result.legs}


def test_perf_formal_solve_sweep(benchmark):
    """8-bit exhaustive formula sweep: the tier-1 certification route."""
    _bench_solve(benchmark, "realm8-t2", 8)


def test_perf_formal_solve_ratio(benchmark):
    """16-bit product-form factorization: exact in closed form."""
    _bench_solve(benchmark, "drum-k5", 16)


def test_perf_formal_solve_interval(benchmark):
    """16-bit log-family branch-and-bound (SMT when z3 is installed)."""
    _bench_solve(benchmark, "realm8-t2", 16)


def _buildable(design: str, bitwidth: int) -> bool:
    try:
        resolve_design(design, bitwidth)
    except ValueError:
        return False
    return True


def main() -> None:
    print(f"z3 backend: {'yes' if z3_available() else 'no (pure python)'}")
    print("formal.encode (best of 3):")
    for design in FAMILY_DESIGNS:
        for bitwidth in BITWIDTHS:
            if not _buildable(design, bitwidth):
                continue
            _, model, _, _ = resolve_design(design, bitwidth)
            try:
                seconds = _time(lambda: encode_model(model, design))
            except UnsupportedDesignError:
                print(f"  {design:<10} N={bitwidth:<3}   unsupported")
                continue
            print(f"  {design:<10} N={bitwidth:<3} {seconds * 1e3:8.2f} ms")
    print("formal.prove_equiv, N=8 (best of 3):")
    for design in FAMILY_DESIGNS:
        if _buildable(design, 8):
            seconds = _time(lambda: prove_equivalence(design, 8))
            print(f"  {design:<10} N=8   {seconds * 1e3:8.1f} ms")
    print(f"formal.solve (best of 1, budget {BENCH_BOX_BUDGET}):")
    for design in FAMILY_DESIGNS:
        for bitwidth in BITWIDTHS:
            if not _buildable(design, bitwidth):
                continue
            start = time.perf_counter()
            try:
                bounds = _certify(design, bitwidth)
            except UnsupportedDesignError:
                print(f"  {design:<10} N={bitwidth:<3}   unsupported")
                continue
            seconds = time.perf_counter() - start
            print(
                f"  {design:<10} N={bitwidth:<3} {seconds * 1e3:8.1f} ms   "
                f"{bounds.method:<13} "
                f"{'exact' if bounds.exact else 'sound bound'}"
            )


if __name__ == "__main__":
    main()
