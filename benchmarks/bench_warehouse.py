"""Overhead and payoff of the experiment warehouse (DESIGN.md §15).

Three numbers size the store for CI budgets: how much recording a run
costs on top of the engine (cold, per campaign), how fast a warm
campaign returns when every fingerprint is already recorded (the
incremental-recompute payoff), and raw lookup throughput against a
populated database.  ``extra_info`` carries the measured rates so the
perf trajectory keeps warehouse overhead visible next to the engine
numbers it amortizes.
"""

from __future__ import annotations

import pytest

from repro.analysis import telemetry
from repro.analysis.cache import cache_key
from repro.analysis.montecarlo import characterize_many
from repro.multipliers.registry import build
from repro.warehouse import Warehouse

SAMPLES = 1 << 16
DESIGNS = ("calm", "mbm-t0", "realm4-t0")


def _items():
    return [(name, build(name)) for name in DESIGNS]


def test_perf_cold_campaign_with_recording(benchmark, tmp_path):
    """Engine run + one atomic record_run per campaign (fresh store)."""
    runs = iter(range(1 << 20))

    def campaign():
        db = tmp_path / f"cold-{next(runs)}.db"
        return characterize_many(_items(), samples=SAMPLES, warehouse=db)

    results = benchmark.pedantic(campaign, rounds=3, iterations=1)
    assert len(results) == len(DESIGNS)
    rate = len(DESIGNS) * SAMPLES / benchmark.stats["mean"]
    benchmark.extra_info["pairs_per_sec"] = round(rate)


def test_perf_warm_campaign_zero_recompute(benchmark, tmp_path):
    """Every fingerprint already stored: the sweep is pure lookups."""
    db = tmp_path / "warm.db"
    cold = characterize_many(_items(), samples=SAMPLES, warehouse=db)

    def campaign():
        with telemetry.recording() as rec:
            warm = characterize_many(_items(), samples=SAMPLES, warehouse=db)
        return warm, rec.snapshot

    (warm, snapshot) = benchmark.pedantic(campaign, rounds=3, iterations=1)
    assert warm == cold  # bit-identical to the recomputation it replaced
    assert snapshot.counter("warehouse.deltas") == 0
    benchmark.extra_info["designs_per_sec"] = round(
        len(DESIGNS) / benchmark.stats["mean"]
    )


def test_perf_lookup_throughput(benchmark, tmp_path):
    """latest_metrics against a store holding a few hundred rows."""
    from repro.warehouse import Provenance, metrics_fields

    wh = Warehouse(tmp_path / "lookup.db")
    provenance = Provenance(git_rev="0" * 40, engine_version=2, kernel_version=1)
    metrics = characterize_many(_items(), samples=SAMPLES, warehouse=False)
    payloads = []
    for round_index in range(100):
        rows = []
        for name in DESIGNS:
            payload = {"design": name, "round": round_index}
            payloads.append(cache_key(payload))
            rows.append((name, payload, metrics_fields(metrics[name]), False))
        wh.record_run(
            "characterize", rows, seed=0, samples=SAMPLES,
            provenance=provenance, created=1754600000.0 + round_index,
        )

    def lookups():
        found = 0
        for fingerprint in payloads:
            if wh.latest_metrics(fingerprint) is not None:
                found += 1
        return found

    found = benchmark.pedantic(lookups, rounds=3, iterations=1)
    wh.close()
    assert found == len(payloads)
    benchmark.extra_info["lookups_per_sec"] = round(
        len(payloads) / benchmark.stats["mean"]
    )


if __name__ == "__main__":  # pragma: no cover - manual smoke entry
    raise SystemExit(pytest.main([__file__, "--benchmark-only", "-q"]))
