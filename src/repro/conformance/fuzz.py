"""Coverage-guided differential fuzzing with counterexample shrinking.

The generator is **deterministic**: every batch of operand pairs is a
pure function of ``(seed, batch_index)`` through the same counter-based
substreams the Monte-Carlo engine uses
(:func:`repro.analysis.parallel.substream`), and batch *planning* only
reads coverage state that was folded in ascending batch order, so
repeated runs produce identical JSON.

The loop:

1. seed the **corpus** — operand corners (zeros, ones, powers of two and
   their neighbours, all-ones) and every segment-boundary value ±1;
2. while budget remains and reachable cells are uncovered, plan one
   round: synthesize one pair per uncovered ``(ka, kb, i, j)`` cell and
   per uncovered fraction-LSB pattern, plus boundary **mutations** of
   pairs that previously hit new cells (±1, bit flips at and just below
   the leading-one position, halving, min/max fractions);
3. evaluate the round through the :class:`~repro.conformance.oracles.
   DifferentialOracle`, one pass per group of whole batches (at most
   :data:`ROUND_PAIRS` pairs), and fold coverage and divergences in
   batch order.  Batches, not groups, set the substreams and the
   per-check record limit, so the grouping never changes the report;
4. **shrink** the first divergence of every failing check to a locally
   minimal pair (operand halving, then greedy MSB-first bit clearing,
   then decrement — each accepted move strictly shrinks ``a + b``); the
   shrunk pairs land in the result, its JSON report and, with a
   warehouse on, the campaign's ``conformance`` row.
"""

from __future__ import annotations

import dataclasses
import functools
import time

import numpy as np

from ..analysis import telemetry
from ..analysis.parallel import substream
from .coverage import CoverageMap, default_segments
from .oracles import DifferentialOracle, Divergence

__all__ = ["BatchSpec", "FuzzResult", "fuzz", "shrink_pair"]

#: operand pairs per batch: the unit of substreams, of the per-check
#: divergence record limit and of the coverage fold
BATCH_PAIRS = 256

#: most pairs one planning round may spend, and one oracle pass (a group
#: of whole batches) may evaluate: within the serve layer's
#: ``BatchPolicy.max_batch``
ROUND_PAIRS = 4096

#: planning rounds before giving up on the remaining cells
MAX_ROUNDS = 128

#: new-cell-hitting pairs kept as mutation bases
MAX_INTERESTING = 256

#: divergence records carried in the result (totals stay exact)
MAX_RECORDS = 64


# ----------------------------------------------------------------------
# Pure batch generation
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class BatchSpec:
    """One plannable, picklable unit of generation + evaluation.

    ``index`` selects the substream; ``kind`` picks the generator
    (``corpus``/``cells``/``lsb``/``mutate``); ``payload`` carries the
    explicit targets (cell tuples, LSB patterns, or base pairs) so
    generation never reads shared state.
    """

    index: int
    kind: str
    payload: tuple = ()
    start: int = 0
    count: int = 0


def corner_values(bitwidth: int) -> np.ndarray:
    """Deduplicated operand corners: 0..3, ``2**k`` and neighbours, max."""
    top = (1 << bitwidth) - 1
    values = {0, 1, 2, 3, top, top - 1}
    for k in range(bitwidth):
        for v in ((1 << k) - 1, 1 << k, (1 << k) + 1):
            if 0 <= v <= top:
                values.add(v)
    return np.array(sorted(values), dtype=np.int64)


def segment_edge_values(bitwidth: int, m: int) -> np.ndarray:
    """Every segment-boundary operand value, ±1 (the REALM LUT seams)."""
    top = (1 << bitwidth) - 1
    logm = m.bit_length() - 1
    values = set()
    for ka in range(bitwidth):
        base = 1 << ka
        if ka >= logm:
            step = 1 << (ka - logm)
            edges = [base + i * step for i in range(m)]
        else:
            edges = [base + (i >> (logm - ka)) for i in range(0, m, m >> ka)]
        for edge in edges:
            for v in (edge - 1, edge, edge + 1):
                if 0 <= v <= top:
                    values.add(v)
    return np.array(sorted(values), dtype=np.int64)


@functools.lru_cache(maxsize=16)
def corpus_pairs(bitwidth: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The canonical seed corpus: corner cross products + boundary pairs.

    Built once per ``(bitwidth, m)`` and shared by every corpus batch of
    every campaign on that grid, so the arrays are read-only.
    """
    corners = corner_values(bitwidth)
    if corners.size > 32:
        picks = np.linspace(0, corners.size - 1, 32).astype(np.int64)
        corners = np.unique(corners[picks])
    a = [np.repeat(corners, corners.size)]
    b = [np.tile(corners, corners.size)]
    edges = segment_edge_values(bitwidth, m)
    top = (1 << bitwidth) - 1
    for partner in (edges[::-1], np.full_like(edges, 1), np.full_like(edges, top)):
        a.append(edges)
        b.append(partner)
    a, b = np.concatenate(a), np.concatenate(b)
    a.flags.writeable = False
    b.flags.writeable = False
    return a, b


def _cell_operands(k: np.ndarray, segment: np.ndarray, m: int, rng) -> np.ndarray:
    """Values in leading-one intervals ``k`` selecting ``segment``.

    An interval with at least ``log2(M)`` fraction bits draws the bits
    below the segment, all in one call and in row-major order; a
    narrower one holds a single value per reachable segment and draws
    nothing.
    """
    shift = k - (m.bit_length() - 1)
    step = 1 << np.maximum(shift, 0)
    below = segment >> np.maximum(-shift, 0)
    values = (1 << k) + np.where(shift >= 0, segment * step, below)
    free = step > 1
    values[free] += rng.integers(0, step[free])
    return values


def _mutations(a: int, b: int, bitwidth: int, rng) -> list[tuple[int, int]]:
    """Boundary mutations of one base pair (clipped to the operand range)."""
    top = (1 << bitwidth) - 1
    out = []

    def lod_flips(v: int) -> list[int]:
        if v <= 0:
            return [1]
        lod = v.bit_length() - 1
        flips = [v ^ (1 << lod)]  # drop the leading one: interval transition
        if lod > 0:
            flips.append(v ^ (1 << (lod - 1)))  # graze the segment MSB
        flips.append(v ^ (1 << int(rng.integers(0, lod + 1))))
        return flips

    for va in (a - 1, a + 1, a >> 1, *lod_flips(a)):
        out.append((va, b))
    for vb in (b - 1, b + 1, b >> 1, *lod_flips(b)):
        out.append((a, vb))
    if a > 0:  # min/max fractions of a's interval
        ka = a.bit_length() - 1
        out.append(((1 << ka), b))
        out.append(((1 << (ka + 1)) - 1 if ka + 1 < bitwidth else top, b))
    return [(min(max(x, 0), top), min(max(y, 0), top)) for x, y in out]


def generate_batch(
    spec: BatchSpec, bitwidth: int, m: int, lsb_bits: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Materialize one batch — a pure function of ``(spec, seed)``."""
    rng = substream(seed, spec.index)
    if spec.kind == "corpus":
        a, b = corpus_pairs(bitwidth, m)
        return (
            a[spec.start : spec.start + spec.count],
            b[spec.start : spec.start + spec.count],
        )
    if spec.kind == "cells":
        # one row per pair, a then b: the draws run in that order, which
        # the batches' structure digest pins
        cells = np.array(spec.payload, dtype=np.int64).reshape(-1, 4)
        a, b = _cell_operands(cells[:, :2], cells[:, 2:], m, rng).T.copy()
        return a, b
    if spec.kind == "lsb":
        # a max-interval value per operand whose fraction LSBs equal its
        # pattern, the high fraction bits drawn a then b per pair
        patterns = np.array(spec.payload, dtype=np.int64).reshape(-1, 2)
        width = bitwidth - 1
        high = rng.integers(0, 1 << max(0, width - lsb_bits), size=patterns.shape)
        values = (1 << width) + ((high << lsb_bits) | patterns) % (1 << width)
        a, b = values.T.copy()
        return a, b
    if spec.kind == "mutate":
        pairs = []
        for base_a, base_b in spec.payload:
            pairs.extend(_mutations(int(base_a), int(base_b), bitwidth, rng))
        pairs = pairs[: spec.count] if spec.count else pairs
        if not pairs:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        arr = np.array(pairs, dtype=np.int64)
        return arr[:, 0], arr[:, 1]
    raise ValueError(f"unknown batch kind {spec.kind!r}")


# ----------------------------------------------------------------------
# The fuzzing loop
# ----------------------------------------------------------------------


@dataclasses.dataclass
class FuzzResult:
    """Everything one fuzzing campaign established."""

    design: str
    bitwidth: int
    m: int
    seed: int
    budget: int
    pairs: int
    rounds: int
    full_cover: bool
    layers: tuple[str, ...]
    skipped_layers: dict[str, str]
    relations: tuple[str, ...]
    coverage: CoverageMap
    records: list[Divergence]
    counts: dict[str, int]
    total_divergences: int
    shrunk: list[dict]

    @property
    def ok(self) -> bool:
        return self.total_divergences == 0


def _plan_round(coverage: CoverageMap, interesting, next_index: int, budget_left: int):
    """Batch specs for one round, reading only folded coverage state."""
    specs: list[BatchSpec] = []
    allowance = min(budget_left, ROUND_PAIRS)
    cells = coverage.uncovered()[:allowance]
    for start in range(0, len(cells), BATCH_PAIRS):
        chunk = cells[start : start + BATCH_PAIRS]
        specs.append(
            BatchSpec(
                index=next_index + len(specs),
                kind="cells",
                payload=tuple(map(tuple, chunk.tolist())),
            )
        )
        allowance -= len(chunk)
    patterns = coverage.uncovered_lsb()[: max(0, allowance)]
    if len(patterns):
        specs.append(
            BatchSpec(
                index=next_index + len(specs),
                kind="lsb",
                payload=tuple(map(tuple, patterns.tolist())),
            )
        )
        allowance -= len(patterns)
    if allowance > 0 and interesting:
        specs.append(
            BatchSpec(
                index=next_index + len(specs),
                kind="mutate",
                payload=tuple(interesting[-16:]),
                count=min(allowance, BATCH_PAIRS),
            )
        )
    return specs


def _groups(batches):
    """The non-empty batches in order, in runs of at most
    :data:`ROUND_PAIRS` pairs."""
    group, size = [], 0
    for a, b in batches:
        if a.size == 0:
            continue
        if group and size + a.size > ROUND_PAIRS:
            yield group
            group, size = [], 0
        group.append((a, b))
        size += a.size
    if group:
        yield group


def fuzz(
    design: str,
    budget: int,
    seed: int = 0,
    *,
    bitwidth: int | None = None,
    layers=None,
    m: int | None = None,
    limit: int = 8,
    on_progress=None,
    warehouse=None,
) -> FuzzResult:
    """Run one coverage-guided conformance campaign.

    ``budget`` bounds generated operand pairs; the campaign stops early on
    full coverage of every reachable cell and LSB pattern.  ``warehouse``
    opts into the experiment warehouse: the campaign summary (coverage,
    divergences, shrunk counterexamples) is recorded as one
    ``conformance`` run with full provenance.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    campaign_start = time.perf_counter()
    layers = tuple(layers) if layers else None
    oracle = DifferentialOracle(design, bitwidth, layers)
    n = oracle.bitwidth
    grid = m if m is not None else default_segments(oracle.model)
    coverage = CoverageMap(n, grid)
    tele = telemetry.get()

    corpus_a, _ = corpus_pairs(n, grid)
    corpus_size = min(int(corpus_a.size), budget)
    specs = [
        BatchSpec(
            index=batch,
            kind="corpus",
            start=start,
            count=min(BATCH_PAIRS, corpus_size - start),
        )
        for batch, start in enumerate(range(0, corpus_size, BATCH_PAIRS))
    ]
    next_index = len(specs)

    records: list[Divergence] = []
    counts: dict[str, int] = {}
    first_by_key: dict[tuple[str, str], Divergence] = {}
    interesting: list[tuple[int, int]] = []
    total = 0
    pairs_done = 0
    pairs_reported = 0
    rounds = 0

    while specs:
        # one oracle pass per group of batches
        batches = [
            generate_batch(spec, n, grid, coverage.lsb_bits, seed) for spec in specs
        ]
        verdicts = [
            oracle.evaluate(
                np.concatenate([a for a, _ in group]),
                np.concatenate([b for _, b in group]),
                limit=limit,
                batches=[a.size for a, _ in group],
            )
            for group in _groups(batches)
        ]
        for a, b in batches:
            if a.size == 0:
                continue
            new_mask = coverage.newly_covered(a, b)
            coverage.update(a, b)
            if len(interesting) < MAX_INTERESTING:
                for pos in np.nonzero(new_mask)[0][:8]:
                    interesting.append((int(a[pos]), int(b[pos])))
            pairs_done += int(a.size)
        for batch_records, batch_total in verdicts:
            total += batch_total
            for record in batch_records:
                counts_key = f"{record.kind}:{record.name}"
                counts[counts_key] = counts.get(counts_key, 0) + 1
                first_by_key.setdefault(record.key(), record)
                if len(records) < MAX_RECORDS:
                    records.append(record)
        rounds += 1
        tele.gauge("conform.coverage", coverage.segment_cell_coverage())
        tele.counter("conform.pairs", pairs_done - pairs_reported)
        pairs_reported = pairs_done
        if on_progress is not None:
            on_progress(
                {
                    "event": "round",
                    "round": rounds,
                    "pairs": pairs_done,
                    "coverage": coverage.segment_cell_coverage(),
                    "divergences": total,
                }
            )
        if pairs_done >= budget or coverage.full_cover() or rounds >= MAX_ROUNDS:
            break
        specs = _plan_round(coverage, interesting, next_index, budget - pairs_done)
        next_index += len(specs)

    shrunk = []
    for (kind, name), record in sorted(first_by_key.items()):
        with tele.span("conform.shrink", design=oracle.design, check=f"{kind}:{name}"):
            small_a, small_b = shrink_pair(
                lambda x, y: oracle.check_pair(kind, name, x, y),
                record.a,
                record.b,
            )
        shrunk.append(
            {
                "kind": kind,
                "name": name,
                "a": record.a,
                "b": record.b,
                "shrunk_a": small_a,
                "shrunk_b": small_b,
                "got": record.got,
                "want": record.want,
            }
        )
    oracle.close()

    result = FuzzResult(
        design=oracle.design,
        bitwidth=n,
        m=grid,
        seed=seed,
        budget=budget,
        pairs=pairs_done,
        rounds=rounds,
        full_cover=coverage.full_cover(),
        layers=oracle.layers,
        skipped_layers=dict(oracle.skipped_layers),
        relations=oracle.relations,
        coverage=coverage,
        records=records,
        counts=counts,
        total_divergences=total,
        shrunk=shrunk,
    )
    _record_campaign(result, time.perf_counter() - campaign_start, warehouse)
    return result


def shrink_pair(check, a: int, b: int, max_checks: int = 4096) -> tuple[int, int]:
    """Greedy shrink of a divergent pair to a locally minimal one.

    ``check(a, b) -> bool`` decides whether the divergence persists.
    Candidate moves — operand halving, MSB-first bit clearing, decrement —
    all strictly decrease ``a + b``, so the loop terminates; the result is
    minimal in the sense that no single remaining move keeps the check
    failing.  Deterministic: same check and start pair, same result.
    """
    if not check(a, b):
        return a, b
    budget = max_checks
    improved = True
    while improved and budget > 0:
        improved = False
        for candidate in _shrink_candidates(a, b):
            budget -= 1
            if check(*candidate):
                a, b = candidate
                improved = True
                break
            if budget <= 0:
                break
    return a, b


def _shrink_candidates(a: int, b: int):
    if a > 0:
        yield a >> 1, b
    if b > 0:
        yield a, b >> 1
    for bit in reversed(range(max(0, a.bit_length() - 1))):
        if (a >> bit) & 1:
            yield a & ~(1 << bit), b
    for bit in reversed(range(max(0, b.bit_length() - 1))):
        if (b >> bit) & 1:
            yield a, b & ~(1 << bit)
    if a > 0:
        yield a - 1, b
    if b > 0:
        yield a, b - 1


def _record_campaign(result: FuzzResult, wall: float, warehouse) -> None:
    """Record the campaign summary in the experiment warehouse, if on."""
    from ..warehouse.store import Session

    payload = {
        "kind": "conformance",
        "design": result.design,
        "bitwidth": result.bitwidth,
        "m": result.m,
        "seed": result.seed,
        "budget": result.budget,
        "layers": list(result.layers),
        "relations": list(result.relations),
    }
    data = {
        "pairs": result.pairs,
        "rounds": result.rounds,
        "full_cover": result.full_cover,
        "coverage": result.coverage.segment_cell_coverage(),
        "total_divergences": result.total_divergences,
        "counts": dict(sorted(result.counts.items())),
        "counterexamples": result.shrunk,
    }
    with Session(warehouse, "conformance") as store:
        store.record(
            [(result.design, payload, data, False)],
            seed=result.seed,
            samples=result.pairs,
            wall_seconds=wall,
        )
