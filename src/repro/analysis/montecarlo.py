"""Monte-Carlo error characterization (paper Section IV-B).

The paper draws 2^24 input pairs uniformly from ``{0, ..., 2**16 - 1}``
and reports the error statistics of every design against the accurate
product.  :func:`characterize` reproduces that with a deterministic
substream engine (see :mod:`repro.analysis.parallel`): operands are drawn
in fixed 2^16-sample blocks, block ``i`` from
``np.random.default_rng([seed, i])``, and per-block accumulators merge in
block order.  The guarantees:

* the input stream is a pure function of ``(seed, samples)``;
* the resulting :class:`ErrorMetrics` are **bit-identical** at any
  ``chunk`` size and any ``workers`` count;
* the same ``seed`` drives identical inputs into every design, so
  cross-design comparisons are noise-free.

Every entry point runs the same block-major campaign
(:func:`characterize_many`; :func:`characterize` and
:func:`characterize_workload` are one-design campaigns): each block is
drawn, and its exact products computed, once for all the designs that
share its draw.

Runs can be fanned out across processes (``workers=``) and memoized in a
content-addressed on-disk cache (``cache=``, see
:mod:`repro.analysis.cache`); ``progress=`` receives event dicts with
per-run wall time, throughput and cache outcome.  Long campaigns survive
worker faults: batches retry with backoff (``max_retries=``), hung
workers time out (``batch_timeout=``), broken pools rebuild and
eventually degrade to serial execution, and per-block state can
checkpoint to disk and resume (``checkpoint=``/``resume=``) — see
:mod:`repro.analysis.runtime` for the guarantees.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import time

import numpy as np

from ..multipliers.base import Multiplier
from ..multipliers.registry import fingerprint
from . import telemetry
from .cache import cache_key, load_metrics, resolve_cache_dir, store_metrics
from .metrics import ErrorMetrics
from .parallel import (
    SamplerDraw,
    UniformDraw,
    block_plan,
    campaign_task,
    draw_uniform_block,
)
from .runtime import Checkpoint, ResiliencePolicy, run_campaign

__all__ = [
    "ENGINE_VERSION",
    "PAPER_SAMPLES",
    "characterize",
    "characterize_many",
    "characterize_workload",
    "gaussian_sampler",
    "lognormal_sampler",
    "sample_pairs",
]

#: the paper's sample count
PAPER_SAMPLES = 1 << 24

#: bump on any change to the input stream or accumulation scheme; part of
#: every cache key, so stale entries can never be replayed
ENGINE_VERSION = 2

_CHUNK = 1 << 20


def sample_pairs(bitwidth: int, samples: int, seed: int = 2020):
    """Yield the engine's uniform ``(a, b)`` operand blocks for one run.

    This is the exact input stream :func:`characterize` feeds every
    design: ``samples`` pairs i.i.d. uniform over ``[0, 2**bitwidth)``,
    delivered as int64 array blocks of at most 2^16 pairs, depending only
    on ``(seed, samples)``.
    """
    if bitwidth < 1:
        raise ValueError(f"bitwidth must be >= 1, got {bitwidth}")
    plan = block_plan(samples)  # validates samples

    def blocks():
        for index, count in plan:
            yield draw_uniform_block(bitwidth, seed, index, count)

    return blocks()


def _max_product(multiplier: Multiplier) -> int:
    return ((1 << multiplier.bitwidth) - 1) ** 2


def _validate_engine_args(samples, chunk, workers) -> None:
    """Clear errors at the API boundary, before any fan-out machinery."""
    if not isinstance(samples, (int, np.integer)) or isinstance(samples, bool):
        raise ValueError(f"samples must be an integer, got {samples!r}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not isinstance(chunk, (int, np.integer)) or isinstance(chunk, bool):
        raise ValueError(f"chunk must be an integer, got {chunk!r}")
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    if workers is not None and workers < 0:
        raise ValueError(
            f"workers must be None or a non-negative integer, got {workers}"
        )


def _resolve_policy(policy, max_retries, batch_timeout) -> ResiliencePolicy | None:
    """Fold the convenience knobs into a policy (``None`` = runtime default)."""
    if policy is not None:
        if max_retries is not None or batch_timeout is not None:
            raise ValueError(
                "pass either policy= or max_retries=/batch_timeout=, not both"
            )
        return policy
    overrides = {}
    if max_retries is not None:
        overrides["max_retries"] = max_retries
    if batch_timeout is not None:
        overrides["batch_timeout"] = batch_timeout
    return ResiliencePolicy(**overrides) if overrides else None


def _resolve_checkpoint(
    checkpoint, resume, directory, payload
) -> Checkpoint | None:
    """A :class:`Checkpoint` under the cache dir, or ``None`` when off.

    Checkpoints reuse the cache's content-addressing scheme: the key is
    :func:`cache_key` of the exact run payload, so resumed state can
    never leak between different designs, seeds or sample counts.
    """
    if not (checkpoint or resume):
        return None
    if payload is None:
        raise ValueError(
            "checkpointing requires a fingerprintable run description "
            "(this sampler has no stable fingerprint)"
        )
    if directory is None:
        directory = resolve_cache_dir(True)
    return Checkpoint(directory, cache_key(payload), payload)


def _emit(progress, **event) -> None:
    if progress is not None:
        progress(event)


def _recorded(run):
    """Run ``run()`` capturing a telemetry delta; returns ``(result, snapshot)``.

    Backs the ``with_telemetry=True`` keyword of the public entry points:
    the snapshot holds only what this call recorded (counters and phase
    stats delta against the surrounding registry state) and works even
    with telemetry disabled, via a temporary in-memory registry.
    """
    with telemetry.recording() as rec:
        result = run()
    return result, rec.snapshot


def _uniform_payload(multiplier: Multiplier, samples: int, seed: int) -> dict:
    return {
        "engine": ENGINE_VERSION,
        "kind": "uniform",
        "design": fingerprint(multiplier),
        "bitwidth": multiplier.bitwidth,
        "samples": samples,
        "seed": seed,
    }


def _warehouse_many(
    wh,
    items,
    *,
    samples,
    seed,
    chunk,
    workers,
    cache,
    progress,
    policy,
    checkpoint,
    resume,
    kind="characterize",
    decorate=None,
) -> dict[str, ErrorMetrics]:
    """Incremental recompute through the experiment warehouse.

    Looks every design up by its content-addressed fingerprint first
    (``warehouse.hits``/``warehouse.misses`` counters); only designs whose
    fingerprint is absent — new designs, changed knobs, a bumped engine —
    are recomputed (``warehouse.deltas``), by recursing into
    :func:`characterize_many` with the warehouse off.  ``progress`` gets
    one ``design`` event per requested design, counted over all of them:
    reused designs first (``cache="warehouse"``, no seconds), then the
    recomputed ones as they finish.  The run is then recorded whole: hit
    rows flagged ``reused``, recomputed rows carrying the telemetry
    counters of the recompute.  Stored metrics are canonical JSON with
    ``repr`` float semantics, so a warm result is bit-identical to the
    cold run that produced it.
    """
    from ..warehouse.store import WarehouseError, metrics_fields

    tele = telemetry.get()
    start = time.perf_counter()
    payloads = {name: _uniform_payload(m, samples, seed) for name, m in items}
    hits: dict[str, ErrorMetrics] = {}
    misses = []
    with tele.span("warehouse.lookup", kind=kind, designs=len(items)):
        for name, multiplier in items:
            metrics = wh.latest_metrics(cache_key(payloads[name]))
            if metrics is not None:
                hits[name] = metrics
                tele.counter("warehouse.hits")
            else:
                misses.append((name, multiplier))
                tele.counter("warehouse.misses")
    tele.counter("warehouse.deltas", len(misses))
    emitted = 0

    def relay(event):
        nonlocal emitted
        if event.get("event") == "design":
            emitted += 1
            event = {**event, "index": emitted, "total": len(items)}
        progress(event)

    if progress is not None:
        for name in hits:
            relay(
                {"event": "design", "design": name, "samples": samples,
                 "seconds": 0.0, "cache": "warehouse"}
            )
    fresh: dict[str, ErrorMetrics] = {}
    counters: dict = {}
    if misses:
        with telemetry.recording() as rec:
            fresh = characterize_many(
                misses, samples=samples, seed=seed, chunk=chunk,
                workers=workers, cache=cache,
                progress=relay if progress is not None else None,
                policy=policy, checkpoint=checkpoint, resume=resume,
                warehouse=False,
            )
        counters = dict(rec.snapshot.counters)
        for phase, stat in rec.snapshot.phases.items():
            counters[f"phase.{phase}"] = stat.count
    results = {
        name: fresh[name] if name in fresh else hits[name] for name, _ in items
    }
    rows = []
    for name, _ in items:
        data = metrics_fields(results[name])
        if decorate is not None:
            # extra columns ride under their own keys; the metrics stay an
            # exact, strictly-validated field set under "metrics"
            data = {"metrics": data, **decorate(name)}
        rows.append((name, payloads[name], data, name in hits))
    wall = time.perf_counter() - start
    with tele.span("warehouse.record", kind=kind, designs=len(items)):
        try:
            wh.record_run(
                kind, rows, seed=seed, samples=samples,
                wall_seconds=wall, counters=counters,
            )
        except WarehouseError as exc:
            # provenance must never take the computation down with it
            tele.counter("warehouse.errors")
            tele.event("warehouse.error", kind=kind, cause=str(exc))
    return results


def _campaign(
    designs,
    samples: int,
    chunk: int,
    *,
    cache,
    workers,
    policy: ResiliencePolicy | None,
    checkpoint: bool,
    resume: bool,
    on_metrics,
    on_progress=None,
    on_event=None,
    pool=None,
) -> dict[str, ErrorMetrics]:
    """The engine's one path: cache front end, block-major campaign, store.

    ``designs`` lists ``(name, multiplier, draw, payload)``; ``payload``
    (``None`` for a draw without a stable fingerprint) keys the metrics
    cache and the design's checkpoint.  Cache hits never enter the
    campaign.  The fresh designs run as one campaign (see
    :func:`~repro.analysis.runtime.run_campaign`): designs with equal
    draws share every block, and each is finalized (and stored) as its
    last block merges.  Every fresh design gets a ``characterize`` span
    over the campaign.  ``on_metrics(name, metrics, seconds, outcome)``
    fires per design: for a hit at once, with ``0.0`` seconds and outcome
    ``"hit"``; for a fresh design when it is finalized, with its cost
    (its share of the campaign plus its finalize) and outcome ``"miss"``,
    or ``"off"`` without a cache.
    """
    tele = telemetry.get()
    results: dict[str, ErrorMetrics] = {}
    fresh = []
    for name, multiplier, draw, payload in designs:
        directory = resolve_cache_dir(cache) if payload is not None else None
        if directory is not None:
            with tele.span("cache.lookup", design=multiplier.name):
                hit = load_metrics(directory, cache_key(payload))
            if hit is not None:
                results[name] = hit
                tele.event("mc.done", design=multiplier.name, samples=samples, cache="hit")
                on_metrics(name, hit, 0.0, "hit")
                continue
        fresh.append((name, multiplier, draw, payload, directory))
    if not fresh:
        return results

    draws: list = []
    members = []
    for _, multiplier, draw, _, _ in fresh:
        if draw not in draws:
            draws.append(draw)
        members.append((draws.index(draw), multiplier))
    labels = [multiplier.name for _, multiplier, _, _, _ in fresh]
    finished = []

    def on_design(position, accumulator, seconds):
        name, multiplier, _, payload, directory = fresh[position]
        start = time.perf_counter()
        with tele.span("finalize", design=labels[position]):
            metrics = accumulator.finalize(_max_product(multiplier))
        seconds += time.perf_counter() - start
        if directory is not None:
            with tele.span("cache.store", design=labels[position]):
                store_metrics(directory, cache_key(payload), metrics, payload)
        results[name] = metrics
        outcome = "miss" if directory is not None else "off"
        finished.append((labels[position], seconds, outcome))
        on_metrics(name, metrics, seconds, outcome)

    checkpoints = [
        _resolve_checkpoint(checkpoint, resume, directory, payload)
        for _, _, _, payload, directory in fresh
    ]
    plan = block_plan(samples)
    with contextlib.ExitStack() as spans:
        for label in labels:
            spans.enter_context(
                tele.span("characterize", design=label, samples=samples)
            )
        run_campaign(
            campaign_task,
            (draws, members),
            plan,
            chunk,
            labels,
            checkpoints=checkpoints,
            workers=workers,
            policy=policy,
            resume=resume,
            on_progress=on_progress,
            on_event=on_event,
            on_design=on_design,
            pool=pool,
        )
    # after the spans close: these sink writes are not the designs' work
    for label, seconds, outcome in finished:
        tele.event("mc.done", design=label, samples=samples, seconds=seconds, cache=outcome)
        if seconds > 0:
            tele.gauge("mc.samples_per_sec", samples / seconds)
    return results


def _characterize_one(
    multiplier, draw, payload, samples, chunk, *, progress, **engine
) -> ErrorMetrics:
    """A one-design campaign, reporting ``progress``/``done`` events."""
    label = multiplier.name
    start = time.perf_counter()

    def on_metrics(name, metrics, seconds, outcome):
        elapsed = time.perf_counter() - start
        rate = {}
        if outcome != "hit":
            rate["samples_per_sec"] = samples / elapsed if elapsed > 0 else float("inf")
        _emit(
            progress, event="done", design=label, samples=samples,
            seconds=elapsed, **rate, cache=outcome,
        )

    def on_progress(done):
        _emit(
            progress, event="progress", design=label,
            samples_done=done, samples_total=samples,
        )

    def on_event(event):
        _emit(progress, design=label, **event)

    return _campaign(
        [(label, multiplier, draw, payload)], samples, chunk,
        on_metrics=on_metrics,
        on_progress=on_progress if progress is not None else None,
        on_event=on_event, **engine,
    )[label]


def characterize(
    multiplier: Multiplier,
    samples: int = PAPER_SAMPLES,
    seed: int = 2020,
    chunk: int = _CHUNK,
    *,
    workers: int | None = None,
    cache=None,
    progress=None,
    max_retries: int | None = None,
    batch_timeout: float | None = None,
    policy: ResiliencePolicy | None = None,
    checkpoint: bool = False,
    resume: bool = False,
    with_telemetry: bool = False,
    pool=None,
    warehouse=None,
) -> ErrorMetrics:
    """Monte-Carlo error statistics of one design.

    Uses the paper's input model: both operands i.i.d. uniform over the
    full ``N``-bit range, including zero.  The same ``seed`` gives every
    design the identical input stream, so cross-design comparisons are
    noise-free; results are bit-identical at any ``chunk``/``workers``
    — and under any retry/rebuild/degradation recovery path.  The run is
    a one-design campaign on :func:`characterize_many`'s path.

    ``workers`` > 1 fans blocks out over a process pool; ``cache`` keys
    the result on (engine, design fingerprint, bitwidth, seed, samples)
    and short-circuits repeat runs (see :mod:`repro.analysis.cache`).
    ``progress`` receives ``progress`` events (cumulative
    ``samples_done``), runtime events (retry, pool-rebuild, degraded,
    resume) and one final ``done`` event with the wall time and cache
    outcome.  ``max_retries``/``batch_timeout`` (or a full
    :class:`~repro.analysis.runtime.ResiliencePolicy` via ``policy``)
    tune failure handling; ``checkpoint=True`` persists per-block state
    under the cache dir and ``resume=True`` skips blocks a previous
    interrupted run already finished.  ``with_telemetry=True`` returns
    ``(metrics, TelemetrySnapshot)`` — the per-phase timings and
    counters this call recorded (see :mod:`repro.analysis.telemetry`).
    ``pool`` is an optional :class:`~repro.analysis.runtime.SharedPool`
    whose workers are reused across calls (the serving layer's mode).
    ``warehouse`` opts the run into the experiment warehouse (see
    :mod:`repro.warehouse`): the stored result for this exact fingerprint
    is reused if present, and the run is recorded with full provenance.
    """
    if with_telemetry:
        return _recorded(
            lambda: characterize(
                multiplier, samples=samples, seed=seed, chunk=chunk,
                workers=workers, cache=cache, progress=progress,
                max_retries=max_retries, batch_timeout=batch_timeout,
                policy=policy, checkpoint=checkpoint, resume=resume,
                pool=pool, warehouse=warehouse,
            )
        )
    _validate_engine_args(samples, chunk, workers)
    policy = _resolve_policy(policy, max_retries, batch_timeout)
    if warehouse is not False and pool is None:
        from ..warehouse.store import open_warehouse

        wh = open_warehouse(warehouse, cache)
        if wh is not None:
            try:
                return _warehouse_many(
                    wh, [(multiplier.name, multiplier)],
                    samples=samples, seed=seed, chunk=chunk,
                    workers=workers, cache=cache, progress=progress,
                    policy=policy, checkpoint=checkpoint, resume=resume,
                )[multiplier.name]
            finally:
                wh.close()
    return _characterize_one(
        multiplier,
        UniformDraw(multiplier.bitwidth, seed),
        _uniform_payload(multiplier, samples, seed),
        samples,
        chunk,
        progress=progress,
        cache=cache,
        workers=workers,
        policy=policy,
        checkpoint=checkpoint,
        resume=resume,
        pool=pool,
    )


def characterize_many(
    multipliers,
    samples: int = PAPER_SAMPLES,
    seed: int = 2020,
    chunk: int = _CHUNK,
    *,
    workers: int | None = None,
    cache=None,
    progress=None,
    max_retries: int | None = None,
    batch_timeout: float | None = None,
    policy: ResiliencePolicy | None = None,
    checkpoint: bool = False,
    resume: bool = False,
    with_telemetry: bool = False,
    warehouse=None,
    _warehouse_kind: str = "characterize",
    _warehouse_decorate=None,
) -> dict[str, ErrorMetrics]:
    """Characterize ``{name: multiplier}`` or ``(name, multiplier)`` pairs.

    Names must be unique.  All engine options are forwarded.  Cache hits
    are resolved up front; the other designs run as one block-major
    campaign (see :mod:`repro.analysis.parallel`): each block is drawn
    once for all designs of its bitwidth, and every design is evaluated
    on it.  With ``workers`` > 1 the fan-out unit is a group of blocks
    over all those designs.  ``progress`` receives one ``{"event":
    "design", ...}`` dict per design — hits first, then each fresh design
    as its last block merges — plus the runtime's retry, pool-rebuild,
    degraded and resume events.  A design event's ``seconds`` is the
    design's own multiply, accumulate and finalize time plus an equal
    share of the shared draws, so over a campaign they sum to its
    compute time.

    Failed batches retry, broken pools rebuild and the run degrades to
    serial execution per the resilience policy (see
    :mod:`repro.analysis.runtime`).  ``checkpoint``/``resume`` give every
    design its own content-addressed per-block checkpoint, saved as each
    block group completes, so an interrupted campaign restarted with
    ``resume=True`` recomputes only the (design, block) pairs it had not
    finished; finished designs are cache hits.  ``with_telemetry=True``
    returns ``(results, snapshot)``.  ``warehouse`` opts into the
    experiment warehouse (see :mod:`repro.warehouse`): designs whose
    exact fingerprint was already recorded are served from the store
    without a single model evaluation, only changed fingerprints
    recompute, and the whole run is recorded with provenance and
    reused-vs-recomputed flags per design.
    """
    if with_telemetry:
        return _recorded(
            lambda: characterize_many(
                multipliers, samples=samples, seed=seed, chunk=chunk,
                workers=workers, cache=cache, progress=progress,
                max_retries=max_retries, batch_timeout=batch_timeout,
                policy=policy, checkpoint=checkpoint, resume=resume,
                warehouse=warehouse, _warehouse_kind=_warehouse_kind,
                _warehouse_decorate=_warehouse_decorate,
            )
        )
    _validate_engine_args(samples, chunk, workers)
    policy = _resolve_policy(policy, max_retries, batch_timeout)
    items = list(multipliers.items() if hasattr(multipliers, "items") else multipliers)
    names = [name for name, _ in items]
    for name, count in collections.Counter(names).items():
        if count > 1:
            raise ValueError(f"duplicate design name {name!r} in characterize_many")
    if warehouse is not False:
        from ..warehouse.store import open_warehouse

        wh = open_warehouse(warehouse, cache)
        if wh is not None:
            try:
                return _warehouse_many(
                    wh, items, samples=samples, seed=seed, chunk=chunk,
                    workers=workers, cache=cache, progress=progress,
                    policy=policy, checkpoint=checkpoint, resume=resume,
                    kind=_warehouse_kind, decorate=_warehouse_decorate,
                )
            finally:
                wh.close()
    completed = 0

    def on_metrics(name, metrics, seconds, outcome):
        nonlocal completed
        completed += 1
        _emit(
            progress, event="design", design=name, index=completed,
            total=len(items), samples=samples, seconds=seconds, cache=outcome,
        )
        telemetry.get().event(
            "mc.design", design=name, index=completed, total=len(items),
            cache=outcome,
        )

    def on_event(event):
        _emit(progress, design="campaign", **event)

    results = _campaign(
        [
            (name, m, UniformDraw(m.bitwidth, seed), _uniform_payload(m, samples, seed))
            for name, m in items
        ],
        samples,
        chunk,
        cache=cache,
        workers=workers,
        policy=policy,
        checkpoint=checkpoint,
        resume=resume,
        on_metrics=on_metrics,
        on_event=on_event,
    )
    return {name: results[name] for name in names}


def _sampler_fingerprint(sampler) -> dict | None:
    """A stable description of a sampler, or ``None`` if not cacheable."""
    describe = getattr(sampler, "fingerprint", None)
    if callable(describe):
        return describe()
    if dataclasses.is_dataclass(sampler) and not isinstance(sampler, type):
        return {
            "class": type(sampler).__qualname__,
            "module": type(sampler).__module__,
            **dataclasses.asdict(sampler),
        }
    return None


def characterize_workload(
    multiplier: Multiplier,
    sampler,
    samples: int = PAPER_SAMPLES,
    seed: int = 2020,
    chunk: int = _CHUNK,
    *,
    workers: int | None = None,
    cache=None,
    progress=None,
    max_retries: int | None = None,
    batch_timeout: float | None = None,
    policy: ResiliencePolicy | None = None,
    checkpoint: bool = False,
    resume: bool = False,
    with_telemetry: bool = False,
) -> ErrorMetrics:
    """Error statistics under an application-specific input distribution.

    The paper characterizes with uniform inputs; real workloads (DCT
    coefficients, neural-network weights) are far from uniform and shift
    the effective error.  ``sampler(rng, n)`` must return an ``(a, b)``
    pair of int arrays within the multiplier's operand range — see
    ``gaussian_sampler`` / ``lognormal_sampler`` for ready-made ones.

    The sampler is the block draw of a one-design campaign: it is called
    once per fixed-size block with that block's substream, so — like
    :func:`characterize` — the input stream depends only on ``(seed,
    samples)``, never on ``chunk`` or ``workers``.  Caching requires a
    fingerprintable sampler (the built-in sampler dataclasses are);
    otherwise the run silently skips the cache.  Parallel runs require
    the sampler to be picklable.  ``progress`` receives the events
    :func:`characterize` sends.  ``with_telemetry=True`` returns
    ``(metrics, TelemetrySnapshot)``.
    """
    if with_telemetry:
        return _recorded(
            lambda: characterize_workload(
                multiplier, sampler, samples=samples, seed=seed, chunk=chunk,
                workers=workers, cache=cache, progress=progress,
                max_retries=max_retries, batch_timeout=batch_timeout,
                policy=policy, checkpoint=checkpoint, resume=resume,
            )
        )
    _validate_engine_args(samples, chunk, workers)
    sampler_info = _sampler_fingerprint(sampler)
    payload = None
    if sampler_info is not None:
        payload = {
            "engine": ENGINE_VERSION,
            "kind": "workload",
            "design": fingerprint(multiplier),
            "sampler": sampler_info,
            "bitwidth": multiplier.bitwidth,
            "samples": samples,
            "seed": seed,
        }
    return _characterize_one(
        multiplier,
        SamplerDraw(sampler, seed),
        payload,
        samples,
        chunk,
        progress=progress,
        cache=cache,
        workers=workers,
        policy=_resolve_policy(policy, max_retries, batch_timeout),
        checkpoint=checkpoint,
        resume=resume,
    )


@dataclasses.dataclass(frozen=True)
class GaussianSampler:
    """Clipped-Gaussian operand distribution (ML-weight-like magnitudes).

    A frozen dataclass so workload runs can be pickled to worker
    processes and fingerprinted for the metrics cache.
    """

    bitwidth: int
    mean_fraction: float = 0.25
    std_fraction: float = 0.1

    def __call__(self, rng: np.random.Generator, n: int):
        high = (1 << self.bitwidth) - 1
        mean = self.mean_fraction * high
        std = self.std_fraction * high
        a = np.clip(np.rint(rng.normal(mean, std, n)), 0, high).astype(np.int64)
        b = np.clip(np.rint(rng.normal(mean, std, n)), 0, high).astype(np.int64)
        return a, b


@dataclasses.dataclass(frozen=True)
class LognormalSampler:
    """Heavy-tailed operands (audio/DCT-coefficient-like magnitudes)."""

    bitwidth: int
    sigma: float = 1.5

    def __call__(self, rng: np.random.Generator, n: int):
        high = (1 << self.bitwidth) - 1
        scale = high / np.exp(3.0 * self.sigma)
        a = np.clip(np.rint(rng.lognormal(0.0, self.sigma, n) * scale), 0, high)
        b = np.clip(np.rint(rng.lognormal(0.0, self.sigma, n) * scale), 0, high)
        return a.astype(np.int64), b.astype(np.int64)


def gaussian_sampler(
    bitwidth: int, mean_fraction: float = 0.25, std_fraction: float = 0.1
) -> GaussianSampler:
    """Clipped-Gaussian operand distribution (ML-weight-like magnitudes)."""
    return GaussianSampler(bitwidth, mean_fraction, std_fraction)


def lognormal_sampler(bitwidth: int, sigma: float = 1.5) -> LognormalSampler:
    """Heavy-tailed operands (audio/DCT-coefficient-like magnitudes)."""
    return LognormalSampler(bitwidth, sigma)
