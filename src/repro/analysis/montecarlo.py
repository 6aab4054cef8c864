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
  ``workers`` count;
* the same ``seed`` drives identical inputs into every design, so
  cross-design comparisons are noise-free.

Every entry point runs the same path (:func:`characterize_many`;
:func:`characterize` and :func:`characterize_workload` are one-design
campaigns): designs already stored in the experiment warehouse
(``warehouse=``, see :mod:`repro.warehouse`) are reused without a model
evaluation, and the others run as one block-major campaign, in which
each block is drawn, and its exact products computed, once for all the
designs that share its draw.  The run is then recorded in the
warehouse, each row flagged reused or recomputed.

Runs can be fanned out across processes (``workers=``); ``progress=``
receives event dicts with per-run wall time, throughput and warehouse
outcome.  Long campaigns survive worker faults as the ``policy=``
(a :class:`~repro.analysis.runtime.ResiliencePolicy`) sets: batches
retry with backoff, hung workers time out, broken pools rebuild and
eventually degrade to serial execution.  With ``checkpoint=True``,
per-block state is saved to disk and a rerun resumes from it — see
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
from .cache import cache_key, resolve_cache_dir
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
#: every result fingerprint, so stale rows can never be replayed
ENGINE_VERSION = 2


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


def _validate_engine_args(samples, workers) -> None:
    """Clear errors at the API boundary, before any fan-out machinery."""
    if not isinstance(samples, (int, np.integer)) or isinstance(samples, bool):
        raise ValueError(f"samples must be an integer, got {samples!r}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if workers is not None and workers < 0:
        raise ValueError(
            f"workers must be None or a non-negative integer, got {workers}"
        )


def _resolve_checkpoint(checkpoint, payload) -> Checkpoint | None:
    """A :class:`Checkpoint` under the state directory, or ``None`` when off.

    Checkpoints are written under ``$REPRO_CACHE_DIR``, else the user
    cache directory (see :func:`~repro.analysis.cache.resolve_cache_dir`),
    and keyed like warehouse rows: :func:`cache_key` of the exact run
    payload, so resumed state can never leak between different designs,
    seeds or sample counts.
    """
    if not checkpoint:
        return None
    if payload is None:
        raise ValueError(
            "checkpointing requires a fingerprintable run description "
            "(this sampler has no stable fingerprint)"
        )
    return Checkpoint(resolve_cache_dir(True), cache_key(payload), payload)


def _emit(progress, **event) -> None:
    if progress is not None:
        progress(event)


def _uniform_payload(multiplier: Multiplier, samples: int, seed: int) -> dict:
    return {
        "engine": ENGINE_VERSION,
        "kind": "uniform",
        "design": fingerprint(multiplier),
        "bitwidth": multiplier.bitwidth,
        "samples": samples,
        "seed": seed,
    }


def _campaign(
    designs,
    samples: int,
    seed: int,
    *,
    warehouse,
    on_metrics,
    kind: str = "characterize",
    decorate=None,
    **engine,
) -> dict[str, ErrorMetrics]:
    """The engine's one path: warehouse lookup, campaign, record.

    ``designs`` lists ``(name, multiplier, draw, payload)``; ``payload``
    keys the design's warehouse rows and its checkpoint, and is ``None``
    for a draw without a stable fingerprint, whose campaign skips the
    store.  Through the warehouse's one door
    (:class:`~repro.warehouse.store.Session`), every design is looked up
    first; a stored design is reused and never enters the campaign.  The
    others run as one campaign (:func:`_evaluate`), and the whole run is
    then recorded as one ``kind`` run: reused rows flagged, computed
    rows carrying the campaign's telemetry counters, and
    ``decorate(name)`` adding columns beside a row's metrics.  Stored
    metrics are canonical JSON with ``repr`` float semantics, so a
    reused result is bit-identical to the run that computed it; a
    failing store only costs the reuse and the record.

    ``on_metrics(name, metrics, seconds, outcome)`` fires per design: for
    a reused design at once, with ``0.0`` seconds and outcome
    ``"warehouse"``; for a computed one when it is finalized, with its
    cost and outcome ``"miss"`` (to be recorded) or ``"off"`` (no store).
    """
    from ..warehouse.store import Session, metrics_fields

    start = time.perf_counter()
    keyed = all(payload is not None for *_, payload in designs)
    with Session(warehouse if keyed else False, kind) as store:
        reused = store.reuse({name: payload for name, *_, payload in designs})
        results: dict[str, ErrorMetrics] = dict(reused)  # in design order
        for name, metrics in reused.items():
            on_metrics(name, metrics, 0.0, "warehouse")
        fresh = [design for design in designs if design[0] not in reused]
        counters: dict = {}
        if fresh:
            # a recorded run keeps the telemetry counters of its campaign
            recorder = telemetry.recording() if store.active else contextlib.nullcontext()
            with recorder as rec:
                results.update(
                    _evaluate(
                        fresh, samples, "miss" if store.active else "off",
                        on_metrics, **engine,
                    )
                )
            if rec is not None:
                counters = dict(rec.snapshot.counters)
                for phase, stat in rec.snapshot.phases.items():
                    counters[f"phase.{phase}"] = stat.count

        def row(name, payload):
            data = metrics_fields(results[name])
            if decorate is not None:
                # extra columns ride under their own keys; the metrics
                # stay an exact, strictly-validated field set
                data = {"metrics": data, **decorate(name)}
            return name, payload, data, name in reused

        store.record(
            (row(name, payload) for name, *_, payload in designs),
            seed=seed, samples=samples, counters=counters,
            wall_seconds=time.perf_counter() - start,
        )
    return results


def _evaluate(
    designs,
    samples: int,
    outcome: str,
    on_metrics,
    *,
    workers,
    policy: ResiliencePolicy | None,
    checkpoint: bool,
    on_progress=None,
    on_event=None,
    pool=None,
) -> dict[str, ErrorMetrics]:
    """Run ``designs`` as one block-major campaign; returns their metrics.

    See :func:`~repro.analysis.runtime.run_campaign`: designs with equal
    draws share every block, and each is finalized as its last block
    merges, firing ``on_metrics`` with ``outcome``.  Every design gets a
    ``characterize`` span over the campaign.
    """
    tele = telemetry.get()
    results: dict[str, ErrorMetrics] = {}
    draws: list = []
    members = []
    for _, multiplier, draw, _ in designs:
        if draw not in draws:
            draws.append(draw)
        members.append((draws.index(draw), multiplier))
    labels = [multiplier.name for _, multiplier, _, _ in designs]
    finished = []

    def on_design(position, accumulator, seconds):
        name, multiplier, _, _ = designs[position]
        start = time.perf_counter()
        with tele.span("finalize", design=labels[position]):
            metrics = accumulator.finalize(_max_product(multiplier))
        seconds += time.perf_counter() - start
        results[name] = metrics
        finished.append((labels[position], seconds))
        on_metrics(name, metrics, seconds, outcome)

    checkpoints = [
        _resolve_checkpoint(checkpoint, payload) for _, _, _, payload in designs
    ]
    with contextlib.ExitStack() as spans:
        for label in labels:
            spans.enter_context(
                tele.span("characterize", design=label, samples=samples)
            )
        run_campaign(
            campaign_task,
            (draws, members),
            block_plan(samples),
            labels,
            checkpoints=checkpoints,
            workers=workers,
            policy=policy,
            on_progress=on_progress,
            on_event=on_event,
            on_design=on_design,
            pool=pool,
        )
    # after the spans close: these sink writes are not the designs' work
    for label, seconds in finished:
        tele.event("mc.done", design=label, samples=samples, seconds=seconds, cache=outcome)
        if seconds > 0:
            tele.gauge("mc.samples_per_sec", samples / seconds)
    return results


def _characterize_one(
    multiplier, draw, payload, samples, seed, *, progress, **engine
) -> ErrorMetrics:
    """A one-design campaign, reporting ``progress``/``done`` events."""
    label = multiplier.name
    start = time.perf_counter()

    def on_metrics(name, metrics, seconds, outcome):
        elapsed = time.perf_counter() - start
        rate = {}
        if outcome != "warehouse":
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
        [(label, multiplier, draw, payload)], samples, seed,
        on_metrics=on_metrics,
        on_progress=on_progress if progress is not None else None,
        on_event=on_event, **engine,
    )[label]


def characterize(
    multiplier: Multiplier,
    samples: int = PAPER_SAMPLES,
    seed: int = 2020,
    *,
    workers: int | None = None,
    progress=None,
    policy: ResiliencePolicy | None = None,
    checkpoint: bool = False,
    pool=None,
    warehouse=None,
) -> ErrorMetrics:
    """Monte-Carlo error statistics of one design.

    Uses the paper's input model: both operands i.i.d. uniform over the
    full ``N``-bit range, including zero.  The same ``seed`` gives every
    design the identical input stream, so cross-design comparisons are
    noise-free; results are bit-identical at any ``workers`` count — and
    under any retry/rebuild/degradation recovery path.  The run is a
    one-design campaign on :func:`characterize_many`'s path.

    ``workers`` > 1 fans blocks out over a process pool.  ``progress``
    receives ``progress`` events (cumulative ``samples_done``), runtime
    events (retry, pool-rebuild, degraded, resume) and one final
    ``done`` event with the wall time and warehouse outcome.  ``policy``
    (a :class:`~repro.analysis.runtime.ResiliencePolicy`) tunes failure
    handling: retries, the per-batch timeout, pool rebuilds.
    ``checkpoint=True`` persists per-block state under the state
    directory (``$REPRO_CACHE_DIR``, else the user cache directory) and
    resumes from a checkpoint of the same run, skipping the blocks an
    interrupted run already finished.  ``pool`` is an optional
    :class:`~repro.analysis.runtime.SharedPool` whose workers are reused
    across calls (the serving layer's mode).  ``warehouse`` selects the
    experiment warehouse (see :mod:`repro.warehouse`; ``None`` uses it
    only when ``$REPRO_WAREHOUSE_DIR`` is set): the stored result for
    this exact fingerprint (engine, design, bitwidth, seed, samples) is
    reused if present, and the run is recorded with full provenance.
    """
    _validate_engine_args(samples, workers)
    return _characterize_one(
        multiplier,
        UniformDraw(multiplier.bitwidth, seed),
        _uniform_payload(multiplier, samples, seed),
        samples,
        seed,
        progress=progress,
        warehouse=warehouse,
        workers=workers,
        policy=policy,
        checkpoint=checkpoint,
        pool=pool,
    )


def characterize_many(
    multipliers,
    samples: int = PAPER_SAMPLES,
    seed: int = 2020,
    *,
    workers: int | None = None,
    progress=None,
    policy: ResiliencePolicy | None = None,
    checkpoint: bool = False,
    warehouse=None,
    _warehouse_kind: str = "characterize",
    _warehouse_decorate=None,
) -> dict[str, ErrorMetrics]:
    """Characterize ``{name: multiplier}`` or ``(name, multiplier)`` pairs.

    Names must be unique.  All engine options are forwarded.  Designs
    stored in the warehouse are reused up front; the others run as one
    block-major campaign (see :mod:`repro.analysis.parallel`): each
    block is drawn once for all designs of its bitwidth, and every design
    is evaluated on it.  With ``workers`` > 1 the fan-out unit is a
    group of blocks over all those designs.  ``progress`` receives one
    ``{"event": "design", ...}`` dict per design, counted over all of
    them — reused designs first (``cache="warehouse"``, no seconds),
    then each computed design as its last block merges — plus the
    runtime's retry, pool-rebuild, degraded and resume events.  A
    computed design's ``seconds`` is its own multiply, accumulate and
    finalize time plus an equal share of the shared draws, so over a
    campaign they sum to its compute time.

    Failed batches retry, broken pools rebuild and the run degrades to
    serial execution per the resilience ``policy`` (see
    :mod:`repro.analysis.runtime`).  ``checkpoint`` gives every design
    its own content-addressed per-block checkpoint, saved as each block
    group completes, so an interrupted campaign rerun with
    ``checkpoint=True`` recomputes only the (design, block) pairs it had
    not finished.  ``warehouse`` selects the experiment warehouse (see
    :mod:`repro.warehouse`): designs whose exact fingerprint was already
    recorded are served from the store without a single model
    evaluation, only changed fingerprints recompute, and the whole run is
    recorded with provenance and reused-vs-recomputed flags per design.
    """
    _validate_engine_args(samples, workers)
    items = list(multipliers.items() if hasattr(multipliers, "items") else multipliers)
    names = [name for name, _ in items]
    for name, count in collections.Counter(names).items():
        if count > 1:
            raise ValueError(f"duplicate design name {name!r} in characterize_many")
    completed = 0
    tele = telemetry.get()

    def on_metrics(name, metrics, seconds, outcome):
        nonlocal completed
        completed += 1
        _emit(
            progress, event="design", design=name, index=completed,
            total=len(items), samples=samples, seconds=seconds, cache=outcome,
        )
        tele.event(
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
        seed,
        warehouse=warehouse,
        kind=_warehouse_kind,
        decorate=_warehouse_decorate,
        workers=workers,
        policy=policy,
        checkpoint=checkpoint,
        on_metrics=on_metrics,
        on_event=on_event,
    )
    return {name: results[name] for name in names}


def _sampler_fingerprint(sampler) -> dict | None:
    """A stable description of a sampler, or ``None`` if it has none."""
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
    *,
    workers: int | None = None,
    progress=None,
    policy: ResiliencePolicy | None = None,
    checkpoint: bool = False,
    warehouse=None,
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
    samples)``, never on ``workers``.  The warehouse reuses
    and records the run (as a ``workload`` run) only for a
    fingerprintable sampler (the built-in sampler dataclasses are);
    otherwise the run skips the store.  Parallel runs require the
    sampler to be picklable.  ``progress`` receives the events
    :func:`characterize` sends.
    """
    _validate_engine_args(samples, workers)
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
        seed,
        progress=progress,
        warehouse=warehouse,
        kind="workload",
        workers=workers,
        policy=policy,
        checkpoint=checkpoint,
    )


@dataclasses.dataclass(frozen=True)
class GaussianSampler:
    """Clipped-Gaussian operand distribution (ML-weight-like magnitudes).

    A frozen dataclass so workload runs can be pickled to worker
    processes and fingerprinted for the warehouse.
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
