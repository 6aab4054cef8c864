"""Micro-batching engine of the serving layer.

Multiply requests against the same ``(design, bitwidth)`` are fused: the
batcher accumulates submissions in a bounded queue, and on each flush
concatenates a group's operand vectors into single NumPy arrays,
evaluates them **once** through the vectorized multiplier model, and
scatters the products back to the per-request futures.  Because every
model in :mod:`repro.multipliers` is elementwise-vectorized, fusing
cannot change any element — each response is bit-identical to a direct
:meth:`~repro.multipliers.base.Multiplier.multiply` call no matter how
requests were co-batched (the equivalence suite in ``tests/test_serve.py``
asserts this for every registry family under randomized schedules).

Scheduling policy (:class:`BatchPolicy`):

* a request waits at most ``max_latency`` seconds for co-batching —
  the flusher arms a timer when the queue goes non-empty;
* one evaluation fuses at most ``max_batch`` operand pairs; a flush
  drains the whole queue in ``max_batch``-sized slices, and reaching
  ``max_batch`` pending pairs triggers an immediate flush;
* at most ``max_queue`` pairs may be queued — beyond that
  :meth:`MicroBatcher.submit` raises :class:`ShedError` (backpressure:
  the server maps it to a 503-style ``overloaded`` response; memory is
  bounded, requests are never silently dropped).

The wait primitive is injectable (``sleep=``), so the deterministic test
harness replaces the latency timer with a manual gate and controls
exactly which requests share a batch.  Telemetry: a ``serve.batch`` span
per fused evaluation, ``serve.requests``/``serve.shed`` counters and
``serve.queue_depth``/``serve.batch_occupancy`` gauges, all in the
standard :mod:`repro.analysis.telemetry` trace format.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses

import numpy as np

from ..analysis import telemetry
from ..analysis.cache import cache_key
from ..multipliers.base import Multiplier, as_operands
from ..multipliers.registry import build, fingerprint
from .protocol import ProtocolError

__all__ = ["BatchPolicy", "MicroBatcher", "ModelCache", "ShedError"]


@dataclasses.dataclass(frozen=True)
class BatchPolicy:
    """Queue/latency/fusion knobs of the micro-batcher.

    ``max_batch`` — operand pairs fused into one model evaluation;
    ``max_latency`` — seconds a request may wait for co-batching;
    ``max_queue`` — pairs the bounded queue holds before shedding.
    """

    max_batch: int = 1 << 12
    max_latency: float = 0.002
    max_queue: int = 1 << 14

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_latency < 0:
            raise ValueError(
                f"max_latency must be >= 0, got {self.max_latency}"
            )
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")


class ShedError(RuntimeError):
    """The bounded queue is full; the request was shed, not enqueued."""

    def __init__(self, depth: int, limit: int):
        self.depth = depth
        self.limit = limit
        super().__init__(
            f"queue holds {depth} of {limit} operand pairs; request shed"
        )


class ModelCache:
    """Multiplier instances shared across requests, keyed on fingerprint.

    Two requests naming the same design and bitwidth resolve to one
    model object; the key is the content address of
    :func:`repro.multipliers.registry.fingerprint`, so any two registry
    ids that construct identical configurations also share an entry.
    Raises :class:`ProtocolError` ``unknown-design`` for an id the
    registry does not know and ``bad-request`` for a width the model
    refuses, each with the registry's or model's message.

    Requests evaluate through the compiled kernels, which share the same
    fingerprint keying through :func:`repro.kernels.kernel_for`, so a
    long-lived server compiles each design once no matter how many
    requests name it (while it stays in the kernel cache's budget).
    """

    def __init__(self):
        self._by_request: dict[tuple[str, int], Multiplier] = {}
        self._by_fingerprint: dict[str, Multiplier] = {}

    def get(self, design: str, bitwidth: int = 16) -> Multiplier:
        try:
            return self._by_request[(design, bitwidth)]
        except KeyError:
            pass
        try:
            model = build(design, bitwidth)
        except KeyError as exc:
            raise ProtocolError("unknown-design", str(exc.args[0])) from None
        except ValueError as exc:
            raise ProtocolError("bad-request", str(exc)) from None
        key = cache_key(fingerprint(model))
        model = self._by_fingerprint.setdefault(key, model)
        self._by_request[(design, bitwidth)] = model
        return model

    def __len__(self) -> int:
        return len(self._by_fingerprint)


@dataclasses.dataclass
class _Item:
    """One queued multiply submission."""

    model: Multiplier
    a: np.ndarray
    b: np.ndarray
    future: asyncio.Future
    pairs: int


class MicroBatcher:
    """Accumulate multiply submissions; evaluate fused; scatter back.

    ``sleep`` is the injectable latency-window primitive (an async
    callable taking seconds; default :func:`asyncio.sleep`).  Start the
    flusher with :meth:`start`, stop with :meth:`drain` (flushes
    everything queued, then rejects new work with :class:`ShedError`
    — the server maps post-drain submissions to ``shutting-down``).
    """

    def __init__(
        self,
        policy: BatchPolicy | None = None,
        *,
        models: ModelCache | None = None,
        sleep=None,
    ):
        self.policy = policy if policy is not None else BatchPolicy()
        self.models = models if models is not None else ModelCache()
        self._sleep = sleep if sleep is not None else asyncio.sleep
        self._queue: collections.deque[_Item] = collections.deque()
        self._depth = 0  # operand pairs currently queued
        self._wakeup: asyncio.Event = asyncio.Event()
        self._flusher: asyncio.Task | None = None
        self._closing = False

    # -- queue state ----------------------------------------------------

    @property
    def depth(self) -> int:
        """Operand pairs currently queued (the backpressure quantity)."""
        return self._depth

    @property
    def closing(self) -> bool:
        return self._closing

    # -- submission -----------------------------------------------------

    def submit(self, design: str, a, b, bitwidth: int = 16) -> asyncio.Future:
        """Enqueue one multiply; the future resolves to the product array.

        Validates the design (:class:`ProtocolError`) and the
        operand ranges (``ValueError``, via
        :func:`~repro.multipliers.base.as_operands`) *before* occupying
        queue space; raises :class:`ShedError` when the bounded queue
        cannot take the request.  Must be called on the event loop.
        """
        tele = telemetry.get()
        if self._closing:
            raise ShedError(self._depth, self.policy.max_queue)
        model = self.models.get(design, bitwidth)
        a, b = as_operands(a, b, model.bitwidth)
        a, b = np.atleast_1d(a), np.atleast_1d(b)
        pairs = int(a.shape[0])
        if self._depth + pairs > self.policy.max_queue:
            tele.counter("serve.shed")
            tele.gauge("serve.queue_depth", self._depth)
            raise ShedError(self._depth, self.policy.max_queue)
        future = asyncio.get_running_loop().create_future()
        self._queue.append(_Item(model, a, b, future, pairs))
        self._depth += pairs
        tele.counter("serve.requests")
        tele.gauge("serve.queue_depth", self._depth)
        self._wakeup.set()
        return future

    # -- flushing -------------------------------------------------------

    def start(self) -> None:
        """Start the background flusher (idempotent)."""
        if self._flusher is None or self._flusher.done():
            self._flusher = asyncio.get_running_loop().create_task(
                self._run(), name="repro-serve-batcher"
            )

    async def drain(self) -> None:
        """Flush everything queued, then stop accepting submissions.

        Cancels the flusher (cancellation can only land at its await
        points, never mid-flush) and runs one final synchronous flush,
        so every admitted request resolves before ``drain`` returns —
        even when a test harness injected a ``sleep`` gate that never
        fires.
        """
        self._closing = True
        self._wakeup.set()
        task, self._flusher = self._flusher, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        self.flush_pending()

    async def _run(self) -> None:
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            if self._closing:
                self.flush_pending()
                return
            if not self._queue:
                continue
            # the latency window: give co-batchable requests a chance to
            # arrive, unless a full batch is already waiting
            if self._depth < self.policy.max_batch:
                await self._sleep(self.policy.max_latency)
            self.flush_pending()

    def flush_pending(self) -> None:
        """Evaluate everything queued, fused per design in arrival order.

        Synchronous and loop-safe: runs on the event loop thread, so
        futures resolve without cross-thread hand-off.  Each fused
        evaluation covers at most ``max_batch`` pairs.
        """
        while self._queue:
            batch, pairs = self._take_batch()
            self._evaluate(batch, pairs)

    def _take_batch(self) -> tuple[list[_Item], int]:
        """Pop up to ``max_batch`` pairs, preserving arrival order.

        A single submission larger than ``max_batch`` is still taken
        whole (it was admitted by the queue bound; splitting one request
        across evaluations would complicate scatter for no benefit —
        the model evaluates any array length).
        """
        batch: list[_Item] = []
        pairs = 0
        while self._queue:
            item = self._queue[0]
            if batch and pairs + item.pairs > self.policy.max_batch:
                break
            batch.append(self._queue.popleft())
            pairs += item.pairs
        self._depth -= pairs
        return batch, pairs

    def _evaluate(self, batch: list[_Item], pairs: int) -> None:
        tele = telemetry.get()
        tele.gauge("serve.queue_depth", self._depth)
        tele.gauge(
            "serve.batch_occupancy", min(1.0, pairs / self.policy.max_batch)
        )
        # group by model identity, preserving arrival order within a group
        groups: dict[int, list[_Item]] = {}
        for item in batch:
            groups.setdefault(id(item.model), []).append(item)
        for items in groups.values():
            model = items[0].model
            fused = len(items) > 1
            with tele.span(
                "serve.batch",
                design=model.name,
                pairs=sum(i.pairs for i in items),
                requests=len(items),
            ):
                try:
                    if fused:
                        a = np.concatenate([i.a for i in items])
                        b = np.concatenate([i.b for i in items])
                        products = model.multiply(a, b)
                        offsets = np.cumsum([i.pairs for i in items])[:-1]
                        slices = np.split(products, offsets)
                    else:
                        slices = [model.multiply(items[0].a, items[0].b)]
                except Exception as exc:  # pragma: no cover - defensive
                    for item in items:
                        if not item.future.done():
                            item.future.set_exception(exc)
                    continue
            for item, product in zip(items, slices):
                if not item.future.done():
                    item.future.set_result(product)
