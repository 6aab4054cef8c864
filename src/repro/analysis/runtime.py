"""Resilient execution layer for the characterization engine.

:mod:`repro.analysis.parallel` makes a Monte-Carlo campaign a pure
function of ``(seed, samples)``: every block can be recomputed anywhere,
by any process, with a bit-identical result.  This module exploits that
purity to make the fan-out *survivable*:

* **bounded retries** — a batch whose task raises (or returns a corrupt
  result) is re-executed up to ``max_retries`` times, with exponential
  backoff and decorrelated jitter between attempts (injectable
  sleep/jitter hooks keep tests deterministic);
* **per-batch timeouts** — ``batch_timeout`` bounds how long the parent
  waits for one batch result; a hung worker forfeits its pool;
* **pool rebuilds** — a ``BrokenProcessPool`` (worker killed by a crash,
  OOM or signal) rebuilds the pool and resubmits the unfinished batches
  instead of discarding the campaign;
* **graceful degradation** — after ``max_pool_rebuilds`` rebuilds the
  run falls back to in-process serial execution of the remaining
  batches, which is slower but cannot be killed by worker faults;
* **checkpoint/resume** — completed per-block accumulators are
  persisted after every batch, one checkpoint per design
  (content-addressed like warehouse rows, see :class:`Checkpoint`), and
  a campaign given a checkpoint resumes from it, so a restarted
  campaign recomputes only the unfinished (design, block) pairs.

The unit of work is a batch of a campaign (:func:`run_campaign`): a
group of blocks times the designs that still need them, so one task
draws each block once for all of its designs.

Because accumulators always merge in ascending block order, none of the
recovery paths can change the result: a run that completes — retried,
rebuilt, degraded or resumed — returns :class:`ErrorMetrics` bit-identical
to an undisturbed serial run.  A run that cannot complete raises
:class:`BatchFailure`, which names the exact blocks and the last cause.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import itertools
import json
import os
import pathlib
import random
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import NamedTuple

from . import telemetry
from .chaos import wrap as chaos_wrap
from .metrics import Accumulator
from .parallel import group_blocks

__all__ = [
    "BatchFailure",
    "Checkpoint",
    "CorruptResultError",
    "ResiliencePolicy",
    "SharedPool",
    "decorrelated_jitter",
    "monotonic_progress",
    "run_campaign",
    "validate_batch",
]

#: bump on any change to the checkpoint file layout
CHECKPOINT_VERSION = 1

_ACC_FIELDS = tuple(field.name for field in dataclasses.fields(Accumulator))
_ACC_INT_FIELDS = ("count", "all_count")


def decorrelated_jitter(previous: float, base: float, cap: float, jitter=None) -> float:
    """The decorrelated-jitter backoff after a delay of ``previous``
    seconds: ``min(cap, U(base, 3*previous))``.  ``jitter(low, high)``
    replaces the uniform draw (``random.uniform``) in tests."""
    uniform = jitter if jitter is not None else random.uniform
    return min(cap, uniform(base, max(base, 3.0 * previous)))


@dataclasses.dataclass(frozen=True)
class ResiliencePolicy:
    """Retry/timeout/degradation knobs for one campaign.

    ``sleep`` and ``jitter`` are injectable for deterministic tests:
    ``sleep(seconds)`` replaces :func:`time.sleep` and ``jitter(low,
    high)`` replaces the uniform draw of the decorrelated-jitter backoff.
    Leave both ``None`` for production behaviour (the defaults are
    picklable, so a policy can ride along to worker processes).
    """

    max_retries: int = 2
    batch_timeout: float | None = None
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    max_pool_rebuilds: int = 2
    sleep: object | None = None
    jitter: object | None = None

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.batch_timeout is not None and not self.batch_timeout > 0:
            raise ValueError(
                f"batch_timeout must be positive, got {self.batch_timeout}"
            )
        if self.backoff_base < 0 or self.backoff_cap < self.backoff_base:
            raise ValueError(
                f"need 0 <= backoff_base <= backoff_cap, got "
                f"{self.backoff_base}/{self.backoff_cap}"
            )
        if self.max_pool_rebuilds < 0:
            raise ValueError(
                f"max_pool_rebuilds must be >= 0, got {self.max_pool_rebuilds}"
            )

    def next_delay(self, previous: float) -> float:
        """Decorrelated-jitter backoff: ``min(cap, U(base, 3*previous))``."""
        return decorrelated_jitter(
            previous, self.backoff_base, self.backoff_cap, self.jitter
        )

    def pause(self, seconds: float) -> None:
        if seconds > 0:
            (self.sleep if self.sleep is not None else time.sleep)(seconds)


_DEFAULT_POLICY = ResiliencePolicy()


class CorruptResultError(ValueError):
    """A task returned accumulators that cannot describe its batch."""


class SharedPool:
    """A worker pool reused across campaigns (the serving layer's mode).

    :func:`run_campaign` normally builds a :class:`ProcessPoolExecutor` per
    call and tears it down on exit — the right lifecycle for a one-shot
    CLI run, but a server answering a stream of ``characterize``
    requests would pay worker startup on every one.  A ``SharedPool``
    owns one lazily-built executor and hands it to :func:`run_campaign` via
    ``pool=``; the run leaves it alive on success, and on a broken pool
    the runtime calls :meth:`invalidate` so the next acquire rebuilds a
    fresh executor (counted in ``rebuilds``).  None of this affects
    results: block merge order is unchanged, so the §7 bit-identity
    guarantee holds with or without pool reuse.

    Not thread-safe: callers sharing one instance across threads must
    serialize the campaigns that use it (the serve layer runs
    characterize requests through a concurrency gate for exactly this
    reason).
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.rebuilds = 0
        self._pool: ProcessPoolExecutor | None = None

    @property
    def live(self) -> bool:
        """Whether an executor is currently alive."""
        return self._pool is not None

    def acquire(self) -> ProcessPoolExecutor:
        """The live executor, building one on first use / after a break."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def invalidate(self) -> None:
        """Discard a compromised executor; the next acquire rebuilds."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            self.rebuilds += 1

    def close(self) -> None:
        """Shut the executor down cleanly (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "SharedPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class BatchFailure(RuntimeError):
    """A batch exhausted its retry budget; names the precise blocks.

    Attributes: ``label`` (the run/design label), ``blocks`` (the
    ``(block_index, count)`` pairs of the failed batch), ``attempts``
    and ``cause`` (string describing the last failure).
    """

    def __init__(self, label: str, blocks, attempts: int, cause: str):
        self.label = label
        self.blocks = list(blocks)
        self.attempts = attempts
        self.cause = cause
        first, last = self.blocks[0][0], self.blocks[-1][0]
        samples = sum(count for _, count in self.blocks)
        super().__init__(
            f"characterization batch blocks[{first}..{last}] "
            f"({len(self.blocks)} block(s), {samples} samples) of {label!r} "
            f"failed after {attempts} attempt(s): {cause}"
        )


def validate_batch(blocks, accumulators) -> None:
    """Reject results that cannot be the batch's true accumulators.

    A worker returning garbage (truncated lists, wrong types, sample
    counts that do not match the batch) must surface as a retriable
    failure, never as a silently wrong merged metric.
    """
    if not isinstance(accumulators, (list, tuple)):
        raise CorruptResultError(
            f"batch result must be a list of accumulators, got "
            f"{type(accumulators).__name__}"
        )
    if len(accumulators) != len(blocks):
        raise CorruptResultError(
            f"batch covers {len(blocks)} block(s) but returned "
            f"{len(accumulators)} accumulator(s)"
        )
    for (index, count), acc in zip(blocks, accumulators):
        if not isinstance(acc, Accumulator):
            raise CorruptResultError(
                f"block {index}: expected an Accumulator, got "
                f"{type(acc).__name__}"
            )
        if acc.all_count != count or not 0 <= acc.count <= count:
            raise CorruptResultError(
                f"block {index}: accumulator covers {acc.all_count} samples "
                f"({acc.count} nonzero), expected {count}"
            )


@dataclasses.dataclass
class Checkpoint:
    """Persistence of completed per-block accumulators.

    Lives under ``<directory>/checkpoints/<key>.json`` where ``key`` is
    the same content address the warehouse would use for the run
    (engine version, design fingerprint, seed, samples ...), so a
    checkpoint can never be replayed into a different campaign.  The
    file stores the full run payload plus one accumulator state per
    completed block; floats survive the JSON round trip bit-exactly.
    """

    directory: pathlib.Path
    key: str
    payload: dict

    @property
    def path(self) -> pathlib.Path:
        return pathlib.Path(self.directory) / "checkpoints" / f"{self.key}.json"

    def load(self) -> dict[int, Accumulator]:
        """Completed ``{block_index: Accumulator}``, or ``{}`` if absent,
        corrupt, or written for a different run description."""
        try:
            data = json.loads(self.path.read_text())
            if data.get("version") != CHECKPOINT_VERSION:
                return {}
            if data.get("payload") != self.payload:
                return {}
            out: dict[int, Accumulator] = {}
            for index, state in data["blocks"].items():
                if set(state) != set(_ACC_FIELDS):
                    return {}
                values = {
                    name: int(state[name]) if name in _ACC_INT_FIELDS
                    else float(state[name])
                    for name in _ACC_FIELDS
                }
                out[int(index)] = Accumulator(**values)
            return out
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return {}

    def save(self, blocks: dict[int, Accumulator]) -> None:
        """Atomically persist the completed blocks (write-temp-then-rename)."""
        tele = telemetry.get()
        with tele.span("checkpoint.save", blocks=len(blocks)):
            path = self.path
            path.parent.mkdir(parents=True, exist_ok=True)
            text = json.dumps(
                {
                    "version": CHECKPOINT_VERSION,
                    "payload": self.payload,
                    "blocks": {
                        str(index): dataclasses.asdict(blocks[index])
                        for index in sorted(blocks)
                    },
                },
                sort_keys=True,
            )
            temp = path.with_suffix(f".tmp{os.getpid()}")
            temp.write_text(text + "\n")
            os.replace(temp, path)
        tele.counter("runtime.checkpoint_writes")

    def discard(self) -> None:
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass


#: runtime events that also bump a monotonic telemetry counter
_EVENT_COUNTERS = {
    "retry": "runtime.retries",
    "pool-rebuild": "runtime.pool_rebuilds",
    "degraded": "runtime.degraded",
    "resume": "runtime.resumes",
}


def _event(on_event, **fields) -> None:
    """Deliver one runtime event to the callback *and* to telemetry.

    Every recovery event is mirrored as a structured telemetry event
    (``runtime.<kind>``), and the countable kinds (retry, pool-rebuild,
    degraded, resume) bump their monotonic counters — which is what the
    chaos interplay tests compare against exact fault firing counts.
    """
    tele = telemetry.get()
    if tele.enabled:
        kind = fields.get("event")
        counter = _EVENT_COUNTERS.get(kind)
        if counter is not None:
            tele.counter(counter)
        tele.event(
            f"runtime.{kind}",
            **{name: value for name, value in fields.items() if name != "event"},
        )
    if on_event is not None:
        on_event(fields)


def monotonic_progress(callback):
    """Wrap an ``on_progress`` callback so its stream is strictly increasing.

    The runtime's recovery paths (a retried batch completing after a
    later batch, duplicate delivery after a pool rebuild, resumed state)
    must never surface as a ``samples_done`` value that repeats or moves
    backwards.  The wrapper suppresses any report that is not strictly
    greater than the last delivered value; ``None`` passes through.
    """
    if callback is None:
        return None
    last = -1

    def report(samples_done):
        nonlocal last
        if samples_done > last:
            last = samples_done
            callback(samples_done)

    return report


class _Batch(NamedTuple):
    """One task: the ``designs`` (campaign positions) that still need
    every block of ``blocks``; identified by its first block index."""

    designs: tuple[int, ...]
    blocks: list[tuple[int, int]]


def _batches(plan, needs, workers) -> list[_Batch]:
    """Group the needed blocks (:func:`~repro.analysis.parallel.group_blocks`),
    then split each group where the set of designs needing a block changes
    (only after a resume can two blocks differ)."""
    return [
        _Batch(designs, list(run))
        for group in group_blocks([b for b in plan if needs[b[0]]], workers)
        for designs, run in itertools.groupby(group, key=lambda b: needs[b[0]])
    ]


def _validate_entry(blocks, entry) -> None:
    """:func:`validate_batch` for one design's ``(accumulators, seconds)``."""
    if not (isinstance(entry, tuple) and len(entry) == 2 and isinstance(entry[1], float)):
        raise CorruptResultError(
            f"expected an (accumulators, seconds) pair per design, got "
            f"{type(entry).__name__}"
        )
    validate_batch(blocks, entry[0])


def _validate_result(batch: _Batch, result) -> None:
    """:func:`_validate_entry` for every design of a campaign batch."""
    if not isinstance(result, (list, tuple)) or len(result) != len(batch.designs):
        raise CorruptResultError(
            f"batch covers {len(batch.designs)} design(s) but returned "
            f"{len(result) if isinstance(result, (list, tuple)) else type(result).__name__}"
        )
    for entry in result:
        _validate_entry(batch.blocks, entry)


def run_campaign(
    task,
    task_args: tuple,
    plan: list[tuple[int, int]],
    labels: list[str],
    *,
    checkpoints: list[Checkpoint | None] | None = None,
    workers: int | None = None,
    policy: ResiliencePolicy | None = None,
    on_progress=None,
    on_event=None,
    on_design=None,
    pool: SharedPool | None = None,
) -> list[Accumulator]:
    """Run the designs ``labels`` names over ``plan`` resiliently.

    ``plan`` is the canonical ``(block_index, count)`` partition from
    :func:`repro.analysis.parallel.block_plan`.  Each task is a
    :class:`_Batch`, a block group times the designs still needing it:
    ``task(*task_args, designs, blocks, on_result=None)`` returns one
    ``(accumulators, seconds)`` pair per design, as
    :func:`~repro.analysis.parallel.campaign_task` does.  Run in
    process, it also hands each pair to ``on_result`` as soon as the
    design is evaluated, which merges it at once; the returned list is
    still validated whole, and a failed batch retries whole.  Batches
    retry, pools rebuild and execution degrades to serial per the
    ``policy`` (see the module docstring); the per-batch timeout only
    guards the pooled path.

    ``checkpoints`` holds one :class:`Checkpoint` (or ``None``) per
    design, saved as each of its batches completes; a design skips the
    blocks its checkpoint already holds.  Each design's accumulators
    merge in ascending block order, so every result is bit-identical to
    an undisturbed serial run whatever recovery paths fired.  Returns
    one merged accumulator per design; ``on_design(position,
    accumulator, seconds)`` fires as a design's last block merges, with
    the seconds its batches reported.

    ``on_progress(samples_done)`` reports cumulative samples, summed
    over designs, strictly increasing (see :func:`monotonic_progress`);
    ``on_event(dict)`` receives retry / pool-rebuild / degraded / resume
    events, which also flow into :mod:`repro.analysis.telemetry`.
    ``pool`` is an optional :class:`SharedPool` reused across calls;
    when given and ``workers`` is ``None``, its worker count applies.  A
    broken shared pool is invalidated, never reused.
    """
    policy = policy if policy is not None else _DEFAULT_POLICY
    if pool is not None and workers is None:
        workers = pool.workers
    if checkpoints is None:
        checkpoints = [None] * len(labels)
    bound = chaos_wrap(functools.partial(task, *task_args), labels=labels)
    on_progress = monotonic_progress(on_progress)
    run_start = time.perf_counter()

    counts = dict(plan)
    done: list[dict[int, Accumulator]] = []
    for checkpoint in checkpoints:
        loaded = checkpoint.load() if checkpoint is not None else {}
        done.append(
            {index: acc for index, acc in loaded.items() if counts.get(index) == acc.all_count}
        )
    resumed_blocks = sum(map(len, done))
    samples_done = sum(acc.all_count for blocks in done for acc in blocks.values())
    if resumed_blocks:
        _event(
            on_event,
            event="resume",
            blocks_done=resumed_blocks,
            samples_done=samples_done,
        )
        if on_progress is not None:
            on_progress(samples_done)

    seconds = [0.0] * len(labels)
    merged = [Accumulator() for _ in labels]
    cursor = [0] * len(labels)  # plan blocks merged into ``merged``
    order = {index: i for i, (index, _) in enumerate(plan)}

    def fold(position):
        """Merge the design's completed blocks that extend its merged
        prefix of the plan; finish the design when the prefix is whole.

        Merging stays in ascending block order, and a design without a
        checkpoint drops each block once merged, so a campaign holds no
        more per-block state than its out-of-order blocks."""
        blocks = done[position]
        keep = checkpoints[position] is not None
        start = cursor[position]
        while cursor[position] < len(plan) and plan[cursor[position]][0] in blocks:
            index = plan[cursor[position]][0]
            merged[position].merge(blocks[index] if keep else blocks.pop(index))
            cursor[position] += 1
        if start < cursor[position] == len(plan):
            if keep:
                checkpoints[position].discard()
            if on_design is not None:
                on_design(position, merged[position], seconds[position])

    needs = {
        index: tuple(p for p, blocks in enumerate(done) if index not in blocks)
        for index, _ in plan
    }
    batches = _batches(plan, needs, workers)
    for position in range(len(labels)):
        fold(position)  # finishes a design its checkpoint already held whole

    attempts: dict[int, int] = {}
    prev_delay: dict[int, float] = {}

    def take(blocks, position, entry):
        """Merge one design's validated result for ``blocks``."""
        nonlocal samples_done
        accumulators, spent = entry
        fresh = [
            (index, count, acc)
            for (index, count), acc in zip(blocks, accumulators)
            if order[index] >= cursor[position] and index not in done[position]
        ]
        if not fresh:
            return  # a duplicate delivery, or a retry of a streamed result
        for index, count, acc in fresh:
            done[position][index] = acc
            samples_done += count
        seconds[position] += spent
        if checkpoints[position] is not None:
            checkpoints[position].save(done[position])
        if on_progress is not None:
            on_progress(samples_done)
        fold(position)

    def record(batch, result):
        for position, entry in zip(batch.designs, result):
            take(batch.blocks, position, entry)

    def fail(batch, cause) -> None:
        """Charge one failed attempt; raise when the budget is spent."""
        first = batch.blocks[0][0]
        attempts[first] = attempts.get(first, 0) + 1
        if attempts[first] > policy.max_retries:
            raise BatchFailure(
                ", ".join(labels[p] for p in batch.designs),
                batch.blocks,
                attempts[first],
                str(cause),
            )
        delay = policy.next_delay(prev_delay.get(first, policy.backoff_base))
        prev_delay[first] = delay
        _event(
            on_event,
            event="retry",
            batch=first,
            attempt=attempts[first],
            delay=delay,
            cause=str(cause),
        )
        policy.pause(delay)

    def run_serial(serial_batches):
        for batch in serial_batches:

            def stream(position, entry):
                # in process, each design merges as soon as it is evaluated
                _validate_entry(batch.blocks, entry)
                take(batch.blocks, position, entry)

            while True:
                with tele.held():  # the batch's events reach the sink together
                    try:
                        result = bound(*batch, on_result=stream)
                        _validate_result(batch, result)
                    except Exception as exc:
                        fail(batch, exc)
                        continue
                    record(batch, result)
                break

    tele = telemetry.get()
    if workers and workers > 1 and len(batches) > 1:

        def busy_wall():
            snapshot = tele.snapshot()
            return snapshot.phase("mc.sample").wall + snapshot.phase("mc.block").wall

        busy_before = busy_wall() if tele.enabled else 0.0
        pool_start = time.perf_counter()
        _run_pooled(
            bound, batches, workers, policy, record, fail, run_serial, on_event,
            shared=pool,
        )
        telemetry.merge_workers(tele)
        if tele.enabled:
            pool_elapsed = time.perf_counter() - pool_start
            busy = busy_wall() - busy_before
            if pool_elapsed > 0:
                tele.gauge("pool.workers", workers)
                tele.gauge(
                    "pool.utilization",
                    min(1.0, busy / (pool_elapsed * workers)),
                )
    else:
        run_serial(batches)

    if tele.enabled:
        run_elapsed = time.perf_counter() - run_start
        computed = len(plan) * len(labels) - resumed_blocks
        if computed and run_elapsed > 0:
            tele.gauge("runtime.blocks_per_sec", computed / run_elapsed)
    return merged


def _run_pooled(
    bound, batches, workers, policy, record, fail, run_serial, on_event,
    shared: SharedPool | None = None,
):
    """The process-pool path: timeouts, pool rebuilds, degradation.

    With ``shared`` the executor is borrowed, not owned: a clean run
    leaves it alive for the next campaign, while any compromise
    (timeout, broken pool, or an exception escaping this run) calls
    ``shared.invalidate()`` so stale in-flight work can never leak into
    a later request.
    """
    pending = list(batches)
    recorded: set[int] = set()

    def keep(batch, result):
        record(batch, result)
        recorded.add(batch.blocks[0][0])

    def discard(current):
        if shared is not None:
            shared.invalidate()
        elif current is not None:
            current.shutdown(wait=False, cancel_futures=True)

    rebuilds = 0
    degraded = False
    pool = None
    try:
        while pending:
            if degraded:
                run_serial(pending)
                pending = []
                break
            if pool is None:
                pool = (
                    shared.acquire()
                    if shared is not None
                    else ProcessPoolExecutor(
                        max_workers=min(workers, len(pending))
                    )
                )
            compromised = False
            try:
                # a deque, so each result is freed once recorded
                futures = collections.deque(
                    (batch, pool.submit(bound, *batch)) for batch in pending
                )
            except BrokenProcessPool:
                futures = collections.deque()
                compromised = True
                rebuilds += 1
                _event(
                    on_event, event="pool-rebuild", rebuilds=rebuilds,
                    cause="worker crashed before submission",
                )
                if rebuilds > policy.max_pool_rebuilds:
                    degraded = True
                    _event(
                        on_event, event="degraded", rebuilds=rebuilds,
                        cause="worker crashed before submission",
                    )
            while futures:
                batch, future = futures.popleft()
                try:
                    result = future.result(timeout=policy.batch_timeout)
                    _validate_result(batch, result)
                except (BrokenProcessPool, FutureTimeout) as exc:
                    timed_out = isinstance(exc, FutureTimeout)
                    cause = (
                        f"no result within {policy.batch_timeout}s"
                        if timed_out
                        else "worker crashed (BrokenProcessPool)"
                    )
                    rebuilds += 1
                    _event(
                        on_event, event="pool-rebuild", rebuilds=rebuilds,
                        batch=batch.blocks[0][0], cause=cause,
                    )
                    if rebuilds > policy.max_pool_rebuilds:
                        degraded = True
                        _event(
                            on_event, event="degraded", rebuilds=rebuilds,
                            cause=cause,
                        )
                    elif timed_out:
                        # a hang is charged to the batch; a crashed pool is
                        # not, since any neighbour batch may be to blame
                        fail(batch, cause)
                    compromised = True
                    break
                except Exception as exc:  # the task itself failed: retriable
                    fail(batch, exc)
                else:
                    keep(batch, result)
            if compromised and pool is not None:
                discard(pool)
                pool = None
            pending = [b for b in pending if b.blocks[0][0] not in recorded]
        if pool is not None:
            if shared is None:
                pool.shutdown(wait=True)
            pool = None  # clean exit: a shared pool stays alive
    finally:
        if pool is not None:  # exceptional exit only
            discard(pool)
