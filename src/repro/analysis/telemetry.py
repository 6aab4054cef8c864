"""Tracing + metrics for the characterization runtime (dependency-free).

The engine in :mod:`repro.analysis.montecarlo` /
:mod:`repro.analysis.runtime` is parallel and fault-tolerant, which makes
it a black box: where does a 2^24-sample campaign spend its time, how
often does the warehouse hit, how many retries did a run absorb?  This module
answers those questions with three primitives:

* **spans** — ``with tele.span("mc.block", block=i):`` times a phase
  (wall *and* CPU seconds) and aggregates per-phase totals;
* **counters and gauges** — monotonic counts (``warehouse.hits``,
  ``runtime.retries``, ``runtime.checkpoint_writes``) and level samples
  (``mc.samples_per_sec``, ``pool.utilization``);
* **events** — structured dicts appended to a JSONL sink, one line per
  event, for offline analysis (``repro-realm telemetry summarize``).

Design rules, enforced by ``tests/test_telemetry.py``:

* **zero overhead when disabled** — with no ``REPRO_TELEMETRY_DIR`` and
  no explicit :func:`enable`, :func:`get` returns a shared disabled
  instance whose ``span`` is a reusable no-op context manager and whose
  ``counter``/``gauge``/``event`` return immediately;
* **process safety** — every process appends to its own
  ``events-<pid>.jsonl`` under the telemetry directory (fork-inherited
  state is detected by pid and re-resolved), and the parent folds worker
  files into its own registry and sink with :func:`merge_workers` after
  each pool drains;
* **determinism** — the wall/CPU clocks are injectable callables
  (the same injection pattern :class:`~repro.analysis.runtime.
  ResiliencePolicy` uses for sleep/jitter), so tests pin exact timings.

The in-memory registry is queried with :meth:`Telemetry.snapshot`;
:func:`recording` captures the per-call :class:`TelemetrySnapshot`
delta of any block of work, such as one ``characterize*`` call, a
``designspace.sweep`` or a table function of :mod:`repro.experiments`.

The serving layer (:mod:`repro.serve`) emits into the same registry and
trace format — its instrument names, asserted by ``tests/test_serve.py``
and the CI serve smoke test (``tools/serve_smoke.py``):

* spans ``serve.batch`` (one fused multiply evaluation; fields
  ``design``/``pairs``/``requests``) and ``serve.characterize``;
* counters ``serve.requests``, ``serve.shed`` (backpressure drops) and
  ``serve.internal_errors``;
* gauges ``serve.queue_depth`` (operand pairs queued) and
  ``serve.batch_occupancy`` (fused pairs / ``max_batch``, 0..1];
* the ``serve.listening`` event when the TCP endpoint binds.

The supervisor (:mod:`repro.serve.supervisor`) layers fleet-level
instruments on top, asserted by ``tests/test_supervisor.py`` and the
chaos phase of the CI smoke test:

* counters ``supervisor.restarts`` (worker restarts, crash or hang),
  ``supervisor.breaker_trips`` (circuit breakers opening),
  ``supervisor.heartbeat_misses`` (probe deadline misses),
  ``supervisor.redirects`` (requests rerouted off their owner shard)
  and ``supervisor.degraded`` (in-parent fallback evaluations);
* gauges ``supervisor.shards_up`` (live worker count) and
  ``supervisor.queue_depth.<label>`` (per-shard queued pairs, sampled
  at each heartbeat);
* the ``supervisor.shard_failed`` event when a shard exhausts its
  restart budget and is marked permanently down.

The conformance harness (:mod:`repro.conformance`) likewise:

* spans ``conform.eval`` (one differential batch; fields
  ``design``/``pairs``) and ``conform.shrink`` (one counterexample
  minimization; fields ``design``/``check``);
* counters ``conform.divergences`` (exact, per batch) and
  ``conform.pairs`` (operand pairs evaluated);
* the gauge ``conform.coverage`` (reachable segment-cell hit fraction,
  0..1, sampled per fuzzing round).

The experiment warehouse (:mod:`repro.warehouse`), asserted by
``tests/test_warehouse.py``:

* spans ``warehouse.lookup`` (fingerprint resolution for one campaign;
  fields ``kind``/``designs``) and ``warehouse.record`` (one atomic
  run insert);
* counters ``warehouse.hits`` / ``warehouse.misses`` (per-design
  lookup outcomes), ``warehouse.deltas`` (designs actually recomputed
  — zero on a warm run over an unchanged registry),
  ``warehouse.records`` (runs persisted), ``warehouse.errors``
  (store failures absorbed so the computation survives; each read or
  record failure also emits a ``warehouse.error`` event) and
  ``warehouse.quarantined`` (corrupt databases moved aside);
* the ``warehouse.quarantined`` event naming the damaged file and
  where its evidence went.

The shared signed MAC (:func:`repro.multipliers.signed.signed_matmul`),
asserted by ``tests/test_signed.py``:

* spans ``mac.table`` (a call served by a product table of its smaller
  operand) and ``mac.direct`` (a call multiplied block by block), each
  with the field ``products``;
* the counter ``mac.products`` (products per call, either path).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import pathlib
import time

__all__ = [
    "TELEMETRY_ENV",
    "JsonlSink",
    "MemorySink",
    "NullSink",
    "PhaseStat",
    "Recording",
    "Telemetry",
    "TelemetrySnapshot",
    "disable",
    "enable",
    "format_summary",
    "get",
    "merge_workers",
    "recording",
    "summarize_trace",
    "tracing",
]

#: environment override: directory receiving per-process JSONL event files
TELEMETRY_ENV = "REPRO_TELEMETRY_DIR"

#: bump on any change to the JSONL event schema
EVENT_SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------


class NullSink:
    """Discards every event (the in-memory-registry-only mode)."""

    def emit(self, record: dict) -> None:
        pass

    def close(self) -> None:
        pass


class MemorySink:
    """Collects events in a list — the deterministic test sink."""

    def __init__(self):
        self.records: list[dict] = []

    def emit(self, record: dict) -> None:
        self.records.append(record)

    def close(self) -> None:
        pass


class JsonlSink:
    """Appends one JSON line per event to ``path``.

    The file opens lazily on the first event (or at :meth:`prepare`) and
    every line is flushed immediately, so events from a worker that is
    later killed (chaos ``crash`` faults, OOM) survive up to the last
    completed emit.
    """

    def __init__(self, path):
        self.path = pathlib.Path(path)
        self._handle = None

    def prepare(self) -> None:
        """Open the file now, so the open is not timed inside the span
        whose end emits the first event."""
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")

    def emit(self, record: dict) -> None:
        self.prepare()
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class PhaseStat:
    """Aggregate of one span name: executions, wall and CPU seconds."""

    count: int = 0
    wall: float = 0.0
    cpu: float = 0.0

    def minus(self, earlier: "PhaseStat") -> "PhaseStat":
        return PhaseStat(
            self.count - earlier.count,
            self.wall - earlier.wall,
            self.cpu - earlier.cpu,
        )


_ZERO_PHASE = PhaseStat()


@dataclasses.dataclass(frozen=True)
class TelemetrySnapshot:
    """Immutable copy of the registry: counters, gauges, per-phase stats."""

    counters: dict
    gauges: dict
    phases: dict

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0)

    def gauge(self, name: str, default=None):
        """Last sampled level of ``name`` (``default`` if never set)."""
        return self.gauges.get(name, default)

    def phase(self, name: str) -> PhaseStat:
        return self.phases.get(name, _ZERO_PHASE)

    def delta(self, earlier: "TelemetrySnapshot") -> "TelemetrySnapshot":
        """What happened between ``earlier`` and this snapshot.

        Counters and phase stats subtract (zero entries are dropped);
        gauges are level samples, so the later value wins.
        """
        counters = {
            name: value - earlier.counters.get(name, 0)
            for name, value in self.counters.items()
            if value != earlier.counters.get(name, 0)
        }
        phases = {}
        for name, stat in self.phases.items():
            diff = stat.minus(earlier.phases.get(name, _ZERO_PHASE))
            if diff.count or diff.wall or diff.cpu:
                phases[name] = diff
        return TelemetrySnapshot(counters, dict(self.gauges), phases)


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------


class _NoopSpan:
    """Shared reusable no-op context manager (the disabled fast path)."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NOOP_SPAN = _NoopSpan()


class _Span:
    """One live span; records wall/CPU on exit and emits a span event."""

    __slots__ = ("telemetry", "name", "fields", "start_wall", "start_cpu")

    def __init__(self, telemetry, name, fields):
        self.telemetry = telemetry
        self.name = name
        self.fields = fields

    def __enter__(self):
        self.start_wall = self.telemetry.wall()
        self.start_cpu = self.telemetry.cpu()
        return self

    def __exit__(self, *exc):
        self.telemetry._finish_span(
            self.name,
            self.start_wall,
            self.telemetry.wall() - self.start_wall,
            self.telemetry.cpu() - self.start_cpu,
            self.fields,
        )
        return False


class Telemetry:
    """One process's telemetry registry plus its event sink.

    ``wall`` and ``cpu`` are injectable zero-argument clocks (defaults:
    :func:`time.perf_counter` / :func:`time.process_time`) so tests can
    pin deterministic timings.  All methods are no-ops when
    ``enabled=False`` — the module-level disabled singleton is what
    :func:`get` hands out when telemetry is off.
    """

    def __init__(self, sink=None, *, wall=None, cpu=None, enabled: bool = True):
        self.sink = sink if sink is not None else NullSink()
        self.wall = wall if wall is not None else time.perf_counter
        self.cpu = cpu if cpu is not None else time.process_time
        self.enabled = enabled
        self._counters: dict = {}
        self._gauges: dict = {}
        self._phases: dict = {}
        self._held: list | None = None

    # -- recording ------------------------------------------------------

    def counter(self, name: str, value=1) -> None:
        """Add ``value`` to the monotonic counter ``name``."""
        if not self.enabled:
            return
        self._counters[name] = self._counters.get(name, 0) + value
        self._emit({"event": "counter", "name": name, "value": value})

    def gauge(self, name: str, value) -> None:
        """Record the current level of ``name`` (last sample wins)."""
        if not self.enabled:
            return
        self._gauges[name] = value
        self._emit({"event": "gauge", "name": name, "value": value})

    def event(self, name: str, **fields) -> None:
        """Append one structured event to the sink."""
        if not self.enabled:
            return
        self._emit({"event": name, **fields})

    def span(self, name: str, **fields):
        """Context manager timing one phase execution (wall + CPU)."""
        if not self.enabled:
            return _NOOP_SPAN
        return _Span(self, name, fields)

    @contextlib.contextmanager
    def held(self):
        """Hold the sink events of a block of work and emit them at its end.

        The registry updates at once; only the sink lags.  A file sink
        pays one write per event, and writes spaced out by other work
        cost several times more than writes back to back, so the engine
        holds each batch's spans and writes them together.
        """
        if not self.enabled or self._held is not None:
            yield
            return
        self._held = []
        try:
            yield
        finally:
            records, self._held = self._held, None
            for record in records:
                self.sink.emit(record)

    # -- internals ------------------------------------------------------

    def _emit(self, record: dict) -> None:
        record.setdefault("t", self.wall())
        record.setdefault("pid", os.getpid())
        if self._held is not None:
            self._held.append(record)
        else:
            self.sink.emit(record)

    def _finish_span(self, name, start, wall, cpu, fields) -> None:
        self._add_phase(name, 1, wall, cpu)
        self._emit(
            {
                "event": "span",
                "name": name,
                "t": start,
                "wall": wall,
                "cpu": cpu,
                **fields,
            }
        )

    def _add_phase(self, name, count, wall, cpu) -> None:
        stat = self._phases.get(name, _ZERO_PHASE)
        self._phases[name] = PhaseStat(
            stat.count + count, stat.wall + wall, stat.cpu + cpu
        )

    # -- querying / merging ---------------------------------------------

    def snapshot(self) -> TelemetrySnapshot:
        """An immutable copy of the current registry state."""
        return TelemetrySnapshot(
            dict(self._counters),
            dict(self._gauges),
            dict(self._phases),
        )

    def absorb(self, record: dict) -> None:
        """Fold one parsed event dict (e.g. from a worker file) into the
        registry and forward it to this process's sink verbatim."""
        if not self.enabled:
            return
        kind = record.get("event")
        name = record.get("name")
        if kind == "counter" and isinstance(name, str):
            value = record.get("value", 1)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                self._counters[name] = self._counters.get(name, 0) + value
        elif kind == "gauge" and isinstance(name, str):
            self._gauges[name] = record.get("value")
        elif kind == "span" and isinstance(name, str):
            wall = record.get("wall", 0.0)
            cpu = record.get("cpu", 0.0)
            if isinstance(wall, (int, float)) and isinstance(cpu, (int, float)):
                self._add_phase(name, 1, float(wall), float(cpu))
        self.sink.emit(record)

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._phases.clear()

    def close(self) -> None:
        self.sink.close()


#: the shared disabled instance; every method returns immediately
DISABLED = Telemetry(enabled=False)

#: ``(pid, Telemetry)`` of the explicitly- or env-activated registry.
#: The pid guards against fork inheritance: a worker that inherits the
#: parent's activation re-resolves its own per-pid sink from the
#: environment instead of writing through the parent's file handle.
_ACTIVE: tuple[int, Telemetry] | None = None


def get() -> Telemetry:
    """The active registry for this process, or the disabled singleton.

    Activation order: an explicit :func:`enable` in this process, else
    the :data:`TELEMETRY_ENV` directory (each process lazily opens its
    own ``events-<pid>.jsonl`` there — worker processes inherit the
    variable and activate independently), else disabled.
    """
    global _ACTIVE
    pid = os.getpid()
    if _ACTIVE is not None and _ACTIVE[0] == pid:
        return _ACTIVE[1]
    directory = os.environ.get(TELEMETRY_ENV)
    if not directory:
        if _ACTIVE is not None:  # fork-inherited activation, env cleared
            _ACTIVE = None
        return DISABLED
    telemetry = Telemetry(
        JsonlSink(pathlib.Path(directory) / f"events-{pid}.jsonl")
    )
    _ACTIVE = (pid, telemetry)
    return telemetry


def enable(
    sink=None, directory=None, *, wall=None, cpu=None
) -> Telemetry:
    """Activate telemetry in this process (and, via env, its children).

    ``sink`` is this process's sink (default: a :class:`JsonlSink` under
    ``directory``, or an in-memory registry with a :class:`NullSink`
    when neither is given).  When ``directory`` is set it is also
    exported as :data:`TELEMETRY_ENV` so pool workers spawned later
    activate themselves and write per-pid files there.
    """
    global _ACTIVE
    if directory is not None:
        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        os.environ[TELEMETRY_ENV] = str(directory)
        if sink is None:
            sink = JsonlSink(directory / f"events-{os.getpid()}.jsonl")
    telemetry = Telemetry(sink, wall=wall, cpu=cpu)
    _ACTIVE = (os.getpid(), telemetry)
    return telemetry


def disable() -> None:
    """Deactivate: close the active sink and clear the env activation."""
    global _ACTIVE
    if _ACTIVE is not None and _ACTIVE[0] == os.getpid():
        _ACTIVE[1].close()
    _ACTIVE = None
    os.environ.pop(TELEMETRY_ENV, None)


# ----------------------------------------------------------------------
# Cross-process merging
# ----------------------------------------------------------------------


def _worker_files(directory) -> list[pathlib.Path]:
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return []
    own = f"events-{os.getpid()}.jsonl"
    return sorted(
        path for path in directory.glob("events-*.jsonl") if path.name != own
    )


def _read_events(path) -> list[dict]:
    records = []
    try:
        text = pathlib.Path(path).read_text(encoding="utf-8")
    except OSError:
        return records
    for line in text.splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue  # a writer died mid-line; keep everything before it
        if isinstance(record, dict):
            records.append(record)
    return records


def merge_workers(telemetry: Telemetry | None = None) -> int:
    """Fold per-pid worker event files into this process's registry.

    Reads every ``events-<pid>.jsonl`` under the telemetry directory
    except this process's own, absorbs the events (in cross-file
    timestamp order) into the active registry and sink, and removes the
    merged files.  Returns the number of events absorbed; a no-op (0)
    when telemetry is disabled.  Call after a worker pool has drained —
    live writers must not be raced.
    """
    telemetry = telemetry if telemetry is not None else get()
    directory = os.environ.get(TELEMETRY_ENV)
    if not telemetry.enabled or not directory:
        return 0
    merged = []
    for path in _worker_files(directory):
        merged.extend(_read_events(path))
        try:
            path.unlink()
        except FileNotFoundError:
            pass
    merged.sort(key=lambda record: record.get("t", 0.0))
    for record in merged:
        telemetry.absorb(record)
    return len(merged)


# ----------------------------------------------------------------------
# Scoped helpers
# ----------------------------------------------------------------------


class Recording:
    """Result holder for :func:`recording`; ``snapshot`` is the delta of
    everything recorded inside the ``with`` block."""

    snapshot: TelemetrySnapshot | None = None


@contextlib.contextmanager
def recording():
    """Capture the telemetry delta of a block of work.

    Uses the active registry when telemetry is enabled; otherwise
    activates a temporary in-memory registry (no sink, no files) for the
    duration, so callers always get counters and phase stats back even
    with tracing off.
    """
    global _ACTIVE
    telemetry = get()
    previous = None
    temporary = not telemetry.enabled
    if temporary:
        previous = _ACTIVE
        telemetry = Telemetry()
        _ACTIVE = (os.getpid(), telemetry)
    before = telemetry.snapshot()
    holder = Recording()
    try:
        yield holder
    finally:
        holder.snapshot = telemetry.snapshot().delta(before)
        if temporary:
            _ACTIVE = previous


@contextlib.contextmanager
def tracing(path):
    """CLI-level tracing: write a merged JSONL trace to ``path``.

    Enables telemetry with ``path`` as this process's sink and a private
    subdirectory next to it as the worker drop zone, writes a
    ``trace.start`` event, runs the block, merges any remaining worker
    files, appends a final ``trace.complete`` event carrying the total
    wall time, and deactivates.  ``path=None`` is a no-op passthrough.
    The file's first write is its slowest (it allocates the file's first
    block), so ``trace.start`` takes it before any span of the block is
    timed, as :meth:`JsonlSink.prepare` does for the open.

    Each invocation starts fresh: an existing file at ``path`` is
    replaced, not appended to (the sink's append mode exists for worker
    crash survivability, but one trace file must describe one run or
    ``summarize_trace`` double-counts), and the per-run drop zone keeps
    :func:`merge_workers` from absorbing ``events-*.jsonl`` leftovers
    that an earlier crashed or concurrent traced run parked in a shared
    directory.
    """
    if path is None:
        yield get()
        return
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        path.unlink()
    except FileNotFoundError:
        pass
    dropzone = path.parent / f"{path.name}.workers-{os.getpid()}"
    previous_env = os.environ.get(TELEMETRY_ENV)
    sink = JsonlSink(path)
    sink.prepare()
    telemetry = enable(sink, directory=dropzone)
    telemetry.event("trace.start", schema=EVENT_SCHEMA_VERSION)
    start = telemetry.wall()
    try:
        yield telemetry
    finally:
        merge_workers(telemetry)
        telemetry.event(
            "trace.complete",
            schema=EVENT_SCHEMA_VERSION,
            wall=telemetry.wall() - start,
        )
        disable()
        try:
            dropzone.rmdir()
        except OSError:
            pass  # a straggling writer; leave its evidence in place
        if previous_env is not None:
            os.environ[TELEMETRY_ENV] = previous_env


# ----------------------------------------------------------------------
# Offline summaries
# ----------------------------------------------------------------------


def summarize_trace(source) -> dict:
    """Aggregate a JSONL trace into per-phase stats + counters + gauges.

    ``source`` is a trace file, a directory of ``*.jsonl`` files, or a
    list of either.  Returns ``{"phases": {name: PhaseStat}, "counters":
    {...}, "gauges": {...}, "events": N, "total_wall": float | None}``
    where ``total_wall`` comes from the ``trace.complete`` event when
    present.
    """
    if isinstance(source, (list, tuple)):
        paths = [pathlib.Path(p) for p in source]
    else:
        source = pathlib.Path(source)
        paths = sorted(source.glob("*.jsonl")) if source.is_dir() else [source]
    folder = Telemetry()
    events = 0
    total_wall = None
    for path in paths:
        for record in _read_events(path):
            events += 1
            if record.get("event") == "trace.complete":
                wall = record.get("wall")
                if isinstance(wall, (int, float)):
                    total_wall = float(wall)
            folder.absorb(record)
    snapshot = folder.snapshot()
    return {
        "phases": dict(snapshot.phases),
        "counters": dict(snapshot.counters),
        "gauges": dict(snapshot.gauges),
        "events": events,
        "total_wall": total_wall,
    }


def format_summary(summary: dict) -> str:
    """Render a :func:`summarize_trace` result as an aligned text table."""
    lines = []
    phases = summary["phases"]
    if phases:
        rows = [
            (
                name,
                str(stat.count),
                f"{stat.wall:.4f}",
                f"{stat.cpu:.4f}",
            )
            for name, stat in sorted(
                phases.items(), key=lambda item: -item[1].wall
            )
        ]
        widths = [
            max(len(header), *(len(row[i]) for row in rows))
            for i, header in enumerate(("phase", "count", "wall s", "cpu s"))
        ]
        header = "  ".join(
            text.ljust(widths[i]) if i == 0 else text.rjust(widths[i])
            for i, text in enumerate(("phase", "count", "wall s", "cpu s"))
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in rows:
            lines.append(
                "  ".join(
                    cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
                    for i, cell in enumerate(row)
                )
            )
        if summary.get("total_wall") is not None:
            covered = sum(stat.wall for stat in phases.values())
            lines.append(
                f"total wall {summary['total_wall']:.4f}s  "
                f"(spans cover {covered:.4f}s)"
            )
    if summary["counters"]:
        lines.append("")
        lines.append("counters:")
        for name, value in sorted(summary["counters"].items()):
            lines.append(f"  {name:28s} {value}")
    if summary["gauges"]:
        lines.append("")
        lines.append("gauges:")
        for name, value in sorted(summary["gauges"].items()):
            text = f"{value:.4f}" if isinstance(value, float) else str(value)
            lines.append(f"  {name:28s} {text}")
    if not lines:
        lines.append(f"(no telemetry events; {summary['events']} lines read)")
    return "\n".join(lines)
