"""SQLite-backed experiment warehouse: the one store of results.

One database records every characterization, design-space sweep,
conformance campaign and formal-certificate run with full provenance
(see :mod:`repro.warehouse.schema` for the row layout).  Rows are keyed
by the content address of their run description
(:func:`~repro.analysis.cache.cache_key`), and every run is kept with
its context, so reuse of a stored result, incremental recompute and
trends across PRs are all single queries.

Guarantees, enforced by ``tests/test_warehouse.py``:

* **exact roundtrip** — payloads and results are stored as canonical
  JSON text, so floats keep ``repr`` semantics and certificate
  rationals keep arbitrary precision; a row read back compares equal to
  what was recorded;
* **atomic writes** — every :meth:`Warehouse.record_run` is one
  ``BEGIN IMMEDIATE`` transaction: a run and its result rows land
  together or not at all, and concurrent writers from other processes
  serialize on SQLite's lock (30 s busy timeout) without losing rows;
* **corruption containment** — a truncated or corrupt database is
  quarantined (renamed to ``warehouse.db.corrupt-<pid>``) and rebuilt
  empty, and every experiment goes through one door, :class:`Session`,
  which absorbs a failing read or record, so a damaged store can never
  take a run down with it;
* **schema migrations** — old databases are upgraded in one
  transaction on open; newer-than-this-build databases are refused
  with :class:`WarehouseError`, never downgraded.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import sqlite3
import time

from ..analysis import telemetry
from ..analysis.cache import cache_key, resolve_cache_dir
from ..analysis.metrics import ErrorMetrics
from .provenance import Provenance, capture
from .schema import SCHEMA_VERSION, SchemaError, migrate

__all__ = [
    "DB_NAME",
    "WAREHOUSE_ENV",
    "ResultRow",
    "RunRow",
    "Session",
    "Warehouse",
    "WarehouseError",
    "metrics_fields",
    "metrics_from_fields",
    "open_warehouse",
    "resolve_warehouse_path",
]

#: environment opt-in: directory receiving the warehouse database
WAREHOUSE_ENV = "REPRO_WAREHOUSE_DIR"

#: database filename inside the warehouse directory
DB_NAME = "warehouse.db"

#: how long one writer waits for another's transaction, seconds
BUSY_TIMEOUT = 30.0


class WarehouseError(Exception):
    """The warehouse cannot serve this request (schema/storage trouble)."""


def _canonical(value) -> str:
    """Canonical JSON text: sorted keys, no whitespace — byte-stable."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


_NUMERIC_FIELDS = tuple(
    f.name for f in dataclasses.fields(ErrorMetrics) if f.name != "peak_certified"
)


def metrics_fields(metrics: ErrorMetrics) -> dict:
    """The JSON-ready field dict of one :class:`ErrorMetrics`."""
    fields = dataclasses.asdict(metrics)
    if fields.get("peak_certified") is not None:
        fields["peak_certified"] = list(fields["peak_certified"])
    return fields


def metrics_from_fields(fields: dict) -> ErrorMetrics:
    """Strictly decode :func:`metrics_fields` output into :class:`ErrorMetrics`.

    Every numeric field must be present and numeric (booleans rejected),
    unknown fields are refused, and ``peak_certified`` is optional (rows
    written before it arrived carry no proof).  Raises
    ``ValueError``/``TypeError``/``KeyError`` on anything else.
    """
    if not isinstance(fields, dict):
        raise TypeError("metric fields must be a mapping")
    if set(fields) - {"peak_certified"} != set(_NUMERIC_FIELDS):
        raise ValueError("unexpected metric fields")
    values = {}
    for name in _NUMERIC_FIELDS:
        value = fields[name]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"non-numeric metric field {name!r}")
        values[name] = int(value) if name == "samples" else float(value)
    values["peak_certified"] = _load_certified(fields.get("peak_certified"))
    return ErrorMetrics(**values)


def _load_certified(value) -> tuple[float, float] | None:
    """Validate a stored ``peak_certified`` entry (JSON list or null)."""
    if value is None:
        return None
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError("peak_certified must be a 2-element pair or null")
    lo, hi = value
    for side in (lo, hi):
        if isinstance(side, bool) or not isinstance(side, (int, float)):
            raise ValueError("non-numeric peak_certified bound")
    return (float(lo), float(hi))


@dataclasses.dataclass(frozen=True)
class RunRow:
    """One recorded campaign with its provenance columns."""

    id: int
    kind: str
    created: float
    wall_seconds: float | None
    git_rev: str | None
    engine_version: int | None
    kernel_version: int | None
    seed: int | None
    samples: int | None
    counters: dict


@dataclasses.dataclass(frozen=True)
class ResultRow:
    """One design's result within a run, keyed by its fingerprint.

    ``payload`` and ``data`` are ``None`` when their stored JSON is
    damaged (a hand-edited database); such a row is never reused.
    """

    id: int
    run_id: int
    design: str
    fingerprint: str
    payload: dict
    data: dict
    reused: bool


def resolve_warehouse_path(warehouse) -> pathlib.Path | None:
    """Map a ``warehouse`` argument to a database path, or ``None``.

    * ``False`` — warehouse off;
    * ``None`` (default) — on only if :data:`WAREHOUSE_ENV` is set;
    * ``True`` — :data:`WAREHOUSE_ENV`, else a ``warehouse/`` subdirectory
      of the state directory (so ``clear_cache`` owns it);
    * a path — that directory (or the file itself when it ends in ``.db``).
    """
    if warehouse is False:
        return None
    if warehouse is None or warehouse is True:
        env = os.environ.get(WAREHOUSE_ENV)
        if env:
            return pathlib.Path(env) / DB_NAME
        if warehouse is None:
            return None
        return resolve_cache_dir(True) / "warehouse" / DB_NAME
    path = pathlib.Path(warehouse)
    return path if path.suffix == ".db" else path / DB_NAME


def open_warehouse(warehouse) -> "Warehouse | None":
    """A ready :class:`Warehouse` per the resolution rules, or ``None``.

    Unusable stores (e.g. written by a newer schema) resolve to ``None``
    with a ``warehouse.errors`` counter rather than raising: recording
    provenance must never take the computation it describes down.
    """
    path = resolve_warehouse_path(warehouse)
    if path is None:
        return None
    store = Warehouse(path)
    try:
        store.connect()
    except WarehouseError:
        telemetry.get().counter("warehouse.errors")
        store.close()
        return None
    return store


class Session:
    """The one door to the warehouse for the runs of one ``kind``.

    A context manager over :func:`open_warehouse` (inactive when off or
    unusable) that reuses by fingerprint and records runs.  A read that
    raises :class:`WarehouseError` returns an empty result (every name
    a miss) and a failed record is dropped; each failure counts
    ``warehouse.errors``, emits one ``warehouse.error`` event (``kind``,
    ``cause``) and is kept as :attr:`error`.
    """

    def __init__(self, warehouse, kind: str):
        self.kind = kind
        self.error: WarehouseError | None = None
        self._store = open_warehouse(warehouse)

    @property
    def active(self) -> bool:
        return self._store is not None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        if self._store is not None:
            self._store.close()
            self._store = None

    def reuse(self, payloads: dict, read=None) -> dict:
        """``{name: value}`` of each ``{name: payload}`` stored.

        ``read(store, fingerprint)`` returns a value or ``None`` (default
        :meth:`Warehouse.latest_metrics`), counted as a hit or a miss.
        """
        if self._store is None:
            return {}
        read = read or Warehouse.latest_metrics
        tele = telemetry.get()

        def lookup():
            values = {n: read(self._store, cache_key(p)) for n, p in payloads.items()}
            return {name: value for name, value in values.items() if value is not None}

        with tele.span("warehouse.lookup", kind=self.kind, designs=len(payloads)):
            found = self._guarded(lookup, {})
            for name in payloads:
                tele.counter("warehouse.hits" if name in found else "warehouse.misses")
        tele.counter("warehouse.deltas", len(payloads) - len(found))
        return found

    def certificates(self) -> dict[tuple[str, int], dict]:
        """:meth:`Warehouse.certificates`, ``{}`` when inactive or failing."""
        if self._store is None:
            return {}
        return self._guarded(self._store.certificates, {})

    def record(self, rows, **run) -> None:
        """:meth:`Warehouse.record_run` of ``rows``, iterated only when active."""
        if self._store is None:
            return
        rows = list(rows)
        with telemetry.get().span("warehouse.record", kind=self.kind, designs=len(rows)):
            self._guarded(lambda: self._store.record_run(self.kind, rows, **run), None)

    def _guarded(self, call, fallback):
        try:
            return call()
        except WarehouseError as exc:
            self.error = exc
            telemetry.get().counter("warehouse.errors")
            telemetry.get().event("warehouse.error", kind=self.kind, cause=str(exc))
            return fallback


class Warehouse:
    """One experiment database; see the module docstring for guarantees."""

    def __init__(self, path):
        self.path = pathlib.Path(path)
        self._connection: sqlite3.Connection | None = None

    # -- lifecycle ------------------------------------------------------

    def connect(self) -> sqlite3.Connection:
        """The live connection, opening (and migrating) on first use.

        A corrupt database is quarantined and rebuilt once; schema
        trouble raises :class:`WarehouseError`.
        """
        if self._connection is not None:
            return self._connection
        try:
            self._connection = self._open()
        except sqlite3.DatabaseError:
            self._quarantine()
            try:
                self._connection = self._open()
            except sqlite3.DatabaseError as exc:  # pragma: no cover - defensive
                raise WarehouseError(f"cannot rebuild {self.path}: {exc}") from exc
        return self._connection

    def _open(self) -> sqlite3.Connection:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        connection = sqlite3.connect(self.path, timeout=BUSY_TIMEOUT)
        try:
            connection.row_factory = sqlite3.Row
            # autocommit + explicit BEGIN IMMEDIATE in record_run: the
            # write lock is taken up front, so a run and its result rows
            # are one atomic unit under concurrent writers
            connection.isolation_level = None
            connection.execute(f"PRAGMA busy_timeout = {int(BUSY_TIMEOUT * 1000)}")
            # a truncated or bit-flipped file often connects fine and only
            # fails later; quick_check surfaces the damage at open time
            verdict = connection.execute("PRAGMA quick_check").fetchone()[0]
            if verdict != "ok":
                raise sqlite3.DatabaseError(f"quick_check: {verdict}")
            try:
                migrate(connection)
            except SchemaError as exc:
                raise WarehouseError(str(exc)) from exc
        except BaseException:
            connection.close()
            raise
        return connection

    def _quarantine(self) -> None:
        """Move the damaged database aside; the evidence stays on disk."""
        target = self.path.with_name(f"{self.path.name}.corrupt-{os.getpid()}")
        index = 0
        while target.exists():
            index += 1
            target = self.path.with_name(
                f"{self.path.name}.corrupt-{os.getpid()}-{index}"
            )
        try:
            os.replace(self.path, target)
        except FileNotFoundError:
            pass  # another process already quarantined it
        telemetry.get().counter("warehouse.quarantined")
        telemetry.get().event(
            "warehouse.quarantined", path=str(self.path), moved_to=str(target)
        )

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "Warehouse":
        self.connect()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def schema_version(self) -> int:
        rows = self._read("SELECT value FROM meta WHERE key='schema_version'")
        return int(rows[0][0]) if rows else SCHEMA_VERSION

    # -- recording ------------------------------------------------------

    def record_run(
        self,
        kind: str,
        results,
        *,
        seed: int | None = None,
        samples: int | None = None,
        wall_seconds: float | None = None,
        counters: dict | None = None,
        provenance: Provenance | None = None,
        created: float | None = None,
    ) -> int:
        """Atomically persist one run plus its result rows; returns run id.

        ``results`` is an iterable of ``(design, payload, data, reused)``
        tuples — ``payload`` is the content-addressed run description
        (its :func:`~repro.analysis.cache.cache_key` becomes the stored
        fingerprint), ``data`` the JSON-ready result, ``reused`` whether
        the row was served from the warehouse rather than recomputed.
        """
        if provenance is None:
            provenance = capture()
        if created is None:
            created = time.time()
        try:  # serialize everything up front: nothing fails mid-transaction
            counters_text = _canonical(counters or {})
            rows = [
                (design, cache_key(payload), _canonical(payload),
                 _canonical(data), 1 if reused else 0)
                for design, payload, data, reused in results
            ]
        except (TypeError, ValueError) as exc:
            raise WarehouseError(f"unserializable run data: {exc}") from exc
        connection = self.connect()
        try:
            with connection:  # one transaction: run + rows, all or nothing
                connection.execute("BEGIN IMMEDIATE")
                cursor = connection.execute(
                    "INSERT INTO runs (kind, created, wall_seconds, git_rev,"
                    " engine_version, kernel_version, seed, samples, counters)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        kind,
                        created,
                        wall_seconds,
                        provenance.git_rev,
                        provenance.engine_version,
                        provenance.kernel_version,
                        seed,
                        samples,
                        counters_text,
                    ),
                )
                run_id = cursor.lastrowid
                connection.executemany(
                    "INSERT INTO results (run_id, design, fingerprint,"
                    " payload, data, reused) VALUES (?, ?, ?, ?, ?, ?)",
                    [(run_id, *row) for row in rows],
                )
        except sqlite3.Error as exc:
            raise WarehouseError(f"record_run failed: {exc}") from exc
        telemetry.get().counter("warehouse.records")
        return run_id

    # -- querying -------------------------------------------------------

    def _read(self, query: str, args: tuple = ()) -> list[sqlite3.Row]:
        """Every row of one read query; any ``sqlite3.Error`` re-raised as a
        :class:`WarehouseError`."""
        try:
            return self.connect().execute(query, args).fetchall()
        except sqlite3.Error as exc:
            raise WarehouseError(f"lookup failed: {exc}") from exc

    def latest(self, fingerprint: str) -> ResultRow | None:
        """The most recent result row with this fingerprint, or ``None``."""
        rows = self._read(
            "SELECT * FROM results WHERE fingerprint = ? ORDER BY id DESC LIMIT 1",
            (fingerprint,),
        )
        return self._result_row(rows[0]) if rows else None

    def latest_metrics(self, fingerprint: str) -> ErrorMetrics | None:
        """The stored :class:`ErrorMetrics` for a fingerprint, or ``None``.

        Reads a bare metrics field dict (characterize runs) or one under
        a ``"metrics"`` key (sweep rows with synthesis columns).  A row
        that does not decode (hand-edited, or of another kind) is a
        miss, so a damaged row is recomputed, never replayed.
        """
        row = self.latest(fingerprint)
        if row is None:
            return None
        fields = row.data
        if isinstance(fields, dict) and isinstance(fields.get("metrics"), dict):
            fields = fields["metrics"]
        try:
            return metrics_from_fields(fields)
        except (ValueError, TypeError, KeyError):
            return None

    def certificates(self) -> dict[tuple[str, int], dict]:
        """The newest worst-case certificate of each ``(design, bitwidth)``.

        One query over the result rows of ``formal`` runs (``repro formal
        --warehouse``).  An equivalence proof or a damaged row is not a
        worst-case certificate and is skipped; whether a payload is exact
        and replayed is the reader's to check.
        """
        rows = self._read(
            "SELECT results.design, results.data FROM results"
            " JOIN runs ON runs.id = results.run_id"
            " WHERE runs.kind = 'formal' ORDER BY results.id"
        )
        latest = {}
        for design, text in rows:
            data = _loads(text)
            if isinstance(data, dict) and data.get("kind") == "worst-case-error":
                latest[design, data.get("bitwidth")] = data
        return latest

    def runs(self, kind: str | None = None, limit: int | None = None) -> list[RunRow]:
        """Recorded runs, oldest first, optionally filtered by kind."""
        query = "SELECT * FROM runs"
        args: tuple = ()
        if kind is not None:
            query += " WHERE kind = ?"
            args = (kind,)
        query += " ORDER BY id"
        rows = [self._run_row(row) for row in self._read(query, args)]
        return rows[-limit:] if limit is not None else rows

    def results(
        self,
        run_id: int | None = None,
        design: str | None = None,
    ) -> list[ResultRow]:
        """Result rows in insertion order, filtered by run and/or design."""
        clauses, args = [], []
        if run_id is not None:
            clauses.append("run_id = ?")
            args.append(run_id)
        if design is not None:
            clauses.append("design = ?")
            args.append(design)
        query = "SELECT * FROM results"
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY id"
        return [self._result_row(row) for row in self._read(query, tuple(args))]

    def designs(self) -> list[str]:
        """Every design name with at least one recorded result, sorted."""
        return [
            row[0]
            for row in self._read("SELECT DISTINCT design FROM results ORDER BY design")
        ]

    def count_runs(self) -> int:
        return self._read("SELECT COUNT(*) FROM runs")[0][0]

    def count_results(self) -> int:
        return self._read("SELECT COUNT(*) FROM results")[0][0]

    def export(self) -> dict:
        """The whole store as one JSON-ready dict, runs oldest first.

        A pure function of the database contents — exporting the same
        store twice yields identical structures (and, serialized with
        sorted keys, identical bytes), which CI relies on to diff trend
        artifacts.
        """
        runs = []
        for run in self.runs():
            entry = dataclasses.asdict(run)
            entry["results"] = [
                dataclasses.asdict(result) for result in self.results(run.id)
            ]
            runs.append(entry)
        return {"schema_version": self.schema_version, "runs": runs}

    # -- row adapters ---------------------------------------------------

    @staticmethod
    def _run_row(row: sqlite3.Row) -> RunRow:
        counters = _loads(row["counters"]) if "counters" in row.keys() else None
        return RunRow(
            id=row["id"],
            kind=row["kind"],
            created=row["created"],
            wall_seconds=row["wall_seconds"],
            git_rev=row["git_rev"],
            engine_version=row["engine_version"],
            kernel_version=row["kernel_version"],
            seed=row["seed"],
            samples=row["samples"],
            counters=counters if isinstance(counters, dict) else {},
        )

    @staticmethod
    def _result_row(row: sqlite3.Row) -> ResultRow:
        keys = row.keys()
        return ResultRow(
            id=row["id"],
            run_id=row["run_id"],
            design=row["design"],
            fingerprint=row["fingerprint"],
            payload=_loads(row["payload"]),
            data=_loads(row["data"]),
            reused=bool(row["reused"]) if "reused" in keys else False,
        )


def _loads(text):
    """A JSON column's value, or ``None`` for a damaged (hand-edited) one."""
    try:
        return json.loads(text)
    except (TypeError, ValueError):
        return None
