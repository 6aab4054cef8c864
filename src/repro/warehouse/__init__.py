"""Experiment warehouse: provenance-complete store of every recorded run.

A SQLite database (by default ``<cache-dir>/warehouse/warehouse.db``)
recording each characterization, design-space sweep, conformance
campaign and formal-certificate run together with its provenance —
registry fingerprints, engine/kernel versions, seed, git revision,
wall clock and telemetry counters.  It is the one store of Monte-Carlo
results, and answers two questions: *which designs actually changed
since last time* (reuse and incremental recompute on every engine entry
point, :func:`repro.analysis.montecarlo.characterize_many` and every
table built on it) and *how did this design's error trend across
runs* (``repro report``).

Opt-in resolution: pass ``warehouse=True`` / a path, or set
:data:`REPRO_WAREHOUSE_DIR <WAREHOUSE_ENV>`; the default ``None``
enables the store only when that variable is set.
"""

from .provenance import Provenance, capture, git_rev
from .report import build_trends, render_json, render_text
from .schema import SCHEMA_VERSION, SchemaError, create_schema, migrate
from .store import (
    DB_NAME,
    WAREHOUSE_ENV,
    ResultRow,
    RunRow,
    Session,
    Warehouse,
    WarehouseError,
    metrics_fields,
    metrics_from_fields,
    open_warehouse,
    resolve_warehouse_path,
)

__all__ = [
    "DB_NAME",
    "Provenance",
    "ResultRow",
    "RunRow",
    "SCHEMA_VERSION",
    "SchemaError",
    "Session",
    "WAREHOUSE_ENV",
    "Warehouse",
    "WarehouseError",
    "build_trends",
    "capture",
    "create_schema",
    "git_rev",
    "metrics_fields",
    "metrics_from_fields",
    "migrate",
    "open_warehouse",
    "render_json",
    "render_text",
    "resolve_warehouse_path",
]
