"""Content addressing and the state directory under ``$REPRO_CACHE_DIR``.

Every stored result is keyed by a SHA-256 digest of its complete run
description (:func:`cache_key`) — engine version, multiplier fingerprint
(see :func:`repro.multipliers.registry.fingerprint`), input kind,
bitwidth, seed and sample count — so a stored entry is guaranteed to
describe the exact run being requested, and any change to a knob
(``M``, ``t``, ``q``, seed, samples, engine) lands on a different key.
Monte-Carlo metrics live in the experiment warehouse
(:mod:`repro.warehouse`), which keys its rows this way; the metrics row
format (:func:`~repro.warehouse.store.metrics_fields` and its decoder
:func:`~repro.warehouse.store.metrics_from_fields`) lives there too.

The state directory holds campaign checkpoints (``checkpoints/``) and
the default warehouse database (``warehouse/``); formal certificates
and conformance counterexamples are warehouse rows, not files.  It is
resolved per call:

* ``cache=False`` — off;
* ``cache=None`` (default) — on only if ``REPRO_CACHE_DIR`` is set;
* ``cache=True`` — ``REPRO_CACHE_DIR`` or the user cache directory
  (``$XDG_CACHE_HOME``/``~/.cache`` + ``repro-realm/metrics``);
* a path — that directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import time

__all__ = [
    "CACHE_ENV",
    "cache_key",
    "clear_cache",
    "default_cache_dir",
    "resolve_cache_dir",
    "sweep_stale_temps",
]

#: environment override for the state directory (also the global opt-in)
CACHE_ENV = "REPRO_CACHE_DIR"

#: temp files older than this are considered orphaned (a writer that died
#: between write and rename); younger ones may belong to a live writer
STALE_TEMP_SECONDS = 3600.0


def default_cache_dir() -> pathlib.Path:
    """``$XDG_CACHE_HOME``/``~/.cache`` + ``repro-realm/metrics``."""
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg) if xdg else pathlib.Path.home() / ".cache"
    return base / "repro-realm" / "metrics"


def resolve_cache_dir(cache) -> pathlib.Path | None:
    """Map a ``cache`` argument to a directory, or ``None`` when off."""
    if cache is False:
        return None
    if cache is None or cache is True:
        env = os.environ.get(CACHE_ENV)
        if env:
            return pathlib.Path(env)
        return default_cache_dir() if cache is True else None
    return pathlib.Path(cache)


def cache_key(payload: dict) -> str:
    """Stable content address of a run description (canonical-JSON SHA-256)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sweep_stale_temps(
    directory, max_age_seconds: float = STALE_TEMP_SECONDS
) -> int:
    """Remove orphaned ``*.tmp<pid>`` files; returns how many were removed.

    Writers that die between ``write_text`` and ``os.replace`` leave
    their temp file behind forever (every process embeds its own pid in
    the name, so no later writer reuses it).  Only files older than
    ``max_age_seconds`` are swept, so a concurrent live writer is never
    raced.
    """
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return 0
    cutoff = time.time() - max_age_seconds
    removed = 0
    for path in directory.glob("*.tmp*"):
        try:
            if path.stat().st_mtime < cutoff:
                path.unlink()
                removed += 1
        except FileNotFoundError:
            pass  # another sweeper got there first
    return removed


#: glob patterns covering every store under the state directory;
#: clear_cache drops them all
_SUBSYSTEM_GLOBS = (
    "checkpoints/*.json",     # campaign checkpoints (runtime.Checkpoint)
    "warehouse/warehouse.db*",  # experiment warehouse + quarantined copies
)


def clear_cache(cache=True) -> int:
    """Drop every entry in the resolved directory; returns the count.

    Covers both stores under the state directory — campaign checkpoints
    (``checkpoints/``) and the experiment warehouse database
    (``warehouse/``, including quarantined copies) — and sweeps orphaned
    checkpoint temp files left by writers that died mid-store (the
    returned count covers removed entries only, not the swept temps).
    """
    directory = resolve_cache_dir(cache)
    if directory is None or not directory.is_dir():
        return 0
    removed = 0
    for pattern in _SUBSYSTEM_GLOBS:
        for path in directory.glob(pattern):
            try:
                path.unlink()
                removed += 1
            except (FileNotFoundError, IsADirectoryError):
                pass
    sweep_stale_temps(directory / "checkpoints")
    return removed
