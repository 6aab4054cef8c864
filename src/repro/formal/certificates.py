"""Persisted formal certificates, under the state directory.

Certificates are small JSON documents (an equivalence verdict with its
per-leg statuses and witnesses, or a worst-case error bound with its
exact rational value and replayed witness) stored under a ``formal/``
subdirectory of ``$REPRO_CACHE_DIR`` (see
:func:`repro.analysis.cache.resolve_cache_dir`) — one file per
``(design, bitwidth, kind)``, human-readable, and cheap enough to
upload wholesale as CI artifacts.

Unlike the content-addressed warehouse rows, certificate filenames are
*claims*: ``realm16-t0-b16-equivalence.json`` states what was certified
for whom.  The payload embeds everything needed to re-check the claim
(witness operands, exact fractions, method, backend), so a stale or
hand-edited certificate is caught by replaying it, not trusted.
"""

from __future__ import annotations

import json
import os
import pathlib
import re

from ..analysis.cache import resolve_cache_dir

__all__ = [
    "certificate_dir",
    "certificate_path",
    "list_certificates",
    "load_certificate",
    "save_certificate",
]


def certificate_dir(cache=True) -> pathlib.Path | None:
    """The ``formal/`` directory under the state directory, or ``None``."""
    base = resolve_cache_dir(cache)
    if base is None:
        return None
    return base / "formal"


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", text)


def certificate_path(
    design: str, bitwidth: int, kind: str, cache=True
) -> pathlib.Path | None:
    directory = certificate_dir(cache)
    if directory is None:
        return None
    return directory / f"{_slug(design)}-b{bitwidth}-{_slug(kind)}.json"


def save_certificate(payload: dict, cache=True) -> pathlib.Path | None:
    """Atomically persist one certificate payload; returns its path.

    ``payload`` must carry ``design``, ``bitwidth`` and ``kind`` (the
    ``to_payload()`` of :class:`~repro.formal.equiv.EquivalenceResult`
    and :class:`~repro.formal.bounds.WorstCaseBounds` both do).
    Returns ``None`` when caching is disabled.
    """
    path = certificate_path(
        payload["design"], payload["bitwidth"], payload["kind"], cache
    )
    if path is None:
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_suffix(f".tmp{os.getpid()}")
    temp.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    os.replace(temp, path)
    return path


def load_certificate(
    design: str, bitwidth: int, kind: str, cache=True
) -> dict | None:
    """One stored certificate, or ``None`` (disabled, missing, corrupt)."""
    path = certificate_path(design, bitwidth, kind, cache)
    if path is None:
        return None
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or payload.get("kind") != kind:
        return None
    return payload


def list_certificates(cache=True) -> list[pathlib.Path]:
    """Every stored certificate file, sorted by name."""
    directory = certificate_dir(cache)
    if directory is None or not directory.is_dir():
        return []
    return sorted(directory.glob("*.json"))
