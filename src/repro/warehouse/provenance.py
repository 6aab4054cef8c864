"""Provenance capture for warehouse runs.

Every recorded run carries enough context to answer "what produced this
number": the git revision of the working tree, the engine and kernel
schema versions that define the result semantics, and the wall clock.
All fields degrade gracefully — a tree without git (an sdist install, a
stripped CI image) records ``None`` rather than failing the run.
"""

from __future__ import annotations

import dataclasses
import functools
import pathlib
import subprocess

__all__ = ["Provenance", "capture", "git_rev"]


def git_rev(cwd=None) -> str | None:
    """The current ``HEAD`` commit hash, or ``None`` outside a git tree.

    ``cwd`` defaults to this package's directory, so the revision
    describes the *code*, not whatever directory the process happens to
    run in; that default is read once per process, because a process
    runs the code it imported (serve shards are fresh processes and read
    their own).
    """
    if cwd is None:
        return _code_rev()
    return _rev_parse(cwd)


@functools.lru_cache(maxsize=1)
def _code_rev() -> str | None:
    return _rev_parse(pathlib.Path(__file__).resolve().parent)


def _rev_parse(cwd) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5.0,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    rev = out.stdout.strip()
    return rev or None


@dataclasses.dataclass(frozen=True)
class Provenance:
    """The per-run provenance columns of the ``runs`` table."""

    git_rev: str | None
    engine_version: int
    kernel_version: int


def capture() -> Provenance:
    """Snapshot the current provenance (imports deferred: no cycles)."""
    from ..analysis.montecarlo import ENGINE_VERSION
    from ..kernels.compiler import KERNEL_VERSION

    return Provenance(
        git_rev=git_rev(),
        engine_version=ENGINE_VERSION,
        kernel_version=KERNEL_VERSION,
    )
