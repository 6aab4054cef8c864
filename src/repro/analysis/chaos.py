"""Deterministic fault injection for the resilient runtime (chaos harness).

The recovery paths in :mod:`repro.analysis.runtime` — retries, pool
rebuilds, timeouts, degradation — are exactly the code that never runs in
a healthy environment.  This module makes worker faults *reproducible* so
tests can prove each path ends in either a bit-identical result or a
structured error.

A **fault plan** is a list of :class:`FaultSpec`, each targeting the
batch whose first block index equals ``block`` (optionally restricted to
batches that evaluate one design, named by its label, via ``design``).
Kinds:

* ``"crash"`` — ``os._exit`` the process (→ ``BrokenProcessPool``); only
  fires inside worker processes, so degraded in-process execution always
  survives it (mirroring real OOM-killed workers);
* ``"hang"`` — sleep ``seconds`` before computing (→ batch timeout);
* ``"raise"`` — raise :class:`ChaosFault` (an ordinary task error);
* ``"corrupt"`` — compute the batch, then falsify the sample count of
  its first design's first accumulator (must be caught by result
  validation).

Each spec fires for its first ``times`` executions, counted across
processes through lock files in the plan's ``dir`` — so "crash once then
succeed" is expressible even though retries land in fresh workers.

Activation: :func:`install` for in-process plans, or the
:data:`CHAOS_ENV` environment variable (inline JSON or a path to a JSON
file) which worker processes inherit.  With neither set, the runtime's
task wrapper is the identity function — zero overhead in production.

The supervised serve fleet (:mod:`repro.serve.supervisor`) injects
through the same plans via :func:`serve_fault`: ``design`` names the
shard label, ``block`` the shard's multiply-request ordinal, and the
shard process performs the claimed effect before (crash/hang) or after
(corrupt) evaluating — so "kill shard-1 on its third request, exactly
once" is expressible with the same cross-process exact firing counts.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import pathlib
import time

from .metrics import Accumulator

__all__ = [
    "CHAOS_ENV",
    "ChaosFault",
    "ChaosPlan",
    "FaultSpec",
    "active_plan",
    "install",
    "serve_fault",
    "uninstall",
    "wrap",
]

#: environment override: inline JSON plan or a path to a JSON plan file
CHAOS_ENV = "REPRO_CHAOS"

FAULT_KINDS = ("crash", "hang", "raise", "corrupt")


class ChaosFault(RuntimeError):
    """The injected task error raised by ``kind="raise"`` faults."""


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One injected fault.

    ``block`` matches the first block index of a batch; ``design`` (when
    set) additionally requires the batch to evaluate the design with
    that label (the multiplier display name); ``times`` bounds how many
    executions fault; ``seconds`` is the ``hang`` duration.
    """

    kind: str
    block: int
    design: str | None = None
    times: int = 1
    seconds: float = 0.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")
        if self.seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {self.seconds}")


@dataclasses.dataclass(frozen=True)
class ChaosPlan:
    """A fault list plus the directory backing the cross-process counters."""

    specs: tuple[FaultSpec, ...]
    directory: str

    def fault_for(self, block: int, *labels) -> tuple[int, FaultSpec] | None:
        """The first spec matching ``block`` and any of ``labels``."""
        for position, spec in enumerate(self.specs):
            if spec.block != block:
                continue
            if spec.design is not None and spec.design not in labels:
                continue
            return position, spec
        return None

    def claim(self, position: int, spec: FaultSpec) -> bool:
        """Atomically take the next firing slot; ``False`` once spent.

        Slot ``n`` is the lock file ``claim-<position>-<n>``; ``O_EXCL``
        creation makes the count exact even when retries race across
        worker processes.
        """
        directory = pathlib.Path(self.directory)
        directory.mkdir(parents=True, exist_ok=True)
        slot = 0
        while True:
            path = directory / f"claim-{position}-{slot}"
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                slot += 1
                continue
            os.close(fd)
            return slot < spec.times

    def to_json(self) -> str:
        return json.dumps(
            {
                "dir": self.directory,
                "faults": [dataclasses.asdict(spec) for spec in self.specs],
            }
        )


_INSTALLED: ChaosPlan | None = None


def install(specs, directory) -> ChaosPlan:
    """Activate an in-process plan (serial runs and the installing process).

    Parallel runs should set :data:`CHAOS_ENV` instead (e.g. to
    ``plan.to_json()``) so worker processes see the plan too.
    """
    global _INSTALLED
    _INSTALLED = ChaosPlan(tuple(specs), str(directory))
    return _INSTALLED


def uninstall() -> None:
    global _INSTALLED
    _INSTALLED = None


def _parse_plan(text: str) -> ChaosPlan | None:
    try:
        if not text.lstrip().startswith("{"):
            text = pathlib.Path(text).read_text()
        data = json.loads(text)
        specs = tuple(FaultSpec(**spec) for spec in data["faults"])
        return ChaosPlan(specs, str(data["dir"]))
    except (OSError, ValueError, KeyError, TypeError):
        return None


def active_plan() -> ChaosPlan | None:
    """The installed plan, else the environment plan, else ``None``."""
    if _INSTALLED is not None:
        return _INSTALLED
    text = os.environ.get(CHAOS_ENV)
    if not text:
        return None
    return _parse_plan(text)


def _in_worker() -> bool:
    return multiprocessing.parent_process() is not None


@dataclasses.dataclass
class _FaultingTask:
    """Picklable task wrapper that consults the active plan at call time.

    Wraps a campaign batch task ``inner(designs, blocks)``; ``labels``
    names the campaign's designs by position.
    """

    inner: object
    labels: tuple = ()

    def __call__(self, designs, blocks, on_result=None):
        plan = active_plan()
        if plan is None or not blocks:
            return self.inner(designs, blocks, on_result=on_result)
        match = plan.fault_for(blocks[0][0], *(self.labels[p] for p in designs))
        if match is None:
            return self.inner(designs, blocks, on_result=on_result)
        position, spec = match
        if spec.kind == "crash" and not _in_worker():
            # crashes model killed workers; in-process execution survives
            return self.inner(designs, blocks, on_result=on_result)
        if not plan.claim(position, spec):
            return self.inner(designs, blocks, on_result=on_result)
        if spec.kind == "crash":
            os._exit(17)
        if spec.kind == "hang":
            time.sleep(spec.seconds)
            return self.inner(designs, blocks, on_result=on_result)
        if spec.kind == "raise":
            raise ChaosFault(
                f"injected fault on batch starting at block {blocks[0][0]}"
            )
        # corrupt: compute honestly, then falsify the returned batch's
        # first accumulator, as a worker returning garbage would
        out = list(self.inner(designs, blocks))
        accumulators, seconds = out[0]
        poisoned = Accumulator(**dataclasses.asdict(accumulators[0]))
        poisoned.all_count += 1
        out[0] = ([poisoned, *accumulators[1:]], seconds)
        return out


def wrap(task, labels=()):
    """Wrap a bound campaign batch task with fault injection when a plan
    is active; ``labels`` names the campaign's designs by position.

    Returns ``task`` unchanged when no plan is installed and the
    environment variable is unset, so healthy runs pay nothing.
    """
    if _INSTALLED is None and not os.environ.get(CHAOS_ENV):
        return task
    return _FaultingTask(task, tuple(labels))


def serve_fault(label: str, ordinal: int) -> FaultSpec | None:
    """Claim a serve-layer fault for request ``ordinal`` at shard ``label``.

    The serve fleet reuses the :class:`FaultSpec` schema with
    ``design`` = the shard label (``"shard-0"``, ...) and ``block`` = the
    shard's multiply-request ordinal (0-based, counted per shard process
    lifetime).  Returns the spec once claimed — the caller performs the
    effect (``crash`` → ``os._exit``, ``hang`` → block the event loop,
    ``corrupt`` → truncate the reply, ``raise`` → :class:`ChaosFault`) —
    or ``None`` when no plan is active, nothing matches, or the spec's
    firing budget is spent.  ``crash`` only claims inside worker
    processes (same guard as the batch-task wrapper), so an in-process
    shard can never take its parent down.  Claims go through the plan's
    cross-process lock files, so firing counts stay exact even when the
    supervisor restarts shards mid-campaign.
    """
    plan = active_plan()
    if plan is None:
        return None
    match = plan.fault_for(ordinal, label)
    if match is None:
        return None
    position, spec = match
    if spec.kind == "crash" and not _in_worker():
        return None
    if not plan.claim(position, spec):
        return None
    return spec
