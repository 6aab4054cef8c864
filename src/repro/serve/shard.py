"""Worker shards of the supervised serving fleet.

A **shard** is one unit of serving capacity behind the
:class:`~repro.serve.supervisor.Supervisor`: the full existing
:class:`~repro.serve.server.Service` / micro-batcher stack, wrapped in
the handle interface the supervisor routes through.  Two flavours share
that interface:

* :class:`ProcessShard` — the production unit: a child process (spawn
  context, so no event-loop or lock state leaks across the fork
  boundary) running :func:`shard_main`, which binds a
  :class:`~repro.serve.server.TcpServer` on an ephemeral loopback port,
  reports the port back through a pipe, and serves until SIGTERM
  triggers a graceful drain.  The parent talks to it over the ordinary
  NDJSON protocol through an :class:`~repro.serve.client.AsyncClient` —
  the shard link *is* the public wire format, so everything the protocol
  suite proves holds inside the fleet too.
* :class:`LocalShard` — the same handle over an in-process ``Service``:
  no sockets, no processes, deterministic.  A request dict goes straight
  to :meth:`~repro.serve.server.Dispatcher.handle` — the frames were
  already decoded once at the front, so the in-process hop skips a
  second encode and decode.  This is what unit tests and the conformance
  oracle's supervised ``serve`` layer use; it exercises every supervisor
  code path (routing, validation, retry, degradation) except OS-level
  crash/kill.

**Chaos injection** rides the existing plans
(:mod:`repro.analysis.chaos`): :class:`ShardService` counts multiply
requests and consults :func:`~repro.analysis.chaos.serve_fault` with
``(label, ordinal)`` before dispatching.  A claimed ``crash`` exits the
process mid-request (the supervisor sees a dropped connection), ``hang``
blocks the event loop like a genuinely stuck worker (heartbeats go
unanswered, in-flight requests stall), ``corrupt`` truncates the product
vector (the supervisor's reply validation catches it), and ``raise``
surfaces as a structured ``internal`` error.  Firing counts are exact
across restarts — the claims go through the plan's cross-process lock
files.
"""

from __future__ import annotations

import asyncio
import dataclasses
import multiprocessing
import os
import signal
import time

from .batcher import BatchPolicy
from .client import AsyncClient
from .protocol import MultiplyRequest
from .server import Service, TcpServer

__all__ = [
    "LocalShard",
    "ProcessShard",
    "ShardConfig",
    "ShardService",
    "shard_main",
]

#: exit code of a chaos-crashed shard (mirrors the batch-task harness)
CRASH_EXIT_CODE = 17

#: how a shard process starts: from a fresh interpreter, so no event
#: loop, socket or lock state of the (possibly already-async) parent
#: leaks across
START_METHOD = "spawn"

#: seconds a shard process has to report its bound port
STARTUP_TIMEOUT = 60.0


@dataclasses.dataclass(frozen=True)
class ShardConfig:
    """Everything a shard process needs to build its serving stack.

    Picklable (spawn-context safe): ``policy`` is the frozen
    :class:`~repro.serve.batcher.BatchPolicy`, ``engine`` the extra
    ``characterize`` keyword arguments, ``workers`` the per-shard
    characterize pool size.  ``host`` is the loopback interface the
    shard binds (ephemeral port; the bound port is reported back through
    the startup pipe).
    """

    name: str
    host: str = "127.0.0.1"
    policy: BatchPolicy | None = None
    workers: int | None = None
    engine: dict | None = None


class ShardService(Service):
    """A :class:`Service` that identifies its shard and obeys chaos plans.

    ``label`` tags ping/status replies (the supervisor asserts it talks
    to the shard it thinks it does) and keys fault injection: multiply
    requests are numbered per service lifetime, and a chaos spec
    matching ``(label, ordinal)`` fires exactly once per claim —
    see :func:`repro.analysis.chaos.serve_fault`.
    """

    def __init__(self, label: str, **kwargs):
        super().__init__(**kwargs)
        self.label = label
        self._multiply_seq = 0

    async def _multiply(self, request: MultiplyRequest, frame: dict) -> dict:
        from ..analysis import chaos

        ordinal = self._multiply_seq
        self._multiply_seq += 1
        spec = chaos.serve_fault(self.label, ordinal)
        if spec is not None:
            if spec.kind == "crash":
                os._exit(CRASH_EXIT_CODE)
            if spec.kind == "hang":
                # block the event loop like a real stuck worker: the
                # heartbeat goes unanswered, in-flight requests stall
                time.sleep(spec.seconds)
            elif spec.kind == "raise":
                raise chaos.ChaosFault(
                    f"injected fault on {self.label} request {ordinal}"
                )
        response = await super()._multiply(request, frame)
        if spec is not None and spec.kind == "corrupt" and response.get("ok"):
            # a poisoned reply: drop the last product so the supervisor's
            # length validation must catch it (never a silent wrong answer
            # reaching the client)
            response["result"]["products"] = response["result"]["products"][:-1]
            response["result"].pop("product", None)
        return response

    def _ping(self, request) -> dict:
        response = super()._ping(request)
        response["result"]["shard"] = self.label
        return response

    def _status(self, request) -> dict:
        response = super()._status(request)
        response["result"]["shard"] = self.label
        return response


def _build_service(config: ShardConfig) -> ShardService:
    return ShardService(
        config.name,
        policy=config.policy,
        workers=config.workers,
        engine=config.engine,
    )


async def _shard_amain(config: ShardConfig, conn) -> None:
    service = _build_service(config)
    server = TcpServer(service, config.host, 0)
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            signal.signal(signum, lambda *_: stop.set())
    conn.send(("ready", server.address[1]))
    conn.close()
    try:
        await stop.wait()
    finally:
        await server.close()


def shard_main(config: ShardConfig, conn) -> None:
    """Child-process entry point: serve until SIGTERM, then drain."""
    try:
        asyncio.run(_shard_amain(config, conn))
    except KeyboardInterrupt:  # pragma: no cover - direct Ctrl-C only
        pass


class LocalShard:
    """An in-process shard: the handle interface over a plain ``Service``.

    Deterministic (no processes, no sockets) and therefore the unit-test
    and conformance vehicle for every supervisor code path that does not
    require OS-level isolation.  ``sleep`` forwards to the service's
    micro-batcher gate, so harnesses that control flushing manually work
    unchanged.
    """

    def __init__(
        self,
        name: str,
        *,
        policy: BatchPolicy | None = None,
        sleep=None,
    ):
        self.name = name
        self._policy = policy
        self._sleep = sleep
        self.service: ShardService | None = None
        self.restarts = 0

    @property
    def alive(self) -> bool:
        return self.service is not None and not self.service.draining

    async def start(self) -> None:
        self.service = ShardService(
            self.name,
            policy=self._policy,
            sleep=self._sleep,
        )
        self.service.start()

    async def request(self, obj: dict) -> dict:
        if self.service is None:
            raise ConnectionError(f"shard {self.name!r} is not running")
        return await self.service.handle(obj)

    async def stop(self) -> None:
        service, self.service = self.service, None
        if service is not None:
            await service.drain()

    async def restart(self) -> None:
        await self.stop()
        await self.start()
        self.restarts += 1

    def kill(self) -> None:
        # no process to kill; dropping the service models the hard stop
        self.service = None


class ProcessShard:
    """A shard running :func:`shard_main` in a child process.

    The child starts by :data:`START_METHOD`.  :meth:`start` blocks
    until the child reports its bound port (:data:`STARTUP_TIMEOUT`
    guards a child that dies before binding), then connects the
    parent-side :class:`AsyncClient`.  :meth:`stop` is the graceful path
    (SIGTERM → drain → join, escalating to SIGKILL after ``grace``);
    :meth:`kill` is immediate — what the supervisor does to a hung shard.
    """

    def __init__(self, config: ShardConfig):
        self.config = config
        self.name = config.name
        self._ctx = multiprocessing.get_context(START_METHOD)
        self.process = None
        self.port: int | None = None
        self.client: AsyncClient | None = None
        self.restarts = 0

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    async def start(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        self.process = self._ctx.Process(
            target=shard_main,
            args=(self.config, child_conn),
            name=f"repro-{self.name}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        try:
            message = await asyncio.to_thread(self._await_ready, parent_conn)
        finally:
            parent_conn.close()
        self.port = int(message[1])
        self.client = await AsyncClient.connect(self.config.host, self.port)

    def _await_ready(self, conn):
        if not conn.poll(STARTUP_TIMEOUT):
            self._reap()
            raise ConnectionError(
                f"shard {self.name!r} did not report ready within "
                f"{STARTUP_TIMEOUT}s"
            )
        try:
            message = conn.recv()
        except (EOFError, OSError) as exc:
            self._reap()
            raise ConnectionError(
                f"shard {self.name!r} died during startup"
            ) from exc
        if not (isinstance(message, tuple) and message[0] == "ready"):
            self._reap()
            raise ConnectionError(
                f"shard {self.name!r} sent a malformed ready message"
            )
        return message

    def _reap(self) -> None:
        if self.process is not None:
            if self.process.is_alive():
                self.process.kill()
            self.process.join(timeout=5.0)
            self.process = None

    async def request(self, obj: dict) -> dict:
        if self.client is None:
            raise ConnectionError(f"shard {self.name!r} is not connected")
        return await self.client.request(obj)

    async def stop(self, grace: float = 10.0) -> None:
        client, self.client = self.client, None
        if client is not None:
            await client.close()
        process, self.process = self.process, None
        if process is None:
            return
        if process.is_alive():
            process.terminate()
        await asyncio.to_thread(process.join, grace)
        if process.is_alive():  # pragma: no cover - drain overran its grace
            process.kill()
            await asyncio.to_thread(process.join, 5.0)

    async def restart(self) -> None:
        """Replace the process (and connection) with a fresh one."""
        await self.stop(grace=1.0)
        await self.start()
        self.restarts += 1

    def kill(self) -> None:
        """Immediate SIGKILL — the hung-shard path (no drain possible)."""
        if self.process is not None and self.process.is_alive():
            self.process.kill()
            # reap promptly so ``alive`` flips without waiting for a
            # later join (SIGKILL lands before this returns)
            self.process.join(timeout=5.0)
