"""The serving layer: request dispatch, TCP transport, graceful drain.

:class:`Dispatcher` is what every serving front shares: it turns one
decoded request into one response dict (parsing, the drain gate, op
dispatch, structured errors, the ``designs`` listing), and
:meth:`Dispatcher.handle_line` adds the framing layer: any input line
in, exactly one well-formed response frame out, never an exception.
:class:`Service` is the single-process front, multiplying through the
micro-batcher (:mod:`repro.serve.batcher`) and characterizing through
the resilient Monte-Carlo engine (off the event loop, with a
:class:`~repro.analysis.runtime.SharedPool` reused across requests);
:class:`~repro.serve.supervisor.Supervisor` forwards both ops to shards.

:class:`TcpServer` binds a front to an asyncio TCP endpoint
(newline-delimited JSON, one frame per line, requests pipelined per
connection and answered in completion order, matched by ``id``).
Shutdown is a graceful drain: stop accepting, flush the batcher so
every admitted request gets its response, then close connections —
admitted work is never dropped, new work is refused with
``shutting-down``.

The in-process path for tests is simply a front plus
:class:`repro.serve.client.InProcessClient` — same dispatch, same
codec, no sockets.
"""

from __future__ import annotations

import asyncio
import dataclasses

from ..analysis import telemetry
from ..analysis.montecarlo import characterize
from ..analysis.runtime import SharedPool
from ..multipliers.registry import names
from .batcher import BatchPolicy, MicroBatcher, ModelCache, ShedError
from .protocol import (
    PROTOCOL_VERSION,
    CharacterizeRequest,
    DesignsRequest,
    MultiplyRequest,
    PingRequest,
    ProtocolError,
    StatusRequest,
    decode_frame,
    encode_frame,
    error_response,
    ok_response,
    parse_request,
)

__all__ = ["DEFAULT_PORT", "Dispatcher", "Service", "TcpServer", "products_response"]

#: default TCP port (no registered meaning; "REALM" on a phone keypad-ish)
DEFAULT_PORT = 7325


def products_response(request: MultiplyRequest, products) -> dict:
    """The ``multiply`` answer: every product, plus the bare ``product``
    when both operands were scalars."""
    result = {"products": [int(value) for value in products]}
    if request.scalar:
        result["product"] = result["products"][0]
    return ok_response(request.id, result)


class Dispatcher:
    """The request dispatch every serving front shares.

    A front answers ``multiply`` and ``characterize`` (:meth:`_multiply`,
    :meth:`_characterize`, given the typed request and the decoded frame
    it came from) and reports ``ping``/``status`` (:meth:`_ping`,
    :meth:`_status`); ``models`` (a :class:`ModelCache`) backs the
    ``designs`` listing.  Once :attr:`draining`, every request but
    ``ping`` and ``status`` is refused with ``shutting-down``.
    """

    #: the ``shutting-down`` message of the drain gate
    drain_message = "server is draining; retry elsewhere"
    _draining = False

    @property
    def draining(self) -> bool:
        return self._draining

    async def handle_line(self, line) -> bytes:
        """One frame in, one frame out; no exception ever escapes."""
        try:
            obj = decode_frame(line)
        except ProtocolError as exc:
            return encode_frame(error_response(None, exc.code, exc.message))
        try:
            response = await self.handle(obj)
        except Exception as exc:  # pragma: no cover - defensive belt
            response = error_response(
                obj.get("id"), "internal", f"{type(exc).__name__}: {exc}"
            )
        return encode_frame(response)

    async def handle(self, obj: dict) -> dict:
        """Dispatch one decoded request object to a response dict."""
        request_id = obj.get("id") if isinstance(obj, dict) else None
        try:
            request = parse_request(obj)
        except ProtocolError as exc:
            return error_response(request_id, exc.code, exc.message)
        if self._draining and not isinstance(request, (PingRequest, StatusRequest)):
            return error_response(request.id, "shutting-down", self.drain_message)
        try:
            if isinstance(request, MultiplyRequest):
                return await self._multiply(request, obj)
            if isinstance(request, CharacterizeRequest):
                return await self._characterize(request, obj)
            if isinstance(request, DesignsRequest):
                return self._designs(request)
            if isinstance(request, StatusRequest):
                return self._status(request)
            return self._ping(request)
        except ProtocolError as exc:
            return error_response(request.id, exc.code, exc.message)
        except Exception as exc:
            telemetry.get().counter("serve.internal_errors")
            return error_response(
                request.id, "internal", f"{type(exc).__name__}: {exc}"
            )

    def _designs(self, request: DesignsRequest) -> dict:
        listing = []
        for name in names():
            if not name.startswith(request.prefix):
                continue
            model = self.models.get(name)
            listing.append(
                {"id": name, "name": model.name, "family": model.family}
            )
        return ok_response(request.id, {"designs": listing})


class Service(Dispatcher):
    """The single-process front: the micro-batcher and the engine.

    ``policy``/``models``/``sleep`` configure the micro-batcher (the
    injectable ``sleep`` is what the deterministic test harness uses);
    ``workers`` > 1 gives characterize requests a :class:`SharedPool`
    whose worker processes are reused across requests; ``engine`` is a
    dict of extra :func:`~repro.analysis.montecarlo.characterize`
    keyword arguments (``warehouse=``, ``policy=``, ...).  Characterize
    runs one at a time: the engine parallelizes internally, and the
    shared pool is not thread-safe.
    """

    def __init__(
        self,
        *,
        policy: BatchPolicy | None = None,
        models: ModelCache | None = None,
        sleep=None,
        workers: int | None = None,
        engine: dict | None = None,
    ):
        self.batcher = MicroBatcher(policy, models=models, sleep=sleep)
        self.workers = workers
        self.pool = SharedPool(workers) if workers and workers > 1 else None
        self.engine = dict(engine) if engine else {}
        self._characterizing = asyncio.Lock()

    @property
    def models(self) -> ModelCache:
        return self.batcher.models

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Start the batcher's background flusher (needs a running loop)."""
        self.batcher.start()

    async def drain(self) -> None:
        """Graceful shutdown: answer everything admitted, refuse the rest.

        New requests are refused with ``shutting-down`` from the moment
        this is called; queued multiplies flush and resolve; the shared
        characterize pool shuts down after in-flight runs finish.
        """
        self._draining = True
        await self.batcher.drain()
        if self.pool is not None:
            await asyncio.to_thread(self.pool.close)

    # -- ops ------------------------------------------------------------

    async def _multiply(self, request: MultiplyRequest, frame: dict) -> dict:
        try:
            future = self.batcher.submit(
                request.design, request.a, request.b, request.bitwidth
            )
        except ProtocolError:
            raise  # the model's own refusal, answered by the dispatcher
        except ValueError as exc:
            return error_response(request.id, "bad-operands", str(exc))
        except ShedError as exc:
            code = "shutting-down" if self.batcher.closing else "overloaded"
            return error_response(request.id, code, str(exc))
        return products_response(request, await future)

    async def _characterize(self, request: CharacterizeRequest, frame: dict) -> dict:
        if self.batcher.closing:
            return error_response(
                request.id, "shutting-down", "server is draining"
            )
        model = self.models.get(request.design, request.bitwidth)
        async with self._characterizing:
            with telemetry.get().span(
                "serve.characterize", design=model.name, samples=request.samples
            ):
                metrics = await asyncio.to_thread(
                    characterize,
                    model,
                    samples=request.samples,
                    seed=request.seed,
                    workers=self.workers,
                    pool=self.pool,
                    **self.engine,
                )
        return ok_response(
            request.id,
            {
                "design": request.design,
                "bitwidth": request.bitwidth,
                "samples": request.samples,
                "seed": request.seed,
                "metrics": dataclasses.asdict(metrics),
            },
        )

    def _ping(self, request: PingRequest) -> dict:
        return ok_response(
            request.id,
            {
                "protocol": PROTOCOL_VERSION,
                "queue_depth": self.batcher.depth,
                "draining": self._draining,
            },
        )

    def _status(self, request: StatusRequest) -> dict:
        """Readiness probe: one standalone service is ready unless draining."""
        return ok_response(
            request.id,
            {
                "ready": not self._draining,
                "role": "service",
                "protocol": PROTOCOL_VERSION,
                "draining": self._draining,
                "queue_depth": self.batcher.depth,
            },
        )


class TcpServer:
    """Newline-delimited JSON over TCP, one :class:`Service` behind it.

    Requests on one connection are handled concurrently (one task per
    frame) and responses are written in completion order — clients match
    them by ``id``.  ``port=0`` binds an ephemeral port; read the actual
    one from :attr:`address` after :meth:`start`.
    """

    def __init__(self, service: Service, host: str = "127.0.0.1", port: int = DEFAULT_PORT):
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._tasks: set[asyncio.Task] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` after start)."""
        assert self._server is not None, "server not started"
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> None:
        self.service.start()
        # readline needs headroom beyond the largest legal frame
        from .protocol import MAX_FRAME_BYTES

        self._server = await asyncio.start_server(
            self._on_connect, self.host, self.port, limit=MAX_FRAME_BYTES + 1024
        )
        telemetry.get().event(
            "serve.listening", host=self.address[0], port=self.address[1]
        )

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def close(self) -> None:
        """Graceful drain: stop accepting, answer everything, disconnect."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.drain()
        if self._tasks:
            await asyncio.gather(*tuple(self._tasks), return_exceptions=True)
        for writer in tuple(self._writers):
            writer.close()
        # closing the transports EOFs the readers; wait for the handlers
        # to unwind so loop teardown never cancels them mid-read
        if self._conn_tasks:
            await asyncio.gather(
                *tuple(self._conn_tasks), return_exceptions=True
            )

    async def _on_connect(self, reader, writer) -> None:
        self._writers.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        lock = asyncio.Lock()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # over-long line: answer once, then drop the connection
                    # (framing is lost beyond this point)
                    await self._write(
                        writer,
                        lock,
                        encode_frame(
                            error_response(None, "bad-frame", "frame too long")
                        ),
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.get_running_loop().create_task(
                    self._respond(line, writer, lock)
                )
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _respond(self, line, writer, lock) -> None:
        response = await self.service.handle_line(line)
        try:
            await self._write(writer, lock, response)
        except (ConnectionResetError, BrokenPipeError, RuntimeError, OSError):
            pass  # client went away; the work is already done

    @staticmethod
    async def _write(writer, lock, payload: bytes) -> None:
        async with lock:
            # a client that vanished mid-pipeline must not wedge the
            # writers of its surviving responses: writing to a closing
            # transport buffers forever (drain may never return), so the
            # response is simply discarded — the batcher's future already
            # resolved, no queue slot is held
            if writer.is_closing():
                return
            writer.write(payload)
            await writer.drain()
