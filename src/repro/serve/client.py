"""Clients for the serving layer: TCP, in-process, and a sync helper.

:class:`AsyncClient` speaks the newline-delimited JSON protocol over a
TCP connection, pipelining requests (auto-assigned ``id``s, responses
matched by ``id`` in completion order).  :class:`InProcessClient` drives
a serving front directly through the same codec
— the deterministic test transport: no sockets, no timers, identical
frames on both paths.  :func:`request_once` is the synchronous one-shot
used by the ``repro-realm client`` CLI.

Error responses surface as :class:`ServeError` carrying the structured
``code``/``message`` pair, so callers can distinguish a shed
(``overloaded``) from a bad request.

**Reconnect-and-retry**: an :class:`AsyncClient` built via
:meth:`AsyncClient.connect` with ``retries > 0`` transparently redials
and resends when the transport drops — but only for requests whose op
is in :data:`IDEMPOTENT_OPS` (``multiply`` is a pure function of its
operands; ``characterize`` is excluded because resending restarts a
long computation).  The retried request keeps its original ``id`` and
the dead connection is torn down before the resend, so a retry can
never duplicate a response or cross-wire ids — the per-``id`` future
either resolves once or the final transport error surfaces.  Structured
error responses (:class:`ServeError`) are *never* retried: the server
answered; the answer stands.
"""

from __future__ import annotations

import asyncio

from .protocol import decode_frame, encode_frame

__all__ = [
    "IDEMPOTENT_OPS",
    "AsyncClient",
    "InProcessClient",
    "ServeError",
    "request_once",
]

#: ops safe to resend after a transport failure (pure reads or pure
#: functions of the request; a lost-then-reexecuted send is identical)
IDEMPOTENT_OPS = frozenset({"multiply", "ping", "designs", "status"})


class ServeError(RuntimeError):
    """A structured error response from the server."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"[{code}] {message}")

    @property
    def message(self) -> str:
        return self.args[0]

    @classmethod
    def from_response(cls, response: dict) -> "ServeError":
        error = response.get("error") or {}
        return cls(
            str(error.get("code", "internal")),
            str(error.get("message", "unspecified server error")),
        )


class _RequestOps:
    """The op helpers shared by every client flavour.

    Subclasses implement ``request(obj) -> response dict``; these
    helpers build the request, unwrap ``result`` and raise
    :class:`ServeError` on error responses.
    """

    async def request(self, obj: dict) -> dict:  # pragma: no cover - abstract
        raise NotImplementedError

    async def call(self, obj: dict) -> dict:
        """Send one request; return ``result`` or raise :class:`ServeError`."""
        response = await self.request(obj)
        if not isinstance(response, dict) or not response.get("ok"):
            raise ServeError.from_response(
                response if isinstance(response, dict) else {}
            )
        result = response.get("result")
        return result if isinstance(result, dict) else {}

    async def multiply(self, design: str, a, b, bitwidth: int = 16):
        """Products for one design; scalar in, scalar out."""
        scalar = isinstance(a, int) and isinstance(b, int)
        payload = {
            "op": "multiply",
            "design": design,
            "a": a if scalar else list(a),
            "b": b if scalar else list(b),
            "bitwidth": bitwidth,
        }
        result = await self.call(payload)
        return result["product"] if scalar else result["products"]

    async def characterize(
        self,
        design: str,
        *,
        bitwidth: int = 16,
        samples: int = 1 << 16,
        seed: int = 2020,
    ) -> dict:
        return await self.call(
            {
                "op": "characterize",
                "design": design,
                "bitwidth": bitwidth,
                "samples": samples,
                "seed": seed,
            }
        )

    async def designs(self, prefix: str = "") -> list[dict]:
        result = await self.call({"op": "designs", "prefix": prefix})
        return result["designs"]

    async def ping(self) -> dict:
        return await self.call({"op": "ping"})


class InProcessClient(_RequestOps):
    """Drives a serving front (a :class:`~repro.serve.server.Service` or
    a :class:`~repro.serve.supervisor.Supervisor`) without a socket.

    Every request still round-trips the wire codec
    (``encode_frame -> handle_line -> decode_frame``), so tests
    exercise exactly the frames a TCP client would see.
    """

    def __init__(self, service):
        self.service = service
        self._next_id = 0

    async def request(self, obj: dict) -> dict:
        if "id" not in obj:
            self._next_id += 1
            obj = {**obj, "id": self._next_id}
        line = await self.service.handle_line(encode_frame(obj))
        return decode_frame(line)


class AsyncClient(_RequestOps):
    """A pipelined TCP client; one connection, concurrent requests.

    ``retries`` (only honoured when built via :meth:`connect`, which
    records the dial address) bounds how many reconnect-and-resend
    attempts a transport failure may trigger for idempotent ops; the
    injectable ``sleep`` paces them (``retry_backoff`` seconds between
    attempts).
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        address: tuple[str, int] | None = None,
        retries: int = 0,
        retry_backoff: float = 0.05,
        sleep=None,
    ):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self._reader = reader
        self._writer = writer
        self._address = address
        self._retries = retries
        self._retry_backoff = retry_backoff
        self._sleep = sleep if sleep is not None else asyncio.sleep
        self._pending: dict[object, asyncio.Future] = {}
        self._next_id = 0
        self._lock = asyncio.Lock()
        self._reconnect_lock = asyncio.Lock()
        self._closed = False
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop(), name="repro-serve-client"
        )

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        retries: int = 0,
        retry_backoff: float = 0.05,
        sleep=None,
    ) -> "AsyncClient":
        from .protocol import MAX_FRAME_BYTES

        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_FRAME_BYTES + 1024
        )
        return cls(
            reader,
            writer,
            address=(host, port),
            retries=retries,
            retry_backoff=retry_backoff,
            sleep=sleep,
        )

    async def request(self, obj: dict) -> dict:
        if "id" not in obj:
            self._next_id += 1
            obj = {**obj, "id": self._next_id}
        budget = (
            self._retries
            if self._address is not None and obj.get("op") in IDEMPOTENT_OPS
            else 0
        )
        for attempt in range(budget + 1):
            if attempt:
                await self._sleep(self._retry_backoff)
                try:
                    await self._reconnect()
                except OSError as exc:
                    if attempt == budget:
                        raise ConnectionError(
                            f"reconnect to {self._address} failed: {exc}"
                        ) from exc
                    continue
            try:
                return await self._send(obj)
            except ConnectionError:
                if attempt == budget or self._closed:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    async def _send(self, obj: dict) -> dict:
        if self._reader_task.done():
            raise ConnectionError("client connection is closed")
        future = asyncio.get_running_loop().create_future()
        self._pending[obj["id"]] = future
        try:
            async with self._lock:
                self._writer.write(encode_frame(obj))
                await self._writer.drain()
            return await future
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise ConnectionError(f"send failed: {exc}") from exc
        finally:
            self._pending.pop(obj["id"], None)

    async def _reconnect(self) -> None:
        """Replace the dead transport; the old one is fully torn down
        first so a late reply from it can never reach a retried id.
        Serialized: when several pending requests hit the same dropped
        connection, the first one redials and the rest reuse it."""
        from .protocol import MAX_FRAME_BYTES

        assert self._address is not None
        async with self._reconnect_lock:
            if not self._closed and not self._reader_task.done():
                return  # a concurrent retry already reconnected
            await self.close()
            self._closed = False
            host, port = self._address
            self._reader, self._writer = await asyncio.open_connection(
                host, port, limit=MAX_FRAME_BYTES + 1024
            )
            self._reader_task = asyncio.get_running_loop().create_task(
                self._read_loop(), name="repro-serve-client"
            )

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                response = decode_frame(line)
                key = response.get("id")
                future = self._pending.get(key)
                if future is None and key is None and len(self._pending) == 1:
                    # an un-id'd error (bad-frame) answers the only request
                    future = next(iter(self._pending.values()))
                if future is not None and not future.done():
                    future.set_result(response)
        except (ConnectionResetError, asyncio.IncompleteReadError, ValueError):
            pass
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        ConnectionError("server closed the connection")
                    )

    async def close(self) -> None:
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def __aenter__(self) -> "AsyncClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()


def request_once(host: str, port: int, obj: dict, timeout: float = 30.0) -> dict:
    """Synchronous one-shot: connect, send one request, return the response.

    The CLI's transport.  Raises :class:`ServeError` on a structured
    error response, ``ConnectionError``/``TimeoutError`` on transport
    failures; the ``timeout`` covers the whole exchange.  A dropped
    connection is not retried.
    """

    async def go() -> dict:
        client = await AsyncClient.connect(host, port)
        try:
            response = await client.request(obj)
        finally:
            await client.close()
        if not response.get("ok"):
            raise ServeError.from_response(response)
        return response

    return asyncio.run(asyncio.wait_for(go(), timeout))
