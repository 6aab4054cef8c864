"""Newline-delimited JSON protocol of the serving layer.

One request or response per line.  A request is a JSON object with an
``op`` field (``multiply``, ``characterize``, ``designs`` or ``ping``)
plus op-specific fields; a response echoes the request's ``id`` and is
either ``{"id": ..., "ok": true, "result": {...}}`` or ``{"id": ...,
"ok": false, "error": {"code": ..., "message": ...}}``.  Error codes are
closed (:data:`ERROR_CODES`): the 503-style ``overloaded`` is what the
micro-batcher's backpressure sheds with, ``shutting-down`` is what a
draining server answers, ``shard-down``/``deadline-exceeded`` are the
supervised fleet's structured last resorts (the owning shards are dead,
or no shard answered before the request deadline — never a dropped
connection), and the framing codes (``bad-frame``, ``bad-request``,
``unknown-design``, ``bad-operands``) classify every way a request can
be malformed.

The framing layer is total: :func:`decode_frame` and
:func:`parse_request` either return a value or raise
:class:`ProtocolError` — no other exception escapes, for any input
(property-tested by ``tests/test_protocol.py``).  Frames and operand
vectors are bounded (:data:`MAX_FRAME_BYTES`, :data:`MAX_PAIRS`) so a
single client cannot balloon server memory through one giant request.
"""

from __future__ import annotations

import dataclasses
import json

__all__ = [
    "ERROR_CODES",
    "MAX_FRAME_BYTES",
    "MAX_PAIRS",
    "PROTOCOL_VERSION",
    "CharacterizeRequest",
    "DesignsRequest",
    "MultiplyRequest",
    "PingRequest",
    "StatusRequest",
    "ProtocolError",
    "decode_frame",
    "encode_frame",
    "error_response",
    "ok_response",
    "parse_request",
]

#: bump on any wire-visible change to the request/response schema
PROTOCOL_VERSION = 1

#: largest accepted frame, bytes (a full 2^16-pair multiply fits easily)
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: most operand pairs one multiply request may carry
MAX_PAIRS = 1 << 16

#: the closed set of response error codes
ERROR_CODES = frozenset(
    {
        "bad-frame",         # line is not a JSON object
        "bad-request",       # object violates the request schema, or the
                             # design refuses the requested bitwidth
        "unknown-design",    # design id not in the registry
        "bad-operands",      # operand out of range for the bitwidth
        "overloaded",        # backpressure shed (503-style; retry later)
        "shutting-down",     # server is draining; no new work accepted
        "shard-down",        # the fleet cannot answer: owning shards are dead
        "deadline-exceeded", # no shard answered within the request deadline
        "internal",          # unexpected server-side failure
    }
)


class ProtocolError(ValueError):
    """A malformed frame or request; carries a structured error code."""

    def __init__(self, code: str, message: str):
        assert code in ERROR_CODES, code
        self.code = code
        super().__init__(message)

    @property
    def message(self) -> str:
        return self.args[0]


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class MultiplyRequest:
    """A batch of operand pairs against one registry design."""

    design: str
    a: tuple
    b: tuple
    bitwidth: int = 16
    id: object = None
    scalar: bool = False  # echo a bare int instead of a 1-element list


@dataclasses.dataclass(frozen=True)
class CharacterizeRequest:
    """A Monte-Carlo error-characterization run for one design."""

    design: str
    bitwidth: int = 16
    samples: int = 1 << 16
    seed: int = 2020
    id: object = None


@dataclasses.dataclass(frozen=True)
class DesignsRequest:
    """List the registry (optionally only ids starting with ``prefix``)."""

    prefix: str = ""
    id: object = None


@dataclasses.dataclass(frozen=True)
class PingRequest:
    """Liveness/version probe."""

    id: object = None


@dataclasses.dataclass(frozen=True)
class StatusRequest:
    """Readiness probe (``/healthz``-style): am I able to serve work?

    A plain :class:`~repro.serve.server.Service` reports its own
    drain/queue state; a :class:`~repro.serve.supervisor.Supervisor`
    reports the whole fleet (per-shard state, restart counts, breaker
    states).  Answerable while draining, like ``ping``.
    """

    id: object = None


Request = (
    MultiplyRequest
    | CharacterizeRequest
    | DesignsRequest
    | PingRequest
    | StatusRequest
)


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------


def encode_frame(obj: dict) -> bytes:
    """One wire frame: compact JSON + newline (never contains raw newlines)."""
    return (json.dumps(obj, separators=(",", ":"), sort_keys=True) + "\n").encode(
        "utf-8"
    )


def decode_frame(line) -> dict:
    """Parse one frame into a dict, or raise :class:`ProtocolError`.

    Accepts ``bytes`` or ``str`` with or without the trailing newline.
    Anything that is not a JSON *object* within :data:`MAX_FRAME_BYTES`
    is a ``bad-frame``.
    """
    if isinstance(line, (bytes, bytearray)):
        if len(line) > MAX_FRAME_BYTES:
            raise ProtocolError(
                "bad-frame", f"frame exceeds {MAX_FRAME_BYTES} bytes"
            )
        try:
            line = bytes(line).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError("bad-frame", f"frame is not UTF-8: {exc}") from None
    elif isinstance(line, str):
        if len(line) > MAX_FRAME_BYTES:
            raise ProtocolError(
                "bad-frame", f"frame exceeds {MAX_FRAME_BYTES} bytes"
            )
    else:
        raise ProtocolError(
            "bad-frame", f"frame must be bytes or str, got {type(line).__name__}"
        )
    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise ProtocolError("bad-frame", f"frame is not JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(
            "bad-frame", f"frame must be a JSON object, got {type(obj).__name__}"
        )
    return obj


# ----------------------------------------------------------------------
# Request parsing
# ----------------------------------------------------------------------


_MISSING = object()


def _field(obj: dict, name: str, kind):
    value = obj.get(name, _MISSING)
    if value is _MISSING:
        raise ProtocolError("bad-request", f"missing required field {name!r}")
    if kind is not object and not isinstance(value, kind):
        raise ProtocolError(
            "bad-request",
            f"field {name!r} must be {kind.__name__}, got {type(value).__name__}",
        )
    return value


def _int_field(obj, name, default, *, minimum=None, maximum=None):
    value = obj.get(name, default)
    # bools are ints in Python; reject them, and reject floats even when
    # integral — protocol payloads must be exact
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(
            "bad-request", f"field {name!r} must be an integer, got {value!r}"
        )
    if minimum is not None and value < minimum:
        raise ProtocolError(
            "bad-request", f"field {name!r} must be >= {minimum}, got {value}"
        )
    if maximum is not None and value > maximum:
        raise ProtocolError(
            "bad-request", f"field {name!r} must be <= {maximum}, got {value}"
        )
    return value


def _operand_vector(obj: dict, name: str) -> tuple[tuple, bool]:
    """An operand field: a bare int or a list of ints -> (tuple, was_scalar)."""
    value = _field(obj, name, object)
    scalar = False
    if isinstance(value, bool):
        raise ProtocolError(
            "bad-request", f"operand {name!r} must be an integer or list"
        )
    if isinstance(value, int):
        value = [value]
        scalar = True
    if not isinstance(value, list):
        raise ProtocolError(
            "bad-request",
            f"operand {name!r} must be an integer or list of integers",
        )
    if len(value) > MAX_PAIRS:
        raise ProtocolError(
            "bad-request",
            f"operand {name!r} carries {len(value)} values, max {MAX_PAIRS}",
        )
    for item in value:
        if isinstance(item, bool) or not isinstance(item, int):
            raise ProtocolError(
                "bad-request",
                f"operand {name!r} must contain only integers, got {item!r}",
            )
    return tuple(value), scalar


def parse_request(obj: dict) -> Request:
    """Validate a decoded frame into a typed request.

    Raises :class:`ProtocolError` (``bad-request``) on any schema
    violation; design existence and operand ranges are checked later by
    the service, which owns the registry.
    """
    if not isinstance(obj, dict):
        raise ProtocolError("bad-request", "request must be a JSON object")
    op = obj.get("op")
    request_id = obj.get("id")
    if request_id is not None and not isinstance(request_id, (str, int)):
        raise ProtocolError("bad-request", "field 'id' must be a string or integer")
    if op == "multiply":
        design = _field(obj, "design", str)
        a, scalar_a = _operand_vector(obj, "a")
        b, scalar_b = _operand_vector(obj, "b")
        if len(a) != len(b) and 1 not in (len(a), len(b)):
            raise ProtocolError(
                "bad-request",
                f"operand lengths differ: len(a)={len(a)}, len(b)={len(b)}",
            )
        if not a or not b:
            raise ProtocolError("bad-request", "operands must not be empty")
        bitwidth = _int_field(obj, "bitwidth", 16, minimum=2, maximum=31)
        return MultiplyRequest(
            design=design,
            a=a,
            b=b,
            bitwidth=bitwidth,
            id=request_id,
            scalar=scalar_a and scalar_b,
        )
    if op == "characterize":
        design = _field(obj, "design", str)
        return CharacterizeRequest(
            design=design,
            bitwidth=_int_field(obj, "bitwidth", 16, minimum=2, maximum=31),
            samples=_int_field(obj, "samples", 1 << 16, minimum=1),
            seed=_int_field(obj, "seed", 2020, minimum=0),
            id=request_id,
        )
    if op == "designs":
        prefix = obj.get("prefix", "")
        if not isinstance(prefix, str):
            raise ProtocolError("bad-request", "field 'prefix' must be a string")
        return DesignsRequest(prefix=prefix, id=request_id)
    if op == "ping":
        return PingRequest(id=request_id)
    if op == "status":
        return StatusRequest(id=request_id)
    if op is None:
        raise ProtocolError("bad-request", "missing required field 'op'")
    raise ProtocolError("bad-request", f"unknown op {op!r}")


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------


def ok_response(request_id, result: dict) -> dict:
    """A success response frame body."""
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id, code: str, message: str) -> dict:
    """A structured error response frame body (``code`` must be closed)."""
    if code not in ERROR_CODES:
        code, message = "internal", f"unmapped error code {code!r}: {message}"
    return {"id": request_id, "ok": False, "error": {"code": code, "message": message}}
