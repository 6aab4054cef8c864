"""Batched approximate-arithmetic serving layer.

Exposes the multiplier registry and the characterization engine as a
request/response service: ``multiply`` (micro-batched, bit-identical to
direct model calls), ``characterize`` (the resilient Monte-Carlo engine,
with shared-pool and warehouse reuse) and ``designs`` over newline-delimited
JSON on TCP, plus an in-process transport for deterministic tests.  See
``DESIGN.md`` §10 for the batching and backpressure guarantees.

Scaling past one process, :mod:`repro.serve.supervisor` fronts a fleet
of worker shards (:mod:`repro.serve.shard`) with consistent-hash
routing, heartbeat supervision, bounded restarts, circuit breakers and
structured degradation — ``DESIGN.md`` §13 has the failure matrix.
"""

from .batcher import BatchPolicy, MicroBatcher, ModelCache, ShedError
from .client import AsyncClient, InProcessClient, ServeError, request_once
from .shard import LocalShard, ProcessShard, ShardConfig, ShardService
from .supervisor import CircuitBreaker, HashRing, Supervisor, SupervisorPolicy
from .protocol import (
    ERROR_CODES,
    MAX_FRAME_BYTES,
    MAX_PAIRS,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_response,
    ok_response,
    parse_request,
)
from .server import DEFAULT_PORT, Service, TcpServer

__all__ = [
    "AsyncClient",
    "BatchPolicy",
    "CircuitBreaker",
    "DEFAULT_PORT",
    "ERROR_CODES",
    "HashRing",
    "InProcessClient",
    "LocalShard",
    "MAX_FRAME_BYTES",
    "MAX_PAIRS",
    "MicroBatcher",
    "ModelCache",
    "PROTOCOL_VERSION",
    "ProcessShard",
    "ProtocolError",
    "ServeError",
    "Service",
    "ShardConfig",
    "ShardService",
    "ShedError",
    "Supervisor",
    "SupervisorPolicy",
    "TcpServer",
    "decode_frame",
    "encode_frame",
    "error_response",
    "ok_response",
    "parse_request",
    "request_once",
]
