"""Supervised multi-shard serving: route, watch, restart, degrade.

The :class:`Supervisor` is the fleet front: a
:class:`~repro.serve.server.Dispatcher` like
:class:`~repro.serve.server.Service`, with the same ``start`` /
``drain`` lifecycle, so :class:`~repro.serve.server.TcpServer` fronts it
unchanged.  It owns a fleet of shards (:mod:`repro.serve.shard`) instead
of evaluating in-process.  The robustness contract, end to end:

* **Routing** — multiply and characterize requests are routed by the
  *content address* of the design they name: the key is
  ``cache_key(fingerprint(model))``, the same identity the
  :class:`~repro.serve.batcher.ModelCache` and the compiled-kernel cache
  use, placed on a consistent-hash ring (:class:`HashRing`) built from
  shard *labels* only.  Two registry ids constructing the same design
  land on the same shard (one compiled kernel, one model cache entry per
  fleet member that serves it), and the placement is computable before
  any shard exists — which is what lets chaos schedules target "the
  shard that owns design X" deterministically.
* **Detection** — every shard is pinged every ``heartbeat_interval``
  seconds with a ``heartbeat_timeout`` deadline; ``max_heartbeat_misses``
  consecutive misses classify the shard as hung and it is killed and
  restarted.  A crashed shard is seen both instantly (its connection
  drops mid-request) and on the next heartbeat (``alive`` is false).
* **Recovery** — restarts run under a bounded budget with
  decorrelated-jitter backoff (``min(cap, U(base, 3·previous))``, the
  :class:`~repro.analysis.runtime.ResiliencePolicy` formula); a shard
  that exhausts ``max_restarts`` stays down and the ring routes around
  it.  Per-shard circuit breakers trip after ``breaker_threshold``
  consecutive failures, shedding traffic away from a flapping shard
  until a ``breaker_reset`` half-open probe proves it healthy — because
  routing is per-design, a tripped breaker manifests to clients as the
  broken shard's designs being served by their next ring successor.
* **The client always gets an answer** — an admitted request is retried
  across ring successors (sub-ids are remapped so concurrent front
  connections can never cross-wire, replies are validated for shape
  before being trusted), and when every candidate is exhausted the
  reply is a structured error — ``shard-down`` or ``deadline-exceeded``
  — or, for multiply with ``allow_degraded``, a last-resort in-parent
  serial evaluation.  Bit-identicality is unaffected by where a request
  lands: every path evaluates the same fingerprinted model.
* **Zero-downtime reconfig** — :meth:`rolling_restart` drains and
  replaces one shard at a time while the rest of the ring absorbs its
  designs; :meth:`drain` answers everything admitted before stopping
  the fleet.

Telemetry (:mod:`repro.analysis.telemetry`): ``supervisor.restarts``,
``supervisor.breaker_trips``, ``supervisor.heartbeat_misses``,
``supervisor.redirects``, ``supervisor.degraded`` counters;
``supervisor.shards_up`` and per-shard ``supervisor.queue_depth.<label>``
gauges.  Readiness is a wire-level ``status`` request (``repro serve
--probe``) reporting the whole fleet.

Determinism hooks mirror the repo idiom: ``sleep``/``jitter``/``clock``
on the policy are injectable, and :meth:`check_fleet` is public so tests
drive heartbeat rounds manually instead of racing a background task.
"""

from __future__ import annotations

import asyncio
import bisect
import dataclasses
import hashlib
import itertools
import time

import numpy as np

from ..analysis import telemetry
from ..analysis.cache import cache_key
from ..analysis.runtime import decorrelated_jitter
from ..multipliers.base import as_operands
from ..multipliers.registry import fingerprint
from .batcher import ModelCache
from .protocol import (
    PROTOCOL_VERSION,
    CharacterizeRequest,
    MultiplyRequest,
    PingRequest,
    StatusRequest,
    error_response,
    ok_response,
)
from .server import Dispatcher, products_response

__all__ = ["CircuitBreaker", "HashRing", "Supervisor", "SupervisorPolicy"]

#: shard error codes worth retrying on another shard — everything else
#: (bad-request, bad-operands, unknown-design) is deterministic and
#: passed through to the client unchanged
REDIRECTABLE_CODES = frozenset({"overloaded", "shutting-down", "internal"})


@dataclasses.dataclass(frozen=True)
class SupervisorPolicy:
    """Fleet-supervision knobs (all durations in seconds).

    ``sleep`` (async callable), ``jitter`` (uniform draw) and ``clock``
    (monotonic seconds) are injectable for deterministic tests; the
    defaults are :func:`asyncio.sleep`, ``random.uniform`` and
    :func:`time.monotonic`.
    """

    replicas: int = 32           # virtual ring nodes per shard
    heartbeat_interval: float = 0.25
    heartbeat_timeout: float = 1.0
    max_heartbeat_misses: int = 3
    request_deadline: float = 30.0       # per multiply forward attempt
    characterize_deadline: float | None = None  # None: unbounded
    request_retries: int = 3             # redirects beyond the first attempt
    max_restarts: int = 5                # per shard, over the fleet lifetime
    restart_base: float = 0.05
    restart_cap: float = 2.0
    breaker_threshold: int = 3           # consecutive failures to trip
    breaker_reset: float = 5.0           # open -> half-open probe delay
    allow_degraded: bool = True          # in-parent multiply as last resort
    sleep: object | None = None
    jitter: object | None = None
    clock: object | None = None

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        for field in (
            "heartbeat_interval",
            "heartbeat_timeout",
            "request_deadline",
            "restart_base",
            "restart_cap",
            "breaker_reset",
        ):
            if not getattr(self, field) > 0:
                raise ValueError(
                    f"{field} must be > 0, got {getattr(self, field)}"
                )
        for field in ("max_heartbeat_misses", "breaker_threshold"):
            if getattr(self, field) < 1:
                raise ValueError(
                    f"{field} must be >= 1, got {getattr(self, field)}"
                )
        for field in ("request_retries", "max_restarts"):
            if getattr(self, field) < 0:
                raise ValueError(
                    f"{field} must be >= 0, got {getattr(self, field)}"
                )

    def next_delay(self, previous: float) -> float:
        """Decorrelated-jitter restart backoff: ``min(cap, U(base, 3·prev))``."""
        return decorrelated_jitter(
            previous, self.restart_base, self.restart_cap, self.jitter
        )

    async def pause(self, seconds: float) -> None:
        if seconds > 0:
            sleep = self.sleep if self.sleep is not None else asyncio.sleep
            await sleep(seconds)

    def now(self) -> float:
        return (self.clock if self.clock is not None else time.monotonic)()


class CircuitBreaker:
    """Closed → open after N consecutive failures → half-open probe.

    ``closed`` admits traffic; ``breaker_threshold`` consecutive
    failures trip it ``open`` (requests route around this shard);
    after ``breaker_reset`` seconds the next :meth:`allows` call moves
    it to ``half-open``, admitting probe traffic — one success closes
    it, one failure re-opens it.  :meth:`reset` (used after a restart)
    returns straight to ``closed``.
    """

    def __init__(self, policy: SupervisorPolicy):
        self.policy = policy
        self.state = "closed"
        self.failures = 0
        self.opened_at = 0.0
        self.trips = 0

    def allows(self) -> bool:
        if self.state == "open":
            if self.policy.now() - self.opened_at >= self.policy.breaker_reset:
                self.state = "half-open"
                return True
            return False
        return True

    def record_success(self) -> None:
        self.state = "closed"
        self.failures = 0

    def record_failure(self) -> None:
        self.failures += 1
        if self.state == "half-open" or self.failures >= self.policy.breaker_threshold:
            if self.state != "open":
                self.trips += 1
                telemetry.get().counter("supervisor.breaker_trips")
            self.state = "open"
            self.opened_at = self.policy.now()
            self.failures = 0

    def reset(self) -> None:
        self.state = "closed"
        self.failures = 0


class HashRing:
    """Consistent hashing over shard labels with virtual nodes.

    Built from labels alone (``sha256(f"{label}:{replica}")`` points on a
    256-bit ring), so the placement of any key is known before a single
    shard process exists — chaos schedules and capacity math can both be
    precomputed.  :meth:`order` returns the full preference order for a
    key: the owning shard first, then each distinct successor walking
    the ring, which is exactly the supervisor's redirect order.
    """

    def __init__(self, labels, replicas: int = 32):
        self.labels = tuple(labels)
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate shard labels: {self.labels}")
        if not self.labels:
            raise ValueError("a ring needs at least one label")
        points = []
        for label in self.labels:
            for replica in range(replicas):
                points.append((self._point(f"{label}:{replica}"), label))
        points.sort()
        self._points = points

    @staticmethod
    def _point(text: str) -> int:
        return int.from_bytes(
            hashlib.sha256(text.encode("utf-8")).digest(), "big"
        )

    def order(self, key: str) -> tuple[str, ...]:
        """Preference order of distinct labels for ``key`` (owner first)."""
        target = self._point(key)
        start = bisect.bisect_left(self._points, (target, ""))
        seen: list[str] = []
        for offset in range(len(self._points)):
            label = self._points[(start + offset) % len(self._points)][1]
            if label not in seen:
                seen.append(label)
                if len(seen) == len(self.labels):
                    break
        return tuple(seen)

    def owner(self, key: str) -> str:
        return self.order(key)[0]


class Supervisor(Dispatcher):
    """Fleet front: a dispatcher over supervised shards.

    ``shards`` is a sequence of shard handles
    (:class:`~repro.serve.shard.LocalShard` or
    :class:`~repro.serve.shard.ProcessShard`) with distinct names.
    Lifecycle: ``await up()`` to spawn the fleet, then hand the
    supervisor to a :class:`~repro.serve.server.TcpServer` (whose
    ``start``/``close`` drive :meth:`start`/:meth:`drain`), or call them
    directly for in-process use.  ``models`` backs routing-key
    computation, the ``designs`` listing and degraded evaluation; it
    never serves a healthy multiply.
    """

    drain_message = "fleet is draining; retry elsewhere"

    def __init__(
        self,
        shards,
        *,
        policy: SupervisorPolicy | None = None,
        models: ModelCache | None = None,
    ):
        shards = list(shards)
        self.policy = policy if policy is not None else SupervisorPolicy()
        self.shards = {shard.name: shard for shard in shards}
        if len(self.shards) != len(shards):
            raise ValueError("shard names must be distinct")
        self.ring = HashRing(self.shards, replicas=self.policy.replicas)
        self.models = models if models is not None else ModelCache()
        self.breakers = {
            name: CircuitBreaker(self.policy) for name in self.shards
        }
        self.restart_counts = dict.fromkeys(self.shards, 0)
        self.heartbeat_misses = dict.fromkeys(self.shards, 0)
        self._last_delay = dict.fromkeys(self.shards, 0.0)
        self._failed = dict.fromkeys(self.shards, False)  # budget exhausted
        self._seq = itertools.count(1)
        self._locks: dict[str, asyncio.Lock] = {}  # per-shard supervision
        self._heartbeat_task: asyncio.Task | None = None
        self._inflight = 0
        self._settled: asyncio.Event | None = None

    # -- lifecycle ------------------------------------------------------

    async def up(self) -> None:
        """Spawn/connect every shard (call before serving traffic)."""
        for shard in self.shards.values():
            await shard.start()
        telemetry.get().gauge("supervisor.shards_up", self._shards_up())

    def start(self) -> None:
        """Start the heartbeat monitor (needs a running loop)."""
        if self._heartbeat_task is None or self._heartbeat_task.done():
            self._heartbeat_task = asyncio.get_running_loop().create_task(
                self._heartbeat_loop(), name="repro-supervisor-heartbeat"
            )

    async def drain(self) -> None:
        """Graceful fleet shutdown: answer admitted work, then stop shards."""
        self._draining = True
        task, self._heartbeat_task = self._heartbeat_task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        # let in-flight forwards settle (event-driven; bounded by the
        # per-attempt deadlines they already run under)
        if self._inflight and self._settled is not None:
            try:
                await asyncio.wait_for(
                    self._settled.wait(),
                    self.policy.request_deadline
                    * (self.policy.request_retries + 1),
                )
            except asyncio.TimeoutError:  # pragma: no cover - defensive
                pass
        for shard in self.shards.values():
            try:
                await shard.stop()
            except Exception:  # pragma: no cover - defensive
                pass
        telemetry.get().gauge("supervisor.shards_up", 0)

    async def rolling_restart(self) -> None:
        """Replace shards one at a time; the ring absorbs each in turn.

        Zero-downtime reconfig: while one shard drains and restarts, its
        designs are served by ring successors via the ordinary redirect
        path.  Does not count against the failure-restart budget (this
        is maintenance, not recovery), but does reset breakers and
        heartbeat state for the fresh process.
        """
        for name, shard in list(self.shards.items()):
            if self._draining:
                break
            async with self._lock_for(name):
                await shard.restart()
                self.breakers[name].reset()
                self.heartbeat_misses[name] = 0
                self._failed[name] = False
            telemetry.get().counter("supervisor.restarts")
            telemetry.get().gauge("supervisor.shards_up", self._shards_up())

    # -- routing --------------------------------------------------------

    def route_key(self, design: str, bitwidth: int = 16) -> str:
        """The ring key for a design: its fingerprint content address."""
        return cache_key(fingerprint(self.models.get(design, bitwidth)))

    def route(self, design: str, bitwidth: int = 16) -> tuple[str, ...]:
        """Shard preference order for a design (owner first)."""
        return self.ring.order(self.route_key(design, bitwidth))

    def _shards_up(self) -> int:
        return sum(1 for shard in self.shards.values() if shard.alive)

    # -- forwarding -----------------------------------------------------

    async def _multiply(self, request: MultiplyRequest, frame: dict) -> dict:
        order = self.route(request.design, request.bitwidth)
        pairs = max(len(request.a), len(request.b))
        response, reason = await self._forward(
            frame,
            order,
            deadline=self.policy.request_deadline,
            validate=lambda result: self._valid_products(result, pairs, request.scalar),
        )
        if response is not None:
            return response
        if self.policy.allow_degraded:
            return self._degraded_multiply(request)
        return self._exhausted(request.id, reason)

    async def _characterize(self, request: CharacterizeRequest, frame: dict) -> dict:
        order = self.route(request.design, request.bitwidth)
        response, reason = await self._forward(
            frame,
            order,
            deadline=self.policy.characterize_deadline,
            validate=lambda result: isinstance(result.get("metrics"), dict),
        )
        if response is not None:
            return response
        return self._exhausted(request.id, reason)

    async def _forward(self, obj: dict, order, *, deadline, validate):
        """Try each candidate shard in ring order; first trusted reply wins.

        Returns ``(response, None)`` on success or pass-through error,
        ``(None, reason)`` when every candidate is exhausted — ``reason``
        is ``"deadline"`` if any attempt timed out, else ``"down"``.
        """
        original_id = obj.get("id")
        attempts = 0
        timed_out = False
        self._inflight += 1
        if self._settled is None:
            self._settled = asyncio.Event()
        self._settled.clear()
        try:
            for index, name in enumerate(order):
                if attempts > self.policy.request_retries:
                    break
                shard = self.shards[name]
                breaker = self.breakers[name]
                if not shard.alive or not breaker.allows():
                    continue
                attempts += 1
                if index > 0 or attempts > 1:
                    telemetry.get().counter("supervisor.redirects")
                sub = {**obj, "id": f"sup-{next(self._seq)}"}
                try:
                    call = shard.request(sub)
                    if deadline is not None:
                        call = asyncio.wait_for(call, deadline)
                    response = await call
                except asyncio.TimeoutError:
                    timed_out = True
                    breaker.record_failure()
                    continue
                except (ConnectionError, OSError, EOFError, asyncio.IncompleteReadError):
                    # crashed shard: the heartbeat loop will restart it;
                    # this request redirects immediately
                    breaker.record_failure()
                    continue
                if not isinstance(response, dict):
                    breaker.record_failure()
                    continue
                if response.get("ok"):
                    result = response.get("result")
                    if not isinstance(result, dict) or not validate(result):
                        # corrupt reply: never trusted, never surfaced
                        breaker.record_failure()
                        continue
                    breaker.record_success()
                    return {**response, "id": original_id}, None
                code = (response.get("error") or {}).get("code")
                if code in REDIRECTABLE_CODES:
                    if code == "internal":
                        breaker.record_failure()
                    continue
                # deterministic rejection (bad-operands, unknown-design,
                # bad-request): the shard is healthy, the request is not
                breaker.record_success()
                return {**response, "id": original_id}, None
            return None, ("deadline" if timed_out else "down")
        finally:
            self._inflight -= 1
            if self._inflight == 0 and self._settled is not None:
                self._settled.set()

    @staticmethod
    def _valid_products(result: dict, pairs: int, scalar: bool) -> bool:
        products = result.get("products")
        if not isinstance(products, list) or len(products) != pairs:
            return False
        if any(isinstance(p, bool) or not isinstance(p, int) for p in products):
            return False
        if scalar and result.get("product") != products[0]:
            return False
        return True

    def _exhausted(self, request_id, reason: str) -> dict:
        if reason == "deadline":
            return error_response(
                request_id,
                "deadline-exceeded",
                "no shard answered within the request deadline",
            )
        return error_response(
            request_id,
            "shard-down",
            "the shards owning this design are unavailable",
        )

    def _degraded_multiply(self, request: MultiplyRequest) -> dict:
        """Last resort: serial in-parent evaluation (bit-identical anyway)."""
        telemetry.get().counter("supervisor.degraded")
        model = self.models.get(request.design, request.bitwidth)
        try:
            a, b = as_operands(request.a, request.b, model.bitwidth)
        except ValueError as exc:
            return error_response(request.id, "bad-operands", str(exc))
        return products_response(
            request, model.multiply(np.atleast_1d(a), np.atleast_1d(b))
        )

    # -- local ops ------------------------------------------------------

    def _ping(self, request: PingRequest) -> dict:
        return ok_response(
            request.id,
            {
                "protocol": PROTOCOL_VERSION,
                "role": "supervisor",
                "shards_up": self._shards_up(),
                "draining": self._draining,
            },
        )

    def _status(self, request: StatusRequest) -> dict:
        """Fleet readiness: per-shard state plus an overall verdict."""
        shards = {}
        for name, shard in self.shards.items():
            shards[name] = {
                "alive": shard.alive,
                "breaker": self.breakers[name].state,
                "restarts": self.restart_counts[name],
                "heartbeat_misses": self.heartbeat_misses[name],
                "failed": self._failed[name],
            }
        ready = not self._draining and (
            self._shards_up() > 0 or self.policy.allow_degraded
        )
        return ok_response(
            request.id,
            {
                "ready": ready,
                "role": "supervisor",
                "protocol": PROTOCOL_VERSION,
                "draining": self._draining,
                "shards": shards,
            },
        )

    # -- supervision ----------------------------------------------------

    async def _heartbeat_loop(self) -> None:
        while not self._draining:
            await self.policy.pause(self.policy.heartbeat_interval)
            if self._draining:
                return
            try:
                await self.check_fleet()
            except Exception:  # pragma: no cover - defensive belt
                pass

    async def check_fleet(self) -> None:
        """One heartbeat round: ping every shard, restart the sick ones.

        Public so deterministic tests drive supervision explicitly
        instead of racing the background loop.
        """
        tele = telemetry.get()
        for name, shard in list(self.shards.items()):
            if self._draining:
                return
            if self._failed[name]:
                continue
            # serialize probe-and-maybe-restart per shard, so the
            # background loop and explicit check_fleet calls can never
            # double-restart (or restart a just-replaced, healthy shard
            # on a stale miss count)
            async with self._lock_for(name):
                if not shard.alive:
                    await self._restart(name)
                    continue
                try:
                    response = await asyncio.wait_for(
                        shard.request(
                            {"op": "ping", "id": f"sup-{next(self._seq)}"}
                        ),
                        self.policy.heartbeat_timeout,
                    )
                except Exception:
                    self.heartbeat_misses[name] += 1
                    tele.counter("supervisor.heartbeat_misses")
                    if (
                        self.heartbeat_misses[name]
                        >= self.policy.max_heartbeat_misses
                    ):
                        # a hung worker: no drain possible, kill + replace
                        shard.kill()
                        await self._restart(name)
                else:
                    self.heartbeat_misses[name] = 0
                    result = response.get("result") or {}
                    depth = result.get("queue_depth")
                    if isinstance(depth, int):
                        tele.gauge(f"supervisor.queue_depth.{name}", depth)
        tele.gauge("supervisor.shards_up", self._shards_up())

    def _lock_for(self, name: str) -> asyncio.Lock:
        lock = self._locks.get(name)
        if lock is None:
            lock = self._locks[name] = asyncio.Lock()
        return lock

    async def _restart(self, name: str) -> bool:
        """Restart one shard under the bounded backoff budget.

        Callers hold the shard's supervision lock (:meth:`_lock_for`).
        """
        if self._draining:
            return False
        if self.restart_counts[name] >= self.policy.max_restarts:
            if not self._failed[name]:
                self._failed[name] = True
                telemetry.get().event("supervisor.shard_failed", shard=name)
            return False
        delay = self.policy.next_delay(self._last_delay[name])
        self._last_delay[name] = delay
        await self.policy.pause(delay)
        shard = self.shards[name]
        try:
            await shard.restart()
        except Exception:
            # spawn itself failed; burn one budget slot and let the next
            # heartbeat round try again with a larger backoff
            self.restart_counts[name] += 1
            return False
        self.restart_counts[name] += 1
        self.heartbeat_misses[name] = 0
        self.breakers[name].reset()
        telemetry.get().counter("supervisor.restarts")
        telemetry.get().gauge("supervisor.shards_up", self._shards_up())
        return True
