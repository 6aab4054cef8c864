"""Deterministic test harness for the batched serving layer.

No timers, no sockets (except the explicit TCP transport tests), no
sleeps: the micro-batcher's latency window is replaced by an injectable
gate that never fires, so the tests control *exactly* which requests
share a fused batch by calling ``flush_pending()`` themselves.  On top
of that harness:

* equivalence under batching — for one design per registry family,
  fused responses are bit-identical to direct ``Multiplier.multiply``
  calls, under randomized seeded arrival schedules;
* backpressure — the bounded queue sheds at exactly ``max_queue``
  operand pairs, with structured ``overloaded`` errors, and a seeded
  client fleet under sustained overload loses nothing silently:
  accepted + shed == sent, and every accepted response carries its own
  request's product (no corruption, no cross-wiring);
* graceful drain — every admitted request resolves, new work is
  refused with ``shutting-down``.
"""

from __future__ import annotations

import asyncio
import dataclasses

import numpy as np
import pytest

from repro.analysis import telemetry
from repro.analysis.montecarlo import characterize
from repro.multipliers.registry import build, names
from repro.serve import (
    AsyncClient,
    BatchPolicy,
    InProcessClient,
    LocalShard,
    MicroBatcher,
    ModelCache,
    ProtocolError,
    ServeError,
    Service,
    ShedError,
    Supervisor,
    TcpServer,
    decode_frame,
    encode_frame,
)

run = asyncio.run


def family_representatives() -> list[str]:
    """One design id per multiplier family (sorted, deterministic)."""
    chosen: dict[str, str] = {}
    for name in names():
        chosen.setdefault(build(name).family, name)
    return sorted(chosen.values())


FAMILIES = family_representatives()


class NeverSleep:
    """The injectable latency gate: parks forever, tests flush manually."""

    def __init__(self):
        self.calls = 0

    async def __call__(self, seconds: float) -> None:
        self.calls += 1
        await asyncio.Event().wait()


def random_pairs(rng, count, lengths=(1, 2, 3, 5, 8, 13)):
    """Seeded request mix: (a, b) operand vectors of varying lengths."""
    out = []
    for _ in range(count):
        n = int(rng.choice(lengths))
        a = rng.integers(0, 1 << 16, size=n)
        b = rng.integers(0, 1 << 16, size=n)
        out.append((a.tolist(), b.tolist()))
    return out


def direct_products(design: str, a, b) -> list[int]:
    """The reference: one unbatched call straight into the model."""
    model = build(design)
    products = model.multiply(
        np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    )
    return [int(v) for v in np.atleast_1d(products)]


# ----------------------------------------------------------------------
# Micro-batcher: equivalence under batching
# ----------------------------------------------------------------------


class TestBatchingEquivalence:
    @pytest.mark.parametrize("design", FAMILIES)
    def test_fused_batch_matches_direct_calls(self, design):
        """One fused evaluation per family == per-request direct calls."""

        async def scenario():
            batcher = MicroBatcher(sleep=NeverSleep())
            rng = np.random.default_rng([2020, hash(design) & 0xFFFF])
            requests = random_pairs(rng, count=9)
            futures = [batcher.submit(design, a, b) for a, b in requests]
            batcher.flush_pending()
            for (a, b), future in zip(requests, futures):
                got = [int(v) for v in future.result()]
                assert got == direct_products(design, a, b)

        run(scenario())

    def test_equivalence_is_schedule_independent(self):
        """The same requests, arriving in different orders and split
        across different flushes, produce identical per-request results."""

        async def one_schedule(requests, order, flush_points):
            batcher = MicroBatcher(sleep=NeverSleep())
            futures = {}
            for step, index in enumerate(order):
                a, b = requests[index]
                futures[index] = batcher.submit("calm", a, b)
                if step in flush_points:
                    batcher.flush_pending()
            batcher.flush_pending()
            return {
                index: [int(v) for v in future.result()]
                for index, future in futures.items()
            }

        async def scenario():
            rng = np.random.default_rng(7)
            requests = random_pairs(rng, count=12)
            reference = {
                i: direct_products("calm", a, b)
                for i, (a, b) in enumerate(requests)
            }
            for trial in range(4):
                order = rng.permutation(len(requests)).tolist()
                flush_points = set(
                    rng.integers(0, len(requests), size=trial).tolist()
                )
                got = await one_schedule(requests, order, flush_points)
                assert got == reference, f"schedule {trial} diverged"

        run(scenario())

    def test_mixed_designs_in_one_flush(self):
        async def scenario():
            batcher = MicroBatcher(sleep=NeverSleep())
            interleaved = [
                ("calm", [3, 5], [7, 11]),
                ("accurate", [100], [200]),
                ("calm", [40000], [50000]),
                ("drum-k8", [123, 456, 789], [321, 654, 987]),
                ("accurate", [65535], [65535]),
            ]
            futures = [
                batcher.submit(design, a, b) for design, a, b in interleaved
            ]
            with telemetry.recording() as record:
                batcher.flush_pending()
            for (design, a, b), future in zip(interleaved, futures):
                assert [int(v) for v in future.result()] == direct_products(
                    design, a, b
                )
            # one fused evaluation span per distinct model in the batch
            assert record.snapshot.phase("serve.batch").count == 3

        run(scenario())

    def test_max_batch_slices_the_queue(self):
        async def scenario():
            batcher = MicroBatcher(
                BatchPolicy(max_batch=4, max_queue=64), sleep=NeverSleep()
            )
            futures = [
                batcher.submit("calm", [i], [i + 1]) for i in range(6)
            ]
            with telemetry.recording() as record:
                batcher.flush_pending()
            # 6 single-pair requests under max_batch=4 -> two evaluations
            assert record.snapshot.phase("serve.batch").count == 2
            for i, future in enumerate(futures):
                assert [int(v) for v in future.result()] == direct_products(
                    "calm", [i], [i + 1]
                )

        run(scenario())

    def test_oversized_single_request_is_taken_whole(self):
        async def scenario():
            batcher = MicroBatcher(
                BatchPolicy(max_batch=2, max_queue=64), sleep=NeverSleep()
            )
            a = list(range(1, 8))
            b = list(range(8, 15))
            future = batcher.submit("calm", a, b)
            with telemetry.recording() as record:
                batcher.flush_pending()
            # admitted by the queue bound, so evaluated in one piece
            assert record.snapshot.phase("serve.batch").count == 1
            assert [int(v) for v in future.result()] == direct_products(
                "calm", a, b
            )

        run(scenario())

    def test_fusion_telemetry_counts_requests_and_pairs(self):
        async def scenario():
            batcher = MicroBatcher(sleep=NeverSleep())
            with telemetry.recording() as record:
                futures = [
                    batcher.submit("calm", [1, 2], [3, 4]),
                    batcher.submit("calm", [5], [6]),
                ]
                batcher.flush_pending()
                await asyncio.gather(*futures)
            snapshot = record.snapshot
            assert snapshot.counter("serve.requests") == 2
            assert snapshot.counter("serve.shed") == 0
            assert snapshot.phase("serve.batch").count == 1
            assert snapshot.gauge("serve.queue_depth") == 0
            assert 0 < snapshot.gauge("serve.batch_occupancy") <= 1

        run(scenario())


# ----------------------------------------------------------------------
# Backpressure: the bounded queue sheds at exactly max_queue
# ----------------------------------------------------------------------


class TestBackpressure:
    def test_sheds_at_exactly_the_configured_bound(self):
        async def scenario():
            batcher = MicroBatcher(
                BatchPolicy(max_queue=8), sleep=NeverSleep()
            )
            futures = [batcher.submit("calm", [i], [i]) for i in range(8)]
            assert batcher.depth == 8
            # pair 9 crosses the bound: shed, not enqueued
            with pytest.raises(ShedError) as info:
                batcher.submit("calm", [9], [9])
            assert info.value.depth == 8 and info.value.limit == 8
            assert batcher.depth == 8  # the shed request occupied nothing
            batcher.flush_pending()
            assert batcher.depth == 0
            for i, future in enumerate(futures):
                assert future.result()[0] == build("calm").multiply(i, i)
            # after the flush the queue accepts work again
            batcher.submit("calm", [1], [1])

        run(scenario())

    def test_vector_request_counts_in_pairs_not_requests(self):
        async def scenario():
            batcher = MicroBatcher(
                BatchPolicy(max_queue=8), sleep=NeverSleep()
            )
            batcher.submit("calm", list(range(6)), list(range(6)))
            # 6 of 8 pairs used: a 5-pair request is shed ...
            with pytest.raises(ShedError):
                batcher.submit("calm", list(range(5)), list(range(5)))
            # ... but a 2-pair request still fits exactly
            batcher.submit("calm", [1, 2], [3, 4])
            assert batcher.depth == 8

        run(scenario())

    def test_shed_is_counted_and_validated_first(self):
        async def scenario():
            batcher = MicroBatcher(
                BatchPolicy(max_queue=1), sleep=NeverSleep()
            )
            batcher.submit("calm", [1], [1])
            with telemetry.recording() as record:
                with pytest.raises(ShedError):
                    batcher.submit("calm", [2], [2])
            assert record.snapshot.counter("serve.shed") == 1
            # invalid requests fail their own way even when full: they
            # must never be reported as overload
            with pytest.raises(ProtocolError) as info:
                batcher.submit("no-such-design", [1], [1])
            assert info.value.code == "unknown-design"
            with pytest.raises(ValueError) as info:
                batcher.submit("calm", [1 << 16], [1])
            assert not isinstance(info.value, ProtocolError)

        run(scenario())


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------


class TestDrain:
    def test_drain_resolves_everything_admitted(self):
        async def scenario():
            gate = NeverSleep()
            batcher = MicroBatcher(sleep=gate)
            batcher.start()
            requests = [([i, i + 1], [i + 2, i + 3]) for i in range(5)]
            futures = [batcher.submit("calm", a, b) for a, b in requests]
            # let the flusher reach its (never-firing) latency gate
            for _ in range(10):
                await asyncio.sleep(0)
            assert gate.calls == 1
            assert not any(f.done() for f in futures)
            await batcher.drain()
            for (a, b), future in zip(requests, futures):
                assert [int(v) for v in future.result()] == direct_products(
                    "calm", a, b
                )
            assert batcher.closing
            with pytest.raises(ShedError):
                batcher.submit("calm", [1], [1])

        run(scenario())

    def test_drained_service_refuses_with_shutting_down(self):
        async def scenario():
            service = Service(sleep=NeverSleep())
            client = InProcessClient(service)
            await service.drain()
            with pytest.raises(ServeError) as info:
                await client.multiply("calm", 3, 4)
            assert info.value.code == "shutting-down"
            # liveness stays answerable while draining
            status = await client.ping()
            assert status["draining"] is True

        run(scenario())


# ----------------------------------------------------------------------
# Service + in-process transport
# ----------------------------------------------------------------------


class TestService:
    @pytest.mark.parametrize("design", FAMILIES)
    def test_served_vector_multiply_is_bit_identical(self, design):
        async def scenario():
            service = Service(sleep=NeverSleep())
            client = InProcessClient(service)
            rng = np.random.default_rng([7, len(design)])
            a = rng.integers(0, 1 << 16, size=32).tolist()
            b = rng.integers(0, 1 << 16, size=32).tolist()
            task = asyncio.ensure_future(client.multiply(design, a, b))
            await asyncio.sleep(0)
            service.batcher.flush_pending()
            assert await task == direct_products(design, a, b)

        run(scenario())

    def test_scalar_multiply_round_trip(self):
        async def scenario():
            service = Service(sleep=NeverSleep())
            client = InProcessClient(service)
            task = asyncio.ensure_future(client.multiply("accurate", 123, 456))
            await asyncio.sleep(0)
            service.batcher.flush_pending()
            assert await task == 123 * 456

        run(scenario())

    def test_error_codes_reach_the_client(self):
        async def scenario():
            service = Service(sleep=NeverSleep())
            client = InProcessClient(service)
            with pytest.raises(ServeError) as info:
                await client.multiply("no-such-design", 1, 2)
            assert info.value.code == "unknown-design"
            with pytest.raises(ServeError) as info:
                await client.multiply("calm", 1 << 16, 2)
            assert info.value.code == "bad-operands"
            with pytest.raises(ServeError) as info:
                await client.call({"op": "frobnicate"})
            assert info.value.code == "bad-request"

        run(scenario())

    @pytest.mark.parametrize("front", ["service", "supervisor"])
    def test_handle_line_is_total(self, front):
        async def scenario():
            if front == "service":
                server = Service(sleep=NeverSleep())
            else:
                server = Supervisor(
                    [LocalShard(f"shard-{i}", sleep=NeverSleep()) for i in (0, 1)]
                )
            for bad in (b"{oops\n", b"\xff\xfe", b"[1,2]\n", b'"x"\n'):
                response = decode_frame(await server.handle_line(bad))
                assert response["ok"] is False
                assert response["error"]["code"] == "bad-frame"

        run(scenario())

    def test_designs_listing_and_prefix(self):
        async def scenario():
            service = Service(sleep=NeverSleep())
            client = InProcessClient(service)
            listing = await client.designs()
            assert {d["id"] for d in listing} == set(names())
            realm = await client.designs(prefix="realm16-")
            assert realm and all(
                d["id"].startswith("realm16-") and d["family"] == "REALM"
                for d in realm
            )

        run(scenario())

    def test_ping_reports_protocol_and_queue(self):
        async def scenario():
            service = Service(sleep=NeverSleep())
            client = InProcessClient(service)
            status = await client.ping()
            assert status["protocol"] == 1
            assert status["queue_depth"] == 0
            assert status["draining"] is False

        run(scenario())

    def test_model_cache_shares_instances(self):
        cache = ModelCache()
        assert cache.get("calm") is cache.get("calm")
        assert cache.get("calm", 16) is not cache.get("calm", 8)
        with pytest.raises(ProtocolError) as info:
            cache.get("no-such-design")
        assert info.value.code == "unknown-design"
        assert "unknown multiplier 'no-such-design'" in info.value.message
        with pytest.raises(ProtocolError) as info:
            cache.get("drum-k6", 4)
        assert info.value.code == "bad-request"
        assert info.value.message == "fragment width k must be in [3, 4], got 6"

    @pytest.mark.parametrize("op", ["multiply", "characterize"])
    @pytest.mark.parametrize("front", ["service", "supervisor"])
    def test_a_width_the_model_refuses_is_a_bad_request(self, front, op):
        # drum-k6 cannot be built at 4 bits: every front answers both ops
        # with the model's message, never as a server fault
        async def scenario():
            if front == "service":
                server = Service(sleep=NeverSleep())
            else:
                server = Supervisor(
                    [LocalShard(f"shard-{i}", sleep=NeverSleep()) for i in (0, 1)]
                )
            request = {"op": op, "design": "drum-k6", "bitwidth": 4, "id": 1}
            if op == "multiply":
                request.update(a=1, b=2)
            else:
                request.update(samples=16)
            with telemetry.recording() as rec:
                response = await server.handle(request)
            assert response["ok"] is False
            assert response["error"] == {
                "code": "bad-request",
                "message": "fragment width k must be in [3, 4], got 6",
            }
            assert rec.snapshot.counter("serve.internal_errors") == 0

        run(scenario())


# ----------------------------------------------------------------------
# Sustained overload: the seeded client fleet
# ----------------------------------------------------------------------


class TestOverloadFleet:
    def test_nothing_lost_nothing_crossed_under_overload(self):
        """The ISSUE acceptance scenario: a fleet far beyond capacity.

        accepted + shed == sent; every shed is a structured
        ``overloaded`` error; every accepted response carries exactly
        its own request's product (no corruption, no reordering)."""

        async def scenario():
            max_queue = 16
            fleet = 50
            service = Service(
                policy=BatchPolicy(max_queue=max_queue), sleep=NeverSleep()
            )
            client = InProcessClient(service)
            rng = np.random.default_rng(2020)
            operands = [
                (int(rng.integers(0, 1 << 16)), int(rng.integers(0, 1 << 16)))
                for _ in range(fleet)
            ]
            with telemetry.recording() as record:
                tasks = [
                    asyncio.ensure_future(client.multiply("calm", a, b))
                    for a, b in operands
                ]
                # every task either parks on its future or sheds
                for _ in range(10 * fleet):
                    if (
                        sum(t.done() for t in tasks) + service.batcher.depth
                        == fleet
                    ):
                        break
                    await asyncio.sleep(0)
                service.batcher.flush_pending()
                outcomes = await asyncio.gather(
                    *tasks, return_exceptions=True
                )
            accepted = [o for o in outcomes if isinstance(o, int)]
            shed = [o for o in outcomes if isinstance(o, ServeError)]
            assert len(accepted) + len(shed) == fleet
            assert len(accepted) == max_queue  # full capacity, no more
            assert all(error.code == "overloaded" for error in shed)
            # no cross-wiring: each answer is its own request's product
            model = build("calm")
            for (a, b), outcome in zip(operands, outcomes):
                if isinstance(outcome, int):
                    assert outcome == int(model.multiply(a, b))
            snapshot = record.snapshot
            assert snapshot.counter("serve.shed") == fleet - max_queue
            assert snapshot.counter("serve.requests") == max_queue

        run(scenario())

    def test_repeated_overload_waves_stay_consistent(self):
        async def scenario():
            service = Service(
                policy=BatchPolicy(max_queue=4), sleep=NeverSleep()
            )
            client = InProcessClient(service)
            model = build("calm")
            for wave in range(5):
                tasks = [
                    asyncio.ensure_future(
                        client.multiply("calm", wave * 10 + i, i + 1)
                    )
                    for i in range(8)
                ]
                for _ in range(100):
                    if sum(t.done() for t in tasks) + service.batcher.depth == 8:
                        break
                    await asyncio.sleep(0)
                service.batcher.flush_pending()
                outcomes = await asyncio.gather(*tasks, return_exceptions=True)
                products = [o for o in outcomes if isinstance(o, int)]
                errors = [o for o in outcomes if isinstance(o, ServeError)]
                assert len(products) == 4 and len(errors) == 4
                for i, outcome in enumerate(outcomes):
                    if isinstance(outcome, int):
                        assert outcome == int(
                            model.multiply(wave * 10 + i, i + 1)
                        )

        run(scenario())


# ----------------------------------------------------------------------
# Characterize through the serving layer
# ----------------------------------------------------------------------


class TestCharacterizeThroughServe:
    def test_served_metrics_match_direct_engine_call(self):
        async def scenario():
            service = Service(sleep=NeverSleep())
            client = InProcessClient(service)
            result = await client.characterize(
                "calm", samples=1 << 12, seed=7
            )
            direct = characterize(build("calm"), samples=1 << 12, seed=7)
            assert result["metrics"] == dataclasses.asdict(direct)
            assert result["samples"] == 1 << 12 and result["seed"] == 7

        run(scenario())

    def test_repeated_request_on_shared_pool_reuses_the_warehouse(self, tmp_path):
        from repro.warehouse import Warehouse

        async def scenario():
            service = Service(
                sleep=NeverSleep(), workers=2, engine={"warehouse": str(tmp_path)}
            )
            assert service.pool is not None
            client = InProcessClient(service)
            try:
                return [
                    await client.characterize("calm", samples=1 << 12, seed=7)
                    for _ in range(2)
                ]
            finally:
                await service.drain()

        cold, warm = run(scenario())
        assert warm["metrics"] == cold["metrics"]
        wh = Warehouse(tmp_path / "warehouse.db")
        first, second = wh.runs()
        assert [row.reused for row in wh.results(first.id)] == [False]
        assert [row.reused for row in wh.results(second.id)] == [True]

    def test_unknown_design_characterize(self):
        async def scenario():
            service = Service(sleep=NeverSleep())
            client = InProcessClient(service)
            with pytest.raises(ServeError) as info:
                await client.characterize("nope")
            assert info.value.code == "unknown-design"

        run(scenario())


# ----------------------------------------------------------------------
# TCP transport (real sockets, loopback, ephemeral port)
# ----------------------------------------------------------------------


class TestTcpTransport:
    def test_pipelined_requests_over_tcp(self):
        async def scenario():
            service = Service(policy=BatchPolicy(max_latency=0.001))
            server = TcpServer(service, port=0)
            await server.start()
            host, port = server.address
            try:
                async with await AsyncClient.connect(host, port) as client:
                    rng = np.random.default_rng(11)
                    jobs = [
                        (
                            int(rng.integers(0, 1 << 16)),
                            int(rng.integers(0, 1 << 16)),
                        )
                        for _ in range(10)
                    ]
                    products = await asyncio.gather(
                        *(client.multiply("calm", a, b) for a, b in jobs)
                    )
                    model = build("calm")
                    for (a, b), product in zip(jobs, products):
                        assert product == int(model.multiply(a, b))
                    status = await client.ping()
                    assert status["protocol"] == 1
            finally:
                await server.close()

        run(scenario())

    def test_malformed_tcp_frame_gets_structured_error(self):
        async def scenario():
            service = Service(policy=BatchPolicy(max_latency=0.001))
            server = TcpServer(service, port=0)
            await server.start()
            host, port = server.address
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"this is not json\n")
                await writer.drain()
                response = decode_frame(await reader.readline())
                assert response["ok"] is False
                assert response["error"]["code"] == "bad-frame"
                writer.close()
                await writer.wait_closed()
            finally:
                await server.close()

        run(scenario())

    def test_server_close_is_a_graceful_drain(self):
        async def scenario():
            service = Service(policy=BatchPolicy(max_latency=0.001))
            server = TcpServer(service, port=0)
            await server.start()
            host, port = server.address
            async with await AsyncClient.connect(host, port) as client:
                assert await client.multiply("accurate", 6, 7) == 42
            await server.close()
            assert service.draining
            assert service.batcher.closing

        run(scenario())


# ----------------------------------------------------------------------
# Connection teardown: a vanishing client must not wedge anything
# ----------------------------------------------------------------------


class TestConnectionTeardown:
    def test_abrupt_close_under_pending_batches(self):
        """Regression: a client that RSTs with batches still queued must
        not wedge the batcher, leak queue slots, or stall the drain."""

        async def scenario():
            gate = NeverSleep()
            service = Service(sleep=gate)
            server = TcpServer(service, port=0)
            await server.start()
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            for i in (1, 2):
                writer.write(
                    encode_frame(
                        {"op": "multiply", "design": "calm",
                         "a": [3 * i], "b": [4 * i], "id": i}
                    )
                )
            await writer.drain()
            # wait until both requests are admitted into the batcher
            while service.batcher.depth < 2:
                await asyncio.sleep(0)
            writer.transport.abort()  # abrupt death: RST, no goodbye
            await asyncio.sleep(0)
            service.batcher.flush_pending()
            for _ in range(20):
                await asyncio.sleep(0)
            assert service.batcher.depth == 0  # no leaked queue slots
            # a healthy client is still served by the same batcher
            async with await AsyncClient.connect(host, port) as client:
                task = asyncio.ensure_future(client.multiply("calm", 7, 8))
                while service.batcher.depth < 1:
                    await asyncio.sleep(0)
                service.batcher.flush_pending()
                assert await asyncio.wait_for(task, 5) == direct_products(
                    "calm", [7], [8]
                )[0]
            # and the drain is not wedged by the dead connection
            await asyncio.wait_for(server.close(), 5)

        run(scenario())


# ----------------------------------------------------------------------
# Client reconnect-and-retry (idempotent ops only)
# ----------------------------------------------------------------------


class FlakyFront:
    """A TCP front that kills connections on demand, else serves.

    While ``drop_next`` is positive, the next received frame aborts its
    connection without a reply — the shape of a worker crash
    mid-request.  Everything else delegates to a real :class:`Service`.
    Per-id handling counts let tests assert retries never silently
    duplicate work.
    """

    def __init__(self, service):
        self.service = service
        self.drop_next = 0
        self.connections = 0
        self.handled: dict[object, int] = {}

    async def on_connect(self, reader, writer):
        self.connections += 1
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if self.drop_next > 0:
                    self.drop_next -= 1
                    writer.transport.abort()
                    return
                obj = decode_frame(line)
                self.handled[obj.get("id")] = (
                    self.handled.get(obj.get("id"), 0) + 1
                )
                writer.write(await self.service.handle_line(line))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()


async def flaky_front():
    service = Service(policy=BatchPolicy(max_latency=0.0005))
    service.start()
    front = FlakyFront(service)
    server = await asyncio.start_server(front.on_connect, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    return service, front, server, port


class TestClientRetry:
    def test_retry_recovers_from_dropped_connection(self):
        async def scenario():
            service, front, server, port = await flaky_front()
            try:
                client = await AsyncClient.connect(
                    "127.0.0.1", port, retries=2, retry_backoff=0.001
                )
                front.drop_next = 1
                assert await client.multiply("accurate", 6, 7) == 42
                assert front.connections == 2  # one drop, one success
                await client.close()
            finally:
                server.close()
                await server.wait_closed()
                await service.drain()

        run(scenario())

    def test_no_retries_means_transport_error_surfaces(self):
        async def scenario():
            service, front, server, port = await flaky_front()
            try:
                client = await AsyncClient.connect("127.0.0.1", port)
                front.drop_next = 1
                with pytest.raises(ConnectionError):
                    await client.multiply("accurate", 6, 7)
                await client.close()
            finally:
                server.close()
                await server.wait_closed()
                await service.drain()

        run(scenario())

    def test_retries_never_duplicate_or_reorder_by_id(self):
        async def scenario():
            service, front, server, port = await flaky_front()
            try:
                client = await AsyncClient.connect(
                    "127.0.0.1", port, retries=3, retry_backoff=0.001
                )
                # drop the first attempt of each burst; every request
                # must still resolve to its own product under its own id
                jobs = [(i + 1, i + 11) for i in range(6)]
                front.drop_next = 1
                first = await asyncio.gather(
                    *(client.multiply("accurate", a, b) for a, b in jobs[:3])
                )
                front.drop_next = 1
                second = await asyncio.gather(
                    *(client.multiply("accurate", a, b) for a, b in jobs[3:])
                )
                for (a, b), product in zip(jobs, first + second):
                    assert product == a * b
                # the server handled each id at least once and no id was
                # handled twice (the drop happened before dispatch), so
                # a retry can only re-present the same idempotent request
                assert all(count == 1 for count in front.handled.values())
                assert len(front.handled) == len(jobs)
                await client.close()
            finally:
                server.close()
                await server.wait_closed()
                await service.drain()

        run(scenario())

    def test_structured_errors_are_never_retried(self):
        async def scenario():
            service, front, server, port = await flaky_front()
            try:
                client = await AsyncClient.connect(
                    "127.0.0.1", port, retries=3, retry_backoff=0.001
                )
                with pytest.raises(ServeError) as info:
                    await client.multiply("no-such-design", 1, 2)
                assert info.value.code == "unknown-design"
                assert front.connections == 1  # the answer stood; no redial
                await client.close()
            finally:
                server.close()
                await server.wait_closed()
                await service.drain()

        run(scenario())

    def test_characterize_is_not_idempotent_no_retry(self):
        async def scenario():
            service, front, server, port = await flaky_front()
            try:
                client = await AsyncClient.connect(
                    "127.0.0.1", port, retries=3, retry_backoff=0.001
                )
                front.drop_next = 1
                with pytest.raises(ConnectionError):
                    await client.characterize("accurate", samples=16)
                assert front.connections == 1
                await client.close()
            finally:
                server.close()
                await server.wait_closed()
                await service.drain()

        run(scenario())


# ----------------------------------------------------------------------
# Drain-vs-shed races: exactly one outcome per request
# ----------------------------------------------------------------------


class TestDrainVsShedRace:
    @pytest.mark.parametrize("seed", range(10))
    def test_exactly_one_of_reply_overloaded_shutting_down(self, seed):
        """Whatever the shutdown timing, every request gets exactly one
        of {reply, ``overloaded``, ``shutting-down``} — never silence."""

        async def scenario():
            rng = np.random.default_rng([97, seed])
            service = Service(
                policy=BatchPolicy(max_queue=6), sleep=NeverSleep()
            )
            service.start()
            client = InProcessClient(service)
            total = 24
            drain_at = int(rng.integers(0, total))
            outcomes: dict[int, tuple] = {}

            async def one(i):
                try:
                    got = await client.multiply("accurate", [i], [i + 1])
                    outcome = ("ok", got)
                except ServeError as exc:
                    outcome = (exc.code, None)
                assert i not in outcomes  # exactly one outcome per request
                outcomes[i] = outcome

            drain_task = None
            tasks = []
            for i in range(total):
                tasks.append(asyncio.ensure_future(one(i)))
                for _ in range(int(rng.integers(0, 3))):
                    await asyncio.sleep(0)
                if i == drain_at:
                    drain_task = asyncio.ensure_future(service.drain())
                    for _ in range(int(rng.integers(0, 3))):
                        await asyncio.sleep(0)
            if drain_task is None:  # pragma: no cover - range guards this
                drain_task = asyncio.ensure_future(service.drain())
            await asyncio.gather(*tasks)
            await drain_task
            assert len(outcomes) == total
            replied = 0
            for i, (kind, got) in sorted(outcomes.items()):
                assert kind in ("ok", "overloaded", "shutting-down"), kind
                if kind == "ok":
                    replied += 1
                    assert got == [i * (i + 1)]  # its own product, uncorrupted
            assert replied >= 1  # at least the earliest admissions resolve

        run(scenario())


# ----------------------------------------------------------------------
# Readiness (status op)
# ----------------------------------------------------------------------


class TestReadiness:
    def test_status_reflects_drain_state(self):
        async def scenario():
            service = Service(sleep=NeverSleep())
            client = InProcessClient(service)
            status = await client.call({"op": "status"})
            assert status["ready"] is True
            assert status["role"] == "service"
            assert isinstance(status["queue_depth"], int)
            await service.drain()
            status = await client.call({"op": "status"})  # still answerable
            assert status["ready"] is False
            assert status["draining"] is True

        run(scenario())

    def test_status_over_tcp(self):
        async def scenario():
            service = Service(policy=BatchPolicy(max_latency=0.001))
            server = TcpServer(service, port=0)
            await server.start()
            host, port = server.address
            try:
                async with await AsyncClient.connect(host, port) as client:
                    status = await client.call({"op": "status"})
                    assert status["ready"] is True
            finally:
                await server.close()

        run(scenario())
