"""Tests for the wire-level chaos proxy and the hardened client (E24)."""

from __future__ import annotations

import asyncio
import logging
import random
import time
from contextlib import contextmanager

import pytest

from repro.exceptions import ServiceError
from repro.service.chaosproxy import (ChaosProxy, ChaosProxyThread,
                                      FaultPlan, UdpChaosProxy)
from repro.service.client import (
    CLIENT_DEADLINE_MESSAGE,
    BreakerConfig,
    CircuitBreaker,
    RetryPolicy,
    RobustRouteClient,
    RouteServiceClient,
    run_burst,
    run_robust_burst,
)
from repro.service.engine import RouteQueryEngine
from repro.service.loop import LoopThread
from repro.service.metrics import MetricsRegistry
from repro.service.protocol import encode_query
from repro.service.server import RouteQueryServer
from tests.test_service import _pairs


def run(coro):
    return asyncio.run(coro)


@contextmanager
def _server_thread(d=2, k=6):
    """A live server on a background loop, for sync-caller tests."""
    loop = LoopThread(name="chaos-test-server")
    server = RouteQueryServer(RouteQueryEngine(d, k))
    loop.call(server.start())
    try:
        yield server
    finally:
        try:
            loop.call(server.stop())
        finally:
            loop.close()


# ----------------------------------------------------------------------
# FaultPlan: validation + seeded replayability
# ----------------------------------------------------------------------


def test_fault_plan_validates_inputs():
    with pytest.raises(ValueError):
        FaultPlan(reset_rate=1.5)
    with pytest.raises(ValueError):
        FaultPlan(corrupt_rate=-0.1)
    with pytest.raises(ValueError):
        FaultPlan(latency_ms=-1.0)
    with pytest.raises(ValueError):
        FaultPlan(directions="sideways")
    with pytest.raises(ValueError):
        FaultPlan(reset_after_bytes=(4096, 64))


def test_fault_plan_fates_replay_from_seed():
    """The same seed draws the same per-connection fates, bit for bit."""
    plan = FaultPlan(seed="replay", reset_rate=0.5, trickle_rate=0.3)
    again = FaultPlan(seed="replay", reset_rate=0.5, trickle_rate=0.3)
    other = FaultPlan(seed="other", reset_rate=0.5, trickle_rate=0.3)

    def fates(p):
        out = []
        for i in range(64):
            c2s = p.fate(i, "c2s")
            s2c = p.fate(i, "s2c")
            out.append((c2s.reset_after, c2s.trickle,
                        s2c.reset_after, s2c.trickle))
        return out

    assert fates(plan) == fates(again)
    assert fates(plan) != fates(other)
    # Directions draw from independent RNG streams.
    assert any((a, b) != (c, d) for a, b, c, d in fates(plan))


def test_fault_plan_direction_scoping():
    plan = FaultPlan(directions="c2s", corrupt_rate=1.0)
    assert plan.applies_to("c2s") and not plan.applies_to("s2c")
    # A fate drawn for the excluded direction carries no faults.
    assert FaultPlan(directions="c2s", reset_rate=1.0).fate(
        0, "s2c").reset_after is None
    both = FaultPlan(directions="both")
    assert both.applies_to("c2s") and both.applies_to("s2c")


# ----------------------------------------------------------------------
# Proxy pass-through and per-fault behaviour (live sockets)
# ----------------------------------------------------------------------


def test_proxy_passthrough_is_transparent():
    async def scenario():
        async with RouteQueryServer(RouteQueryEngine(2, 6)) as server:
            async with ChaosProxy("127.0.0.1", server.port,
                                  FaultPlan(seed="clean")) as proxy:
                async with RouteServiceClient("127.0.0.1", proxy.port,
                                              d=2) as client:
                    outcome = await client.query_many(_pairs(2, 6, 40, 1))
                assert outcome.ok_count == 40
                counters = proxy.snapshot()["counters"]
                assert counters["proxy.connections"] == 1
                assert counters["proxy.bytes_c2s"] > 0
                assert counters["proxy.bytes_s2c"] > 0
                assert counters.get("proxy.resets_injected", 0) == 0
        return True

    assert run(scenario())


def test_proxy_latency_fault_slows_but_loses_nothing():
    async def scenario():
        async with RouteQueryServer(RouteQueryEngine(2, 6)) as server:
            async with ChaosProxy(
                "127.0.0.1", server.port,
                FaultPlan(seed="slow", latency_ms=20.0),
            ) as proxy:
                async with RouteServiceClient("127.0.0.1", proxy.port,
                                              d=2) as client:
                    start = time.perf_counter()
                    outcome = await client.query_many(_pairs(2, 6, 10, 2))
                    elapsed = time.perf_counter() - start
                assert outcome.ok_count == 10
                # Each round trip crosses the proxy at least twice.
                assert elapsed >= 0.04
                counters = proxy.snapshot()["counters"]
                assert counters["proxy.delays_injected"] >= 2
        return True

    assert run(scenario())


def test_proxy_reset_fault_robust_client_survives():
    """Every connection is fated to die; the burst still completes."""
    async def scenario():
        async with RouteQueryServer(RouteQueryEngine(2, 6)) as server:
            async with ChaosProxy(
                "127.0.0.1", server.port,
                FaultPlan(seed="reset", reset_rate=1.0),
            ) as proxy:
                policy = RetryPolicy(retries=8, deadline=30.0,
                                     seed="t-reset")
                async with RobustRouteClient(
                    "127.0.0.1", proxy.port, d=2, policy=policy,
                ) as client:
                    outcome = await client.query_many(
                        _pairs(2, 6, 400, 3), want_path=False)
                assert outcome.lost_count == 0
                assert outcome.ok_count == 400
                counters = proxy.snapshot()["counters"]
                assert counters["proxy.resets_injected"] >= 1
        return True

    assert run(scenario())


def test_reset_burst_never_writes_into_a_reset_transport(caplog):
    """A window's frames go out in one write, and never after the peer
    has reset the connection: asyncio logs each write into a lost
    transport past the fifth as 'socket.send() raised exception.'."""
    async def scenario():
        async with RouteQueryServer(RouteQueryEngine(2, 6)) as server:
            async with ChaosProxy(
                "127.0.0.1", server.port,
                FaultPlan(seed="reset-log", reset_rate=1.0),
            ) as proxy:
                policy = RetryPolicy(retries=50, deadline=60.0,
                                     seed="t-reset-log")
                async with RobustRouteClient(
                    "127.0.0.1", proxy.port, d=2, policy=policy,
                ) as client:
                    outcome = await client.query_many(
                        _pairs(2, 6, 2000, 3), want_path=False, window=64)
                assert outcome.lost_count == 0
        return True

    with caplog.at_level(logging.WARNING, logger="asyncio"):
        assert run(scenario())
    assert not [record for record in caplog.records
                if "socket.send() raised exception" in record.getMessage()]


def test_proxy_reset_fault_kills_naive_client():
    """The contrast: no reconnect budget makes the same wire fatal."""
    async def scenario():
        async with RouteQueryServer(RouteQueryEngine(2, 6)) as server:
            async with ChaosProxy(
                "127.0.0.1", server.port,
                FaultPlan(seed="reset", reset_rate=1.0),
            ) as proxy:
                async with RouteServiceClient("127.0.0.1", proxy.port,
                                              d=2) as client:
                    with pytest.raises((ServiceError, ConnectionError,
                                        OSError)):
                        await client.query_many(
                            _pairs(2, 6, 400, 3), want_path=False)
        return True

    assert run(scenario())


def test_proxy_corruption_fault_robust_client_survives():
    async def scenario():
        async with RouteQueryServer(RouteQueryEngine(2, 6)) as server:
            async with ChaosProxy(
                "127.0.0.1", server.port,
                FaultPlan(seed="garble", corrupt_rate=0.5,
                          truncate_rate=0.2),
            ) as proxy:
                policy = RetryPolicy(retries=10, deadline=30.0,
                                     attempt_timeout=2.0, seed="t-garble")
                async with RobustRouteClient(
                    "127.0.0.1", proxy.port, d=2, policy=policy,
                ) as client:
                    outcome = await client.query_many(
                        _pairs(2, 6, 100, 4), want_path=False)
                assert outcome.lost_count == 0
                counters = proxy.snapshot()["counters"]
                assert (counters.get("proxy.bytes_corrupted", 0)
                        + counters.get("proxy.truncations", 0)) >= 1
        return True

    assert run(scenario())


ACCOUNTING_PLANS = {
    "reset": FaultPlan(seed="acct-reset", reset_rate=1.0),
    "corruption": FaultPlan(seed="acct-garble", corrupt_rate=0.2,
                            truncate_rate=0.1),
}


@pytest.mark.parametrize("fault", sorted(ACCOUNTING_PLANS))
def test_robust_burst_accounting_over_consecutive_bursts(fault):
    """Every burst of one client accounts for every query it was given.

    Each burst returns one reply per pair, each reply is ok, a server
    error or lost, and the lost ones are exactly the rise in
    ``client.deadline_exceeded``.  On the reset class every attempt
    answers something before its connection dies, so no attempt may
    count against the breaker: every attempt is a burst's first or a
    counted retry, and the breaker never opens.
    """
    bursts = 4

    async def scenario():
        async with RouteQueryServer(RouteQueryEngine(2, 6)) as server:
            async with ChaosProxy("127.0.0.1", server.port,
                                  ACCOUNTING_PLANS[fault]) as proxy:
                policy = RetryPolicy(retries=8, deadline=30.0,
                                     attempt_timeout=2.0,
                                     seed=f"t-acct-{fault}")
                async with RobustRouteClient(
                    "127.0.0.1", proxy.port, d=2, pool_size=2,
                    policy=policy,
                ) as client:
                    for burst in range(bursts):
                        pairs = _pairs(2, 6, 300, 20 + burst)
                        before = client.registry.snapshot()["counters"].get(
                            "client.deadline_exceeded", 0)
                        outcome = await client.query_many(pairs,
                                                          want_path=False)
                        counters = client.registry.snapshot()["counters"]
                        lost = sum(
                            1 for r in outcome.replies
                            if r.error_message == CLIENT_DEADLINE_MESSAGE)
                        errors = sum(
                            1 for r in outcome.replies
                            if not r.ok
                            and r.error_message != CLIENT_DEADLINE_MESSAGE)
                        assert len(outcome.replies) == len(pairs)
                        assert outcome.ok_count + errors + lost == len(pairs)
                        assert lost == counters.get(
                            "client.deadline_exceeded", 0) - before
                injected = proxy.snapshot()["counters"]
                if fault == "corruption":
                    assert (injected.get("proxy.bytes_corrupted", 0)
                            + injected.get("proxy.truncations", 0)) >= bursts
                if fault == "reset":
                    assert injected["proxy.resets_injected"] >= bursts
                    assert counters["client.attempts"] == (
                        bursts + counters.get("client.retries", 0))
                    assert counters.get("client.breaker_open", 0) == 0
        return True

    assert run(scenario())


def test_partition_opens_breaker_and_heals_within_probe():
    """Black hole -> breaker opens; heal -> recovery within one probe."""
    async def scenario():
        async with RouteQueryServer(RouteQueryEngine(2, 6)) as server:
            async with ChaosProxy("127.0.0.1", server.port,
                                  FaultPlan(seed="part")) as proxy:
                policy = RetryPolicy(retries=20, deadline=1.5,
                                     attempt_timeout=0.25,
                                     backoff_base=0.02, backoff_max=0.1,
                                     seed="t-part")
                breaker = BreakerConfig(failure_threshold=3,
                                        probe_interval=0.5)
                registry = MetricsRegistry()
                async with RobustRouteClient(
                    "127.0.0.1", proxy.port, d=2, policy=policy,
                    breaker=breaker, registry=registry,
                ) as client:
                    out = await client.query_many(_pairs(2, 6, 20, 5),
                                                  want_path=False)
                    assert out.lost_count == 0

                    proxy.partition()
                    out = await client.query_many(_pairs(2, 6, 20, 6),
                                                  want_path=False)
                    assert out.lost_count == 20
                    assert all(r.error_message == CLIENT_DEADLINE_MESSAGE
                               for r in out.replies)
                    counters = registry.snapshot()["counters"]
                    assert counters.get("client.breaker_open", 0) >= 1
                    assert counters.get("client.deadline_exceeded", 0) == 20

                    proxy.heal()
                    healed_at = time.perf_counter()
                    out = await client.query_many(_pairs(2, 6, 20, 7),
                                                  want_path=False)
                    recovery = time.perf_counter() - healed_at
                    assert out.lost_count == 0
                    # Bounded by the probe interval plus a little slack.
                    assert recovery <= 0.5 + 0.5
                counters = proxy.snapshot()["counters"]
                assert counters["proxy.partitions"] == 1
                assert counters["proxy.heals"] == 1
        return True

    assert run(scenario())


def test_proxy_stop_aborts_live_and_parked_connections():
    """stop() returns promptly with a client mid-stream and another
    parked in a partition: from Python 3.12.1 ``Server.wait_closed()``
    waits for every accepted connection, so the proxy must abort its
    connections, the parked one included, before it waits."""
    async def scenario():
        async with RouteQueryServer(RouteQueryEngine(2, 6)) as server:
            proxy = ChaosProxy("127.0.0.1", server.port,
                               FaultPlan(seed="stop"))
            await proxy.start()
            live_reader, live_writer = await asyncio.open_connection(
                "127.0.0.1", proxy.port)
            (x, y), = _pairs(2, 6, 1, 12)
            live_writer.write(encode_query(1, 2, x, y, False, False))
            await live_writer.drain()
            assert await live_reader.read(1 << 16)  # the pumps are live
            live_writer.write(encode_query(2, 2, x, y, False, False)[:5])
            await live_writer.drain()  # ...and half a frame is in flight

            proxy.partition()
            parked_reader, parked_writer = await asyncio.open_connection(
                "127.0.0.1", proxy.port)
            while not proxy.snapshot()["counters"].get(
                    "proxy.blackholed_connects"):
                await asyncio.sleep(0.01)

            started = time.perf_counter()
            await asyncio.wait_for(proxy.stop(), 5.0)
            assert time.perf_counter() - started < 1.0
            for reader in (live_reader, parked_reader):
                try:
                    tail = await asyncio.wait_for(reader.read(), 1.0)
                except ConnectionError:
                    tail = b""
                assert tail == b""
            live_writer.close()
            parked_writer.close()
        return True

    assert run(scenario())


def test_proxy_thread_wraps_sync_callers():
    with _server_thread() as server:
        with ChaosProxyThread("127.0.0.1", server.port,
                              FaultPlan(seed="thread")) as proxy:
            outcome = run_burst("127.0.0.1", proxy.port,
                                _pairs(2, 6, 30, 8), 2)
            assert outcome.ok_count == 30
            assert proxy.snapshot()["counters"]["proxy.connections"] >= 1


def test_proxy_thread_timed_partition_heals_then_relays():
    """``FaultPlan.partition_at`` opens one partition and its heal ends
    it; a burst sent after the heal completes."""
    started = time.monotonic()
    with _server_thread() as server:
        plan = FaultPlan(seed="timed", partition_at=0.1,
                         partition_duration=0.3)
        with ChaosProxyThread("127.0.0.1", server.port, plan) as proxy:
            deadline = time.monotonic() + 5.0
            while proxy.snapshot()["counters"].get("proxy.heals", 0) < 1:
                assert time.monotonic() < deadline, "the proxy never healed"
                time.sleep(0.02)
            assert time.monotonic() - started >= 0.35
            outcome = run_burst("127.0.0.1", proxy.port,
                                _pairs(2, 6, 30, 13), 2)
            assert outcome.ok_count == 30
            counters = proxy.snapshot()["counters"]
            assert counters["proxy.partitions"] == 1
            assert counters["proxy.heals"] == 1


def test_udp_proxy_relays_partitions_and_blocks_senders():
    """The datagram relay forwards, black-holes while partitioned,
    resumes after ``heal()`` and drops a blocked sender's datagrams,
    counting each outcome."""
    async def scenario():
        loop = asyncio.get_running_loop()
        received: "asyncio.Queue[bytes]" = asyncio.Queue()

        class _Sink(asyncio.DatagramProtocol):
            def datagram_received(self, data, addr):
                received.put_nowait(data)

        sink, _ = await loop.create_datagram_endpoint(
            _Sink, local_addr=("127.0.0.1", 0))
        # The first byte of each test datagram names its sender.
        proxy = UdpChaosProxy(sink.get_extra_info("sockname"),
                              sender_of=lambda data: data[0])
        address = await proxy.start()
        sender, _ = await loop.create_datagram_endpoint(
            asyncio.DatagramProtocol, remote_addr=address)

        def counter(name):
            return proxy.registry.snapshot()["counters"].get(name, 0)

        async def relayed(data):
            sender.sendto(data)
            return await asyncio.wait_for(received.get(), 5.0)

        async def discarded(data, name):
            before = counter(name)
            sender.sendto(data)
            deadline = loop.time() + 5.0
            while counter(name) == before:
                assert loop.time() < deadline, f"{name} never counted"
                await asyncio.sleep(0.01)

        try:
            assert await relayed(b"\x01a") == b"\x01a"
            proxy.partition()
            await discarded(b"\x01b", "proxy.datagrams_blackholed")
            proxy.heal()
            assert await relayed(b"\x01c") == b"\x01c"
            proxy.block_sender(1)
            await discarded(b"\x01d", "proxy.datagrams_blocked")
            assert await relayed(b"\x02e") == b"\x02e"
            proxy.unblock_sender(1)
            assert await relayed(b"\x01f") == b"\x01f"
            assert received.empty()
            assert counter("proxy.datagrams_relayed") == 4
            assert counter("proxy.datagrams_blackholed") == 1
            assert counter("proxy.datagrams_blocked") == 1
            assert counter("proxy.partitions") == 1
            assert counter("proxy.heals") == 1
        finally:
            sender.close()
            await proxy.stop()
            sink.close()
        return True

    assert run(scenario())


# ----------------------------------------------------------------------
# RetryPolicy / CircuitBreaker units
# ----------------------------------------------------------------------


def test_retry_policy_validates_and_backoff_is_seeded():
    with pytest.raises(ValueError):
        RetryPolicy(retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_base=-0.1)
    with pytest.raises(ValueError):
        RetryPolicy(deadline=0.0)

    policy = RetryPolicy(backoff_base=0.1, backoff_max=1.0)
    a = [policy.backoff(n, random.Random("x")) for n in range(1, 6)]
    b = [policy.backoff(n, random.Random("x")) for n in range(1, 6)]
    assert a == b  # seeded jitter replays
    # Exponential envelope with jitter in [0.5, 1.0) of nominal.
    for attempt, delay in enumerate(a, start=1):
        nominal = min(0.1 * (2 ** (attempt - 1)), 1.0)
        assert 0.5 * nominal <= delay <= nominal


def test_circuit_breaker_state_machine():
    clock = [0.0]
    breaker = CircuitBreaker(
        BreakerConfig(failure_threshold=2, probe_interval=1.0),
        MetricsRegistry(), now=lambda: clock[0])
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.allow()  # one failure: still closed
    breaker.record_failure()
    assert not breaker.allow()  # threshold hit: open
    clock[0] = 0.5
    assert not breaker.allow()  # still inside the probe interval
    clock[0] = 1.1
    assert breaker.allow()  # half-open: exactly one probe
    assert not breaker.allow()  # second caller is still short-circuited
    breaker.record_success()
    assert breaker.allow()  # probe succeeded: closed again
    breaker.record_failure()
    breaker.record_failure()  # open again at t=1.1
    clock[0] = 2.5
    assert breaker.allow()  # half-open probe
    breaker.record_failure()  # probe failed: re-open at t=2.5
    assert not breaker.allow()


def test_breaker_open_counter_fires_once_per_trip():
    registry = MetricsRegistry()
    breaker = CircuitBreaker(
        BreakerConfig(failure_threshold=1, probe_interval=10.0),
        registry, now=lambda: 0.0)
    breaker.record_failure()
    breaker.record_failure()  # already open: no second count
    assert registry.snapshot()["counters"]["client.breaker_open"] == 1


def test_robust_client_counters_surface_in_registry():
    """Satellite: client.* counters land in the shared registry."""
    async def scenario():
        async with RouteQueryServer(RouteQueryEngine(2, 6)) as server:
            async with ChaosProxy(
                "127.0.0.1", server.port,
                FaultPlan(seed="count", reset_rate=1.0),
            ) as proxy:
                registry = MetricsRegistry()
                policy = RetryPolicy(retries=6, deadline=20.0,
                                     seed="t-count")
                async with RobustRouteClient(
                    "127.0.0.1", proxy.port, d=2, policy=policy,
                    registry=registry,
                ) as client:
                    outcome = await client.query_many(
                        _pairs(2, 6, 200, 9), want_path=False)
                assert outcome.lost_count == 0
                assert proxy.snapshot()["counters"][
                    "proxy.resets_injected"] >= 1
        counters = registry.snapshot()["counters"]
        assert counters.get("client.attempts", 0) >= 1
        return True

    assert run(scenario())


def test_run_robust_burst_returns_outcome_and_snapshot():
    with _server_thread() as server:
        outcome, snapshot = run_robust_burst(
            "127.0.0.1", server.port, _pairs(2, 6, 25, 10), 2,
            policy=RetryPolicy(retries=2, deadline=10.0))
        assert outcome.ok_count == 25
        assert outcome.lost_count == 0
        assert snapshot["counters"]["client.attempts"] == 1
