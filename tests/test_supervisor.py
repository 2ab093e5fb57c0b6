"""Tests for the multi-core supervisor: fleet STATS, drain, respawn."""

from __future__ import annotations

import asyncio
import os
import signal
import threading
import time

import pytest

from repro.exceptions import ServiceError
from repro.service.client import (RetryPolicy, fetch_stats, query_once,
                                  run_burst, run_robust_burst)
from repro.service.engine import EngineSpec, RouteQueryEngine, build_engine
from repro.service.supervisor import (
    LISTENER_MODES,
    ServiceSupervisor,
    SupervisorConfig,
    SupervisorThread,
    resolve_listener,
    reuseport_supported,
)
from tests.test_service import _pairs

SPEC = EngineSpec(2, 6, compile_table=True)


@pytest.fixture(scope="module")
def fleet():
    """One two-worker fleet shared by the read-only tests in this module."""
    with SupervisorThread(SPEC, SupervisorConfig(workers=2)) as live:
        yield live


# ----------------------------------------------------------------------
# Spec / config plumbing
# ----------------------------------------------------------------------


def test_engine_spec_builds_each_tier(tmp_path):
    from repro.core.tables import CompiledRouteTable

    planner = EngineSpec(2, 5).build()
    assert planner.table is None

    compiled = EngineSpec(2, 5, compile_table=True).build()
    assert compiled.table is not None

    path = str(tmp_path / "t.routes")
    CompiledRouteTable.compile(2, 5).save(path)
    loaded = build_engine(EngineSpec(2, 5, table_path=path))
    assert loaded.table is not None
    assert isinstance(loaded, RouteQueryEngine)
    loaded.table.close()

    with pytest.raises(ServiceError):
        EngineSpec(2, 9, table_path=path).build()  # wrong k on disk


def test_engine_spec_closes_a_table_of_the_wrong_graph(tmp_path):
    from repro.core.tables import CompiledRouteTable

    path = str(tmp_path / "dg24.routes")
    CompiledRouteTable.compile(2, 4, workers=1).save(path)

    def held():
        """Open fds and mappings of the table file, from /proc."""
        fds = [os.readlink(f"/proc/self/fd/{fd}")
               for fd in os.listdir("/proc/self/fd")
               if os.path.exists(f"/proc/self/fd/{fd}")]
        with open("/proc/self/maps", encoding="utf-8") as maps:
            mapped = [line for line in maps if line.rstrip().endswith(path)]
        return [fd for fd in fds if fd == path] + mapped

    with pytest.raises(ServiceError, match=r"DG\(2,4\)") as excinfo:
        EngineSpec(2, 5, table_path=path).build()
    # The traceback keeps build()'s frame, and the table in it, alive: the
    # table must already be closed, not left to the garbage collector.
    assert excinfo.tb is not None
    assert held() == []


def test_supervisor_rejects_bad_config():
    with pytest.raises(ServiceError):
        ServiceSupervisor(SPEC, SupervisorConfig(workers=0))
    with pytest.raises(ServiceError):
        ServiceSupervisor()  # neither spec nor factory
    with pytest.raises(ServiceError):
        ServiceSupervisor(SPEC, engine_factory=lambda: None)  # both


def test_resolve_listener_modes():
    assert resolve_listener("reuseport", "127.0.0.1") == "reuseport"
    assert resolve_listener("shared", "127.0.0.1") == "shared"
    assert resolve_listener("auto", "127.0.0.1") in LISTENER_MODES
    with pytest.raises(ServiceError):
        resolve_listener("thundering", "127.0.0.1")
    assert reuseport_supported() in (True, False)


# ----------------------------------------------------------------------
# Fleet end-to-end: aggregation over STATS
# ----------------------------------------------------------------------


def test_fleet_answers_burst_and_aggregates_exactly(fleet):
    before = fleet.aggregate()["counters"].get("server.queries", 0)
    pairs = _pairs(2, 6, 600, seed=11)
    outcome = run_burst("127.0.0.1", fleet.port, pairs, 2, pool_size=4)
    assert outcome.ok_count == len(pairs)

    # A STATS frame through any worker reports the whole fleet.
    snapshot = fetch_stats("127.0.0.1", fleet.port)
    fleet_info = snapshot["fleet"]
    assert fleet_info["workers"] == 2
    per_worker = fleet_info["per_worker"]
    assert len(per_worker) == 2
    answered = snapshot["counters"]["server.queries"] - before
    assert answered == len(pairs)
    assert sum(row["queries"] for row in per_worker) == \
        snapshot["counters"]["server.queries"]


def test_fleet_merged_p99_is_monotone_in_worker_p99(fleet):
    pairs = _pairs(2, 6, 400, seed=23)
    run_burst("127.0.0.1", fleet.port, pairs, 2, pool_size=4)
    snapshot = fetch_stats("127.0.0.1", fleet.port)
    merged = snapshot["histograms"]["server.latency_seconds"]
    worker_p99s = [row["p99_ms"] / 1e3
                   for row in snapshot["fleet"]["per_worker"]
                   if row["queries"] > 0]
    assert worker_p99s, "no worker saw traffic"
    # The union q-quantile lies between the smallest and largest
    # per-worker q-quantile; bucket interpolation can shift each
    # estimate within its bucket, so allow one bucket ratio of slack.
    ratio = 1.75
    assert merged["p99"] <= max(worker_p99s) * ratio + 1e-9
    assert merged["p99"] >= min(worker_p99s) / ratio - 1e-9


def test_fleet_aggregate_carries_generations(fleet):
    snapshot = fleet.aggregate()
    rows = snapshot["fleet"]["per_worker"]
    assert sorted(row["index"] for row in rows) == [0, 1]
    assert all(row["pid"] > 0 for row in rows)
    assert snapshot["counters"]["fleet.workers"] == 2


# ----------------------------------------------------------------------
# Listener fallback
# ----------------------------------------------------------------------


def test_fleet_shared_listener_fallback_serves():
    config = SupervisorConfig(workers=2, listener="shared")
    with SupervisorThread(SPEC, config) as live:
        assert live.supervisor.listener_mode == "shared"
        pairs = _pairs(2, 6, 300, seed=5)
        outcome = run_burst("127.0.0.1", live.port, pairs, 2, pool_size=4)
        assert outcome.ok_count == len(pairs)
        snapshot = fetch_stats("127.0.0.1", live.port)
        assert snapshot["counters"]["server.queries"] >= len(pairs)
        assert snapshot["fleet"]["listener"] == "shared"


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------


def test_fleet_drain_completes_and_refuses_new_connects():
    live = SupervisorThread(SPEC, SupervisorConfig(workers=2))
    port = live.port
    pairs = _pairs(2, 6, 200, seed=9)
    outcome = run_burst("127.0.0.1", port, pairs, 2, pool_size=2)
    assert outcome.ok_count == len(pairs)

    started = time.monotonic()
    live.close()
    drain_seconds = time.monotonic() - started
    assert drain_seconds < 30.0, f"drain took {drain_seconds:.1f}s"

    # Every listener is gone: nothing accepts on the old port.
    with pytest.raises((ServiceError, OSError)):
        query_once("127.0.0.1", port, (0, 1, 1, 0, 1, 0),
                   (1, 1, 0, 1, 1, 0), 2)


def test_stop_closes_a_control_connection_that_never_said_hello():
    """From Python 3.12.1 the control server's ``wait_closed()`` waits
    for every accepted connection, so ``stop()`` must close one that
    stays open and silent instead of blocking on it."""

    async def scenario():
        supervisor = ServiceSupervisor(EngineSpec(2, 4),
                                       SupervisorConfig(workers=1))
        await supervisor.start()
        _, writer = await asyncio.open_unix_connection(
            supervisor._control_path)
        try:
            await asyncio.wait_for(supervisor.stop(), 20)
        finally:
            writer.close()

    asyncio.run(scenario())


def test_fleet_sigterm_worker_drains_in_flight():
    """SIGTERM mid-burst: accepted queries are answered, none vanish."""
    with SupervisorThread(SPEC, SupervisorConfig(workers=2)) as live:
        pairs = _pairs(2, 6, 3000, seed=31)
        result = {}

        def _burst():
            result["outcome"], _ = run_robust_burst(
                "127.0.0.1", live.port, pairs, 2, pool_size=4,
                window=64, policy=RetryPolicy(retries=8))

        worker = threading.Thread(target=_burst)
        worker.start()
        time.sleep(0.02)
        victim = live.worker_pids()[0]
        os.kill(victim, signal.SIGTERM)
        worker.join(timeout=60)
        assert not worker.is_alive()
        outcome = result["outcome"]
        # Every query got an answer; drain may fail a few with
        # SHUTTING_DOWN, which the client surfaces as explicit errors.
        assert len(outcome.replies) == len(pairs)
        assert outcome.ok_count + outcome.error_counts.get(
            "SHUTTING_DOWN", 0) == len(pairs)


# ----------------------------------------------------------------------
# Crash respawn
# ----------------------------------------------------------------------


def test_fleet_kill9_mid_burst_respawns_and_burst_completes():
    with SupervisorThread(SPEC, SupervisorConfig(workers=2)) as live:
        pairs = _pairs(2, 6, 3000, seed=47)
        result = {}

        def _burst():
            result["outcome"], _ = run_robust_burst(
                "127.0.0.1", live.port, pairs, 2, pool_size=4,
                window=64, policy=RetryPolicy(retries=8))

        worker = threading.Thread(target=_burst)
        worker.start()
        time.sleep(0.02)
        victim = live.worker_pids()[0]
        live.kill_worker(victim)  # SIGKILL: no drain, replies are lost
        worker.join(timeout=60)
        assert not worker.is_alive()
        outcome = result["outcome"]
        assert outcome.ok_count == len(pairs)  # retries re-asked the lost

        assert live.wait_for_workers(2, timeout=30)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            snapshot = live.aggregate()
            rows = snapshot["fleet"]["per_worker"]
            if len(rows) == 2 and any(row["generation"] > 0 for row in rows):
                break
            time.sleep(0.1)
        assert live.supervisor.restarts_used >= 1
        assert any(row["generation"] > 0 for row in rows)
        assert victim not in live.worker_pids()

        # The respawned fleet still answers.
        tail, _ = run_robust_burst("127.0.0.1", live.port,
                                   _pairs(2, 6, 100, seed=53), 2, pool_size=2,
                                   policy=RetryPolicy(retries=4))
        assert tail.ok_count == 100


def test_fleet_restart_budget_exhausts():
    config = SupervisorConfig(workers=1, max_restarts=0)
    with SupervisorThread(SPEC, config) as live:
        victim = live.worker_pids()[0]
        live.kill_worker(victim)
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            if live.supervisor.workers_lost >= 1:
                break
            time.sleep(0.05)
        assert live.supervisor.workers_lost == 1
        assert live.supervisor.restarts_used == 0
        assert live.worker_pids() == []


def test_fleet_sigstop_worker_is_detected_hung_and_recycled():
    """Satellite (E24): a worker frozen with SIGSTOP never crashes, so
    only the heartbeat can catch it — the supervisor must declare it
    hung, SIGKILL it, and respawn through the shared restart budget."""
    config = SupervisorConfig(workers=2, max_restarts=3,
                              heartbeat_interval=0.2,
                              heartbeat_timeout=1.0)
    with SupervisorThread(SPEC, config) as live:
        victim = live.worker_pids()[0]
        os.kill(victim, signal.SIGSTOP)
        try:
            # Detection bound: one timeout, a few beats of slack, and
            # the respawn itself.
            deadline = time.monotonic() + 1.0 + 5 * 0.2 + 8.0
            recycled = False
            while time.monotonic() < deadline:
                snapshot = live.aggregate()
                fleet_stats = snapshot["fleet"]
                pids = live.worker_pids()
                if (fleet_stats["hung_recycles"] >= 1
                        and len(pids) == 2 and victim not in pids):
                    recycled = True
                    break
                time.sleep(0.1)
        finally:
            # If detection failed, unfreeze so teardown can drain.
            try:
                os.kill(victim, signal.SIGCONT)
            except ProcessLookupError:
                pass
        assert recycled
        assert live.supervisor.hung_recycles >= 1
        # Hung recycles draw from the same budget as crash respawns.
        assert live.supervisor.restarts_used >= 1
        assert live.supervisor.restarts_used <= config.max_restarts

        # The recycled fleet still answers.
        outcome, _ = run_robust_burst("127.0.0.1", live.port,
                                      _pairs(2, 6, 100, seed=61), 2,
                                      pool_size=2,
                                      policy=RetryPolicy(retries=4))
        assert outcome.ok_count == 100


def test_second_sigterm_escalates_to_sigkill_of_stragglers():
    """Satellite (E25): a graceful drain waits out ``drain_timeout`` for
    a wedged worker; ``escalate()`` — the second-SIGTERM path — must cut
    that short by hard-killing the stragglers immediately."""
    config = SupervisorConfig(workers=2, heartbeat_interval=0.0,
                              drain_timeout=30.0)
    live = SupervisorThread(SPEC, config)
    frozen = list(live.worker_pids())
    assert len(frozen) == 2
    for pid in frozen:
        os.kill(pid, signal.SIGSTOP)  # SIGTERM alone can't drain these
    try:
        started = time.monotonic()
        closer = threading.Thread(target=live.close)
        closer.start()
        time.sleep(0.5)  # first "SIGTERM" (graceful stop) is in flight
        live.escalate()  # the second one: kill the stragglers *now*
        closer.join(timeout=20.0)
        elapsed = time.monotonic() - started
        assert not closer.is_alive(), "drain never finished"
        # Far below the 30s drain window (+5s slack) the graceful path
        # would have waited out: the escalation did the cutting.
        assert elapsed < 20.0, f"drain took {elapsed:.1f}s despite escalate"
        assert live.supervisor.escalations >= 1
        assert live.worker_pids() == []
    finally:
        for pid in frozen:
            try:
                os.kill(pid, signal.SIGCONT)
            except (ProcessLookupError, OSError):
                pass
