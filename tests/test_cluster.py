"""Real-process cluster runtime tests (E25).

Layered from pure unit tests (spec math, detour walks on an injected
dead-site set) through in-process wall-clock SWIM over real UDP sockets,
up to a compact end-to-end kill drill on a genuine multi-process
cluster.  The slow process-level tests use small graphs and fast SWIM
timers so the whole file stays in CI budget.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time

import pytest

from repro.cluster.harness import ClusterHarness, ClusterSpec, run_kill_drill
from repro.cluster.node import (ClusterNodeSpec, ClusterQueryEngine,
                                _ClusterNode, table_digest)
from repro.core.arraybfs import ACTION_UNREACHABLE
from repro.core.packed import PackedSpace
from repro.core.routing import path_words
from repro.exceptions import RoutingError, SimulationError
from repro.network.membership import SwimConfig
from repro.network.resilience import compile_with_failures
from repro.service.client import (RetryPolicy, RobustRouteClient, fetch_stats,
                                  query_once, run_robust_burst)
from repro.service.engine import RouteQueryEngine
from repro.service.server import RouteQueryServer, ServerConfig

HOST = "127.0.0.1"


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# ClusterSpec unit tests
# ----------------------------------------------------------------------


@pytest.mark.parametrize("d,k,nodes", [(2, 5, 4), (2, 5, 3), (3, 3, 5),
                                       (2, 4, 16), (2, 3, 7)])
def test_site_ranges_partition_the_site_space(d, k, nodes):
    spec = ClusterSpec(d=d, k=k, nodes=nodes)
    ranges = spec.site_ranges()
    assert len(ranges) == nodes
    assert ranges[0][0] == 0
    assert ranges[-1][1] == spec.order
    sizes = []
    for (start, stop), (nxt_start, _) in zip(ranges, ranges[1:]):
        assert stop == nxt_start  # contiguous, no gaps or overlaps
        sizes.append(stop - start)
    sizes.append(ranges[-1][1] - ranges[-1][0])
    assert min(sizes) >= 1
    assert max(sizes) - min(sizes) <= 1  # remainder spread one site wide


def test_spec_validation_and_bound():
    with pytest.raises(SimulationError):
        ClusterSpec(d=2, k=3, nodes=1)
    with pytest.raises(SimulationError):
        ClusterSpec(d=2, k=3, nodes=9)  # more nodes than sites
    fast = ClusterSpec(d=2, k=5, nodes=3, probe_interval=0.1,
                       probe_timeout=0.05, suspicion_timeout=0.2)
    slow = ClusterSpec(d=2, k=5, nodes=3)
    assert 0 < fast.detection_bound() < slow.detection_bound()
    # More nodes -> longer round-robin sweep -> larger bound.
    assert ClusterSpec(nodes=8).detection_bound() > slow.detection_bound()


def test_failed_sites_maps_dead_nodes_to_their_ranges():
    spec = ClusterSpec(d=2, k=5, nodes=4)
    node_spec = ClusterNodeSpec(
        node_id=0, n_nodes=4, d=2, k=5, directed=False, table_path="unused",
        site_ranges=spec.site_ranges(),
        swim_peers=tuple((HOST, 0) for _ in range(4)))
    ranges = spec.site_ranges()
    assert node_spec.failed_sites(frozenset()) == []
    assert node_spec.failed_sites(frozenset({2})) == list(range(*ranges[2]))
    both = node_spec.failed_sites(frozenset({3, 1}))
    assert both == list(range(*ranges[1])) + list(range(*ranges[3]))


# ----------------------------------------------------------------------
# Detour-mode engine (no processes: inject the verdict directly)
# ----------------------------------------------------------------------


def test_cluster_engine_detours_around_dead_sites():
    d, k = 2, 5
    spec = ClusterSpec(d=d, k=k, nodes=4)
    dead_node = 3
    dead = frozenset(range(*spec.site_ranges()[dead_node]))
    table = compile_with_failures(d, k, failed=())
    truth = compile_with_failures(d, k, failed=sorted(dead))
    engine = ClusterQueryEngine(d, k, table)
    engine.dead_packed = dead
    space = PackedSpace(d, k)
    live = [site for site in range(spec.order) if site not in dead]

    checked = routed = 0
    for px in live:
        for py in live:
            try:
                if truth.distance_packed(px, py) >= ACTION_UNREACHABLE:
                    continue  # genuinely cut off by the failures
            except RoutingError:
                continue
            checked += 1
            try:
                distance, steps = engine.resolve(
                    space.unpack(px), space.unpack(py), False, True)
            except RoutingError:
                # Best-effort: a stale-table deflection can dead-end; the
                # service layer turns this into a retryable error and the
                # retry lands after repair.  It must stay rare.
                continue
            assert distance == len(steps)
            words = path_words(space.unpack(px), steps, d)
            assert words[-1] == space.unpack(py)
            for word in words[1:-1]:
                assert space.pack(word) not in dead
            routed += 1
    assert checked > 0
    assert routed / checked >= 0.90  # measured 0.96 on this topology
    counters = engine.registry.snapshot()["counters"]
    assert counters.get("cluster.detoured_queries", 0) > 0

    # Endpoints on the dead node are refused outright, not walked.
    dead_word = space.unpack(next(iter(dead)))
    with pytest.raises(RoutingError):
        engine.resolve(space.unpack(live[0]), dead_word, False, True)
    with pytest.raises(RoutingError):
        engine.resolve(dead_word, space.unpack(live[0]), False, True)

    # An empty verdict is exactly the parent engine again.
    engine.dead_packed = frozenset()
    base = RouteQueryEngine(d, k, table=table)
    for px, py in [(live[0], live[-1]), (live[3], live[7])]:
        assert (engine.resolve(space.unpack(px), space.unpack(py), False,
                               True)
                == base.resolve(space.unpack(px), space.unpack(py), False,
                                True))
    truth.close()
    table.close()


# ----------------------------------------------------------------------
# Repair in the node's event loop (no processes: fire the verdict)
# ----------------------------------------------------------------------


def test_repair_keeps_the_event_loop_answering(tmp_path):
    """A DG(2,11) repair takes about 0.5 s of CPU.  The node fills the
    fresh table in bounded steps, so a 5 ms ticker on the same loop never
    waits 0.1 s, and the table it swaps in is the fresh compile."""
    d, k, nodes, victim = 2, 11, 4, 3
    cluster = ClusterSpec(d=d, k=k, nodes=nodes)
    path = str(tmp_path / "dg.routes")
    pristine = compile_with_failures(d, k)
    pristine.save(path)
    spec = ClusterNodeSpec(
        node_id=0, n_nodes=nodes, d=d, k=k, directed=False, table_path=path,
        site_ranges=cluster.site_ranges(),
        swim_peers=tuple((HOST, 0) for _ in range(nodes)))
    failed = spec.failed_sites(frozenset({victim}))
    want = table_digest(compile_with_failures(d, k, failed=failed))

    async def scenario():
        loop = asyncio.get_running_loop()
        node = _ClusterNode(spec)
        assert (node.registry.snapshot()["counters"]["cluster.table_digest"]
                == table_digest(pristine))
        gaps = []
        repaired = asyncio.Event()

        async def ticker():
            last = loop.time()
            while not repaired.is_set():
                await asyncio.sleep(0.005)
                now = loop.time()
                gaps.append(now - last)
                last = now

        ticking = loop.create_task(ticker())
        await asyncio.sleep(0.02)
        node._on_dead_change(frozenset({victim}))
        assert node.engine.dead_packed == frozenset(failed)
        await node._repair_task
        repaired.set()
        await ticking
        counters = node.registry.snapshot()["counters"]
        served = node.engine.table
        node.table.close()
        return max(gaps), counters, served is node.table, node.engine

    worst_gap, counters, swapped_whole, engine = run(scenario())
    assert worst_gap < 0.1, f"the repair held the loop {worst_gap:.3f}s"
    assert counters["cluster.table_digest"] == want
    assert counters["cluster.unrepaired"] == 0
    assert counters["cluster.repairs"] == 1
    assert swapped_whole and engine.dead_packed == frozenset()


# ----------------------------------------------------------------------
# Wall-clock SWIM over real UDP sockets (in-process agents)
# ----------------------------------------------------------------------


def test_swim_agents_convict_a_dead_peer_over_real_udp():
    from repro.cluster.swim import SwimAgent

    n = 3
    config = SwimConfig(probe_interval=0.1, probe_timeout=0.05,
                        indirect_probes=1, suspicion_timeout=0.25,
                        seed="udp-test")
    bound = 2 * (n - 1) * 0.1 + 2 * 0.05 + 0.25 + 1.0

    async def scenario():
        socks = []
        addrs = []
        for _ in range(n):
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.bind((HOST, 0))
            socks.append(sock)
            addrs.append(sock.getsockname())
        agents = []
        try:
            for i in range(n):
                agent = SwimAgent(
                    i, n, config,
                    peers={j: addrs[j] for j in range(n) if j != i},
                    bind=addrs[i])
                await agent.start(sock=socks[i])
                agents.append(agent)
            await asyncio.sleep(3 * config.probe_interval)  # stabilize
            for agent in agents:
                assert agent.dead_nodes() == frozenset()

            await agents[n - 1].close()  # the node just vanishes
            killed_at = time.monotonic()
            survivors = agents[: n - 1]
            while any(a.dead_nodes() != frozenset({n - 1})
                      for a in survivors):
                if time.monotonic() - killed_at > bound:
                    raise AssertionError(
                        f"no conviction within the {bound:.2f}s bound: "
                        f"{[sorted(a.dead_nodes()) for a in survivors]}")
                await asyncio.sleep(0.02)
            for agent in survivors:
                counters = agent.registry.snapshot()["counters"]
                assert counters.get("swim.convictions", 0) >= 1
        finally:
            for agent in agents:
                await agent.close()
        return True

    assert run(scenario())


# ----------------------------------------------------------------------
# Client-side failover and respawn-window retries
# ----------------------------------------------------------------------


def _sample_pairs(d, k, count, seed=0):
    import random as _random

    space = PackedSpace(d, k)
    rng = _random.Random(seed)
    order = d ** k
    return [(space.unpack(rng.randrange(order)),
             space.unpack(rng.randrange(order))) for _ in range(count)]


def _reserved_dead_port() -> int:
    """A port that was just bound and released: connecting gets refused."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((HOST, 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def test_robust_client_fails_over_to_fallback_endpoint():
    async def scenario():
        dead_port = _reserved_dead_port()
        async with RouteQueryServer(RouteQueryEngine(2, 6)) as server:
            pairs = _sample_pairs(2, 6, 80, seed=25)
            async with RobustRouteClient(
                HOST, dead_port, d=2,
                fallbacks=[(HOST, server.port)],
            ) as client:
                outcome = await client.query_many(pairs)
                assert outcome.ok_count == len(pairs)
                counters = client.registry.snapshot()["counters"]
                assert counters.get("client.failovers", 0) >= 1
        return True

    assert run(scenario())


def test_query_once_rides_out_a_respawn_window():
    engine = RouteQueryEngine(2, 5)
    port = _reserved_dead_port()

    def _serve_late():
        async def _run():
            await asyncio.sleep(0.3)  # the "respawn window"
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((HOST, port))
            sock.listen(16)
            server = RouteQueryServer(engine, ServerConfig())
            await server.start(listen_socket=sock)
            try:
                await asyncio.sleep(5.0)
            except asyncio.CancelledError:  # pragma: no cover
                pass
            finally:
                await server.stop()

        asyncio.run(_run())

    thread = threading.Thread(target=_serve_late, daemon=True)
    thread.start()
    try:
        space = PackedSpace(2, 5)
        reply = query_once(HOST, port, space.unpack(3), space.unpack(17),
                           d=2, policy=RetryPolicy(retries=10,
                                                   backoff_base=0.08))
        assert reply.ok and reply.distance is not None
    finally:
        thread.join(timeout=10.0)

    # Without retries the refused connection surfaces immediately.
    with pytest.raises((ConnectionError, OSError)):
        query_once(HOST, _reserved_dead_port(), space.unpack(3),
                   space.unpack(17), d=2, policy=RetryPolicy(retries=0))


# ----------------------------------------------------------------------
# Process-level harness end to end
# ----------------------------------------------------------------------


FAST = dict(probe_interval=0.15, probe_timeout=0.08, suspicion_timeout=0.4,
            indirect_probes=1)


def test_kill_drill_end_to_end(tmp_path):
    """The full E25 pipeline on a real 3-process cluster, compact sizing:
    SIGKILL under load, SWIM verdict within the bound, byte-identical
    repair on every survivor, zero lost queries."""
    spec = ClusterSpec(d=2, k=5, nodes=3, repair_delay=0.25, **FAST)
    report = run_kill_drill(spec, str(tmp_path), queries=600,
                            burst_window=32)
    assert report["victim"] == 2
    assert report["baseline"]["ok"] == report["baseline"]["queries"]
    burst = report["fault_burst"]
    assert burst["lost"] == 0 and burst["queries"] >= 600
    bound = report["detection_bound_s"]
    assert all(0 < latency <= bound
               for latency in report["detection_s"].values())
    digest = report["table_digest"]
    assert set(digest["survivors"]) == {0, 1}
    assert all(value == digest["expected"]
               for value in digest["survivors"].values())
    assert report["healed"]["ok"] == report["healed"]["queries"]


def test_harness_status_kill_and_expected_digest(tmp_path):
    spec = ClusterSpec(d=2, k=5, nodes=3, **FAST)
    with ClusterHarness(spec, str(tmp_path)) as harness:
        harness.up()
        rows = harness.status()
        assert [row["node"] for row in rows] == [0, 1, 2]
        assert all(row["alive"] for row in rows)
        pristine = harness.expected_digest([])
        assert all(row.get("cluster.table_digest") == pristine
                   for row in rows)

        harness.kill(0)
        verdict = harness.wait_for_verdict([0])
        assert set(verdict) == {1, 2}
        harness.wait_repaired([0])
        want = harness.expected_digest([0])
        assert want != pristine
        for node in (1, 2):
            assert harness.counters(node)["cluster.table_digest"] == want
        rows = harness.status()
        assert rows[0]["alive"] is False
        # The dead node's port is genuinely closed, not a backlog hang.
        with pytest.raises((ConnectionError, OSError)):
            fetch_stats(HOST, harness.tcp_ports[0],
                        policy=RetryPolicy(retries=0))
        # Survivors still answer whole-graph queries after repair.
        pairs = harness.sample_pairs(64, dead=[0])
        outcome, _ = run_robust_burst(HOST, harness.tcp_ports[1], pairs,
                                      d=2, window=16)
        assert outcome.ok_count == len(pairs)


def test_harness_isolation_verdict_and_rejoin(tmp_path):
    """Wire fault: black-hole one node's membership traffic through the
    chaos proxies — survivors convict it, queries keep flowing; heal the
    partition and the fleet converges back to an empty verdict with the
    pristine table."""
    spec = ClusterSpec(d=2, k=5, nodes=3, use_proxies=True, **FAST)
    with ClusterHarness(spec, str(tmp_path)) as harness:
        harness.up()
        victim = 2
        harness.isolate(victim)
        verdict = harness.wait_for_verdict([victim])
        assert set(verdict) == {0, 1}
        harness.wait_repaired([victim])
        # The isolated node is alive the whole time — still answering on
        # its TCP port even while the survivors have convicted it.
        assert harness.counters(victim)["cluster.node_id"] == victim

        harness.heal(victim)
        deadline = time.monotonic() + harness.spec.detection_bound() + 10.0
        pristine = harness.expected_digest([])
        while True:
            rows = [harness.counters(node) for node in range(spec.nodes)]
            if all(row.get("cluster.dead_mask", -1) == 0
                   and row.get("cluster.table_digest") == pristine
                   and row.get("cluster.unrepaired", -1) == 0
                   for row in rows):
                break
            if time.monotonic() > deadline:
                raise AssertionError(
                    "fleet did not reconverge after heal: "
                    + repr([{k: v for k, v in row.items()
                             if k.startswith("cluster.")} for row in rows]))
            time.sleep(0.05)
        # Full recovery: everyone routes on the pristine table again.
        pairs = harness.sample_pairs(64)
        outcome, _ = run_robust_burst(HOST, harness.tcp_ports[victim],
                                      pairs, d=2, window=16)
        assert outcome.ok_count == len(pairs)


def test_double_fault_convicts_both_nodes(tmp_path):
    """SIGKILL two of four nodes back to back: the verdict accumulates,
    repair converges to the two-node-failure compile."""
    spec = ClusterSpec(d=2, k=5, nodes=4, **FAST)
    with ClusterHarness(spec, str(tmp_path)) as harness:
        harness.up()
        harness.kill(3)
        harness.kill(1)
        harness.wait_for_verdict([1, 3],
                                 timeout=2 * spec.detection_bound())
        harness.wait_repaired([1, 3])
        want = harness.expected_digest([1, 3])
        for node in (0, 2):
            counters = harness.counters(node)
            assert counters["cluster.table_digest"] == want
            assert counters["cluster.dead_mask"] == (1 << 1) | (1 << 3)
        pairs = harness.sample_pairs(48, dead=[1, 3])
        outcome, _ = run_robust_burst(HOST, harness.tcp_ports[0], pairs,
                                      d=2, window=16)
        assert outcome.ok_count == len(pairs)


def test_dg211_drills_repair_without_silencing_a_survivor(tmp_path):
    """DG(2,11) with E25's timers: three kill drills, one victim each.
    A repair there costs each survivor about 0.5 s of CPU; filled in
    bounded steps it lets every survivor convict within the bound, and no
    survivor is suspected (its incarnation stays put) while it repairs."""
    spec = ClusterSpec(d=2, k=11, nodes=4, **FAST)
    for victim in (3, 0, 2):
        report = run_kill_drill(spec, str(tmp_path / f"victim{victim}"),
                                victim=victim, queries=600, burst_window=32)
        survivors = set(range(spec.nodes)) - {victim}
        bound = report["detection_bound_s"]
        assert set(report["detection_s"]) == survivors
        assert all(0 < latency <= bound
                   for latency in report["detection_s"].values())
        assert all(before == after for before, after
                   in report["incarnation"].values()), report["incarnation"]
        assert report["dead_mask"] == {node: 1 << victim
                                       for node in survivors}
        digest = report["table_digest"]
        assert set(digest["survivors"]) == survivors
        assert all(value == digest["expected"]
                   for value in digest["survivors"].values())
        assert report["fault_burst"]["lost"] == 0
        healed_phase = report["fault_burst"]["per_phase"]["healed"]
        assert healed_phase["queries"] > 0
        assert healed_phase["ok"] == healed_phase["queries"]
        assert report["healed"]["ok"] == report["healed"]["queries"]
