"""Process-level fault harness for the de Bruijn cluster (E25).

:class:`ClusterHarness` spawns one OS process per prefix-shard group
(:func:`repro.cluster.node.cluster_node_main` via the ``fork`` start
method), injects process faults (SIGKILL, SIGSTOP, double-fault) and
wire faults (black-hole partitions through per-node
:class:`~repro.service.chaosproxy.UdpChaosProxy` relays), and measures
what the survivors actually do about it:

* **detection latency** — wall time from the fault to each survivor's
  ``cluster.dead_mask`` reflecting the verdict, asserted against
  :meth:`ClusterSpec.detection_bound`;
* **repair fidelity** — each survivor's ``cluster.table_digest`` must
  converge to the digest of a fresh
  :func:`~repro.network.resilience.compile_with_failures` over the
  surviving topology (byte-identity, not plausibility);
* **delivery** — a concurrent :func:`run_robust_burst` through the kill
  must finish with zero synthetic-timeout replies and zero errors.

All ports are pre-bound in the parent and handed through the fork, so
readiness never races a bind and a killed node's ports die with it
(clients see ``ECONNREFUSED``, not a hang).
"""

from __future__ import annotations

import concurrent.futures
import os
import signal
import socket
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.codec import peek_source
from repro.cluster.node import ClusterNodeSpec, cluster_node_main, table_digest
from repro.core.arraybfs import ACTION_UNREACHABLE
from repro.core.packed import PackedSpace
from repro.exceptions import RoutingError, SimulationError
from repro.network.resilience import compile_with_failures
from repro.service.chaosproxy import UdpChaosProxy
from repro.service.client import (RetryPolicy, RobustRouteClient, fetch_stats,
                                  run_robust_burst)
from repro.service.loop import LoopThread
from repro.service.metrics import MetricsRegistry

WordTuple = Tuple[int, ...]


@dataclass(frozen=True)
class ClusterSpec:
    """Shape and timing of one harness-managed cluster."""

    d: int = 2
    k: int = 5
    nodes: int = 4
    directed: bool = False
    host: str = "127.0.0.1"
    probe_interval: float = 0.25
    probe_timeout: float = 0.12
    suspicion_timeout: float = 0.6
    indirect_probes: int = 1
    seed: str = "cluster"
    repair_delay: float = 0.0
    #: Interpose a :class:`UdpChaosProxy` in front of every node's
    #: membership port (required for :meth:`ClusterHarness.isolate`).
    use_proxies: bool = False

    def __post_init__(self) -> None:
        order = self.d ** self.k
        if self.nodes < 2:
            raise SimulationError("a cluster needs at least 2 nodes")
        if self.nodes > order:
            raise SimulationError(
                f"{self.nodes} nodes cannot partition {order} sites")

    @property
    def order(self) -> int:
        return self.d ** self.k

    def site_ranges(self) -> Tuple[Tuple[int, int], ...]:
        """Partition ``[0, d**k)`` into ``nodes`` contiguous ranges.

        Remainder sites go to the low-id nodes, so range sizes differ by
        at most one — every node owns at least one site.
        """
        order, nodes = self.order, self.nodes
        base, extra = divmod(order, nodes)
        ranges: List[Tuple[int, int]] = []
        start = 0
        for node in range(nodes):
            stop = start + base + (1 if node < extra else 0)
            ranges.append((start, stop))
            start = stop
        return tuple(ranges)

    def detection_bound(self) -> float:
        """Worst-case wall-clock kill->verdict latency (plus slack).

        One full shuffled round-robin sweep can *just* miss the victim
        (``(nodes-1) * probe_interval`` per sweep, so two sweeps bound
        the next direct probe), the probe waits out its direct and
        indirect timeouts, then the suspicion window must lapse.  One
        extra second absorbs scheduler and loop-dispatch noise.
        """
        return (2 * (self.nodes - 1) * self.probe_interval
                + 2 * self.probe_timeout
                + self.suspicion_timeout
                + 1.0)


class ClusterHarness:
    """Spawn, fault, observe, and tear down a real-process cluster."""

    def __init__(self, spec: ClusterSpec, workdir: str) -> None:
        self.spec = spec
        self.workdir = workdir
        self.table_path = os.path.join(workdir, "cluster-table.dbrt")
        self.processes: List = []  # multiprocessing.Process per node
        self.tcp_ports: List[int] = []
        self.swim_ports: List[int] = []
        self.proxies: List[Optional[UdpChaosProxy]] = []
        self.registry = MetricsRegistry()
        self._proxy_loop: Optional[LoopThread] = None
        self._space = PackedSpace(spec.d, spec.k)
        self._digests: Dict[FrozenSet[int], int] = {}

    # -- lifecycle -------------------------------------------------------

    def up(self, timeout: float = 20.0) -> None:
        """Compile the table, bind every port, fork the fleet, await
        readiness."""
        import multiprocessing

        spec = self.spec
        os.makedirs(self.workdir, exist_ok=True)
        pristine = compile_with_failures(
            spec.d, spec.k, directed=spec.directed, failed=())
        pristine.save(self.table_path)
        self._digests[frozenset()] = table_digest(pristine)

        tcp_socks: List[socket.socket] = []
        udp_socks: List[socket.socket] = []
        real_swim: List[Tuple[str, int]] = []
        for _ in range(spec.nodes):
            tcp = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            tcp.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            tcp.bind((spec.host, 0))
            tcp.listen(1024)
            tcp_socks.append(tcp)
            self.tcp_ports.append(tcp.getsockname()[1])
            udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            udp.bind((spec.host, 0))
            udp_socks.append(udp)
            real_swim.append((spec.host, udp.getsockname()[1]))
        self.swim_ports = [port for _, port in real_swim]

        # Peers address each node through its ingress proxy, when wire
        # faults are in play; the node's own entry stays its real bind
        # (only used as documentation — the socket rides the fork).
        peer_addrs = list(real_swim)
        if spec.use_proxies:
            self._proxy_loop = LoopThread(name="cluster-proxy-loop")
            for node in range(spec.nodes):
                proxy = UdpChaosProxy(
                    real_swim[node], host=spec.host,
                    sender_of=peek_source, registry=self.registry)
                addr = self._proxy_loop.call(proxy.start())
                self.proxies.append(proxy)
                peer_addrs[node] = addr
        else:
            self.proxies = [None] * spec.nodes

        ranges = spec.site_ranges()
        context = multiprocessing.get_context("fork")
        for node in range(spec.nodes):
            swim_peers = tuple(
                real_swim[i] if i == node else tuple(peer_addrs[i])
                for i in range(spec.nodes))
            node_spec = ClusterNodeSpec(
                node_id=node,
                n_nodes=spec.nodes,
                d=spec.d,
                k=spec.k,
                directed=spec.directed,
                table_path=self.table_path,
                site_ranges=ranges,
                swim_peers=swim_peers,
                probe_interval=spec.probe_interval,
                probe_timeout=spec.probe_timeout,
                suspicion_timeout=spec.suspicion_timeout,
                indirect_probes=spec.indirect_probes,
                seed=spec.seed,
                repair_delay=spec.repair_delay,
            )
            siblings = ([s for i, s in enumerate(tcp_socks) if i != node]
                        + [s for i, s in enumerate(udp_socks) if i != node])
            process = context.Process(
                target=cluster_node_main,
                args=(node_spec, tcp_socks[node], udp_socks[node], siblings),
                name=f"cluster-node-{node}")
            process.start()
            self.processes.append(process)
        # The children inherited the sockets across the fork; close the
        # parent's copies so a killed node's ports actually die with it.
        for sock in tcp_socks + udp_socks:
            sock.close()
        self.wait_ready(timeout=timeout)
        pristine.close()

    def wait_ready(self, timeout: float = 20.0) -> None:
        """Block until every node answers ``STATS`` on its TCP port."""
        deadline = time.monotonic() + timeout
        for node, port in enumerate(self.tcp_ports):
            while True:
                budget = deadline - time.monotonic()
                if budget <= 0:
                    raise SimulationError(
                        f"node {node} not ready within {timeout}s")
                try:  # one attempt per poll: this loop is the retry
                    fetch_stats(self.spec.host, port,
                                policy=RetryPolicy(retries=0))
                    break
                except (ConnectionError, OSError):
                    time.sleep(0.02)

    def stop(self, timeout: float = 5.0) -> None:
        """SIGTERM the fleet, SIGKILL stragglers, stop the proxies."""
        for process in self.processes:
            if process.is_alive():
                try:
                    os.kill(process.pid, signal.SIGCONT)  # unfreeze first
                    process.terminate()
                except (ProcessLookupError, OSError):
                    pass
        deadline = time.monotonic() + timeout
        for process in self.processes:
            process.join(timeout=max(0.05, deadline - time.monotonic()))
        for process in self.processes:
            if process.is_alive():
                process.kill()
                process.join(timeout=2.0)
        if self._proxy_loop is not None:
            for proxy in self.proxies:
                if proxy is not None:
                    self._proxy_loop.call(proxy.stop())
            self._proxy_loop.close()
            self._proxy_loop = None

    def __enter__(self) -> "ClusterHarness":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- process faults --------------------------------------------------

    def kill(self, node: int) -> float:
        """SIGKILL ``node``; returns the monotonic kill timestamp."""
        process = self.processes[node]
        stamp = time.monotonic()
        os.kill(process.pid, signal.SIGKILL)
        process.join(timeout=5.0)
        return stamp

    def pause(self, node: int) -> float:
        """SIGSTOP ``node`` (alive but silent — SWIM must convict it)."""
        stamp = time.monotonic()
        os.kill(self.processes[node].pid, signal.SIGSTOP)
        return stamp

    def resume(self, node: int) -> float:
        """SIGCONT a paused node; it should refute and rejoin."""
        stamp = time.monotonic()
        os.kill(self.processes[node].pid, signal.SIGCONT)
        return stamp

    # -- wire faults (require ``use_proxies=True``) ----------------------

    def isolate(self, node: int) -> float:
        """Bidirectional black-hole of ``node``'s membership traffic.

        Ingress dies at the victim's own proxy; egress dies at every
        *other* node's ingress proxy via sender blocking (receiving a
        ping is firsthand ALIVE evidence, so half-open isolation would
        never convict).
        """
        self._require_proxies()
        stamp = time.monotonic()
        loop = self._proxy_loop
        loop.fire(self.proxies[node].partition)
        for other, proxy in enumerate(self.proxies):
            if other != node:
                loop.fire(proxy.block_sender, node)
        return stamp

    def heal(self, node: int) -> float:
        """Lift :meth:`isolate`; the node should refute and rejoin."""
        self._require_proxies()
        stamp = time.monotonic()
        loop = self._proxy_loop
        loop.fire(self.proxies[node].heal)
        for other, proxy in enumerate(self.proxies):
            if other != node:
                loop.fire(proxy.unblock_sender, node)
        return stamp

    def _require_proxies(self) -> None:
        if not self.spec.use_proxies or self._proxy_loop is None:
            raise SimulationError(
                "wire faults need ClusterSpec(use_proxies=True)")

    # -- observation -----------------------------------------------------

    def counters(self, node: int) -> Dict[str, int]:
        """One node's live counter snapshot via ``STATS``."""
        stats = fetch_stats(self.spec.host, self.tcp_ports[node])
        return dict(stats.get("counters", {}))

    def status(self) -> List[Dict[str, object]]:
        """Fleet view: liveness, verdicts, repair state per node."""
        rows: List[Dict[str, object]] = []
        for node, process in enumerate(self.processes):
            row: Dict[str, object] = {
                "node": node,
                "pid": process.pid,
                "alive": process.is_alive(),
                "tcp_port": self.tcp_ports[node],
                "swim_port": self.swim_ports[node],
            }
            if process.is_alive():
                try:
                    counters = self.counters(node)
                except Exception:
                    counters = {}
                for key in ("cluster.dead_mask", "cluster.unrepaired",
                            "cluster.repairs", "cluster.table_digest",
                            "cluster.detoured_queries", "swim.incarnation",
                            "swim.dead_count"):
                    if key in counters:
                        row[key] = counters[key]
            rows.append(row)
        return rows

    def survivors(self, dead: Iterable[int]) -> List[int]:
        """Node ids not in ``dead``, ascending."""
        gone = set(dead)
        return [n for n in range(self.spec.nodes) if n not in gone]

    def expected_digest(self, dead: Iterable[int]) -> int:
        """Digest of a fresh ``compile_with_failures`` for this verdict."""
        verdict = frozenset(dead)
        cached = self._digests.get(verdict)
        if cached is not None:
            return cached
        spec = self.spec
        ranges = spec.site_ranges()
        failed: List[int] = []
        for node in sorted(verdict):
            start, stop = ranges[node]
            failed.extend(range(start, stop))
        table = compile_with_failures(
            spec.d, spec.k, directed=spec.directed, failed=failed)
        digest = table_digest(table)
        table.close()
        self._digests[verdict] = digest
        return digest

    def wait_for_verdict(
        self, dead: Iterable[int], timeout: Optional[float] = None,
    ) -> Dict[int, float]:
        """Poll survivors until each one's dead mask matches ``dead``.

        Returns ``{node: monotonic timestamp}`` of when each survivor
        was *observed* holding the verdict (subtract the fault stamp for
        a latency upper bound — polling adds at most the poll period).
        """
        verdict = frozenset(dead)
        mask = 0
        for node in verdict:
            mask |= 1 << node
        bound = timeout if timeout is not None else self.spec.detection_bound()
        deadline = time.monotonic() + bound
        observed: Dict[int, float] = {}
        waiting = set(self.survivors(verdict))
        while waiting:
            if time.monotonic() > deadline:
                raise SimulationError(
                    f"nodes {sorted(waiting)} missed verdict {sorted(verdict)}"
                    f" within {bound:.2f}s")
            for node in sorted(waiting):
                try:
                    counters = self.counters(node)
                except (ConnectionError, OSError):
                    continue
                if counters.get("cluster.dead_mask", 0) == mask:
                    observed[node] = time.monotonic()
                    waiting.discard(node)
            if waiting:
                time.sleep(0.02)
        return observed

    def wait_repaired(
        self, dead: Iterable[int], timeout: float = 30.0,
    ) -> Dict[int, float]:
        """Poll survivors until each table digest matches the fresh
        compile for ``dead`` and detour mode has ended."""
        verdict = frozenset(dead)
        want = self.expected_digest(verdict)
        deadline = time.monotonic() + timeout
        observed: Dict[int, float] = {}
        waiting = set(self.survivors(verdict))
        while waiting:
            if time.monotonic() > deadline:
                raise SimulationError(
                    f"nodes {sorted(waiting)} not repaired within "
                    f"{timeout:.1f}s")
            for node in sorted(waiting):
                try:
                    counters = self.counters(node)
                except (ConnectionError, OSError):
                    continue
                if (counters.get("cluster.table_digest") == want
                        and counters.get("cluster.unrepaired", 1) == 0):
                    observed[node] = time.monotonic()
                    waiting.discard(node)
            if waiting:
                time.sleep(0.02)
        return observed

    # -- query traffic ---------------------------------------------------

    def sample_pairs(
        self, count: int, dead: Iterable[int] = (), seed: str = "drill",
    ) -> List[Tuple[WordTuple, WordTuple]]:
        """Routable (source, destination) word pairs avoiding ``dead``.

        Both endpoints live on surviving nodes and the pair is finite-
        distance in the *post-failure* table, so every sampled query has
        an answer before, during (via detours), and after repair.
        """
        import random as _random

        spec = self.spec
        verdict = frozenset(dead)
        ranges = spec.site_ranges()
        live: List[int] = []
        for node in self.survivors(verdict):
            start, stop = ranges[node]
            live.extend(range(start, stop))
        table = compile_with_failures(
            spec.d, spec.k, directed=spec.directed,
            failed=[] if not verdict else [
                site for node in sorted(verdict)
                for site in range(*ranges[node])])
        rng = _random.Random(f"{seed}:{spec.seed}")
        space = self._space
        pairs: List[Tuple[WordTuple, WordTuple]] = []
        guard = 0
        while len(pairs) < count:
            guard += 1
            if guard > count * 100:
                raise SimulationError(
                    "could not sample enough routable pairs — is the "
                    "surviving topology connected?")
            px = rng.choice(live)
            py = rng.choice(live)
            try:
                if table.distance_packed(px, py) >= ACTION_UNREACHABLE:
                    continue
            except RoutingError:
                continue  # disconnected by the failures
            pairs.append((space.unpack(px), space.unpack(py)))
        table.close()
        return pairs


def run_kill_drill(
    spec: ClusterSpec,
    workdir: str,
    victim: Optional[int] = None,
    queries: int = 10_000,
    burst_window: int = 64,
) -> Dict[str, object]:
    """The E25 drill: kill a node under load, measure everything.

    Phases: bring up the fleet, run a baseline burst, start a concurrent
    :func:`run_robust_burst` aimed at the victim (surviving nodes as
    failover endpoints), SIGKILL the victim mid-burst, wait for the SWIM
    verdict on every survivor (detection latency vs the bound), wait for
    byte-identical table repair, join the burst (zero lost queries), and
    run a healed burst.  Returns the measurements; raises
    :class:`SimulationError` when an assertion fails.
    """

    victim = victim if victim is not None else spec.nodes - 1
    report: Dict[str, object] = {
        "spec": {
            "d": spec.d, "k": spec.k, "nodes": spec.nodes,
            "directed": spec.directed,
            "probe_interval": spec.probe_interval,
            "probe_timeout": spec.probe_timeout,
            "suspicion_timeout": spec.suspicion_timeout,
            "repair_delay": spec.repair_delay,
            "detection_bound": spec.detection_bound(),
        },
        "victim": victim,
        "queries": queries,
    }
    with ClusterHarness(spec, workdir) as harness:
        harness.up()
        host = spec.host
        survivors = harness.survivors([victim])
        pairs = harness.sample_pairs(queries, dead=[victim])

        # Phase 0: baseline — the victim answers before the fault.
        baseline, _ = run_robust_burst(
            host, harness.tcp_ports[victim], pairs[:256], d=spec.d,
            directed=spec.directed, window=burst_window)
        baseline_ok = sum(1 for r in baseline.replies if r.ok)
        if baseline_ok != len(baseline.replies):
            raise SimulationError(
                f"baseline burst lost {len(baseline.replies) - baseline_ok} "
                "queries on a healthy cluster")
        report["baseline"] = {
            "queries": len(baseline.replies), "ok": baseline_ok,
            "elapsed_s": baseline.elapsed,
        }

        # Phase 1: a continuous burst *through* the kill.  One
        # RobustRouteClient dials the victim first (failover must carry
        # it to the survivors) and keeps chunks of queries in flight
        # until a chunk that started after the last survivor's repair
        # has completed — so the fault, the detour window, the repair and
        # the healed cluster all see live traffic, and the zero-loss
        # claim is about queries that actually crossed them.
        fallbacks = [(host, harness.tcp_ports[n]) for n in survivors]
        healed_from: List[float] = []  # the last repair stamp, once seen
        chunks: List[Dict[str, float]] = []
        chunk_size = max(burst_window, 256)

        async def _burst() -> Dict[str, object]:
            async with RobustRouteClient(
                host, harness.tcp_ports[victim], d=spec.d,
                policy=RetryPolicy(retries=8, backoff_base=0.02,
                                   deadline=60.0),
                fallbacks=fallbacks,
            ) as client:
                index = 0
                asked = 0
                while asked < queries or not (
                        healed_from and chunks
                        and chunks[-1]["start"] >= healed_from[0]):
                    chunk = [pairs[(index + j) % len(pairs)]
                             for j in range(chunk_size)]
                    index += chunk_size
                    started = time.monotonic()
                    outcome = await client.query_many(
                        chunk, directed=spec.directed,
                        window=burst_window)
                    ok = sum(1 for r in outcome.replies if r.ok)
                    asked += len(outcome.replies)
                    chunks.append({
                        "start": started,
                        "end": time.monotonic(),
                        "queries": len(outcome.replies),
                        "ok": ok,
                    })
                return client.registry.snapshot()

        burst_loop = LoopThread(name="drill-burst")
        try:
            burst = burst_loop.submit(_burst())
            time.sleep(0.1)  # let the burst get in flight

            # A survivor's own incarnation rises only when a peer
            # suspected it and it had to refute: compared again after
            # the repair.
            incarnation_before = {
                node: harness.counters(node).get("swim.incarnation", 0)
                for node in survivors}
            kill_stamp = harness.kill(victim)
            verdicts = harness.wait_for_verdict([victim])
            detection = {node: stamp - kill_stamp
                         for node, stamp in verdicts.items()}
            bound = spec.detection_bound()
            worst = max(detection.values())
            if worst > bound:
                raise SimulationError(
                    f"detection took {worst:.2f}s, bound is {bound:.2f}s")

            repaired = harness.wait_repaired([victim])
            last_repair = max(repaired.values())
            healed_from.append(last_repair)
            repair_latency = {node: stamp - kill_stamp
                              for node, stamp in repaired.items()}
            want_digest = harness.expected_digest([victim])
            digests: Dict[int, int] = {}
            dead_masks: Dict[int, int] = {}
            incarnations: Dict[int, List[int]] = {}
            detoured = 0
            for node in survivors:
                counters = harness.counters(node)
                digests[node] = counters.get("cluster.table_digest", -1)
                dead_masks[node] = counters.get("cluster.dead_mask", -1)
                incarnations[node] = [incarnation_before[node],
                                      counters.get("swim.incarnation", 0)]
                detoured += counters.get("cluster.detoured_queries", 0)
                if digests[node] != want_digest:
                    raise SimulationError(
                        f"node {node} repaired digest {digests[node]:#x} != "
                        f"fresh compile {want_digest:#x}")

            try:
                snapshot = burst.result(timeout=180.0)
            except concurrent.futures.TimeoutError:
                raise SimulationError("drill burst did not finish") from None
        finally:
            burst_loop.close()
        total = sum(int(c["queries"]) for c in chunks)
        total_ok = sum(int(c["ok"]) for c in chunks)
        lost = total - total_ok
        if lost:
            raise SimulationError(
                f"{lost} of {total} queries lost through the kill")
        spanned = sum(1 for c in chunks
                      if c["start"] <= kill_stamp <= c["end"])
        phases = {"before": [0, 0], "fault": [0, 0], "healed": [0, 0]}
        for c in chunks:
            if c["end"] <= kill_stamp:
                bucket = phases["before"]
            elif c["start"] >= last_repair:
                bucket = phases["healed"]
            else:
                bucket = phases["fault"]
            bucket[0] += int(c["queries"])
            bucket[1] += int(c["ok"])
        if not phases["healed"][0]:
            raise SimulationError(
                "no query of the fault burst started after the repair")
        report["fault_burst"] = {
            "queries": total,
            "ok": total_ok,
            "lost": lost,
            "chunks": len(chunks),
            "chunks_spanning_kill": spanned,
            "per_phase": {name: {"queries": q, "ok": ok}
                          for name, (q, ok) in phases.items()},
            "failovers": snapshot["counters"].get("client.failovers", 0),
            "retries": snapshot["counters"].get("client.retries", 0),
        }
        report["detection_s"] = detection
        report["detection_bound_s"] = bound
        report["repair_s"] = repair_latency
        report["table_digest"] = {
            "expected": want_digest,
            "survivors": digests,
        }
        report["dead_mask"] = dead_masks
        report["incarnation"] = incarnations
        report["detoured_queries"] = detoured

        # Phase 2: healed — survivors answer directly, no retries needed.
        target = survivors[0]
        healed, _ = run_robust_burst(
            host, harness.tcp_ports[target], pairs[:512], d=spec.d,
            directed=spec.directed, window=burst_window)
        healed_ok = sum(1 for r in healed.replies if r.ok)
        if healed_ok != len(healed.replies):
            raise SimulationError(
                f"healed burst lost {len(healed.replies) - healed_ok} "
                "queries after repair")
        report["healed"] = {
            "queries": len(healed.replies), "ok": healed_ok,
            "elapsed_s": healed.elapsed,
        }
    return report
