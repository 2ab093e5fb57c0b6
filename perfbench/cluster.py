"""``cluster-failover``: the E25 kill drill under a closed loop.

Each drill brings up 4 node processes on DG(2, 9) with E25's SWIM
timers (``ClusterHarness.up``), measures the healthy cluster with the
same lone-caller and pipelined loops as the service workloads (against
node 0), then starts one ``RobustRouteClient`` aimed at the victim with
the survivors as fallbacks, SIGKILLs the victim under that loop, and
waits for every survivor's DEAD verdict and byte-identical repair.

Spans of the benchmark's own making mark ``ClusterHarness.up``, the
kill, each survivor's observed verdict and repair, and each client
chunk; the cluster figures are read off them.

A forked child's resident set starts as its parent's, and the harness
forks the nodes from the process that calls ``up``.  So each drill runs
in its own child forked from this still-small process, makes its inputs
only after its nodes are up, and sends back only its checked figures.
"""

from __future__ import annotations

import asyncio
import logging
import os
import random
import statistics
import threading
import time
from array import array
from dataclasses import dataclass
from typing import Dict, List, Tuple

from perfbench import corebench, host, loadgen, processes
from perfbench.checker import Answer, Checker, Tally, undirected_reference
from perfbench.loadgen import UNDIRECTED_PATH
from perfbench.loadgen import LONE_SHARE, WINDOW
from perfbench.service import (PEAK_BASES, PROBE_BASE, ChildServer,
                               first_answer)

from repro.cluster.harness import ClusterHarness, ClusterSpec
from repro.core.routing import path_words, verify_path
from repro.network.resilience import compile_with_failures
from repro.service.client import (CLIENT_DEADLINE_MESSAGE, RetryPolicy,
                                  RobustRouteClient)

#: E25's SWIM timers and repair delay, on a graph where repair is real work.
SPEC = ClusterSpec(
    d=2, k=corebench.CLUSTER_K, nodes=corebench.CLUSTER_NODES,
    probe_interval=0.15, probe_timeout=0.08, suspicion_timeout=0.4,
    indirect_probes=1, repair_delay=0.25, seed="bench-e25")
VICTIM = SPEC.nodes - 1
#: Drills per run; each is one launch, its lone/peak rounds and one kill.
DRILLS = 5
MIX = ((UNDIRECTED_PATH, 1),)
#: The failover loop: queries per ``query_many`` call and its window.
CHUNK, CHUNK_WINDOW = 32, 16
#: Upper bounds (queries/s) that size the input pools.
LONE_CAP, PEAK_CAP, FAILOVER_CAP = 40_000, 100_000, 4_000
#: Longest pre-kill + kill → last repair window the failover pool covers (s).
FAILOVER_POOL_S = 10.0
#: The failover loop runs this long before the kill.
PRE_KILL_S = 0.2

Word = Tuple[int, ...]


@dataclass
class Drill:
    """What one drill measured, after its replies were checked."""

    setup_s: float
    up_s: float
    latencies: array
    #: Correct answers inside the drill's peak windows, and their seconds.
    peak_answers: float
    peak_seconds: float
    detection: List[float]
    repair: List[float]
    verdict_to_repair: List[float]
    failover_qps: float
    client_counters: Dict[str, int]
    detoured: int
    node_cpu_share: float
    swim_per_s: float
    rss_mb: float
    gen_cpu_s: float
    wall_s: float
    spans: List[tuple]
    #: The CPU each process last ran on, read after the loops.
    cpus: Dict[str, int]
    tally: Tally
    #: A few answers the checker found correct, for its self-test.
    good: List[Answer]
    #: The lone or peak loop ran out of queries before its deadline.
    exhausted: bool


class Graph:
    """The drill's graph after the kill: survivors' sites and distances."""

    def __init__(self) -> None:
        dead = corebench.dead_sites()
        self.table = compile_with_failures(2, SPEC.k, failed=dead)
        self.space = self.table.space
        dead_set = set(dead)
        self.live = [s for s in range(self.space.order) if s not in dead_set]
        self.dead_words = frozenset(self.space.unpack(s) for s in dead)

    def routable_pairs(self, rng: random.Random, count: int
                       ) -> Tuple[array, array]:
        """Uniform survivor pairs that stay connected after the kill."""
        xs, ys = array("Q"), array("Q")
        order, distances = self.space.order, self.table.distances
        while len(xs) < count:
            x, y = rng.choice(self.live), rng.choice(self.live)
            if distances[y * order + x] != 0xFF:
                xs.append(x)
                ys.append(y)
        return xs, ys

    def avoids_dead(self, source: Word, path: list) -> bool:
        dead = self.dead_words
        return not any(word in dead for word in path_words(source, path, 2))


def _failover_loop(port: int, fallbacks, words, stop: threading.Event,
                   out: Dict[str, object]) -> None:
    """Closed loop of ``CHUNK``-query bursts until ``stop`` (own thread)."""
    chunks: List[Tuple[float, float, int, list]] = []
    out["chunks"] = chunks
    xs, ys = words

    async def main() -> None:
        async with RobustRouteClient(
            loadgen.HOST, port, d=2,
            policy=RetryPolicy(retries=8, backoff_base=0.02, deadline=60.0),
            fallbacks=fallbacks,
        ) as client:
            for at in range(0, len(xs) - CHUNK + 1, CHUNK):
                if stop.is_set():
                    break
                pairs = [(tuple(loadgen.word_bytes(xs[i], SPEC.k)),
                          tuple(loadgen.word_bytes(ys[i], SPEC.k)))
                         for i in range(at, at + CHUNK)]
                started = time.perf_counter()
                outcome = await client.query_many(pairs, window=CHUNK_WINDOW)
                chunks.append((started, time.perf_counter(), at,
                               outcome.replies))
            else:
                out["exhausted"] = True
            out["counters"] = client.registry.snapshot()["counters"]

    try:
        asyncio.run(main())
    except BaseException as exc:  # re-raised by the drill
        out["error"] = exc


def check_failover(chunks, words, kill: float, last: float, graph: Graph
                   ) -> Tuple[Tally, float]:
    """Check every failover reply; returns the tally and ``failover_qps``.

    Before the kill a reply must be optimal in the intact graph, after
    the last repair optimal in the surviving graph.  In between it may
    be either, or a detour: a path that avoids every dead site.  Each
    path must replay in exactly its distance.  ``failover_qps`` counts
    correct replies from the kill to the last repair, prorated by how
    much of each chunk falls inside that window.
    """
    xs, ys = words
    tally = Tally()
    answers: List[Tuple[Answer, float, float]] = []
    for chunk_start, chunk_end, at, replies in chunks:
        for offset, reply in enumerate(replies):
            tally.attempted += 1
            if not reply.ok:
                if reply.error_message == CLIENT_DEADLINE_MESSAGE:
                    tally.lost += 1
                else:
                    tally.errors[reply.error_code.name] += 1
                continue
            i = at + offset
            x = tuple(loadgen.word_bytes(xs[i], SPEC.k))
            y = tuple(loadgen.word_bytes(ys[i], SPEC.k))
            answers.append((Answer(x, y, False, True, reply.distance,
                                   reply.path), chunk_start, chunk_end))
    intact = undirected_reference([(a.source, a.destination)
                                   for a, _, _ in answers])
    space, table = graph.space, graph.table
    good_in_window = 0.0
    for (answer, start, end), optimal in zip(answers, intact):
        x, y, distance, path = (answer.source, answer.destination,
                                answer.distance, answer.path)
        reason = None
        if len(path) != distance or not verify_path(x, y, path, 2):
            reason = "path-replay"
        elif end <= kill:
            if distance != optimal:
                reason = "distance-before-kill"
        elif start >= last:
            survivor = table.distance_packed(space.pack(x), space.pack(y))
            if distance != survivor or not graph.avoids_dead(x, path):
                reason = "distance-after-repair"
        elif distance != optimal and not graph.avoids_dead(x, path):
            reason = "detour-through-dead-site"
        if reason is not None:
            tally.wrong += 1
            tally.reasons[reason] += 1
            continue
        overlap = min(end, last) - max(start, kill)
        if overlap > 0:
            good_in_window += overlap / (end - start)
    return tally, good_in_window / (last - kill)


def _drill(index: int, workdir: str, probe, rng: random.Random,
           seconds: float, graph: Graph,
           placement: host.Placement) -> Drill:
    # The victim's dying connections make asyncio log one line per
    # socket; that is the drill working, not a failure.
    logging.getLogger("asyncio").setLevel(logging.CRITICAL)
    checker = Checker(2, SPEC.k, batched_distances=False)
    tally = Tally()
    harness = ClusterHarness(SPEC, os.path.join(workdir, f"drill-{index}"))
    spans: List[tuple] = []
    try:
        started = time.perf_counter()
        with placement.unpinned():
            harness.up()
        up_done = time.perf_counter()
        spans.append(("cluster.up", started, up_done))
        # While the loops measure node 0, every node runs on the serving
        # CPU and the generator has the other to itself.
        for process in harness.processes:
            placement.pin(process.pid, placement.serving)
        first_answer(harness.tcp_ports[0], probe, checker, tally)
        setup = time.perf_counter() - started
        # Cache the expected repaired digest now, so its compile does not
        # run in this process during the failover window.
        harness.expected_digest([VICTIM])
        survivors = harness.survivors([VICTIM])
        pids = [harness.processes[n].pid for n in survivors]
        lone_s, peak_s = LONE_SHARE * seconds, (1 - LONE_SHARE) * seconds
        lone_q = loadgen.make_queries(
            rng, SPEC.k, int(LONE_CAP * lone_s) + 1, MIX, sites=graph.live)
        peak_q = [loadgen.make_queries(
            rng, SPEC.k, int(PEAK_CAP / 2 * peak_s) + WINDOW, MIX,
            sites=graph.live, base=base) for base in PEAK_BASES]
        words = graph.routable_pairs(rng, int(FAILOVER_CAP * FAILOVER_POOL_S))
        loops = loadgen.run_rounds(harness.tcp_ports[0], lone_q, peak_q,
                                   seconds)
        cpus = host.cpu_map({"generator": os.getpid(), **{
            f"node{n}": p.pid for n, p in enumerate(harness.processes)}})

        # Through the kill, the other nodes may use every CPU: a survivor
        # repairs inside its event loop, and sharing one CPU three ways
        # would stall SWIM past the suspicion timeout.
        for process in harness.processes[1:]:
            os.sched_setaffinity(process.pid, placement.allowed)
        stop = threading.Event()
        loop_out: Dict[str, object] = {}
        fallbacks = [(loadgen.HOST, harness.tcp_ports[n]) for n in survivors]
        thread = threading.Thread(target=_failover_loop, args=(
            harness.tcp_ports[VICTIM], fallbacks, words, stop, loop_out))
        thread.start()
        try:
            time.sleep(PRE_KILL_S)
            cpu0 = host.total_cpu_seconds(pids)
            kill = harness.kill(VICTIM)
            spans.append(("cluster.kill", kill, kill))
            verdicts = harness.wait_for_verdict([VICTIM])
            repairs = harness.wait_repaired([VICTIM])
            last = max(repairs.values())
            node_cpu = host.total_cpu_seconds(pids) - cpu0
        finally:
            stop.set()
            thread.join(timeout=120.0)
        if "error" in loop_out:
            raise loop_out["error"]
        if thread.is_alive():
            raise TimeoutError("failover loop did not stop")
        if loop_out.get("exhausted"):
            raise RuntimeError("failover loop ran out of inputs")
        node_counters = [harness.counters(n) for n in survivors]
        read_at = time.perf_counter()
        rss = sum(host.rss_mb(pid) for pid in pids)
    finally:
        harness.stop()
    for node in survivors:
        spans.append(("cluster.verdict", kill, verdicts[node], node))
        spans.append(("cluster.repair", kill, repairs[node], node))
    for chunk_start, chunk_end, _, replies in loop_out["chunks"]:
        spans.append(("client.chunk", chunk_start, chunk_end, len(replies)))

    checked = checker.check_stream(
        lone_q, loadgen.decode_frames(loops.lone.replies),
        len(loops.lone.replies))
    for queries, stream in zip(peak_q, loops.peak.streams):
        checked.add(checker.check_stream(
            queries, loadgen.decode_frames(stream.chunks), stream.sent))
    tally.add(checked)
    failover, failover_qps = check_failover(
        loop_out["chunks"], words, kill, last, graph)
    tally.add(failover)
    swim = sum(c.get("swim.datagrams_sent", 0) for c in node_counters)
    peak_replies, peak_seconds = loops.peak.counted()
    return Drill(
        setup_s=setup, up_s=up_done - started, latencies=loops.lone.latencies,
        peak_answers=peak_replies * checked.correct / checked.attempted,
        peak_seconds=peak_seconds,
        detection=[verdicts[n] - kill for n in survivors],
        repair=[repairs[n] - kill for n in survivors],
        verdict_to_repair=[repairs[n] - verdicts[n] for n in survivors],
        failover_qps=failover_qps,
        client_counters=loop_out.get("counters", {}),
        detoured=sum(c.get("cluster.detoured_queries", 0)
                     for c in node_counters),
        node_cpu_share=node_cpu / len(pids) / (last - kill),
        swim_per_s=swim / (read_at - up_done),
        rss_mb=rss, gen_cpu_s=loops.generator_cpu_s,
        wall_s=loops.peak_wall_s, spans=spans, cpus=cpus, tally=tally,
        good=checker.good,
        exhausted=loops.lone.exhausted or loops.peak.exhausted)


def run(seed: int, seconds: float, trace: bool, workdir: str,
        placement: host.Placement) -> Dict[str, object]:
    """One run of ``cluster-failover``: ``DRILLS`` drills, each checked."""
    host0 = host.HostCpu()
    checker = Checker(2, SPEC.k, batched_distances=False)
    tally = Tally()
    graph = Graph()
    drills: List[Drill] = []
    for index in range(DRILLS):
        rng = random.Random(f"cluster-failover:{seed}:{index}")
        probe = loadgen.make_queries(rng, SPEC.k, 8, MIX, sites=graph.live,
                                     base=PROBE_BASE)
        drill = processes.in_child(_drill, index, workdir, probe, rng,
                                   seconds / DRILLS, graph, placement)
        tally.add(drill.tally)
        checker.good.extend(drill.good)
        drills.append(drill)

    latencies = array("d", (v for d in drills for v in d.latencies))
    detection = [v for d in drills for v in d.detection]
    repair = [v for d in drills for v in d.repair]
    p50, p99 = loadgen.latency_summary(latencies)
    metrics = {
        "setup_s": statistics.median(d.setup_s for d in drills),
        "peak_qps": (sum(d.peak_answers for d in drills)
                     / sum(d.peak_seconds for d in drills)),
        "p50_ms": p50,
        "lone.p99_ms": p99,
        "rss_mb": statistics.median(d.rss_mb for d in drills),
        "cluster.detection_s": statistics.median(detection),
        "cluster.repair_s": statistics.median(repair),
        "cluster.failover_qps": statistics.median(
            d.failover_qps for d in drills),
    }
    report: Dict[str, object] = {
        "drills": DRILLS,
        "lone_samples": len(latencies),
        "setup_samples_s": [d.setup_s for d in drills],
        "peak_samples_qps": [d.peak_answers / d.peak_seconds
                             for d in drills],
        "p50_samples_ms": [loadgen.latency_summary(d.latencies)[0]
                           for d in drills],
        "rss_samples_mb": [d.rss_mb for d in drills],
        "detection_samples_s": detection,
        "repair_samples_s": repair,
        "failover_qps_samples": [d.failover_qps for d in drills],
        "detection_bound_s": SPEC.detection_bound(),
        "spans": sum(len(d.spans) for d in drills),
        "drills_out_of_inputs": sum(d.exhausted for d in drills),
        "cpu_last_ran_on": [d.cpus for d in drills],
    }
    if trace:
        metrics.update(_traced(
            drills, random.Random(f"cluster-failover:{seed}:traced"), graph,
            seed, placement))
    report["host.steal_share"] = host.HostCpu().steal_share_since(host0)
    metrics["host.steal_share"] = report["host.steal_share"]
    graph.table.close()
    return {"metrics": metrics, "tally": tally, "checker": checker,
            "report": report}


def _traced(drills: List[Drill], rng: random.Random, graph: Graph,
            seed: int, placement: host.Placement) -> Dict[str, float]:
    """Per-layer figures: drill spans and counters, the floor, ``core/``."""
    n = len(drills)
    out: Dict[str, float] = {
        "cluster.up_s": statistics.median(d.up_s for d in drills),
        "cluster.verdict_to_repair_s": statistics.median(
            v for d in drills for v in d.verdict_to_repair),
        "cluster.detoured_queries": sum(d.detoured for d in drills) / n,
        "cluster.node_cpu_share": statistics.median(
            d.node_cpu_share for d in drills),
        "swim.datagrams_per_s": statistics.median(
            d.swim_per_s for d in drills),
        "client.retries": sum(d.client_counters.get("client.retries", 0)
                              for d in drills) / n,
        "client.failovers": sum(d.client_counters.get("client.failovers", 0)
                                for d in drills) / n,
        "loadgen.cpu_share": (sum(d.gen_cpu_s for d in drills)
                              / sum(d.wall_s for d in drills)),
    }
    lone_q = loadgen.make_queries(rng, SPEC.k, LONE_CAP * 2, MIX,
                                  sites=graph.live)
    peak_q = [loadgen.make_queries(rng, SPEC.k, PEAK_CAP * 2, MIX,
                                   sites=graph.live, base=base)
              for base in PEAK_BASES]
    canned = ChildServer(loadgen.serve_canned, placement.serving)
    try:
        floor = loadgen.run_rounds(canned.port, lone_q, peak_q, 4.0)
    finally:
        canned.close()
    out["tcp.floor_qps"] = floor.peak.rate()
    out["tcp.floor_p50_ms"] = loadgen.latency_summary(floor.lone.latencies)[0]
    pairs = [lone_q.query(i)[:2] for i in range(corebench.REPLAY)]
    out.update(processes.in_child(
        corebench.replay, pairs, 1,
        random.Random(f"cluster-failover:{seed}:core"), placement))
    return out
