"""``table-distance`` and ``planner-path``: the supervised route service.

The service runs as one supervised worker process (``SupervisorThread``
with ``workers=1``), so on a 2-vCPU host the generator and the worker
each get one.  Both workloads run two closed loops, because the
service's callers are routers that wait for a path before forwarding:

* a lone caller (one connection, one query in flight) for latency;
* two connections, each pipelining ``WINDOW`` queries, for peak
  throughput.

The traced run adds: the same seeded inputs replayed against a worker
whose layer entry points are wrapped (:mod:`perfbench.tracing`), the
peak loop against a ``RouteQueryServer`` run directly in a child
process with no supervisor, both loops against the canned-reply floor
server, and the ``core/`` calls replayed in-process on the same inputs.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from perfbench import corebench, host, loadgen, processes, tracing
from perfbench.checker import Checker, Tally
from perfbench.loadgen import (DIRECTED_PATH, LONE_SHARE,
                               UNDIRECTED_DISTANCE, UNDIRECTED_PATH, WINDOW,
                               Loops, Queries)

from repro.service.engine import EngineSpec
from repro.service.supervisor import SupervisorConfig, SupervisorThread

#: Request-id bases of the streams that share one server.
LONE_BASE, PEAK_BASES, PROBE_BASE = 0, (1 << 24, 2 << 24), 3 << 24


@dataclass(frozen=True)
class ServiceWorkload:
    """One service workload: graph, tier, query mix and input pool caps."""

    name: str
    k: int
    compile_table: bool
    mix: Tuple[Tuple[Tuple[bool, bool], int], ...]
    #: Launches per run; ``setup_s`` is their median.
    setups: int
    #: The share of queries each engine tier must serve.
    tiers: Dict[str, float]
    #: Upper bounds (queries/s) used only to size the input pools, so
    #: that no run wraps around its inputs.
    lone_cap: float
    peak_cap: float

    def spec(self) -> EngineSpec:
        return EngineSpec(2, self.k, compile_table=self.compile_table)

    def checker(self) -> Checker:
        return Checker(2, self.k, batched_distances=not self.compile_table)


WORKLOADS = {
    "table-distance": ServiceWorkload(
        "table-distance", 12, True, ((UNDIRECTED_DISTANCE, 1),), setups=5,
        tiers={"table": 1.0, "planned": 0.0, "batched": 0.0},
        lone_cap=30_000, peak_cap=100_000),
    "planner-path": ServiceWorkload(
        "planner-path", 32, False,
        ((UNDIRECTED_PATH, 2), (DIRECTED_PATH, 1), (UNDIRECTED_DISTANCE, 1)),
        setups=25, tiers={"table": 0.0, "planned": 0.75, "batched": 0.25},
        lone_cap=12_000, peak_cap=25_000),
}


@dataclass
class Inputs:
    """The query streams of a run's closed loops."""

    lone: Queries
    peak: List[Queries]


def make_probes(workload: ServiceWorkload, seed: int,
                count: int) -> List[Queries]:
    """One short stream per launch, to time launch → first answer."""
    rng = random.Random(f"{workload.name}:{seed}:probes")
    return [loadgen.make_queries(rng, workload.k, 8, workload.mix,
                                 base=PROBE_BASE + 8 * i)
            for i in range(count)]


def make_inputs(workload: ServiceWorkload, seed: int,
                seconds: float) -> Inputs:
    """Every query of a run's loops, generated and encoded from the seed."""
    rng = random.Random(f"{workload.name}:{seed}")
    lone = loadgen.make_queries(
        rng, workload.k, int(workload.lone_cap * LONE_SHARE * seconds) + 1,
        workload.mix, base=LONE_BASE)
    peak = [loadgen.make_queries(
        rng, workload.k,
        int(workload.peak_cap / 2 * (1 - LONE_SHARE) * seconds) + WINDOW,
        workload.mix, base=base) for base in PEAK_BASES]
    return Inputs(lone, peak)


# ----------------------------------------------------------------------
# Serving processes
# ----------------------------------------------------------------------


class Fleet:
    """One supervised worker, optionally with its layers wrapped."""

    def __init__(self, spec: EngineSpec, placement: host.Placement,
                 trace_path: Optional[str] = None):
        def factory():
            started = time.perf_counter()
            engine = spec.build()
            built = time.perf_counter()
            placement.pin(0, placement.serving)
            if trace_path is not None:
                tracing.instrument_server(engine, trace_path, (started, built))
            return engine

        with placement.unpinned():
            self.thread = SupervisorThread(
                engine_factory=factory, config=SupervisorConfig(workers=1))
        self.port = self.thread.port
        self.pid = self.thread.worker_pids()[0]

    def close(self) -> None:
        self.thread.close()


def _inproc_server_main(spec: EngineSpec, placement: host.Placement,
                        port_pipe) -> None:
    """Child-process body: a bare ``RouteQueryServer``, no supervisor."""
    import asyncio
    import signal

    from repro.service.server import RouteQueryServer

    os.sched_setaffinity(0, placement.allowed)
    engine = spec.build()
    placement.pin(0, placement.serving)

    async def main() -> None:
        stop = asyncio.Event()
        asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
        server = RouteQueryServer(engine)
        port_pipe.send(await server.start())
        port_pipe.close()
        try:
            await stop.wait()
        finally:
            await server.stop()

    asyncio.run(main())


class ChildServer:
    """A serving child process; ``port`` once it listens.

    Forked, and only while this process runs no other thread.
    """

    def __init__(self, target, *args) -> None:
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        self.process = context.Process(target=target, args=(*args, sender))
        self.process.start()
        sender.close()
        if not receiver.poll(120.0):
            self.close()
            raise TimeoutError("child server did not report its port")
        self.port = receiver.recv()
        receiver.close()

    def close(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=30.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=10.0)


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


def run_loops(port: int, inputs: Inputs, seconds: float,
              server_pid: Optional[int]) -> Loops:
    return loadgen.run_rounds(port, inputs.lone, inputs.peak, seconds,
                              [server_pid] if server_pid else [])


def first_answer(port: int, probe: Queries, checker: Checker,
                 tally: Tally) -> None:
    """Ask probe queries, one at a time, until one is answered correctly."""
    for index in range(len(probe)):
        one = probe.one(index)
        result = loadgen.LoneResult()
        loadgen.lone_caller(port, one, 0.0, result)
        step = checker.check_stream(one, loadgen.decode_frames(result.replies), 1)
        tally.add(step)
        if step.failed == 0:
            return
    raise RuntimeError("no probe query was answered correctly")


def launch_fleet(workload: ServiceWorkload, probe: Queries, checker: Checker,
                 tally: Tally, placement: host.Placement,
                 trace_path: Optional[str] = None) -> Tuple[Fleet, float]:
    """Launch → first correct answer; returns the fleet and that time."""
    started = time.perf_counter()
    fleet = Fleet(workload.spec(), placement, trace_path)
    try:
        first_answer(fleet.port, probe, checker, tally)
    except BaseException:
        fleet.close()
        raise
    return fleet, time.perf_counter() - started


def check_pass(result: Loops, inputs: Inputs, checker: Checker) -> Tally:
    tally = checker.check_stream(
        inputs.lone, loadgen.decode_frames(result.lone.replies),
        len(result.lone.replies))
    for queries, stream in zip(inputs.peak, result.peak.streams):
        tally.add(checker.check_stream(
            queries, loadgen.decode_frames(stream.chunks), stream.sent))
    return tally


def loop_metrics(result: Loops, tally: Tally) -> Dict[str, float]:
    """Lone-caller latency and peak throughput of one pass."""
    good_share = tally.correct / tally.attempted if tally.attempted else 0.0
    p50, p99 = loadgen.latency_summary(result.lone.latencies)
    return {
        "p50_ms": p50,
        "p99_ms": p99,
        "lone_samples": len(result.lone.latencies),
        "peak_qps": result.peak.rate() * good_share,
        "peak_answered": result.peak.answered,
    }


def stats_metrics(snapshot: dict) -> Dict[str, float]:
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})
    queries = counters.get("server.queries", 0) or 1
    hits = counters.get("engine.cache_hits", 0)
    lookups = hits + counters.get("engine.cache_misses", 0)
    latency = histograms.get("server.latency_seconds", {})
    groups = histograms.get("server.batch_group_size", {})
    refused = sum(value for name, value in counters.items()
                  if name.startswith("server.errors."))
    refused += counters.get("server.rejected_overload", 0)
    refused += counters.get("server.timed_out", 0)
    return {
        "engine.tier.table": counters.get("engine.table_lookups", 0) / queries,
        "engine.tier.planned": counters.get("engine.planned", 0) / queries,
        "engine.tier.batched": counters.get("engine.batched", 0) / queries,
        "engine.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "server.admit_to_reply_ms": 1e3 * float(latency.get("p50", 0.0)),
        "server.batch_flush_size": float(groups.get("mean", 0.0)),
        "server.refused": float(refused),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        workdir: str, placement: host.Placement) -> Dict[str, object]:
    """One run of a service workload; returns metrics, tally and report."""
    workload = WORKLOADS[workload_name]
    checker = workload.checker()
    tally = Tally()
    host0 = host.HostCpu()
    generator_pid = os.getpid()
    report: Dict[str, object] = {}
    probe_streams = make_probes(workload, seed, workload.setups + 1)
    inputs = None
    setups: List[float] = []
    fleet: Optional[Fleet] = None
    try:
        # Launch before the inputs exist, so the forked worker does not
        # inherit (and count in its RSS) the generator's query pool.
        for index in range(workload.setups):
            if fleet is not None:
                fleet.close()
                fleet = None
            fleet, took = launch_fleet(workload, probe_streams[index],
                                       checker, tally, placement)
            setups.append(took)
        inputs = make_inputs(workload, seed, seconds)
        untraced = run_loops(fleet.port, inputs, seconds, fleet.pid)
        snapshot = fleet.thread.aggregate()
        rss = host.rss_mb(fleet.pid)
        cpus = host.cpu_map({"generator": generator_pid, "worker": fleet.pid})
    finally:
        if fleet is not None:
            fleet.close()
    loops_tally = check_pass(untraced, inputs, checker)
    tally.add(loops_tally)
    loops = loop_metrics(untraced, loops_tally)
    report["untraced"] = loops
    report["lone_exhausted"] = untraced.lone.exhausted
    report["peak_exhausted"] = untraced.peak.exhausted
    report["stats"] = stats_metrics(snapshot)
    report["tiers_as_expected"] = all(
        abs(report["stats"][f"engine.tier.{tier}"] - share) < 0.01
        for tier, share in workload.tiers.items())
    report["cpu_last_ran_on"] = cpus
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_qps": loops["peak_qps"],
        "p50_ms": loops["p50_ms"],
        "lone.p99_ms": loops["p99_ms"],
        "rss_mb": rss,
    }
    report["setup_samples_s"] = setups
    if trace:
        metrics.update(traced_extras(
            workload, seed, seconds, inputs, checker, tally, untraced,
            loops, snapshot, probe_streams[-1], workdir, placement, report))
    report["host.steal_share"] = host.HostCpu().steal_share_since(host0)
    if trace:
        metrics["host.steal_share"] = report["host.steal_share"]
    return {"metrics": metrics, "tally": tally, "checker": checker,
            "report": report}


def traced_extras(workload: ServiceWorkload, seed: int, seconds: float,
                  inputs: Inputs, checker: Checker, tally: Tally,
                  untraced: Loops, loops: Dict[str, float], snapshot: dict,
                  probe: Queries, workdir: str, placement: host.Placement,
                  report: Dict[str, object]) -> Dict[str, float]:
    """The traced replay, the no-supervisor server, the floor and core."""
    out: Dict[str, float] = {}
    out.update(stats_metrics(snapshot))
    out["server.cpu_share"] = untraced.server_cpu_s / untraced.peak_wall_s
    out["loadgen.cpu_share"] = untraced.generator_cpu_s / untraced.peak_wall_s
    sent_bytes = (len(untraced.lone.replies) * inputs.lone.stride
                  + untraced.peak.answered * inputs.peak[0].stride)
    reply_bytes = (sum(len(r) for r in untraced.lone.replies)
                   + sum(len(c) for s in untraced.peak.streams
                         for c in s.chunks))
    answered = len(untraced.lone.replies) + loops["peak_answered"]
    out["protocol.bytes_per_query"] = (sent_bytes + reply_bytes) / answered

    # 1. The same inputs against a worker with its layers wrapped.
    span_path = os.path.join(workdir, f"spans-{workload.name}.pickle")
    fleet, took = launch_fleet(workload, probe, checker, tally, placement,
                               span_path)
    try:
        traced = run_loops(fleet.port, inputs, seconds, fleet.pid)
    finally:
        fleet.close()
    traced_tally = check_pass(traced, inputs, checker)
    tally.add(traced_tally)
    traced_loops = loop_metrics(traced, traced_tally)
    spans = tracing.load_spans(span_path)
    os.unlink(span_path)
    out.update(tracing.layer_costs(spans))
    lone_rids = [LONE_BASE + i for i in range(len(traced.lone.replies))]
    self_times = tracing.lone_self_times(
        spans, lone_rids, traced.lone.starts, traced.lone.latencies)
    out.update(self_times)
    build = [end - start for name, start, end, *_ in spans
             if name == "engine.build"]
    out["tracing.overhead"] = 1.0 - traced_loops["peak_qps"] / loops["peak_qps"]
    report["traced"] = traced_loops

    # 2. The loops against a bare RouteQueryServer, no supervisor.
    inproc = ChildServer(_inproc_server_main, workload.spec(), placement)
    try:
        first_answer(inproc.port, probe, checker, tally)
        bare = run_loops(inproc.port, inputs, seconds / 2, inproc.process.pid)
    finally:
        inproc.close()
    bare_tally = check_pass(bare, inputs, checker)
    tally.add(bare_tally)
    bare_loops = loop_metrics(bare, bare_tally)
    out["server.inproc_peak_qps"] = bare_loops["peak_qps"]
    out["supervisor.share"] = 1.0 - loops["peak_qps"] / bare_loops["peak_qps"]

    # 3. The same loops against the canned-reply server.
    canned = ChildServer(loadgen.serve_canned, placement.serving)
    try:
        floor = run_loops(canned.port, inputs, seconds / 3, None)
    finally:
        canned.close()
    floor_answered = floor.peak.answered
    out["tcp.floor_qps"] = floor.peak.rate()
    out["tcp.floor_p50_ms"] = 1e3 * statistics.median(floor.lone.latencies)
    report["floor_answered"] = floor_answered
    # "Clearly above": the generator and loopback TCP could carry at
    # least twice the program's peak.
    report["generator_bound"] = out["tcp.floor_qps"] < 2 * loops["peak_qps"]

    # 4. Spawn time: the traced launch minus the engine build inside it.
    out["supervisor.spawn_s"] = took - (build[0] if build else 0.0)

    # 5. core/ replayed in-process on the same inputs.
    pairs = [inputs.lone.query(i)[:2]
             for i in range(min(corebench.REPLAY, len(inputs.lone)))]
    flush = round(out["server.batch_flush_size"]) or 1
    # In a child: the compile's resource tracker then ends with it.
    out.update(processes.in_child(
        corebench.replay, pairs, flush,
        random.Random(f"{workload.name}:{seed}:core"), placement))
    return out
