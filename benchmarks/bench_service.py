"""E21 — Route-query service: pipelined throughput, tail latency, overload.

Four measurements around :mod:`repro.service` (the asyncio route-query
server of this PR), all over real loopback TCP:

1. **Tier throughput** — a 10k-query pipelined burst on DG(2,12),
   answered first by the planner tier (no cache: every query plans via
   :func:`repro.core.routing.route`, the word-parallel diagonal scan for
   these undirected queries) and then by the O(1) compiled-table tier.
   The table tier must be at least ``TABLE_SPEEDUP_MIN``x the planner's
   queries/sec.  That bar was set when the planner ran a full
   Algorithm-4 plan per query; against the diagonal scan the table
   tier wins by less, and the assert fails.
2. **Tail latency** — p50/p95/p99 per-request server-side latency from
   the ``server.latency_seconds`` histogram, fetched over a STATS frame
   (so the metrics path itself is exercised end to end).
3. **Concurrency sweep** — table-tier queries/sec as the client pool
   grows, documenting how pipelining shares one server loop.
4. **Workers sweep** — the same burst against a 1-worker and a
   min(4, cpus)-worker supervisor fleet (``SO_REUSEPORT``), recording
   total and per-worker qps; the scale-out bar is cpu-gated (explicit
   skip on 1-CPU hosts, never a silent pass).  The closed-loop
   capacity model lives in ``bench_capacity.py`` (E23).
5. **Overload + drain** — a window-0 slam against a server with a small
   admission queue: the bounded queue must reject the excess with
   explicit OVERLOADED replies (never buffer without bound), the server
   must still answer a STATS frame mid-overload, and ``stop()`` must
   drain every accepted query before the drain timeout.

Results are appended to ``BENCH_service.json`` at the repo root in the
:mod:`repro.benchio` envelope.  ``test_service_smoke`` runs the same
machinery on DG(2,8) for the CI smoke job (``make bench-smoke``).
"""

from __future__ import annotations

import os
import random
import time
from typing import Dict, List, Optional, Tuple

import pytest

from repro.analysis.tables import format_kv_block, format_table
from repro.benchio import append_record
from repro.core.parallel import available_cpus, compile_table_buffers
from repro.core.routing import route
from repro.core.tables import CompiledRouteTable
from repro.core.word import Word, random_word
from repro.service.client import (RetryPolicy, fetch_stats, run_burst,
                                  run_robust_burst)
from repro.service.engine import EngineSpec, RouteQueryEngine
from repro.service.loop import LoopThread
from repro.service.server import RouteQueryServer, ServerConfig
from repro.service.supervisor import SupervisorConfig, SupervisorThread

#: The measured graph: the same DG(2,12) the E18 table bench compiles.
GRAPH: Tuple[int, int] = (2, 12)
N_QUERIES = 10_000
POOL_SWEEP: Tuple[int, ...] = (1, 2, 4)
WINDOW = 256
SEED = 0xE21
JSON_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                         "BENCH_service.json")

#: Acceptance bar: compiled-table lookups vs the uncached planner tier.
TABLE_SPEEDUP_MIN = 2.0

#: Overload scenario: admission bound and the slam size.
OVERLOAD_MAX_PENDING = 64
OVERLOAD_QUERIES = 4_000


class _LiveServer:
    """A route-query server on its own thread/loop, for sync callers.

    The benchmark body is synchronous (pytest-benchmark), so the server
    runs on a :class:`~repro.service.loop.LoopThread` and the blocking
    client helpers talk to it over loopback TCP.
    """

    def __init__(self, engine: RouteQueryEngine, **config_kwargs) -> None:
        self._server = RouteQueryServer(engine, ServerConfig(**config_kwargs))
        self._loop = LoopThread(name="live-server")
        self.port: int = self._loop.call(self._server.start(), 30)

    async def _drain(self) -> float:
        start = time.perf_counter()
        await self._server.stop()
        return time.perf_counter() - start

    def close(self) -> float:
        """Stop the server; returns how long the graceful drain took."""
        try:
            return self._loop.call(self._drain(), 60)
        finally:
            self._loop.close()


def _pairs(d: int, k: int, count: int, seed: int) -> List[Tuple[Word, Word]]:
    rng = random.Random(seed)
    return [(random_word(d, k, rng), random_word(d, k, rng))
            for _ in range(count)]


def _compile_table(d: int, k: int) -> CompiledRouteTable:
    dist, act = compile_table_buffers(d, k, directed=False,
                                      workers=min(4, available_cpus()))
    return CompiledRouteTable(d, k, False, bytes(act), bytes(dist))


def _measure_tier(engine: RouteQueryEngine, d: int,
                  pairs: List[Tuple[Word, Word]],
                  pool_size: int = 2, window: int = WINDOW,
                  ) -> Dict[str, float]:
    """One pipelined burst against a fresh server; qps + tail latency."""
    live = _LiveServer(engine)
    try:
        outcome = run_burst("127.0.0.1", live.port, pairs, d=d,
                            pool_size=pool_size, window=window)
        snapshot = fetch_stats("127.0.0.1", live.port)
    finally:
        drain = live.close()
    assert outcome.ok_count == len(pairs), (
        f"burst lost replies: {outcome.ok_count}/{len(pairs)} "
        f"(errors: {outcome.error_counts})"
    )
    latency = snapshot["histograms"]["server.latency_seconds"]
    return {
        "queries": len(pairs),
        "pool_size": pool_size,
        "window": window,
        "workers": 1,
        "qps": outcome.qps,
        "per_worker_qps": outcome.qps,
        "elapsed_seconds": outcome.elapsed,
        "p50_ms": latency["p50"] * 1e3,
        "p95_ms": latency["p95"] * 1e3,
        "p99_ms": latency["p99"] * 1e3,
        "drain_seconds": drain,
    }


def _measure_fleet(spec: EngineSpec, d: int,
                   pairs: List[Tuple[Word, Word]], workers: int,
                   pool_size: int = 4, window: int = WINDOW,
                   ) -> Dict[str, object]:
    """One pipelined burst against a ``workers``-process fleet."""
    with SupervisorThread(spec, SupervisorConfig(workers=workers)) as live:
        outcome, _ = run_robust_burst(
            "127.0.0.1", live.port, pairs, d=d, pool_size=pool_size,
            window=window, policy=RetryPolicy(retries=2))
        snapshot = fetch_stats("127.0.0.1", live.port)
    assert outcome.ok_count == len(pairs), (
        f"fleet burst lost replies: {outcome.ok_count}/{len(pairs)} "
        f"(errors: {outcome.error_counts})"
    )
    fleet = snapshot["fleet"]
    assert fleet["workers"] == workers
    latency = snapshot["histograms"]["server.latency_seconds"]
    return {
        "queries": len(pairs),
        "pool_size": pool_size,
        "window": window,
        "workers": workers,
        "listener": fleet["listener"],
        "qps": outcome.qps,
        "per_worker_qps": outcome.qps / workers,
        "per_worker_queries": [row["queries"] for row in
                               fleet["per_worker"]],
        "elapsed_seconds": outcome.elapsed,
        "p50_ms": latency["p50"] * 1e3,
        "p95_ms": latency["p95"] * 1e3,
        "p99_ms": latency["p99"] * 1e3,
    }


def _measure_overload(d: int, k: int,
                      table: Optional[CompiledRouteTable] = None,
                      queries: int = OVERLOAD_QUERIES,
                      max_pending: int = OVERLOAD_MAX_PENDING,
                      ) -> Dict[str, float]:
    """Window-0 slam against a tiny admission queue.

    Every query is either answered or explicitly rejected — the bounded
    queue converts overload into backpressure, not into memory growth —
    and the server keeps answering STATS frames throughout.
    """
    engine = RouteQueryEngine(d, k, table=table)
    live = _LiveServer(engine, max_pending=max_pending,
                       drain_timeout=30.0)
    try:
        pairs = _pairs(d, k, queries, SEED + 1)
        outcome = run_burst("127.0.0.1", live.port, pairs, d=d,
                            pool_size=1, window=0)
        snapshot = fetch_stats("127.0.0.1", live.port)  # still responsive
    finally:
        drain = live.close()
    counters = snapshot["counters"]
    rejected = outcome.error_counts.get("OVERLOADED", 0)
    assert outcome.ok_count + rejected == queries, (
        f"overload lost queries: {outcome.ok_count} ok + {rejected} "
        f"rejected != {queries} (errors: {outcome.error_counts})"
    )
    assert counters["server.queue_peak"] <= max_pending, (
        f"admission queue exceeded its bound: peak "
        f"{counters['server.queue_peak']} > {max_pending}"
    )
    assert counters["server.queue_depth"] == 0, "drain left queued work"
    return {
        "queries": queries,
        "max_pending": max_pending,
        "answered": outcome.ok_count,
        "rejected_overload": rejected,
        "queue_peak": counters["server.queue_peak"],
        "drain_seconds": drain,
    }


def test_service(benchmark, report, tmp_path):
    """The full E21 measurement; writes BENCH_service.json."""
    d, k = GRAPH

    def measure() -> Dict[str, object]:
        record: Dict[str, object] = {
            "graph": {"d": d, "k": k, "n": d**k},
            "cpus": available_cpus(),
        }
        start = time.perf_counter()
        table = _compile_table(d, k)
        record["table_compile_seconds"] = time.perf_counter() - start
        pairs = _pairs(d, k, N_QUERIES, SEED)
        record["planner_uncached"] = _measure_tier(
            RouteQueryEngine(d, k), d, pairs)
        record["table"] = _measure_tier(
            RouteQueryEngine(d, k, table=table), d, pairs)
        record["table_speedup"] = (record["table"]["qps"]
                                   / record["planner_uncached"]["qps"])
        record["pool_sweep"] = [
            _measure_tier(RouteQueryEngine(d, k, table=table), d, pairs,
                          pool_size=pool)
            for pool in POOL_SWEEP
        ]
        # The workers axis: every fleet worker mmap-loads this one file,
        # so the table bytes exist once in the page cache host-wide.
        table_path = str(tmp_path / "service.routes")
        table.save(table_path)
        spec = EngineSpec(d, k, table_path=table_path)
        fleet_sizes = sorted({1, min(4, max(1, available_cpus()))})
        record["workers_sweep"] = [
            _measure_fleet(spec, d, pairs, workers) for workers in fleet_sizes
        ]
        by_workers = {row["workers"]: row for row in record["workers_sweep"]}
        top = max(by_workers)
        record["scaleout_speedup"] = (
            by_workers[top]["qps"] / by_workers[1]["qps"]
        )
        record["scaleout_workers"] = top
        record["overload"] = _measure_overload(d, k, table=table)
        return record

    record = benchmark.pedantic(measure, rounds=1, iterations=1)
    append_record(JSON_PATH, record, bench="service")

    planner, table = record["planner_uncached"], record["table"]
    report(f"E21 — DG({d},{k}) route-query service, {N_QUERIES} pipelined "
           f"queries ({record['cpus']} CPU(s))\n"
           + format_table(
               ["tier", "qps", "p50 ms", "p95 ms", "p99 ms"],
               [["planner (uncached)", planner["qps"], planner["p50_ms"],
                 planner["p95_ms"], planner["p99_ms"]],
                ["compiled table", table["qps"], table["p50_ms"],
                 table["p95_ms"], table["p99_ms"]]], precision=2)
           + f"\ntable speedup: {record['table_speedup']:.2f}x "
           f"(bar: >= {TABLE_SPEEDUP_MIN}x)")
    report("E21 — table-tier qps vs client pool size\n"
           + format_table(
               ["pool", "qps", "p99 ms"],
               [[row["pool_size"], row["qps"], row["p99_ms"]]
                for row in record["pool_sweep"]], precision=2))
    report("E21 — table-tier qps vs worker processes (burst)\n"
           + format_table(
               ["workers", "qps", "qps/worker", "p99 ms"],
               [[row["workers"], row["qps"], row["per_worker_qps"],
                 row["p99_ms"]]
                for row in record["workers_sweep"]], precision=2))
    over = record["overload"]
    report("E21 — overload: window-0 slam vs bounded admission queue\n"
           + format_kv_block(
               f"{over['queries']} queries, queue bound "
               f"{over['max_pending']}", [
                   ("answered", over["answered"]),
                   ("rejected OVERLOADED", over["rejected_overload"]),
                   ("queue peak", over["queue_peak"]),
                   ("drain seconds", round(over["drain_seconds"], 4)),
               ]))

    # Acceptance 1: O(1) table lookups must beat planning every query
    # by at least TABLE_SPEEDUP_MIN x on the pipelined burst.  The bar
    # was set against Algorithm 4; the planner now runs the diagonal
    # scan, and the table tier wins by less (see the module docstring).
    assert record["table_speedup"] >= TABLE_SPEEDUP_MIN, (
        f"table tier only {record['table_speedup']:.2f}x the uncached "
        f"planner (bar: {TABLE_SPEEDUP_MIN}x)"
    )
    # Acceptance 2: the overload run (asserted inside _measure_overload)
    # rejected at least something — otherwise the slam never actually
    # pressured the queue and the scenario proved nothing.
    assert over["rejected_overload"] > 0, (
        "overload scenario produced no rejections; queue was never full"
    )
    # Acceptance 3: graceful drain completed well under its timeout.
    assert over["drain_seconds"] < 30.0
    # Acceptance 4: multi-worker scale-out — only meaningful where the
    # workers can actually run in parallel.  On a 1-CPU container the
    # sweep still runs and the record is already written; the bar is an
    # explicit SKIP in the test report, never a silent pass (the same
    # pattern as the E18 parallel-compile bar).
    if record["cpus"] < 2 or record["scaleout_workers"] < 2:
        pytest.skip(
            f"{record['cpus']} CPU(s) available; the multi-worker "
            f"scale-out bar requires >= 2 CPUs"
        )
    assert record["scaleout_speedup"] >= 1.3, (
        f"{record['scaleout_workers']}-worker burst only "
        f"{record['scaleout_speedup']:.2f}x one worker on a "
        f"{record['cpus']}-CPU machine"
    )


@pytest.mark.smoke
def test_service_smoke():
    """Fast CI smoke: both tiers correct on DG(2,8), overload bounded."""
    d, k = 2, 8
    table = _compile_table(d, k)
    pairs = _pairs(d, k, 300, SEED)

    for engine in (RouteQueryEngine(d, k),
                   RouteQueryEngine(d, k, table=table)):
        live = _LiveServer(engine)
        try:
            outcome = run_burst("127.0.0.1", live.port, pairs, d=d,
                                pool_size=2, window=64)
            snapshot = fetch_stats("127.0.0.1", live.port)
        finally:
            live.close()
        assert outcome.ok_count == len(pairs)
        assert snapshot["counters"]["server.replies"] == len(pairs)
        assert snapshot["histograms"]["server.latency_seconds"]["p99"] > 0

    # Replies match the library oracle on a sample.
    live = _LiveServer(RouteQueryEngine(d, k, table=table))
    try:
        sample = pairs[:40]
        outcome = run_burst("127.0.0.1", live.port, sample, d=d)
    finally:
        live.close()
    for (x, y), reply in zip(sample, outcome.replies):
        expected = route(x, y, d=d)
        assert reply.distance == len(expected)
        assert len(reply.path) == len(expected)

    # Overload stays bounded and drains cleanly even at smoke scale.
    over = _measure_overload(d, k, table=table, queries=800, max_pending=16)
    assert over["rejected_overload"] > 0
    assert over["answered"] + over["rejected_overload"] == 800
