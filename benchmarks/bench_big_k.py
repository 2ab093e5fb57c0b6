"""E22 — Big-k scale: array-native BFS compile + lazy sharded serving.

Two measurements around :mod:`repro.core.arraybfs` and
:mod:`repro.core.shards`, the PR-6 answer to "the compiled-table path
stops at DG(2,12)":

1. **Kernel speedup** — single-core wall-clock to compile the DG(2,12)
   undirected next-hop table with the python reference BFS
   (:func:`~repro.core.arraybfs.reference_table_rows`) vs the
   whole-frontier numpy kernel, asserted byte-identical and >= 5x
   faster.  This is the compiler the lazy shard tier runs on demand, so
   its speed bounds how fast cold destinations become O(1).
2. **Sharded serving vs memory budget** — sustained resolve throughput
   on DG(2,16) (N = 65536, full table ~8 GB: cannot exist) through a
   :class:`~repro.core.shards.ShardedRouteTable` at a sweep of byte
   budgets, over a zipf-ish workload whose hot set spans more groups
   than the smallest budget can hold.  Shows the knee: when the budget
   covers the working set qps is table-speed; below it, LRU churn pays
   a shard recompile per eviction.  The same pairs are also answered by
   a :class:`~repro.service.engine.RouteQueryEngine` with no table and
   no shards (the diagonal-scan planner tier), reported beside the
   budget rows with no bar: the data for keeping or retiring the tier.

Results append to ``BENCH_big_k.json`` at the repo root in the
:mod:`repro.benchio` envelope.  ``test_big_k_smoke`` runs the same
machinery on DG(2,10) for CI (array-kernel byte-identity against the
reference, then 500 queries through a 4 MB shard budget).
"""

from __future__ import annotations

import os
import random
import time
from typing import Dict, List, Tuple

from repro.analysis.tables import format_kv_block, format_table
from repro.benchio import append_record
from repro.core.arraybfs import reference_table_rows
from repro.core.packed import PackedSpace
from repro.core.parallel import compile_table_buffers
from repro.core.shards import ShardedRouteTable
from repro.core.tables import CompiledRouteTable
from repro.service.engine import RouteQueryEngine

#: The kernel-speedup graph: the biggest the python reference can still
#: compile in benchmark-friendly time (~10 s serial).
KERNEL_GRAPH: Tuple[int, int] = (2, 12)

#: Acceptance bar: the array kernel must beat the python loop by this
#: factor on one core (ISSUE 6 tentpole).
KERNEL_SPEEDUP_MIN = 5.0

#: The serving graph: N = 65536, full table 8 GB — shard-tier territory.
SERVE_GRAPH: Tuple[int, int] = (2, 16)

#: Resident-shard byte budgets to sweep (MiB).
BUDGET_SWEEP_MB: Tuple[int, ...] = (8, 32, 64)

#: Hot destination groups in the serving workload — sized to overflow
#: the smallest budget (8 MiB / 512 KiB shards = 16 resident) so the
#: sweep actually shows eviction churn.
HOT_GROUPS = 24

JSON_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                         "BENCH_big_k.json")


def _measure_kernel_speedup(d: int, k: int) -> Dict[str, object]:
    """Python reference vs array-kernel compile, byte-identity checked."""
    start = time.perf_counter()
    py_dist, py_act = reference_table_rows(d, k, range(d**k))
    python_seconds = time.perf_counter() - start

    start = time.perf_counter()
    ar_dist, ar_act = compile_table_buffers(d, k, workers=1)
    array_seconds = time.perf_counter() - start

    assert bytes(ar_dist) == bytes(py_dist), "array kernel distance bytes diverged"
    assert bytes(ar_act) == bytes(py_act), "array kernel action bytes diverged"
    return {
        "graph": {"d": d, "k": k, "n": d**k},
        "python_seconds": python_seconds,
        "array_seconds": array_seconds,
        "speedup": python_seconds / array_seconds,
        "byte_identical": True,
    }


def _serving_workload(d: int, k: int, rows_per_shard: int,
                      queries: int, seed: int) -> List[Tuple[int, int]]:
    """(source, destination) pairs over HOT_GROUPS destination groups.

    Group popularity is harmonic (zipf-ish) so budgets between "a few
    shards" and "the whole hot set" land on different hit rates.
    """
    n = d**k
    rng = random.Random(seed)
    groups = rng.sample(range(n // rows_per_shard), HOT_GROUPS)
    weights = [1.0 / (rank + 1) for rank in range(HOT_GROUPS)]
    pairs = []
    for _ in range(queries):
        group = rng.choices(groups, weights)[0]
        dest = group * rows_per_shard + rng.randrange(rows_per_shard)
        pairs.append((rng.randrange(n), dest))
    return pairs


def _measure_serving(d: int, k: int, budgets_mb: Tuple[int, ...],
                     rows_per_shard: int = 4,
                     queries: int = 4000, seed: int = 0xE22) -> List[Dict[str, object]]:
    """Sustained resolve qps through the shard tier per byte budget.

    ``synchronous=True`` charges every cold shard compile to the
    measured wall-clock — the honest cost of an under-provisioned
    budget; the background mode would hide it in the planner tier.
    """
    pairs = _serving_workload(d, k, rows_per_shard, queries, seed)
    rows: List[Dict[str, object]] = []
    for budget_mb in budgets_mb:
        manager = ShardedRouteTable(
            d, k, byte_budget=budget_mb << 20,
            rows_per_shard=rows_per_shard, synchronous=True)
        start = time.perf_counter()
        for source, dest in pairs:
            answer = manager.resolve_packed(source, dest, want_path=False)
            assert answer is not None
        elapsed = time.perf_counter() - start
        stats = manager.stats()
        manager.close()
        rows.append({
            "budget_mb": budget_mb,
            "qps": queries / elapsed,
            "seconds": elapsed,
            "hit_rate": stats["hits"] / max(1, stats["hits"] + stats["misses"]),
            "compiled": stats["compiled"],
            "evictions": stats["evictions"],
            "resident_bytes": stats["resident_bytes"],
        })
    return rows


def _measure_planner(d: int, k: int, rows_per_shard: int = 4,
                     queries: int = 4000, seed: int = 0xE22) -> Dict[str, float]:
    """The serving pairs through the engine's planner tier alone."""
    space = PackedSpace(d, k)
    pairs = [(space.unpack(source), space.unpack(dest)) for source, dest
             in _serving_workload(d, k, rows_per_shard, queries, seed)]
    engine = RouteQueryEngine(d, k)
    start = time.perf_counter()
    for source, dest in pairs:
        engine.resolve(source, dest, False, want_path=False)
    elapsed = time.perf_counter() - start
    return {"qps": queries / elapsed, "seconds": elapsed}


def test_big_k(benchmark, report):
    """The full E22 measurement; writes BENCH_big_k.json."""
    d, k = KERNEL_GRAPH

    def measure():
        record: Dict[str, object] = {
            "kernel": _measure_kernel_speedup(*KERNEL_GRAPH),
            "serving": {
                "graph": {"d": SERVE_GRAPH[0], "k": SERVE_GRAPH[1],
                          "n": SERVE_GRAPH[0]**SERVE_GRAPH[1]},
                "hot_groups": HOT_GROUPS,
                "budgets": _measure_serving(*SERVE_GRAPH, BUDGET_SWEEP_MB),
                "planner_only": _measure_planner(*SERVE_GRAPH),
            },
        }
        return record

    record = benchmark.pedantic(measure, rounds=1, iterations=1)
    append_record(JSON_PATH, record, bench="big_k")

    kern = record["kernel"]
    report(f"E22 — DG({d},{k}) single-core compile kernels\n"
           + format_kv_block("array-native BFS vs python loop", [
               ("python seconds", round(kern["python_seconds"], 2)),
               ("array seconds", round(kern["array_seconds"], 2)),
               ("speedup", round(kern["speedup"], 2)),
               ("byte identical", kern["byte_identical"]),
           ]))
    serve = record["serving"]
    report(f"E22 — DG({serve['graph']['d']},{serve['graph']['k']}) sharded "
           f"serving vs byte budget ({HOT_GROUPS} hot groups)\n"
           + format_table(
               ["budget MiB", "qps", "hit rate", "compiled", "evictions"],
               [[r["budget_mb"], r["qps"], r["hit_rate"], r["compiled"],
                 r["evictions"]] for r in serve["budgets"]], precision=2)
           + f"\nplanner only (no table, no shards): "
           f"{serve['planner_only']['qps']:.0f} qps")

    # Acceptance (ISSUE 6): >= 5x single-core, byte-identical.
    assert kern["speedup"] >= KERNEL_SPEEDUP_MIN, (
        f"array kernel speedup {kern['speedup']:.2f}x below "
        f"{KERNEL_SPEEDUP_MIN}x on DG({d},{k})"
    )
    # The sweep must show budget actually buying throughput: the
    # largest budget holds the hot set (no evictions) and serves at
    # least as fast as the thrashing smallest budget.
    budgets = serve["budgets"]
    assert budgets[-1]["evictions"] == 0
    assert budgets[-1]["qps"] >= budgets[0]["qps"]


def test_big_k_smoke(report):
    """Fast CI leg (the big-k-smoke job): DG(2,10) identity + a 4 MB
    shard budget serving 500 queries correctly."""
    d, k = 2, 10
    n = d**k

    py_dist, py_act = reference_table_rows(d, k, range(n))
    ar_dist, ar_act = compile_table_buffers(d, k, workers=1)
    assert bytes(ar_dist) == bytes(py_dist)
    assert bytes(ar_act) == bytes(py_act)
    report(f"E22 smoke — DG({d},{k}) array kernel byte-identical")
    table = CompiledRouteTable(d, k, False, bytes(py_act), bytes(py_dist))

    # 500 queries through a 4 MB budget, every answer checked against
    # the full table (eviction churn is covered in tests/test_shards.py;
    # DG(2,10)'s entire table is 2 MB, so this budget never evicts).
    manager = ShardedRouteTable(d, k, byte_budget=4 << 20,
                                rows_per_shard=32, synchronous=True)
    rng = random.Random(0xE22)
    for _ in range(500):
        source, dest = rng.randrange(n), rng.randrange(n)
        distance, actions = manager.resolve_packed(source, dest,
                                                   want_path=True)
        assert distance == table.distance_packed(source, dest)
        assert actions == table.path_actions(source, dest)
    stats = manager.stats()
    manager.close()
    assert stats["resident_bytes"] <= 4 << 20
    report("E22 smoke — 500 queries OK through a 4 MB shard budget: "
           f"{stats['hits']} hits, {stats['compiled']} compiles, "
           f"{stats['resident_bytes']} resident bytes")
