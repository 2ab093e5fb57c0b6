"""E17 — Routed-message throughput: packed words + memoized batch routing.

The paper's asymptotic promise is O(k) planning per pair; this bench
measures what the *simulator* actually sustains per second, and what the
performance layer of this PR buys on top:

1. **Simulator throughput** — routed messages/sec on a steady-state
   workload with repeated (source, destination) pairs, comparing the
   uncached tuple baseline (every message re-plans its witness) against
   the warm :class:`RouteCache` fast path.  The acceptance bar is a
   >= 5x speedup on the planning-dominated warm-cache workload (large
   k), with a >= 2x floor on the hop-bound small graphs where delivery
   itself is irreducible O(hops) work.
2. **Plan-only throughput** — plans/sec, cold vs. warm cache.
3. **Shift arithmetic** — per-hop word updates/sec, tuple rebuilds vs.
   O(1) packed div-mod (:mod:`repro.core.packed`).
4. **Distance rows** — BFS row construction, the generic tuple-dict
   ``graphs.traversal.bfs_distances`` vs. the packed bytearray row of
   :mod:`repro.core.batch` (the array kernel).
5. **Crossover sweep** — ``undirected_witness`` via the O(k²) matching
   method vs. the O(k) suffix tree across k; the last k where matching
   wins is the measured value behind ``distance.AUTO_METHOD_CUTOVER``
   (previously a hard-coded guess).

Results are appended to ``BENCH_routing_throughput.json`` at the repo
root as one trajectory record per run (in the :mod:`repro.benchio`
``{"meta": ..., "results": [...]}`` envelope), so regressions are
visible over time.  The small ``test_throughput_smoke`` variant runs the whole
machinery on a toy grid in well under a second for CI smoke jobs
(``make bench-smoke``).
"""

from __future__ import annotations

import os
import random
import time
from typing import Dict, List, Tuple

from repro.analysis.tables import format_table
from repro.benchio import append_record
from repro.core.batch import distances_row
from repro.core.distance import (
    AUTO_METHOD_CUTOVER,
    undirected_witness_matching,
    undirected_witness_scan,
    undirected_witness_suffix_tree,
)
from repro.core.packed import PackedSpace
from repro.core.word import left_shift, random_word, right_shift
from repro.graphs.debruijn import undirected_graph
from repro.graphs.traversal import bfs_distances
from repro.network.router import BidirectionalOptimalRouter
from repro.network.simulator import Simulator, run_workload

GRID: Tuple[Tuple[int, int], ...] = ((2, 8), (2, 12), (4, 6))
JSON_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                         "BENCH_routing_throughput.json")

#: Simulator workload shape: repeated OD pairs model steady-state traffic.
DISTINCT_PAIRS = 40
REPEATS = 25


def _workload(d: int, k: int, distinct: int, repeats: int):
    """(time, source, destination) stream cycling over ``distinct`` pairs."""
    rng = random.Random(97 * d + k)
    pairs = []
    while len(pairs) < distinct:
        x, y = random_word(d, k, rng), random_word(d, k, rng)
        if x != y:
            pairs.append((x, y))
    injections = []
    t = 0.0
    for _ in range(repeats):
        for x, y in pairs:
            injections.append((t, x, y))
            t += 0.1  # stagger so queueing does not dominate planning
    return pairs, injections


def _simulator_messages_per_sec(d: int, k: int, router, injections,
                                rounds: int = 3) -> float:
    """Best-of-``rounds`` delivered messages/sec (min elapsed kills noise)."""
    best = float("inf")
    for _ in range(rounds):
        simulator = Simulator(d, k)
        start = time.perf_counter()
        stats = run_workload(simulator, router, injections)
        elapsed = time.perf_counter() - start
        assert stats.delivered_count == len(injections)
        best = min(best, elapsed)
    return len(injections) / best


def _measure_simulator(d: int, k: int, distinct: int = DISTINCT_PAIRS,
                       repeats: int = REPEATS) -> Dict[str, float]:
    # Concrete (wildcard-free) paths: wildcard hops probe link costs at
    # every site, a load-balancing feature orthogonal to the planning
    # throughput this bench isolates.
    pairs, injections = _workload(d, k, distinct, repeats)
    uncached = _simulator_messages_per_sec(
        d, k, BidirectionalOptimalRouter(cache_size=0, use_wildcards=False),
        injections)
    warm_router = BidirectionalOptimalRouter(cache_size=4 * distinct,
                                             use_wildcards=False)
    for x, y in pairs:  # warm the cache: one planning pass per distinct pair
        warm_router.plan(x, y)
    warm = _simulator_messages_per_sec(d, k, warm_router, injections)
    return {
        "uncached_msgs_per_sec": uncached,
        "warm_cache_msgs_per_sec": warm,
        "speedup": warm / uncached,
        "cache_hit_rate": warm_router.cache.hit_rate,
    }


def _measure_plan_only(d: int, k: int, count: int = 400) -> Dict[str, float]:
    rng = random.Random(13 * d + k)
    pairs = [(random_word(d, k, rng), random_word(d, k, rng))
             for _ in range(count)]
    cold_router = BidirectionalOptimalRouter(cache_size=0)
    start = time.perf_counter()
    for x, y in pairs:
        cold_router.plan(x, y)
    cold = count / (time.perf_counter() - start)
    warm_router = BidirectionalOptimalRouter(cache_size=2 * count)
    for x, y in pairs:
        warm_router.plan(x, y)
    start = time.perf_counter()
    for x, y in pairs:
        warm_router.plan(x, y)
    warm = count / (time.perf_counter() - start)
    return {"cold_plans_per_sec": cold, "warm_plans_per_sec": warm,
            "speedup": warm / cold}


def _measure_shifts(d: int, k: int, words: int = 200) -> Dict[str, float]:
    """Per-hop arithmetic: k alternating shifts per word, tuple vs. packed."""
    rng = random.Random(7 * d + k)
    space = PackedSpace(d, k)
    tuples = [random_word(d, k, rng) for _ in range(words)]
    packed = [space.pack(w) for w in tuples]
    digits = [rng.randrange(d) for _ in range(k)]
    ops = words * k

    start = time.perf_counter()
    for w in tuples:
        for i, a in enumerate(digits):
            w = left_shift(w, a) if i % 2 == 0 else right_shift(w, a)
    tuple_rate = ops / (time.perf_counter() - start)

    left, right = space.left, space.right
    start = time.perf_counter()
    for v in packed:
        for i, a in enumerate(digits):
            v = left(v, a) if i % 2 == 0 else right(v, a)
    packed_rate = ops / (time.perf_counter() - start)
    return {"tuple_shifts_per_sec": tuple_rate,
            "packed_shifts_per_sec": packed_rate,
            "speedup": packed_rate / tuple_rate}


def _measure_bfs_rows(d: int, k: int, sources: int = 8) -> Dict[str, float]:
    rng = random.Random(3 * d + k)
    space = PackedSpace(d, k)
    words = [random_word(d, k, rng) for _ in range(sources)]
    graph = undirected_graph(d, k)

    start = time.perf_counter()
    for w in words:
        bfs_distances(graph, w)
    tuple_rate = sources / (time.perf_counter() - start)

    start = time.perf_counter()
    for w in words:
        distances_row(space, space.pack(w))
    packed_rate = sources / (time.perf_counter() - start)
    return {"tuple_rows_per_sec": tuple_rate,
            "packed_rows_per_sec": packed_rate,
            "speedup": packed_rate / tuple_rate}


def _measure_crossover(ks=(8, 10, 12, 14, 16, 20), pairs_per_k: int = 300,
                       repetitions: int = 3) -> Dict[str, object]:
    """The AUTO_METHOD_CUTOVER measurement: last k where matching wins.

    The diagonal scan is timed on the same pairs and reported beside the
    two paper algorithms; it takes no part in the cutover.
    """
    rng = random.Random(0xC05)
    sweep: List[Dict[str, float]] = []
    cutover = 0
    for k in ks:
        pairs = [(random_word(2, k, rng), random_word(2, k, rng))
                 for _ in range(pairs_per_k)]
        timings = {}
        for label, fn in (("matching", undirected_witness_matching),
                          ("suffix_tree", undirected_witness_suffix_tree),
                          ("scan", undirected_witness_scan)):
            best = float("inf")
            for _ in range(repetitions):
                start = time.perf_counter()
                for x, y in pairs:
                    fn(x, y)
                best = min(best, time.perf_counter() - start)
            timings[label] = best / pairs_per_k
        ratio = timings["matching"] / timings["suffix_tree"]
        sweep.append({"k": k, "matching_us": timings["matching"] * 1e6,
                      "suffix_tree_us": timings["suffix_tree"] * 1e6,
                      "scan_us": timings["scan"] * 1e6,
                      "ratio": ratio})
    for entry in sweep:  # first crossing: last k before matching loses
        if entry["ratio"] <= 1.0:
            cutover = entry["k"]
        else:
            break
    return {"sweep": sweep, "measured_cutover": cutover}


def _append_trajectory(record: Dict[str, object]) -> None:
    append_record(JSON_PATH, record, bench="routing_throughput")


def test_routing_throughput(benchmark, report):
    """The full measurement grid; writes BENCH_routing_throughput.json."""

    def measure():
        record: Dict[str, object] = {"grid": []}
        for d, k in GRID:
            entry: Dict[str, object] = {"d": d, "k": k}
            entry["simulator"] = _measure_simulator(d, k)
            entry["plan_only"] = _measure_plan_only(d, k)
            entry["shifts"] = _measure_shifts(d, k)
            entry["bfs_rows"] = _measure_bfs_rows(d, k)
            record["grid"].append(entry)
        record["crossover"] = _measure_crossover()
        return record

    record = benchmark.pedantic(measure, rounds=1, iterations=1)
    _append_trajectory(record)

    rows = []
    for entry in record["grid"]:
        sim = entry["simulator"]
        rows.append([
            f"DG({entry['d']},{entry['k']})",
            sim["uncached_msgs_per_sec"],
            sim["warm_cache_msgs_per_sec"],
            sim["speedup"],
            entry["plan_only"]["speedup"],
            entry["shifts"]["speedup"],
            entry["bfs_rows"]["speedup"],
        ])
    report("E17 — routed throughput (messages/sec) and fast-path speedups\n"
           + format_table(
               ["graph", "uncached msg/s", "warm-cache msg/s", "sim x",
                "plan x", "shift x", "bfs x"], rows, precision=1))
    cross = record["crossover"]
    report("E17 — matching vs suffix-tree crossover (AUTO_METHOD_CUTOVER)\n"
           + format_table(
               ["k", "matching us", "suffix us", "scan us", "ratio"],
               [[r["k"], r["matching_us"], r["suffix_tree_us"], r["scan_us"],
                 r["ratio"]]
                for r in cross["sweep"]], precision=2)
           + f"\nmeasured cutover: k = {cross['measured_cutover']}"
           + f" (distance.AUTO_METHOD_CUTOVER = {AUTO_METHOD_CUTOVER})")

    # Acceptance: >= 5x messages/sec on the warm-cache simulator workload.
    # Planning cost grows with k while per-hop cost is flat, so the 5x bar
    # is set by the planning-dominated grid point (DG(2,12) here); the
    # hop-bound small-k points are reported in full and held to a >= 2x
    # regression floor (delivery itself is irreducible O(hops) work that
    # no amount of route caching can remove).
    speedups = {(e["d"], e["k"]): e["simulator"]["speedup"]
                for e in record["grid"]}
    assert max(speedups.values()) >= 5.0, (
        f"no warm-cache workload reached 5x: {speedups}"
    )
    for (d, k), speedup in speedups.items():
        assert speedup >= 2.0, (
            f"warm-cache speedup regressed below 2x on DG({d},{k}): "
            f"{speedup:.2f}x"
        )
    # The shipped cutover constant must sit inside the measured crossover
    # band.  The ratio curve is nearly flat around 1.0 for mid-range k, so
    # asserting on the exact crossing k would flake; instead require that
    # neither side of the auto dispatch pays a large penalty: matching is
    # within 25% of the suffix tree at the constant itself, and the suffix
    # tree is within 25% at the next sweep step above it.
    by_k = {r["k"]: r["ratio"] for r in cross["sweep"]}
    assert AUTO_METHOD_CUTOVER in by_k, "cutover constant not in sweep grid"
    assert by_k[AUTO_METHOD_CUTOVER] <= 1.25, (
        f"AUTO_METHOD_CUTOVER={AUTO_METHOD_CUTOVER} is stale: matching is "
        f"{by_k[AUTO_METHOD_CUTOVER]:.2f}x the suffix tree there"
    )
    above = min((k for k in by_k if k > AUTO_METHOD_CUTOVER), default=None)
    if above is not None:
        assert by_k[above] >= 0.80, (
            f"AUTO_METHOD_CUTOVER={AUTO_METHOD_CUTOVER} is stale: matching "
            f"still clearly wins at k={above} "
            f"(ratio {by_k[above]:.2f})"
        )


def test_throughput_smoke():
    """Fast CI smoke: the cache fast path beats the uncached baseline.

    Runs the same machinery as the full bench on a single small graph
    with a tiny workload; asserts a conservative 2x so the job fails
    loudly on a real regression without flaking on noise.
    """
    d, k = 2, 8
    result = _measure_simulator(d, k, distinct=12, repeats=10)
    assert result["cache_hit_rate"] > 0.9
    assert result["speedup"] >= 2.0, (
        f"warm-cache smoke speedup collapsed: {result['speedup']:.2f}x"
    )
    shifts = _measure_shifts(d, k, words=50)
    assert shifts["packed_shifts_per_sec"] > 0
    rows = _measure_bfs_rows(d, k, sources=2)
    assert rows["packed_rows_per_sec"] > rows["tuple_rows_per_sec"]
