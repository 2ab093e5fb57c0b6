"""E22 — Big-k scale: array-native BFS compile + planner serving.

Two measurements of the package at big k:

1. **Kernel speedup** — single-core wall-clock to compile the DG(2,12)
   undirected next-hop table with the python reference BFS
   (:func:`~repro.core.arraybfs.reference_table_rows`) vs the
   whole-frontier numpy kernel, asserted byte-identical and >= 5x
   faster.
2. **Planner serving** — resolve throughput on DG(2,16) (N = 65536,
   full table ~8 GB: cannot exist) through a
   :class:`~repro.service.engine.RouteQueryEngine` with no table, i.e.
   the diagonal-scan planner tier, over a zipf-ish workload whose
   destinations fall in 24 hot groups.  Reported with no bar; the pairs
   are those of every earlier E22 record, so the row stays comparable.

Results append to ``BENCH_big_k.json`` at the repo root in the
:mod:`repro.benchio` envelope.  ``test_big_k_smoke`` runs the kernel
byte-identity check on DG(2,10) for CI.
"""

from __future__ import annotations

import os
import random
import time
from typing import Dict, List, Tuple

from repro.analysis.tables import format_kv_block
from repro.benchio import append_record
from repro.core.arraybfs import reference_table_rows
from repro.core.packed import PackedSpace
from repro.core.parallel import compile_table_buffers
from repro.service.engine import RouteQueryEngine

#: The kernel-speedup graph: the biggest the python reference can still
#: compile in benchmark-friendly time (~10 s serial).
KERNEL_GRAPH: Tuple[int, int] = (2, 12)

#: Acceptance bar: the array kernel must beat the python loop by this
#: factor on one core (ISSUE 6 tentpole).
KERNEL_SPEEDUP_MIN = 5.0

#: The serving graph: N = 65536, full table 8 GB — planner territory.
SERVE_GRAPH: Tuple[int, int] = (2, 16)

#: Hot destination groups in the serving workload.
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


def _serving_workload(d: int, k: int, group_rows: int,
                      queries: int, seed: int) -> List[Tuple[int, int]]:
    """(source, destination) pairs over HOT_GROUPS destination groups.

    A group is ``group_rows`` consecutive packed destinations; group
    popularity is harmonic (zipf-ish).
    """
    n = d**k
    rng = random.Random(seed)
    groups = rng.sample(range(n // group_rows), HOT_GROUPS)
    weights = [1.0 / (rank + 1) for rank in range(HOT_GROUPS)]
    pairs = []
    for _ in range(queries):
        group = rng.choices(groups, weights)[0]
        dest = group * group_rows + rng.randrange(group_rows)
        pairs.append((rng.randrange(n), dest))
    return pairs


def _measure_planner(d: int, k: int, group_rows: int = 4,
                     queries: int = 4000, seed: int = 0xE22) -> Dict[str, float]:
    """The serving pairs through the engine's planner tier alone."""
    space = PackedSpace(d, k)
    pairs = [(space.unpack(source), space.unpack(dest)) for source, dest
             in _serving_workload(d, k, group_rows, queries, seed)]
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
    report(f"E22 — DG({serve['graph']['d']},{serve['graph']['k']}) planner "
           f"serving ({HOT_GROUPS} hot groups, no table): "
           f"{serve['planner_only']['qps']:.0f} qps")

    # Acceptance (ISSUE 6): >= 5x single-core, byte-identical.
    assert kern["speedup"] >= KERNEL_SPEEDUP_MIN, (
        f"array kernel speedup {kern['speedup']:.2f}x below "
        f"{KERNEL_SPEEDUP_MIN}x on DG({d},{k})"
    )


def test_big_k_smoke(report):
    """Fast CI leg (the big-k-smoke job): DG(2,10) array-kernel
    byte-identity against the python reference."""
    d, k = 2, 10
    n = d**k

    py_dist, py_act = reference_table_rows(d, k, range(n))
    ar_dist, ar_act = compile_table_buffers(d, k, workers=1)
    assert bytes(ar_dist) == bytes(py_dist)
    assert bytes(ar_act) == bytes(py_act)
    report(f"E22 smoke — DG({d},{k}) array kernel byte-identical")
