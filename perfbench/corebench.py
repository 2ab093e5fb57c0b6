"""``core/`` calls replayed in-process, outside any server.

Each figure is the cost of one public entry point on a workload's own
seeded pairs (the first ``REPLAY`` of its lone-caller stream), so a
``core/`` change can be read here before it shows end to end.
"""

from __future__ import annotations

import random
import time
from typing import Dict, Sequence, Tuple

from perfbench.host import Placement

from repro.cluster.harness import ClusterSpec
from repro.core.batch import undirected_distances_many
from repro.core.routing import route
from repro.core.tables import CompiledRouteTable
from repro.network.resilience import compile_with_failures, repair_route_table

#: Queries replayed per core entry point.
REPLAY = 1000
#: The table-distance graph (its compile is the ``setup_s`` kernel).
TABLE_GRAPH = (2, 12)
#: The cluster-failover graph and node count (the drill kills the last).
#: On DG(2,10) each survivor's repair blocks its event loop, and so its
#: SWIM agent, for about 0.8 s, twice the drill's 0.4 s suspicion timeout;
#: on DG(2,9) it is about 0.2 s, still comparable to the repair delay.
CLUSTER_K, CLUSTER_NODES = 9, 4

Word = Tuple[int, ...]


def _per_call_us(fn, items) -> float:
    started = time.perf_counter()
    for item in items:
        fn(*item)
    return 1e6 * (time.perf_counter() - started) / len(items)


def dead_sites() -> range:
    """The packed sites of the drill's victim (the last node's range)."""
    spec = ClusterSpec(d=2, k=CLUSTER_K, nodes=CLUSTER_NODES)
    return range(*spec.site_ranges()[-1])


def replay(pairs: Sequence[Tuple[Word, Word]], flush_size: int,
           rng: random.Random, placement: Placement) -> Dict[str, float]:
    """Time each ``core/`` entry point the workloads reach.

    ``pairs`` are the workload's own; the table read uses uniform
    DG(2, 12) pairs from ``rng`` because only that graph has a table.
    The compile may use every allowed CPU, as it does at ``setup_s``.
    """
    pairs = list(pairs[:REPLAY])
    out: Dict[str, float] = {}

    with placement.unpinned():
        started = time.perf_counter()
        table = CompiledRouteTable.compile(*TABLE_GRAPH)
        out["core.compile_s"] = time.perf_counter() - started

    space = table.space
    k = TABLE_GRAPH[1]
    table_pairs = [(tuple(rng.getrandbits(1) for _ in range(k)),
                    tuple(rng.getrandbits(1) for _ in range(k)))
                   for _ in range(REPLAY)]

    def table_read(x, y):
        table.distance_packed(space.pack_checked(x), space.pack_checked(y))

    out["core.table_read_us"] = _per_call_us(table_read, table_pairs)
    out["core.route_directed_us"] = _per_call_us(
        lambda x, y: route(x, y, 2, directed=True, use_wildcards=False), pairs)
    out["core.route_undirected_us"] = _per_call_us(
        lambda x, y: route(x, y, 2, directed=False, use_wildcards=False),
        pairs)
    size = max(1, flush_size)
    groups = [(pairs[i][1], [x for x, _ in pairs[i:i + size]])
              for i in range(0, len(pairs) - size + 1, size)]
    out["core.distances_many_us"] = _per_call_us(
        undirected_distances_many, groups)

    healthy = compile_with_failures(2, CLUSTER_K, failed=())
    started = time.perf_counter()
    repair_route_table(healthy, dead_sites())
    out["core.repair_s"] = time.perf_counter() - started
    return out
