"""E5 — correctness throughput: every algorithm vs the BFS oracle.

Not a table in the paper, but the substance of Sections 2-3: Property 1,
Theorem 2 and Algorithms 1/2/4 must produce *optimal* routes.  This bench
re-verifies all of them against vectorised BFS ground truth over every
ordered pair of a mid-sized graph while timing the verification sweep —
effectively the distance-computation throughput of the implementation.
"""

from __future__ import annotations

from repro.analysis.exact import directed_distance_matrix, undirected_distance_matrix
from repro.analysis.tables import format_table
from repro.core.distance import directed_distance, undirected_distance
from repro.core.routing import (
    apply_path,
    shortest_path_undirected,
    shortest_path_unidirectional,
)
from repro.core.packed import PackedSpace
from repro.core.word import iter_words

D, K = 2, 5  # 32 vertices, 1024 ordered pairs
SPACE = PackedSpace(D, K)


def _verify_directed():
    matrix = directed_distance_matrix(D, K)
    mismatches = 0
    pairs = 0
    for x in iter_words(D, K):
        for y in iter_words(D, K):
            pairs += 1
            expected = int(matrix[SPACE.pack(x), SPACE.pack(y)])
            if directed_distance(x, y) != expected:
                mismatches += 1
            path = shortest_path_unidirectional(x, y)
            if len(path) != expected or apply_path(x, path, D) != y:
                mismatches += 1
    return pairs, mismatches


def _verify_undirected(method):
    matrix = undirected_distance_matrix(D, K)
    mismatches = 0
    pairs = 0
    for x in iter_words(D, K):
        for y in iter_words(D, K):
            pairs += 1
            expected = int(matrix[SPACE.pack(x), SPACE.pack(y)])
            if undirected_distance(x, y, method) != expected:
                mismatches += 1
            path = shortest_path_undirected(x, y, method=method)
            if len(path) != expected or apply_path(x, path, D, wildcard=1) != y:
                mismatches += 1
    return pairs, mismatches


def test_property1_and_algorithm1_all_pairs(benchmark, report):
    pairs, mismatches = benchmark(_verify_directed)
    assert mismatches == 0
    report(f"E5 — directed DG({D},{K}): {pairs} ordered pairs, {mismatches} mismatches "
           "(Property 1 + Algorithm 1 vs BFS)")


def test_theorem2_algorithm2_all_pairs(benchmark, report):
    pairs, mismatches = benchmark(_verify_undirected, "matching")
    assert mismatches == 0
    report(f"E5 — undirected DG({D},{K}) via Algorithm 2 (matching): "
           f"{pairs} pairs, {mismatches} mismatches")


def test_theorem2_algorithm4_all_pairs(benchmark, report):
    pairs, mismatches = benchmark(_verify_undirected, "suffix_tree")
    assert mismatches == 0
    report(f"E5 — undirected DG({D},{K}) via Algorithm 4 (suffix tree): "
           f"{pairs} pairs, {mismatches} mismatches")


def test_distance_throughput_summary(benchmark, report):
    """Raw pairs/second of the three distance kernels on DG(2, 8)."""
    import time

    words = list(iter_words(2, 8))[:64]

    def throughput():
        rows = []
        for name, fn in [
            ("directed (Property 1)", lambda x, y: directed_distance(x, y)),
            ("undirected (Alg 2)", lambda x, y: undirected_distance(x, y, "matching")),
            ("undirected (Alg 4)", lambda x, y: undirected_distance(x, y, "suffix_tree")),
        ]:
            start = time.perf_counter()
            count = 0
            for x in words:
                for y in words:
                    fn(x, y)
                    count += 1
            elapsed = time.perf_counter() - start
            rows.append((name, count, count / elapsed))
        return rows

    rows = benchmark.pedantic(throughput, rounds=1, iterations=1)
    report("E5 — distance computation throughput on DG(2, 8) labels\n"
           + format_table(["kernel", "pairs", "pairs/s"], rows, precision=0))
