"""Post-install sanity check: ``python -m repro.selfcheck``.

Runs a fast battery of cross-validations (a miniature of the test suite)
and prints one line per check.  Useful after installing into a new
environment or vendoring the package; exits non-zero on any failure.
"""

from __future__ import annotations

import sys
from typing import Callable, List, Tuple

from repro.core.arraybfs import reference_table_rows
from repro.core.batch import distance_matrix
from repro.core.distance import (
    directed_distance,
    undirected_distance,
    undirected_witness_scan,
    undirected_witness_suffix_tree,
)
from repro.core.parallel import compile_table_buffers
from repro.core.routing import (
    path_from_witness,
    shortest_path_undirected,
    shortest_path_unidirectional,
    verify_path,
)
from repro.core.suffix_tree import SuffixTree, build_naive, canonical_form
from repro.core.word import iter_words
from repro.graphs.properties import degree_census, expected_undirected_census
from repro.graphs.debruijn import undirected_graph
from repro.graphs.sequences import debruijn_sequence_lyndon, is_debruijn_sequence


def check_distances() -> str:
    """Property 1 / Theorem 2 vs BFS on every pair of DG(2,5).

    The BFS is the array kernel, itself checked byte for byte against
    the python reference BFS (distances and tie-broken actions).
    """
    d, k = 2, 5
    n = d**k
    for directed in (False, True):
        compiled = compile_table_buffers(d, k, directed, workers=1)
        if compiled != reference_table_rows(d, k, range(n), directed):
            raise AssertionError(
                f"BFS kernel differs from the reference (directed={directed})")
    directed_bfs = distance_matrix(d, k, directed=True)
    undirected_bfs = distance_matrix(d, k, directed=False)
    words = list(iter_words(d, k))
    for i, x in enumerate(words):
        for j, y in enumerate(words):
            if directed_distance(x, y) != directed_bfs[i][j]:
                raise AssertionError(f"directed distance wrong at {x}, {y}")
            if undirected_distance(x, y) != undirected_bfs[i][j]:
                raise AssertionError(f"undirected distance wrong at {x}, {y}")
    return ("BFS kernel == python reference, and Property 1 & Theorem 2 "
            "vs BFS on DG(2,5): 1024 pairs OK")


def check_routing() -> str:
    """Algorithms 1/2/4 land on the destination for all DG(2,4) pairs."""
    d, k = 2, 4
    count = 0
    for x in iter_words(d, k):
        for y in iter_words(d, k):
            p1 = shortest_path_unidirectional(x, y)
            p2 = shortest_path_undirected(x, y)
            if not verify_path(x, y, p1, d) or not verify_path(x, y, p2, d, wildcard=1):
                raise AssertionError(f"routing failed at {x}, {y}")
            count += 2
    return f"Algorithms 1/2/4 landed correctly on {count} routes"


def check_scan() -> str:
    """The diagonal scan vs BFS on DG(2,5) and DG(3,3), vs Algorithm 4 on
    500 seeded DG(2,32) pairs; every path it yields replays."""
    import random

    def replay(x, y, d, want: int) -> None:
        witness = undirected_witness_scan(x, y)
        path = path_from_witness(witness, y, use_wildcards=False)
        if witness.distance != want or len(path) != want:
            raise AssertionError(
                f"scan distance {witness.distance} != {want} at {x}, {y}")
        if not verify_path(x, y, path, d):
            raise AssertionError(f"scan path does not replay at {x}, {y}")

    count = 0
    for d, k in [(2, 5), (3, 3)]:
        bfs = distance_matrix(d, k, directed=False)
        words = list(iter_words(d, k))
        for i, x in enumerate(words):
            for j, y in enumerate(words):
                replay(x, y, d, bfs[i][j])
                count += 1
    rng = random.Random(32)
    for _ in range(500):
        x = tuple(rng.randrange(2) for _ in range(32))
        y = tuple(rng.randrange(2) for _ in range(32))
        replay(x, y, 2, undirected_witness_suffix_tree(x, y).distance)
    return (f"diagonal scan == BFS on {count} pairs of DG(2,5) and DG(3,3), "
            "== Algorithm 4 on 500 DG(2,32) pairs, every path replays")


def check_suffix_trees() -> str:
    """Ukkonen vs the naive builder on random texts."""
    import random

    rng = random.Random(7)
    for _ in range(50):
        text = tuple(rng.randrange(3) for _ in range(rng.randrange(1, 40)))
        if canonical_form(SuffixTree(text)) != canonical_form(build_naive(text)):
            raise AssertionError(f"Ukkonen != naive on {text}")
    return "Ukkonen == naive on 50 random texts"


def check_sequences() -> str:
    """FKM de Bruijn sequences are valid."""
    for d, k in [(2, 5), (3, 3)]:
        if not is_debruijn_sequence(debruijn_sequence_lyndon(d, k), d, k):
            raise AssertionError(f"FKM failed at ({d},{k})")
    return "de Bruijn sequences valid"


def check_census() -> str:
    """Undirected degree census matches the corrected formula."""
    for d, k in [(2, 4), (3, 3)]:
        graph = undirected_graph(d, k)
        if degree_census(graph) != expected_undirected_census(d, k):
            raise AssertionError(f"census mismatch at ({d},{k})")
    return "degree census matches the corrected formula"


CHECKS: List[Tuple[str, Callable[[], str]]] = [
    ("distances", check_distances),
    ("routing", check_routing),
    ("scan", check_scan),
    ("suffix-trees", check_suffix_trees),
    ("sequences", check_sequences),
    ("census", check_census),
]


def main() -> int:
    """Run all checks; 0 on success."""
    failures = 0
    for name, check in CHECKS:
        try:
            detail = check()
        except Exception as exc:  # pragma: no cover - the failure path
            failures += 1
            print(f"[FAIL] {name}: {exc}")
        else:
            print(f"[ ok ] {name}: {detail}")
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all self-checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
