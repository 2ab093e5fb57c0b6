"""Medium-scale exhaustive validation — wider nets than the unit tests.

These sweep every ordered pair of graphs one size class above the
per-module tests (up to 128 vertices), pinning the full pipeline:
distance functions, both undirected algorithms, wildcard-insensitive path
application, and the numpy kernels, all against each other.  Kept in one
module so the runtime cost (~10 s) is easy to see and control.
"""

from __future__ import annotations

import pytest

from repro.analysis.exact import directed_distance_matrix, undirected_distance_matrix
from repro.core.distance import directed_distance, undirected_distance
from repro.core.routing import (
    shortest_path_undirected,
    shortest_path_unidirectional,
    verify_path,
)
from repro.core.packed import PackedSpace
from repro.core.word import iter_words

MEDIUM = [(2, 6), (2, 7), (3, 4), (5, 3)]


@pytest.mark.parametrize("d,k", MEDIUM, ids=lambda v: str(v))
def test_distance_functions_match_matrices_everywhere(d, k):
    directed = directed_distance_matrix(d, k)
    undirected = undirected_distance_matrix(d, k)
    space = PackedSpace(d, k)
    words = list(iter_words(d, k))
    for x in words:
        xi = space.pack(x)
        for y in words:
            yi = space.pack(y)
            assert directed_distance(x, y) == directed[xi, yi]
            assert undirected_distance(x, y, "suffix_tree") == undirected[xi, yi]


@pytest.mark.parametrize("d,k", [(2, 6), (3, 4)], ids=lambda v: str(v))
def test_both_undirected_methods_agree_everywhere(d, k):
    words = list(iter_words(d, k))
    for x in words:
        for y in words:
            assert undirected_distance(x, y, "matching") == undirected_distance(
                x, y, "suffix_tree"
            ), (x, y)


@pytest.mark.parametrize("d,k", [(2, 6), (3, 4)], ids=lambda v: str(v))
def test_all_routes_verify_under_every_wildcard(d, k):
    undirected = undirected_distance_matrix(d, k)
    space = PackedSpace(d, k)
    words = list(iter_words(d, k))
    for x in words:
        xi = space.pack(x)
        for y in words:
            path = shortest_path_undirected(x, y)
            assert len(path) == undirected[xi, space.pack(y)]
            for fill in range(d):
                assert verify_path(x, y, path, d, wildcard=fill), (x, y, fill)


@pytest.mark.parametrize("d,k", [(2, 7), (5, 3)], ids=lambda v: str(v))
def test_directed_routes_exhaustive(d, k):
    directed = directed_distance_matrix(d, k)
    space = PackedSpace(d, k)
    words = list(iter_words(d, k))
    for x in words:
        xi = space.pack(x)
        for y in words:
            path = shortest_path_unidirectional(x, y)
            assert len(path) == directed[xi, space.pack(y)]
            assert verify_path(x, y, path, d)


def test_distance_symmetry_full_matrix():
    import numpy as np

    for d, k in [(2, 7), (3, 4)]:
        matrix = undirected_distance_matrix(d, k)
        assert np.array_equal(matrix, matrix.T)


def test_triangle_inequality_full_matrix():
    import numpy as np

    d, k = 2, 5
    matrix = undirected_distance_matrix(d, k).astype(np.int32)
    n = matrix.shape[0]
    # D[x,z] <= D[x,y] + D[y,z] for all triples, vectorised per y.
    for y in range(n):
        via_y = matrix[:, y][:, None] + matrix[y, :][None, :]
        assert (matrix <= via_y).all()


def test_large_matrices_bfs_vs_formula():
    """DG(2,8) and DG(3,5): 65k/59k pair matrices, formula == BFS."""
    import numpy as np

    from repro.analysis.exact import directed_bfs_distance_matrix

    for d, k in [(2, 8), (3, 5)]:
        assert np.array_equal(
            directed_distance_matrix(d, k), directed_bfs_distance_matrix(d, k)
        )


def test_large_sampled_pure_function_agreement():
    """k = 10 words: the three undirected methods agree on random pairs."""
    import random

    rng = random.Random(1990)
    for _ in range(120):
        k = 10
        x = tuple(rng.randrange(2) for _ in range(k))
        y = tuple(rng.randrange(2) for _ in range(k))
        a = undirected_distance(x, y, "matching")
        b = undirected_distance(x, y, "suffix_tree")
        from repro.core.distance import undirected_distance_brute

        c = undirected_distance_brute(x, y)
        assert a == b == c
        path = shortest_path_undirected(x, y)
        assert len(path) == a
        assert verify_path(x, y, path, 2, wildcard=rng.randrange(2))
