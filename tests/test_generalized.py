"""Tests for generalized de Bruijn graphs GDB(n, d) (Imase–Itoh)."""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distance import directed_distance
from repro.core.packed import PackedSpace
from repro.exceptions import InvalidParameterError, RoutingError
from repro.graphs.generalized import GeneralizedDeBruijnGraph, matches_debruijn

CASES = [(8, 2), (10, 2), (12, 2), (13, 2), (9, 3), (20, 3), (17, 4), (5, 2)]


def _bfs(graph: GeneralizedDeBruijnGraph, source: int):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.out_neighbors(u):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


# ----------------------------------------------------------------------
# Structure
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n,d", CASES)
def test_out_degree_at_most_d_and_all_vertices_covered(n, d):
    graph = GeneralizedDeBruijnGraph(n, d)
    assert graph.order == n
    for u in graph.vertices():
        nbrs = graph.out_neighbors(u)
        assert 1 <= len(nbrs) <= d
        assert all(0 <= v < n for v in nbrs)


@pytest.mark.parametrize("n,d", CASES)
def test_in_neighbors_invert_out_neighbors(n, d):
    graph = GeneralizedDeBruijnGraph(n, d)
    for u in graph.vertices():
        for v in graph.out_neighbors(u):
            assert u in graph.in_neighbors(v), (u, v)
    for v in graph.vertices():
        for u in graph.in_neighbors(v):
            assert v in graph.out_neighbors(u), (u, v)


def test_edges_have_no_loops_or_duplicates():
    graph = GeneralizedDeBruijnGraph(10, 2)
    edges = list(graph.edges())
    assert len(edges) == len(set(edges))
    assert all(u != v for u, v in edges)


def test_invalid_parameters_rejected():
    with pytest.raises(InvalidParameterError):
        GeneralizedDeBruijnGraph(10, 1)
    with pytest.raises(InvalidParameterError):
        GeneralizedDeBruijnGraph(1, 2)
    with pytest.raises(InvalidParameterError):
        GeneralizedDeBruijnGraph(10, 2).distance(10, 0)


# ----------------------------------------------------------------------
# Distance and routing vs BFS
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n,d", CASES)
def test_distance_matches_bfs_all_pairs(n, d):
    graph = GeneralizedDeBruijnGraph(n, d)
    for u in graph.vertices():
        oracle = _bfs(graph, u)
        for v in graph.vertices():
            assert graph.distance(u, v) == oracle[v], (u, v)


@pytest.mark.parametrize("n,d", CASES)
def test_route_lands_on_target_with_optimal_length(n, d):
    graph = GeneralizedDeBruijnGraph(n, d)
    for u in graph.vertices():
        for v in graph.vertices():
            digits = graph.route(u, v)
            assert len(digits) == graph.distance(u, v)
            assert graph.apply_route(u, digits) == v


@pytest.mark.parametrize("n,d", CASES)
def test_diameter_bound_holds(n, d):
    graph = GeneralizedDeBruijnGraph(n, d)
    bound = graph.diameter_bound()
    worst = max(graph.distance(u, v) for u in graph.vertices() for v in graph.vertices())
    assert worst <= bound


def test_apply_route_rejects_bad_digit():
    graph = GeneralizedDeBruijnGraph(10, 2)
    with pytest.raises(RoutingError):
        graph.apply_route(0, [5])


@given(st.integers(2, 40), st.integers(2, 4), st.data())
@settings(max_examples=200)
def test_random_pairs_route_correct(n, d, data):
    graph = GeneralizedDeBruijnGraph(n, d)
    u = data.draw(st.integers(0, n - 1))
    v = data.draw(st.integers(0, n - 1))
    digits = graph.route(u, v)
    assert graph.apply_route(u, digits) == v
    assert len(digits) == graph.distance(u, v)


# ----------------------------------------------------------------------
# Coincidence with classical DG(d, k) when n = d^k
# ----------------------------------------------------------------------


def test_matches_debruijn_predicate():
    assert matches_debruijn(8, 2)
    assert matches_debruijn(27, 3)
    assert not matches_debruijn(10, 2)


@pytest.mark.parametrize("d,k", [(2, 3), (2, 4), (3, 2)])
def test_gdb_at_power_sizes_equals_classical_distance(d, k):
    n = d**k
    graph = GeneralizedDeBruijnGraph(n, d)
    space = PackedSpace(d, k)
    for u in range(n):
        for v in range(n):
            classical = directed_distance(space.unpack(u), space.unpack(v))
            assert graph.distance(u, v) == classical
