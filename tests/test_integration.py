"""Cross-module integration tests: core × graphs × network × analysis."""

from __future__ import annotations

import random

import pytest

from repro.analysis.exact import directed_distance_matrix, undirected_distance_matrix
from repro.core.distance import directed_distance, undirected_distance
from repro.core.routing import path_words
from repro.core.packed import PackedSpace
from repro.core.word import iter_words
from repro.graphs.debruijn import undirected_graph
from repro.graphs.embeddings import embed_ring
from repro.graphs.sequences import hamiltonian_cycle
from repro.network.message import decode_message, encode_message
from repro.network.router import (
    BidirectionalOptimalRouter,
    TableDrivenRouter,
    TrivialRouter,
    UnidirectionalOptimalRouter,
)
from repro.network.simulator import Simulator, run_workload
from repro.network.traffic import all_pairs_once, random_pairs
from tests.conftest import all_words


def test_simulated_hop_counts_equal_matrix_distances():
    """End to end: simulate every pair and compare with the numpy matrix."""
    d, k = 2, 3
    matrix = undirected_distance_matrix(d, k)
    space = PackedSpace(d, k)
    sim = Simulator(d, k)
    workload = list(all_pairs_once(d, k, spacing=20.0))
    stats = run_workload(sim, BidirectionalOptimalRouter(), workload)
    assert stats.delivered_count == len(workload)
    for message in stats.delivered:
        expected = matrix[space.pack(message.source), space.pack(message.destination)]
        assert message.hop_count == expected


def test_directed_simulation_matches_directed_matrix():
    d, k = 2, 3
    matrix = directed_distance_matrix(d, k)
    space = PackedSpace(d, k)
    sim = Simulator(d, k, bidirectional=False)
    workload = list(all_pairs_once(d, k, spacing=20.0))
    stats = run_workload(sim, UnidirectionalOptimalRouter(), workload)
    for message in stats.delivered:
        expected = matrix[space.pack(message.source), space.pack(message.destination)]
        assert message.hop_count == expected


def test_three_routers_agree_on_delivery_but_not_cost():
    d, k = 2, 4
    workload = random_pairs(d, k, count=60, spacing=5.0, rng=random.Random(2))
    results = {}
    for router in (
        BidirectionalOptimalRouter(),
        TableDrivenRouter(undirected_graph(d, k)),
        TrivialRouter(),
    ):
        sim = Simulator(d, k)
        stats = run_workload(sim, router, list(workload))
        assert stats.delivered_count == len(workload)
        results[router.name] = stats.mean_hops()
    # Both shortest-path routers agree; the trivial router pays full k.
    assert results["optimal-bidirectional[auto]"] == pytest.approx(results["table-driven[bi]"])
    assert results["trivial"] == pytest.approx(k)
    assert results["optimal-bidirectional[auto]"] < results["trivial"]


def test_wire_codec_survives_a_simulated_journey():
    """Encode, decode, then actually route with the decoded path."""
    d, k = 2, 4
    x, y = (0, 1, 1, 0), (1, 0, 0, 1)
    sim = Simulator(d, k)
    message = sim.send(x, y, BidirectionalOptimalRouter(use_wildcards=False))
    blob = encode_message(message)
    control, source, destination, path, _ = decode_message(blob)
    assert (source, destination) == (x, y)
    words = path_words(source, path, d)
    assert words[-1] == destination
    sim.run()
    assert message.delivered_at is not None


def test_ring_embedding_traffic_is_single_hop():
    """Neighbor traffic along the embedded ring costs exactly 1 hop."""
    d, k = 2, 4
    ring = embed_ring(d, k)
    sim = Simulator(d, k)
    router = BidirectionalOptimalRouter()
    t = 0.0
    for u, v in zip(ring, ring[1:] + ring[:1]):
        sim.send(u, v, router, at=t)
        t += 5.0
    stats = sim.run()
    assert stats.delivered_count == len(ring)
    assert all(m.hop_count == 1 for m in stats.delivered)


def test_hamiltonian_cycle_vertices_cover_word_space():
    cycle = hamiltonian_cycle(2, 4)
    assert set(cycle) == set(iter_words(2, 4))


def test_distance_functions_against_next_hop_walk():
    """Walking greedy next hops from the table reproduces the distance."""
    from repro.graphs.traversal import next_hop_table

    d, k = 2, 3
    g = undirected_graph(d, k)
    for target in all_words(d, k):
        table = next_hop_table(g, target)
        for source in all_words(d, k):
            steps = 0
            current = source
            while current != target:
                current = table[current]
                steps += 1
            assert steps == undirected_distance(source, target)


def test_undirected_never_worse_than_directed_in_simulation():
    d, k = 2, 4
    workload = random_pairs(d, k, count=40, spacing=5.0, rng=random.Random(9))
    sim_bi = Simulator(d, k)
    stats_bi = run_workload(sim_bi, BidirectionalOptimalRouter(), list(workload))
    sim_uni = Simulator(d, k, bidirectional=False)
    stats_uni = run_workload(sim_uni, UnidirectionalOptimalRouter(), list(workload))
    for m_bi, m_uni in zip(stats_bi.delivered, stats_uni.delivered):
        assert m_bi.hop_count <= m_uni.hop_count


def test_public_api_exports_work_together():
    import repro

    x = repro.parse_word("0110", 2)
    y = repro.parse_word("1110", 2)
    assert repro.undirected_distance(x, y) == 2
    path = repro.route(x, y, d=2)
    assert repro.verify_path(x, y, path, 2)
    assert repro.directed_distance(x, y) == 4
    assert "L" in repro.format_path(path)
