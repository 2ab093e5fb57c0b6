"""Tests for the distance functions (Property 1 and Theorem 2) vs BFS."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distance import (
    UndirectedWitness,
    directed_distance,
    directed_distance_brute,
    undirected_distance,
    undirected_distance_brute,
    undirected_witness,
    undirected_witness_matching,
    undirected_witness_scan,
    undirected_witness_suffix_tree,
)
from repro.core.routing import path_from_witness, verify_path
from repro.exceptions import InvalidWordError
from tests.conftest import SMALL_GRAPHS, all_words, bfs_oracle, random_words

WORD_PAIRS = st.integers(min_value=2, max_value=3).flatmap(
    lambda d: st.integers(min_value=1, max_value=14).flatmap(
        lambda k: st.tuples(
            st.lists(st.integers(0, d - 1), min_size=k, max_size=k).map(tuple),
            st.lists(st.integers(0, d - 1), min_size=k, max_size=k).map(tuple),
        )
    )
)


# ----------------------------------------------------------------------
# Property 1: directed distance
# ----------------------------------------------------------------------


@pytest.mark.parametrize("d,k", SMALL_GRAPHS, ids=lambda v: str(v))
def test_directed_distance_equals_bfs_exhaustive(d, k):
    for x in all_words(d, k):
        oracle = bfs_oracle(x, d, directed=True)
        for y in all_words(d, k):
            assert directed_distance(x, y) == oracle[y]


def test_directed_distance_known_values():
    assert directed_distance((0, 0, 0), (1, 1, 1)) == 3  # diameter pair
    assert directed_distance((0, 1, 1), (1, 1, 0)) == 1
    assert directed_distance((0, 1, 0), (0, 1, 0)) == 0


def test_directed_distance_is_asymmetric():
    x, y = (0, 1, 1), (1, 1, 0)
    assert directed_distance(x, y) != directed_distance(y, x)


@given(WORD_PAIRS)
@settings(max_examples=300)
def test_directed_distance_matches_brute(pair):
    x, y = pair
    assert directed_distance(x, y) == directed_distance_brute(x, y)


@given(WORD_PAIRS)
@settings(max_examples=200)
def test_directed_distance_bounds(pair):
    x, y = pair
    dist = directed_distance(x, y)
    assert 0 <= dist <= len(x)
    assert (dist == 0) == (x == y)


# ----------------------------------------------------------------------
# Theorem 2: undirected distance (four implementations)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("d,k", SMALL_GRAPHS, ids=lambda v: str(v))
@pytest.mark.parametrize("method", ["matching", "suffix_tree", "scan", "brute"])
def test_undirected_distance_equals_bfs_exhaustive(d, k, method):
    for x in all_words(d, k):
        oracle = bfs_oracle(x, d, directed=False)
        for y in all_words(d, k):
            assert undirected_distance(x, y, method) == oracle[y], (x, y)


@given(WORD_PAIRS)
@settings(max_examples=300, deadline=None)
def test_undirected_methods_agree(pair):
    x, y = pair
    brute = undirected_distance_brute(x, y)
    assert undirected_distance(x, y, "matching") == brute
    assert undirected_distance(x, y, "suffix_tree") == brute
    assert undirected_distance(x, y, "scan") == brute


@given(WORD_PAIRS)
@settings(max_examples=300, deadline=None)
def test_undirected_distance_is_symmetric(pair):
    x, y = pair
    assert undirected_distance(x, y) == undirected_distance(y, x)


@given(WORD_PAIRS)
@settings(max_examples=200, deadline=None)
def test_undirected_at_most_directed_and_diameter(pair):
    x, y = pair
    undirected = undirected_distance(x, y)
    assert undirected <= directed_distance(x, y)
    assert 0 <= undirected <= len(x)
    assert (undirected == 0) == (x == y)


@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda k: st.tuples(
            *[st.lists(st.integers(0, 1), min_size=k, max_size=k).map(tuple) for _ in range(3)]
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_undirected_triangle_inequality(triple):
    x, y, z = triple
    assert undirected_distance(x, z) <= undirected_distance(x, y) + undirected_distance(y, z)


def test_undirected_known_values():
    # From the verified DG(2, 3): 001 -> 111 goes 001 -> 011 -> 111.
    assert undirected_distance((0, 0, 1), (1, 1, 1)) == 2
    assert undirected_distance((0, 0, 0), (1, 1, 1)) == 3
    assert undirected_distance((0, 1, 0), (1, 0, 1)) == 1


# ----------------------------------------------------------------------
# Witnesses
# ----------------------------------------------------------------------


@given(WORD_PAIRS)
@settings(max_examples=300, deadline=None)
def test_witness_methods_agree_on_distance(pair):
    x, y = pair
    wm = undirected_witness_matching(x, y)
    ws = undirected_witness_suffix_tree(x, y)
    assert wm.distance == ws.distance == undirected_witness_scan(x, y).distance


@given(WORD_PAIRS)
@settings(max_examples=300, deadline=None)
def test_witness_is_internally_consistent(pair):
    x, y = pair
    k = len(x)
    for witness in (undirected_witness_matching(x, y), undirected_witness_suffix_tree(x, y),
                    undirected_witness_scan(x, y)):
        if witness.case == "trivial":
            assert witness.distance == k
            continue
        assert 1 <= witness.theta
        assert 1 <= witness.i <= k and 1 <= witness.j <= k
        if witness.case == "l":
            # x_i..x_{i+θ-1} == y_{j-θ+1}..y_j (1-based, paper eq. (8))
            assert x[witness.i - 1 : witness.i - 1 + witness.theta] == \
                y[witness.j - witness.theta : witness.j]
            assert witness.distance == 2 * k - 1 + witness.i - witness.j - witness.theta
        else:
            # x_{i-θ+1}..x_i == y_j..y_{j+θ-1} (paper eq. (9))
            assert x[witness.i - witness.theta : witness.i] == \
                y[witness.j - 1 : witness.j - 1 + witness.theta]
            assert witness.distance == 2 * k - 1 - witness.i + witness.j - witness.theta


def _near_pairs(d, k, count, seed):
    """Random pairs, and pairs sharing a long shifted block (small distances)."""
    xs = random_words(d, k, count, seed=seed)
    ys = random_words(d, k, count, seed=seed + 1)
    pairs = list(zip(xs, ys))
    for index, (x, y) in enumerate(zip(xs, ys)):
        cut = index % k
        pairs.append((x, x[cut:] + y[:cut]))
        pairs.append((x, y[:cut] + x[: k - cut]))
    return pairs


@pytest.mark.parametrize(
    "d,k,count",
    [(4, 3, 0), (5, 3, 0), (7, 2, 0), (3, 20, 200), (5, 12, 200), (7, 12, 200),
     (2, 64, 100), (2, 100, 60)],
    ids=lambda v: str(v),
)
def test_scan_wide_digits_and_long_words(d, k, count):
    """The scan packs several bits per digit and any k into one int."""
    if count:
        pairs = _near_pairs(d, k, count, seed=d * 1000 + k)
    else:
        words = all_words(d, k)
        pairs = [(x, y) for x in words for y in words]
    for x, y in pairs:
        witness = undirected_witness_scan(x, y)
        assert witness.distance == undirected_witness_suffix_tree(x, y).distance, (x, y)
        path = path_from_witness(witness, y, use_wildcards=False)
        assert len(path) == witness.distance
        assert verify_path(x, y, path, d), (x, y, witness)


def test_scan_rejects_a_negative_digit():
    with pytest.raises(InvalidWordError):
        undirected_witness_scan((0, 1, 2), (1, -1, 0))
    with pytest.raises(InvalidWordError):
        undirected_distance((0, -3), (1, 0), "scan")


def test_witness_trivial_for_diameter_pair():
    w = undirected_witness((0, 0, 0), (1, 1, 1))
    assert w == UndirectedWitness(3, "trivial")


def test_witness_auto_dispatch():
    x, y = (0, 1, 0, 1), (1, 1, 0, 0)
    assert undirected_witness(x, y, "auto").distance == undirected_distance(x, y, "brute")


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        undirected_distance((0, 1), (1, 0), "nonsense")


def test_length_mismatch_rejected():
    with pytest.raises(InvalidWordError):
        undirected_distance((0, 1), (1, 0, 1))
    with pytest.raises(InvalidWordError):
        directed_distance((0, 1), (1, 0, 1))


def test_empty_words_rejected():
    with pytest.raises(InvalidWordError):
        undirected_distance((), ())


@pytest.mark.parametrize("d,k", [(2, 4), (3, 3)])
@pytest.mark.parametrize("directed", [True, False])
def test_distances_from_matches_pair_functions(d, k, directed):
    """A BFS distance row from x agrees with the pair functions."""
    from repro.core.batch import distances_row
    from repro.core.packed import PackedSpace

    fn = directed_distance if directed else undirected_distance
    space = PackedSpace(d, k)
    for x in [(0,) * k, tuple(range(k)) if k <= d else (0, 1) * (k // 2) + (0,) * (k % 2)]:
        x = tuple(v % d for v in x)
        row = distances_row(space, space.pack(x), directed=directed)
        assert len(row) == d**k
        for value, y in enumerate(all_words(d, k)):
            assert row[value] == fn(x, y)
