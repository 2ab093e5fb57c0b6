"""Tests for the batch distance engines (:mod:`repro.core.batch`).

Everything is cross-validated against the per-pair functions — the
acceptance bar is *exact* agreement, exhaustively, on DG(2, 4) and
DG(3, 3) (and a few more small graphs for good measure).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.average_distance import (
    directed_average_distance_closed_form,
    directed_average_distance_exact,
    undirected_average_distance_exact,
)
from repro.core.batch import (
    average_distance_packed,
    directed_distances_many,
    distance_matrix,
    distances_row,
    equation5_crosscheck,
    undirected_distances_many,
)
from repro.core.distance import directed_distance, undirected_distance
from repro.core.packed import PackedSpace
from repro.exceptions import InvalidWordError
from tests.conftest import all_words, bfs_oracle

#: The two graphs the acceptance criteria name, plus extras.
EXHAUSTIVE_GRAPHS = [(2, 4), (3, 3), (2, 1), (2, 3), (4, 2)]


@pytest.mark.parametrize("d,k", EXHAUSTIVE_GRAPHS, ids=lambda v: str(v))
def test_distance_matrix_matches_pairwise(d, k):
    """matrix[pack(x)][pack(y)] == the pair functions, for every pair."""
    words = all_words(d, k)
    space = PackedSpace(d, k)
    undirected = distance_matrix(d, k, directed=False)
    directed = distance_matrix(d, k, directed=True)
    for x in words:
        px = space.pack(x)
        for y in words:
            py = space.pack(y)
            assert undirected[px][py] == undirected_distance(x, y)
            assert directed[px][py] == directed_distance(x, y)


@pytest.mark.parametrize("d,k", EXHAUSTIVE_GRAPHS, ids=lambda v: str(v))
def test_undirected_distances_many_matches_pairwise(d, k):
    """The streamed one-to-many engine agrees with the pair function."""
    words = all_words(d, k)
    for x in words:
        assert undirected_distances_many(x, words) == [
            undirected_distance(x, y) for y in words
        ]


@pytest.mark.parametrize("d,k", [(2, 4), (3, 3)], ids=lambda v: str(v))
def test_directed_distances_many_matches_pairwise(d, k):
    words = all_words(d, k)
    for x in words:
        assert directed_distances_many(x, words, d) == [
            directed_distance(x, y) for y in words
        ]


@given(
    st.integers(min_value=2, max_value=3).flatmap(
        lambda d: st.integers(min_value=1, max_value=10).flatmap(
            lambda k: st.tuples(
                st.just(d),
                st.lists(st.integers(0, d - 1), min_size=k, max_size=k).map(tuple),
                st.lists(
                    st.lists(st.integers(0, d - 1), min_size=k, max_size=k).map(tuple),
                    min_size=1,
                    max_size=8,
                ),
            )
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_undirected_many_property(case):
    """Random (d, k) spot check of the streaming engine beyond the grid."""
    d, x, ys = case
    assert undirected_distances_many(x, ys) == [
        undirected_distance(x, y) for y in ys
    ]


def test_distances_row_matches_distances_from():
    """One kernel row equals the conftest shift-BFS distances from x."""
    d, k = 2, 5
    space = PackedSpace(d, k)
    for directed in (False, True):
        for x in all_words(d, k)[:8]:
            row = distances_row(space, space.pack(x), directed=directed)
            reference = bfs_oracle(x, d, directed)
            assert len(reference) == space.order
            for y, dist in reference.items():
                assert row[space.pack(y)] == dist


@pytest.mark.parametrize("d,k", [(2, 4), (3, 3), (2, 6)], ids=lambda v: str(v))
def test_average_distance_packed_matches_exact(d, k):
    assert average_distance_packed(d, k, directed=True) == pytest.approx(
        directed_average_distance_exact(d, k), abs=1e-12
    )
    assert average_distance_packed(d, k, directed=False) == pytest.approx(
        undirected_average_distance_exact(d, k), abs=1e-12
    )


@pytest.mark.parametrize("d,k", [(2, 5), (3, 3), (4, 3)], ids=lambda v: str(v))
def test_equation5_crosscheck_is_upper_bound(d, k):
    """Eq. (5) is an upper bound on the exact directed mean (E2 finding)."""
    record = equation5_crosscheck(d, k)
    assert record["closed_form"] == pytest.approx(
        directed_average_distance_closed_form(d, k)
    )
    assert record["gap"] >= 0.0
    assert record["closed_form"] == pytest.approx(record["exact"] + record["gap"])


def test_batch_error_paths():
    space = PackedSpace(2, 3)
    with pytest.raises(InvalidWordError):
        distances_row(space, 8)
    with pytest.raises(InvalidWordError):
        undirected_distances_many((), [])
    with pytest.raises(InvalidWordError):
        undirected_distances_many((0, 1), [(0, 1, 1)])
    with pytest.raises(InvalidWordError):
        directed_distances_many((0, 1), [(0, 2)], d=2)
