"""Tests for the routing algorithms (paper Algorithms 1, 2 and 4)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distance import directed_distance, undirected_distance
from repro.core.routing import (
    Direction,
    RoutingStep,
    apply_path,
    apply_step,
    format_path,
    parse_path,
    path_length_matches_distance,
    path_words,
    route,
    shortest_path_undirected,
    shortest_path_unidirectional,
    verify_path,
)
from repro.exceptions import RoutingError
from tests.conftest import SMALL_GRAPHS, all_words, bfs_oracle, random_words

PAIR_STRATEGY = st.integers(min_value=2, max_value=3).flatmap(
    lambda d: st.integers(min_value=1, max_value=12).flatmap(
        lambda k: st.tuples(
            st.just(d),
            st.lists(st.integers(0, d - 1), min_size=k, max_size=k).map(tuple),
            st.lists(st.integers(0, d - 1), min_size=k, max_size=k).map(tuple),
        )
    )
)


# ----------------------------------------------------------------------
# Algorithm 1 (uni-directional)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("d,k", SMALL_GRAPHS, ids=lambda v: str(v))
def test_algorithm1_exhaustive_optimal_and_correct(d, k):
    for x in all_words(d, k):
        oracle = bfs_oracle(x, d, directed=True)
        for y in all_words(d, k):
            path = shortest_path_unidirectional(x, y)
            assert len(path) == oracle[y]
            assert verify_path(x, y, path, d)
            assert all(step.direction == Direction.LEFT for step in path)


def test_algorithm1_empty_path_for_same_vertex():
    assert shortest_path_unidirectional((0, 1), (0, 1)) == []


def test_algorithm1_spells_destination_suffix():
    # x = 011, y = 110: overlap l = 2 ("11"), one left shift inserting y_3.
    path = shortest_path_unidirectional((0, 1, 1), (1, 1, 0))
    assert [(s.direction, s.digit) for s in path] == [(Direction.LEFT, 0)]


def test_algorithm1_rejects_length_mismatch():
    with pytest.raises(RoutingError):
        shortest_path_unidirectional((0, 1), (0, 1, 1))


@given(PAIR_STRATEGY)
@settings(max_examples=300)
def test_algorithm1_random_pairs(args):
    d, x, y = args
    path = shortest_path_unidirectional(x, y)
    assert len(path) == directed_distance(x, y)
    assert verify_path(x, y, path, d)
    assert path_length_matches_distance(x, y, path, directed=True)


# ----------------------------------------------------------------------
# Algorithms 2 and 4 (bi-directional)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("d,k", SMALL_GRAPHS, ids=lambda v: str(v))
@pytest.mark.parametrize("method", ["matching", "suffix_tree"])
def test_algorithm2_and_4_exhaustive_optimal_and_correct(d, k, method):
    for x in all_words(d, k):
        oracle = bfs_oracle(x, d, directed=False)
        for y in all_words(d, k):
            path = shortest_path_undirected(x, y, method=method)
            assert len(path) == oracle[y], (x, y)
            assert verify_path(x, y, path, d, wildcard=0)
            # Wildcards must not matter: any resolution reaches y.
            assert verify_path(x, y, path, d, wildcard=d - 1)


@given(PAIR_STRATEGY)
@settings(max_examples=300, deadline=None)
def test_algorithm2_random_pairs(args):
    d, x, y = args
    path = shortest_path_undirected(x, y, method="matching")
    assert len(path) == undirected_distance(x, y)
    assert verify_path(x, y, path, d)


@given(PAIR_STRATEGY)
@settings(max_examples=300, deadline=None)
def test_algorithm4_random_pairs(args):
    d, x, y = args
    path = shortest_path_undirected(x, y, method="suffix_tree")
    assert len(path) == undirected_distance(x, y)
    assert verify_path(x, y, path, d)


@given(PAIR_STRATEGY)
@settings(max_examples=200, deadline=None)
def test_wildcard_resolution_is_immaterial(args):
    # Every way of filling the paper's "arbitrarily chosen digits" lands on y.
    d, x, y = args
    path = shortest_path_undirected(x, y, use_wildcards=True)
    for fill in range(d):
        assert apply_path(x, path, d, wildcard=fill) == y
    # A position-dependent policy also works.
    assert apply_path(x, path, d, wildcard=lambda word, index: (index + word[0]) % d) == y


def test_no_wildcards_uses_filler_digit():
    path = shortest_path_undirected((0, 1, 1, 0), (1, 1, 1, 0), use_wildcards=False, filler=1)
    assert all(step.digit is not None for step in path)
    assert verify_path((0, 1, 1, 0), (1, 1, 1, 0), path, 2)


def test_undirected_same_vertex_is_empty_path():
    assert shortest_path_undirected((1, 0, 1), (1, 0, 1)) == []


def test_undirected_rejects_length_mismatch():
    with pytest.raises(RoutingError):
        shortest_path_undirected((0, 1), (0, 1, 1))


def test_trivial_case_spells_destination_left_shifts():
    # 000 -> 111 is a diameter pair: the path is k left shifts spelling y.
    path = shortest_path_undirected((0, 0, 0), (1, 1, 1))
    assert [(s.direction, s.digit) for s in path] == [(Direction.LEFT, 1)] * 3


@pytest.mark.parametrize("d,k", [(2, 12), (3, 6)])
def test_planned_paths_share_their_steps(d, k):
    """Every planner hands out the one frozen step of each (direction, digit)."""
    pairs = list(zip(random_words(d, k, 150, seed=d), random_words(d, k, 150, seed=k)))
    steps = {}
    for x, y in pairs:
        for directed in (False, True):
            for wildcards in (False, True):
                for method in ("auto", "matching", "suffix_tree", "scan"):
                    path = route(x, y, d, directed=directed, method=method,
                                 use_wildcards=wildcards)
                    assert verify_path(x, y, path, d)
                    steps.update((id(step), step) for step in path)
    assert len(steps) <= 2 * (d + 1)


# ----------------------------------------------------------------------
# Path application helpers
# ----------------------------------------------------------------------


def test_apply_step_left_and_right():
    assert apply_step((0, 1, 1), RoutingStep(Direction.LEFT, 0), 2) == (1, 1, 0)
    assert apply_step((0, 1, 1), RoutingStep(Direction.RIGHT, 1), 2) == (1, 0, 1)


def test_apply_step_wildcard_uses_policy():
    step = RoutingStep(Direction.LEFT, None)
    assert apply_step((0, 1), step, 2, wildcard=1) == (1, 1)
    assert apply_step((0, 1), step, 2, wildcard=lambda w, i: 0) == (1, 0)


def test_path_words_traces_every_hop():
    path = [RoutingStep(Direction.LEFT, 1), RoutingStep(Direction.RIGHT, 0)]
    words = path_words((0, 0, 0), path, 2)
    assert words == [(0, 0, 0), (0, 0, 1), (0, 0, 0)]


def test_route_validates_and_dispatches():
    directed = route((0, 1, 1), (1, 1, 0), d=2, directed=True)
    undirected = route((0, 1, 1), (1, 1, 0), d=2, directed=False)
    assert len(directed) == 1 and len(undirected) == 1


def test_route_rejects_invalid_words():
    from repro.exceptions import InvalidWordError

    with pytest.raises(InvalidWordError):
        route((0, 2), (0, 1), d=2)


# ----------------------------------------------------------------------
# Formatting
# ----------------------------------------------------------------------


def test_format_and_parse_roundtrip():
    path = [
        RoutingStep(Direction.LEFT, 0),
        RoutingStep(Direction.RIGHT, None),
        RoutingStep(Direction.RIGHT, 3),
    ]
    text = format_path(path)
    assert text == "L0 R* R3"
    assert parse_path(text) == path


def test_parse_path_rejects_garbage():
    with pytest.raises(RoutingError):
        parse_path("Q1")
    with pytest.raises(RoutingError):
        parse_path("L")


@pytest.mark.parametrize(
    "token", ["Lx", "L+1", "L-1", "L1_2", "L 1", "L*1", "L１", "R1.0", "Lxyz"]
)
def test_parse_path_rejects_malformed_digit_bodies(token):
    """int()'s permissiveness must not leak through as ValueError."""
    with pytest.raises(RoutingError) as excinfo:
        parse_path(token)
    assert repr(token.split()[0]) in str(excinfo.value)


def test_parse_path_range_checks_against_alphabet():
    # "L12" parses as digit 12 — fine for d >= 13, rejected for binary.
    assert parse_path("L12") == [RoutingStep(Direction.LEFT, 12)]
    assert parse_path("L12", d=13) == [RoutingStep(Direction.LEFT, 12)]
    with pytest.raises(RoutingError) as excinfo:
        parse_path("L12", d=2)
    assert "'L12'" in str(excinfo.value)
    with pytest.raises(RoutingError):
        parse_path("L0 R1 L2", d=2)


PATH_STRATEGY = st.lists(
    st.tuples(
        st.sampled_from([Direction.LEFT, Direction.RIGHT]),
        st.one_of(st.none(), st.integers(min_value=0, max_value=35)),
    ).map(lambda pair: RoutingStep(*pair)),
    max_size=12,
)


@given(PATH_STRATEGY)
@settings(max_examples=200, deadline=None)
def test_format_parse_roundtrip_property(path):
    """format_path and parse_path are exact inverses, wildcards included."""
    assert parse_path(format_path(path)) == path


def test_step_str_wildcard():
    assert str(RoutingStep(Direction.RIGHT, None)) == "R*"
    assert RoutingStep(Direction.RIGHT, None).is_wildcard
    assert RoutingStep(Direction.RIGHT, None).resolved(2) == RoutingStep(Direction.RIGHT, 2)
