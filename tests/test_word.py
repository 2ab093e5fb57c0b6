"""Unit tests for :mod:`repro.core.word` — the d-ary word algebra."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.packed import PackedSpace
from repro.core.word import (
    Word,
    all_neighbors,
    format_word,
    iter_words,
    left_neighbors,
    left_shift,
    overlap_length,
    parse_word,
    random_word,
    right_neighbors,
    right_shift,
    validate_parameters,
    validate_word,
)
from repro.exceptions import InvalidParameterError, InvalidWordError

# ----------------------------------------------------------------------
# Shift operations
# ----------------------------------------------------------------------


def test_left_shift_matches_paper_definition():
    # X^-(a) = (x_2, ..., x_k, a)
    assert left_shift((0, 1, 1), 0) == (1, 1, 0)
    assert left_shift((0, 1, 1), 1) == (1, 1, 1)


def test_right_shift_matches_paper_definition():
    # X^+(a) = (a, x_1, ..., x_{k-1})
    assert right_shift((0, 1, 1), 0) == (0, 0, 1)
    assert right_shift((0, 1, 1), 1) == (1, 0, 1)


def test_shifts_are_inverse_on_overlap():
    word = (0, 1, 2, 1)
    assert right_shift(left_shift(word, 9), word[0]) == word
    assert left_shift(right_shift(word, 9), word[-1]) == word


def test_left_neighbors_enumerates_all_digits():
    assert list(left_neighbors((0, 1), 3)) == [(1, 0), (1, 1), (1, 2)]


def test_right_neighbors_enumerates_all_digits():
    assert list(right_neighbors((0, 1), 3)) == [(0, 0), (1, 0), (2, 0)]


def test_all_neighbors_yields_2d_words():
    assert len(list(all_neighbors((0, 1, 0), 4))) == 8


def test_constant_word_has_self_loop_neighbor():
    assert (1, 1, 1) in set(all_neighbors((1, 1, 1), 2))


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------


@pytest.mark.parametrize("d,k", [(1, 3), (0, 3), (2, 0), (2, -1), (-2, 2)])
def test_validate_parameters_rejects_bad_values(d, k):
    with pytest.raises(InvalidParameterError):
        validate_parameters(d, k)


@pytest.mark.parametrize("d,k", [(2, 1), (2, 8), (36, 2)])
def test_validate_parameters_accepts_good_values(d, k):
    validate_parameters(d, k)


def test_validate_parameters_rejects_bool():
    with pytest.raises(InvalidParameterError):
        validate_parameters(True, 3)


def test_validate_word_accepts_lists_and_returns_tuple():
    assert validate_word([0, 1, 1], 2, 3) == (0, 1, 1)


@pytest.mark.parametrize("word", [(0, 1), (0, 1, 2), (0, 1, -1), (0, 1, 1, 1)])
def test_validate_word_rejects_bad_words(word):
    with pytest.raises(InvalidWordError):
        validate_word(word, 2, 3)


def test_validate_word_rejects_bool_digit():
    with pytest.raises(InvalidWordError):
        validate_word((0, True, 1), 2, 3)


# ----------------------------------------------------------------------
# Integer and string encodings
# ----------------------------------------------------------------------


@pytest.mark.parametrize("d,k", [(2, 4), (3, 3), (5, 2)])
def test_int_roundtrip_covers_all_words(d, k):
    space = PackedSpace(d, k)
    for value in range(d**k):
        assert space.pack_checked(space.unpack(value)) == value


def test_word_to_int_head_most_significant():
    space = PackedSpace(2, 3)
    assert space.pack_checked((1, 0, 0)) == 4
    assert space.pack_checked((0, 0, 1)) == 1


def test_int_to_word_rejects_out_of_range():
    space = PackedSpace(2, 3)
    with pytest.raises(InvalidWordError):
        space.unpack(8)
    with pytest.raises(InvalidWordError):
        space.unpack(-1)


def test_parse_format_roundtrip():
    assert parse_word("0110", 2) == (0, 1, 1, 0)
    assert format_word((0, 1, 1, 0)) == "0110"
    assert parse_word("a9", 11) == (10, 9)
    assert format_word((10, 9)) == "a9"


def test_parse_word_rejects_bad_digit():
    with pytest.raises(InvalidWordError):
        parse_word("012", 2)


def test_parse_word_rejects_empty():
    with pytest.raises(InvalidWordError):
        parse_word("", 2)


def test_parse_word_rejects_huge_alphabet():
    with pytest.raises(InvalidParameterError):
        parse_word("00", 37)


# ----------------------------------------------------------------------
# Enumeration and sampling
# ----------------------------------------------------------------------


@pytest.mark.parametrize("d,k", [(2, 3), (3, 2), (4, 2)])
def test_iter_words_is_complete_sorted_and_unique(d, k):
    words = list(iter_words(d, k))
    assert len(words) == d**k
    assert len(set(words)) == d**k
    assert words == sorted(words)


def test_random_word_is_deterministic_with_seeded_rng():
    a = random_word(3, 5, random.Random(42))
    b = random_word(3, 5, random.Random(42))
    assert a == b
    validate_word(a, 3, 5)


# ----------------------------------------------------------------------
# Overlap (the directed-distance quantity l)
# ----------------------------------------------------------------------


def _overlap_brute(x, y):
    k = len(x)
    best = 0
    for s in range(1, k + 1):
        if x[k - s :] == y[:s]:
            best = s
    return best


@given(
    st.integers(min_value=2, max_value=4).flatmap(
        lambda d: st.tuples(
            st.lists(st.integers(0, d - 1), min_size=1, max_size=12),
            st.lists(st.integers(0, d - 1), min_size=1, max_size=12),
        )
    )
)
@settings(max_examples=300)
def test_overlap_length_matches_brute_force(pair):
    x, y = pair
    n = min(len(x), len(y))
    x, y = tuple(x[:n]), tuple(y[:n])
    assert overlap_length(x, y) == _overlap_brute(x, y)


def test_overlap_length_full_on_equal_words():
    assert overlap_length((0, 1, 0), (0, 1, 0)) == 3


def test_overlap_length_zero_when_no_match():
    assert overlap_length((0, 0, 0), (1, 1, 1)) == 0


def test_overlap_length_nonmonotone_case():
    # suffix "01" == prefix "01" although suffix "1" != prefix "0".
    assert overlap_length((1, 0, 1), (0, 1, 1)) == 2


def test_overlap_length_rejects_length_mismatch():
    with pytest.raises(InvalidWordError):
        overlap_length((0, 1), (0, 1, 1))


# ----------------------------------------------------------------------
# Word wrapper
# ----------------------------------------------------------------------


def test_word_parse_and_str_roundtrip():
    w = Word.parse("0110", d=2)
    assert str(w) == "0110"
    assert w.k == 4
    assert len(w) == 4
    assert w[0] == 0


def test_word_shift_methods():
    w = Word.parse("011", d=2)
    assert w.left(1).digits == (1, 1, 1)
    assert w.right(0).digits == (0, 0, 1)


def test_word_neighbors_count():
    w = Word.parse("012", d=3)
    assert len(list(w.neighbors())) == 6


def test_word_reversed():
    assert Word.parse("001", d=2).reversed().digits == (1, 0, 0)


def test_word_from_int_and_to_int():
    space = PackedSpace(2, 3)
    w = Word(space.unpack(5), d=2)
    assert w.digits == (1, 0, 1)
    assert space.pack_checked(w.digits) == 5


def test_word_rejects_invalid_digits():
    with pytest.raises(InvalidWordError):
        Word((0, 2), d=2)
    with pytest.raises(InvalidWordError):
        Word.parse("011", d=2).left(5)


def test_word_repr_is_informative():
    assert repr(Word.parse("10", d=2)) == "Word('10', d=2)"
