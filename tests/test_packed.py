"""Tests for packed base-d words (:mod:`repro.core.packed`).

The property to pin down is exact agreement with the tuple primitives of
:mod:`repro.core.word`: pack/shift/unpack must commute with
``left_shift``/``right_shift`` for arbitrary (d, k), and every affix
extractor must match its slicing counterpart.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.packed import PackedSpace
from repro.core.word import left_shift, right_shift
from repro.exceptions import InvalidWordError
from tests.conftest import all_words

WORD_STRATEGY = st.integers(min_value=2, max_value=5).flatmap(
    lambda d: st.integers(min_value=1, max_value=16).flatmap(
        lambda k: st.tuples(
            st.just(d),
            st.lists(st.integers(0, d - 1), min_size=k, max_size=k).map(tuple),
            st.integers(0, d - 1),
        )
    )
)


@given(WORD_STRATEGY)
@settings(max_examples=300, deadline=None)
def test_pack_shift_unpack_agrees_with_tuple_shifts(case):
    """pack ∘ shift ∘ unpack == the tuple-level shift, both directions."""
    d, word, digit = case
    k = len(word)
    space = PackedSpace(d, k)
    value = space.pack(word)
    assert space.unpack(value) == word
    assert space.unpack(space.left(value, digit)) == left_shift(word, digit)
    assert space.unpack(space.right(value, digit)) == right_shift(word, digit)


@given(WORD_STRATEGY)
@settings(max_examples=200, deadline=None)
def test_affix_extractors_match_slicing(case):
    d, word, _ = case
    k = len(word)
    space = PackedSpace(d, k)
    value = space.pack(word)
    assert space.head(value) == word[0]
    assert space.tail(value) == word[-1]
    for index in range(k):
        assert space.digit(value, index) == word[index]
    for length in range(k + 1):
        assert space.prefix(value, length) == space_pack_partial(d, word[:length])
        assert space.suffix(value, length) == space_pack_partial(d, word[k - length:])


def space_pack_partial(d, digits):
    """Base-d fold of a partial word (the expected affix encoding)."""
    value = 0
    for digit in digits:
        value = value * d + digit
    return value


def test_packing_matches_word_to_int():
    """Packing is the base-d positional value, head digit most
    significant, so packed order is ``iter_words`` order."""
    space = PackedSpace(3, 3)
    for value, word in enumerate(all_words(3, 3)):
        assert space.pack_checked(word) == value
        assert value == word[0] * 9 + word[1] * 3 + word[2]
        assert space.unpack(value) == word


def test_neighbors_match_tuple_neighbors():
    space = PackedSpace(2, 4)
    for word in all_words(2, 4):
        value = space.pack(word)
        lefts = [space.unpack(v) for v in space.left_neighbors(value)]
        rights = [space.unpack(v) for v in space.right_neighbors(value)]
        assert lefts == [left_shift(word, a) for a in range(2)]
        assert rights == [right_shift(word, a) for a in range(2)]


def test_validation_and_errors():
    space = PackedSpace(2, 3)
    with pytest.raises(InvalidWordError):
        space.unpack(8)
    with pytest.raises(InvalidWordError):
        space.unpack(-1)
    with pytest.raises(InvalidWordError):
        space.pack_checked((0, 1, 2))
    with pytest.raises(InvalidWordError):
        space.digit(0, 3)
    with pytest.raises(InvalidWordError):
        space.prefix(0, 4)
    with pytest.raises(InvalidWordError):
        space.suffix(0, -1)
    assert space.pack_checked((1, 0, 1)) == 5
