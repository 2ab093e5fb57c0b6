"""d-ary words: the vertex labels of the de Bruijn graph DG(d, k).

A vertex of DG(d, k) is a word ``X = (x_1, ..., x_k)`` with each digit in
``{0, ..., d-1}``.  Following the paper (Liu, 1989, Section 1), the two
shift operations are

* the *left shift* ``X^-(a) = (x_2, ..., x_k, a)`` — drop the head digit and
  append ``a`` on the right (a *type-L* neighbor), and
* the *right shift* ``X^+(a) = (a, x_1, ..., x_{k-1})`` — drop the tail digit
  and prepend ``a`` on the left (a *type-R* neighbor).

Internally every algorithm in this package works on plain tuples of small
ints, which are hashable, comparable and cheap.  This module provides the
tuple-level primitives plus a thin :class:`Word` convenience wrapper for
interactive use (pretty printing, parsing from strings such as ``"0110"``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

from repro.exceptions import InvalidParameterError, InvalidWordError

WordTuple = Tuple[int, ...]

#: Largest alphabet for which single-character digit parsing is supported.
MAX_PARSE_ALPHABET = 36

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def validate_parameters(d: int, k: int) -> None:
    """Check that (d, k) describe a de Bruijn graph per the paper (d>=2, k>=1).

    Raises :class:`InvalidParameterError` otherwise.
    """
    if not isinstance(d, int) or isinstance(d, bool):
        raise InvalidParameterError(f"alphabet size d must be an int, got {d!r}")
    if not isinstance(k, int) or isinstance(k, bool):
        raise InvalidParameterError(f"word length k must be an int, got {k!r}")
    if d < 2:
        raise InvalidParameterError(f"alphabet size d must be >= 2, got {d}")
    if k < 1:
        raise InvalidParameterError(f"word length k must be >= 1, got {k}")


def validate_word(word: Sequence[int], d: int, k: int) -> WordTuple:
    """Validate ``word`` as a vertex of DG(d, k) and return it as a tuple.

    Accepts any sequence of ints; raises :class:`InvalidWordError` when the
    length is not ``k`` or any digit falls outside ``{0, ..., d-1}``.
    """
    validate_parameters(d, k)
    w = tuple(word)
    if len(w) != k:
        raise InvalidWordError(f"expected a word of length {k}, got {w!r} of length {len(w)}")
    for digit in w:
        if not isinstance(digit, int) or isinstance(digit, bool) or not 0 <= digit < d:
            raise InvalidWordError(f"digit {digit!r} of {w!r} is not in 0..{d - 1}")
    return w


def left_shift(word: WordTuple, digit: int) -> WordTuple:
    """Return ``X^-(digit)``: drop the head, append ``digit`` on the right."""
    return word[1:] + (digit,)


def right_shift(word: WordTuple, digit: int) -> WordTuple:
    """Return ``X^+(digit)``: drop the tail, prepend ``digit`` on the left."""
    return (digit,) + word[:-1]


def left_neighbors(word: WordTuple, d: int) -> Iterator[WordTuple]:
    """Iterate all type-L neighbors ``X^-(a)`` for ``a`` in ``0..d-1``."""
    body = word[1:]
    for a in range(d):
        yield body + (a,)


def right_neighbors(word: WordTuple, d: int) -> Iterator[WordTuple]:
    """Iterate all type-R neighbors ``X^+(a)`` for ``a`` in ``0..d-1``."""
    body = word[:-1]
    for a in range(d):
        yield (a,) + body


def all_neighbors(word: WordTuple, d: int) -> Iterator[WordTuple]:
    """Iterate type-L then type-R neighbors (2d words, possibly repeating)."""
    yield from left_neighbors(word, d)
    yield from right_neighbors(word, d)


def parse_word(text: str, d: int) -> WordTuple:
    """Parse a word from a compact string such as ``"0110"`` (base-d digits).

    Digits beyond 9 use lowercase letters (``a`` = 10, ... ``z`` = 35), so
    alphabets up to ``d = 36`` round-trip through :func:`format_word`.
    """
    if d > MAX_PARSE_ALPHABET:
        raise InvalidParameterError(
            f"string parsing supports d <= {MAX_PARSE_ALPHABET}, got d={d}; "
            "construct the tuple directly instead"
        )
    digits = []
    for ch in text.strip():
        value = _DIGITS.find(ch.lower())
        if value < 0 or value >= d:
            raise InvalidWordError(f"character {ch!r} of {text!r} is not a base-{d} digit")
        digits.append(value)
    if not digits:
        raise InvalidWordError("cannot parse an empty word")
    return tuple(digits)


def format_word(word: WordTuple) -> str:
    """Format a word as the compact string accepted by :func:`parse_word`."""
    try:
        return "".join(_DIGITS[digit] for digit in word)
    except IndexError:
        return "(" + ",".join(str(digit) for digit in word) + ")"


def iter_words(d: int, k: int) -> Iterator[WordTuple]:
    """Iterate all ``d**k`` vertices of DG(d, k) in lexicographic order."""
    validate_parameters(d, k)
    word = [0] * k
    while True:
        yield tuple(word)
        # Odometer increment in base d, most significant digit first.
        pos = k - 1
        while pos >= 0 and word[pos] == d - 1:
            word[pos] = 0
            pos -= 1
        if pos < 0:
            return
        word[pos] += 1


def random_word(d: int, k: int, rng: random.Random | None = None) -> WordTuple:
    """Draw a uniformly random vertex of DG(d, k)."""
    validate_parameters(d, k)
    generator = rng if rng is not None else random
    return tuple(generator.randrange(d) for _ in range(k))


def overlap_length(x: WordTuple, y: WordTuple) -> int:
    """Length of the longest suffix of ``x`` that equals a prefix of ``y``.

    This is the quantity ``l`` of the paper's equation (2); the directed
    distance is ``k - l`` (Property 1).  Runs in O(k) time via the failure
    function of the string ``y # x`` (``#`` a fresh separator): the failure
    value at the last position is the longest prefix of ``y`` that is also a
    suffix of ``x``, and the separator caps it at ``k``.
    """
    k = len(x)
    if k != len(y):
        raise InvalidWordError(f"words {x!r} and {y!r} have different lengths")
    from repro.core.matching import failure_function  # local import: avoid cycle

    separator = -1  # never a valid digit, so matches cannot cross it
    return failure_function(y + (separator,) + x)[-1]


@dataclass(frozen=True)
class Word:
    """A vertex of DG(d, k): an immutable d-ary word with its alphabet size.

    The wrapper exists for ergonomic interactive use; the algorithmic core
    of the library operates on bare tuples (see :data:`WordTuple`).

    >>> w = Word.parse("0110", d=2)
    >>> w.left(1)
    Word('1101', d=2)
    >>> w.right(0).digits
    (0, 0, 1, 1)
    """

    digits: WordTuple
    d: int

    def __post_init__(self) -> None:
        validate_word(self.digits, self.d, len(self.digits))

    @classmethod
    def parse(cls, text: str, d: int) -> "Word":
        """Build a :class:`Word` from a compact digit string."""
        return cls(parse_word(text, d), d)

    @property
    def k(self) -> int:
        """The word length (the de Bruijn graph's diameter)."""
        return len(self.digits)

    def left(self, digit: int) -> "Word":
        """Type-L neighbor ``X^-(digit)``."""
        validate_word((digit,), self.d, 1)
        return Word(left_shift(self.digits, digit), self.d)

    def right(self, digit: int) -> "Word":
        """Type-R neighbor ``X^+(digit)``."""
        validate_word((digit,), self.d, 1)
        return Word(right_shift(self.digits, digit), self.d)

    def neighbors(self) -> Iterator["Word"]:
        """All 2d (not necessarily distinct) neighbors, type-L first."""
        for tup in all_neighbors(self.digits, self.d):
            yield Word(tup, self.d)

    def reversed(self) -> "Word":
        """The digit-reversed word (the paper's ``X̄``)."""
        return Word(tuple(reversed(self.digits)), self.d)

    def __str__(self) -> str:
        return format_word(self.digits)

    def __repr__(self) -> str:
        return f"Word({format_word(self.digits)!r}, d={self.d})"

    def __iter__(self) -> Iterator[int]:
        return iter(self.digits)

    def __len__(self) -> int:
        return len(self.digits)

    def __getitem__(self, index):
        return self.digits[index]
