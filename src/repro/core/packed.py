"""Packed d-ary words: vertices of DG(d, k) as plain base-d integers.

The tuple representation of :mod:`repro.core.word` is convenient and
hashable, but every shift allocates a fresh k-tuple and every hash walks
k digits.  For the hot batch paths (implicit BFS over all ``d**k``
vertices, the simulator's per-hop arithmetic) this module packs a word
``X = (x_1, ..., x_k)`` into the single integer

    ``value = x_1·d^(k-1) + x_2·d^(k-2) + ... + x_k``

(head digit most significant, so packed values count up in
:func:`repro.core.word.iter_words` order and tuple code interoperates
freely).  Both shift operations then become O(1) div-mod arithmetic on
machine ints (for ``d**k`` within a machine word):

* left shift  ``X^-(a)``:  ``(value % d^(k-1)) * d + a``
* right shift ``X^+(a)``:  ``a * d^(k-1) + value // d``

:class:`PackedSpace` precomputes the powers of ``d`` once per (d, k) so
the per-operation cost is a couple of int ops and no allocation beyond
the (interned, for small graphs) result int.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.core.word import WordTuple, validate_parameters, validate_word
from repro.exceptions import InvalidWordError


class PackedSpace:
    """All packed-word arithmetic for one de Bruijn graph DG(d, k).

    >>> space = PackedSpace(2, 4)
    >>> space.pack((0, 1, 1, 0))
    6
    >>> space.unpack(space.left(6, 1))     # 0110 -> 1101
    (1, 1, 0, 1)
    >>> space.unpack(space.right(6, 1))    # 0110 -> 1011
    (1, 0, 1, 1)
    """

    __slots__ = ("d", "k", "order", "high", "_pow")

    def __init__(self, d: int, k: int) -> None:
        validate_parameters(d, k)
        self.d = d
        self.k = k
        #: Number of vertices N = d**k; packed values live in range(order).
        self.order = d**k
        #: d**(k-1) — the place value of the head digit.
        self.high = self.order // d
        self._pow: Tuple[int, ...] = tuple(d**i for i in range(k + 1))

    # -- conversions ----------------------------------------------------

    def pack(self, word: WordTuple) -> int:
        """Fold a digit tuple into its packed integer (no validation)."""
        d = self.d
        value = 0
        for digit in word:
            value = value * d + digit
        return value

    def pack_checked(self, word: WordTuple) -> int:
        """Validate ``word`` against (d, k), then pack it.

        One pass checks and folds plain-int digits; any other input
        (wrong length, a bool, float or int subclass, an out-of-range
        digit) takes :func:`~repro.core.word.validate_word`, so the
        accepted words and the raised errors are exactly its own.
        """
        d = self.d
        if len(word) == self.k:
            value = 0
            for digit in word:
                if digit.__class__ is not int or not 0 <= digit < d:
                    break
                value = value * d + digit
            else:
                return value
        validate_word(word, d, self.k)
        return self.pack(word)

    def unpack(self, value: int) -> WordTuple:
        """Expand a packed integer back into its digit tuple."""
        if not 0 <= value < self.order:
            raise InvalidWordError(
                f"packed value {value} is outside 0..{self.order - 1} "
                f"for DG({self.d},{self.k})"
            )
        d = self.d
        digits: List[int] = []
        for _ in range(self.k):
            value, rem = divmod(value, d)
            digits.append(rem)
        digits.reverse()
        return tuple(digits)

    # -- O(1) shifts ----------------------------------------------------

    def left(self, value: int, digit: int) -> int:
        """Packed ``X^-(digit)``: drop the head, append ``digit``."""
        return (value % self.high) * self.d + digit

    def right(self, value: int, digit: int) -> int:
        """Packed ``X^+(digit)``: drop the tail, prepend ``digit``."""
        return digit * self.high + value // self.d

    def apply_action(self, value: int, action: int) -> int:
        """Apply a one-byte next-hop action (see :mod:`repro.core.tables`).

        Actions ``0..d-1`` are left shifts inserting that digit; actions
        ``d..2d-1`` right shifts inserting ``action - d``.  O(1) div-mod,
        the per-hop arithmetic of the table-driven simulator fast path.
        """
        d = self.d
        if 0 <= action < d:
            return (value % self.high) * d + action
        if d <= action < 2 * d:
            return (action - d) * self.high + value // d
        raise InvalidWordError(
            f"action byte {action} is not a shift action for d = {d}"
        )

    def left_neighbors(self, value: int) -> range:
        """All d type-L neighbors of ``value``, as a contiguous range."""
        base = (value % self.high) * self.d
        return range(base, base + self.d)

    def right_neighbors(self, value: int) -> Iterator[int]:
        """All d type-R neighbors of ``value``."""
        body = value // self.d
        return (a * self.high + body for a in range(self.d))

    # -- digit / affix extraction (all O(1) div-mod) --------------------

    def digit(self, value: int, index: int) -> int:
        """The 0-based ``index``-th digit (head first) of ``value``."""
        if not 0 <= index < self.k:
            raise InvalidWordError(f"digit index {index} outside 0..{self.k - 1}")
        return (value // self._pow[self.k - 1 - index]) % self.d

    def head(self, value: int) -> int:
        """The most significant digit ``x_1``."""
        return value // self.high

    def tail(self, value: int) -> int:
        """The least significant digit ``x_k``."""
        return value % self.d

    def prefix(self, value: int, length: int) -> int:
        """The packed ``length``-digit prefix ``(x_1, ..., x_length)``."""
        if not 0 <= length <= self.k:
            raise InvalidWordError(f"prefix length {length} outside 0..{self.k}")
        return value // self._pow[self.k - length]

    def suffix(self, value: int, length: int) -> int:
        """The packed ``length``-digit suffix ``(x_{k-length+1}, ..., x_k)``."""
        if not 0 <= length <= self.k:
            raise InvalidWordError(f"suffix length {length} outside 0..{self.k}")
        return value % self._pow[length]

    # -- distances ------------------------------------------------------

    def overlap_length(self, x: int, y: int) -> int:
        """Longest suffix of ``x`` equal to a prefix of ``y`` (packed).

        The paper's quantity ``l`` of equation (2), computed by at most k
        O(1) affix comparisons — no tuple materialisation.
        """
        pow_ = self._pow
        k = self.k
        for s in range(k, 0, -1):
            if x % pow_[s] == y // pow_[k - s]:
                return s
        return 0

    def directed_distance(self, x: int, y: int) -> int:
        """Property 1 on packed values: ``D(X, Y) = k - l``."""
        return self.k - self.overlap_length(x, y)

    # -- iteration ------------------------------------------------------

    def iter_values(self) -> range:
        """All packed vertices, in the same order as ``iter_words``."""
        return range(self.order)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PackedSpace(d={self.d}, k={self.k})"

