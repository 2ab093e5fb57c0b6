"""Optimal routing-path generation (the paper's Algorithms 1, 2 and 4).

A routing path is the sequence of ``(a_i, b_i)`` pairs of paper Section 3:
``a_i`` selects the shift type (0 = type-L left shift, 1 = type-R right
shift) and ``b_i`` the digit to insert.  The paper remarks that an
"arbitrary" digit may be encoded by a special symbol ``*`` so that each
forwarding site can pick any neighbor of the requested type and balance
traffic; we model that with ``digit=None`` on a :class:`RoutingStep`.

Three generators are provided:

* :func:`shortest_path_unidirectional` — Algorithm 1, O(k).
* :func:`shortest_path_undirected` with ``method="matching"`` —
  Algorithm 2, O(k²) time / O(k) space.
* :func:`shortest_path_undirected` with ``method="suffix_tree"`` —
  Algorithm 4's role, O(k) time and space.
* :func:`shortest_path_undirected` with ``method="scan"`` — the
  word-parallel diagonal scan the route service plans with.

All generated paths are *shortest*: their length equals the corresponding
distance function, a fact the test suite checks exhaustively against BFS on
small graphs.  Their steps are shared: a path holds references to the one
frozen :class:`RoutingStep` of each (direction, digit).
"""

from __future__ import annotations

import enum
import functools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.distance import (
    Method,
    UndirectedWitness,
    directed_distance,
    undirected_witness,
)
from repro.core.word import WordTuple, left_shift, overlap_length, right_shift, validate_word
from repro.exceptions import RoutingError


class Direction(enum.IntEnum):
    """The shift type of a routing step (the paper's ``a_i`` field)."""

    LEFT = 0  #: type-L move ``X -> X^-(b)``
    RIGHT = 1  #: type-R move ``X -> X^+(b)``


@dataclass(frozen=True)
class RoutingStep:
    """One hop of a routing path: shift ``direction``, insert ``digit``.

    ``digit is None`` encodes the paper's wildcard ``*``: the forwarding
    site may insert any digit (choose any neighbor of the given type).
    """

    direction: Direction
    digit: Optional[int]

    @property
    def is_wildcard(self) -> bool:
        """True when the inserted digit is left to the forwarding site."""
        return self.digit is None

    def resolved(self, digit: int) -> "RoutingStep":
        """The concrete step of this direction with the wildcard filled in."""
        return _STEPS[self.direction][digit]

    def __str__(self) -> str:
        symbol = "*" if self.digit is None else str(self.digit)
        arrow = "L" if self.direction == Direction.LEFT else "R"
        return f"{arrow}{symbol}"


class _DigitSteps(dict):
    """digit (``None`` for the wildcard) → the shared step of one direction."""

    def __init__(self, direction: Direction) -> None:
        super().__init__()
        self.direction = direction

    def __missing__(self, digit: Optional[int]) -> RoutingStep:
        step = self[digit] = RoutingStep(self.direction, digit)
        return step


#: The one :class:`RoutingStep` of each (direction, digit), filled on first
#: use.  Steps are frozen, so every path the builders below hand out holds
#: references into this table rather than new objects.
_STEPS = (_DigitSteps(Direction.LEFT), _DigitSteps(Direction.RIGHT))
_LEFT, _RIGHT = _STEPS

Path = List[RoutingStep]

#: How to fill wildcard digits when applying a path: a fixed digit, or a
#: callable receiving (current word, step index) and returning a digit.
WildcardPolicy = Callable[[WordTuple, int], int]


def shortest_path_unidirectional(x: WordTuple, y: WordTuple) -> Path:
    """Algorithm 1: a shortest path in the uni-directional DN(d, k).

    Returns ``k - l`` left-shift steps carrying the digits
    ``y_{l+1} ... y_k`` where ``l`` is the longest suffix of ``x`` that is a
    prefix of ``y`` (empty path when ``x == y``).  O(k) time and space.

    >>> [str(s) for s in shortest_path_unidirectional((0, 1, 1), (1, 1, 0))]
    ['L0']
    """
    if len(x) != len(y):
        raise RoutingError(f"source {x!r} and destination {y!r} differ in length")
    if x == y:
        return []
    l = overlap_length(x, y)
    return [_LEFT[digit] for digit in y[l:]]


def shortest_path_undirected(
    x: WordTuple,
    y: WordTuple,
    method: Method = "auto",
    use_wildcards: bool = True,
    filler: int = 0,
) -> Path:
    """Algorithm 2 / Algorithm 4: a shortest path in the bi-directional DN(d, k).

    ``method`` selects how the Theorem-2 witness is computed (see
    :func:`repro.core.distance.undirected_witness`); the path construction
    itself (paper lines 6-9 of Algorithm 2) is shared.  When
    ``use_wildcards`` is true the "arbitrarily chosen digits" of the paper
    become wildcard steps; otherwise they are fixed to ``filler``.

    >>> path = shortest_path_undirected((0, 0, 1), (1, 1, 1))
    >>> len(path)
    2
    """
    if len(x) != len(y):
        raise RoutingError(f"source {x!r} and destination {y!r} differ in length")
    if x == y:
        return []
    witness = undirected_witness(x, y, method)
    return path_from_witness(witness, y, use_wildcards=use_wildcards, filler=filler)


def path_from_witness(
    witness: UndirectedWitness,
    y: WordTuple,
    use_wildcards: bool = True,
    filler: int = 0,
) -> Path:
    """Materialise Algorithm 2's lines 6-9 from a Theorem-2 witness."""
    k = len(y)
    arbitrary = None if use_wildcards else filler
    if witness.case == "trivial":
        # Line 6: the diameter path of k left shifts spelling Y.
        return [_LEFT[digit] for digit in y]
    i, j, theta = witness.i, witness.j, witness.theta
    if witness.case == "l":
        # Line 8, with (i, j, theta) = (s_1, t_1, θ_1), all 1-based:
        #   (s1-1) arbitrary left shifts, then right shifts spelling
        #   y_{t1-θ1} .. y_1, then (k-t1) arbitrary right shifts, then left
        #   shifts spelling y_{t1+1} .. y_k.
        steps = [_LEFT[arbitrary]] * (i - 1)
        steps += [_RIGHT[digit] for digit in reversed(y[: j - theta])]
        steps += [_RIGHT[arbitrary]] * (k - j)
        steps += [_LEFT[digit] for digit in y[j:]]
        return steps
    if witness.case == "r":
        # Line 9, with (i, j, theta) = (s_2, t_2, θ_2), all 1-based:
        #   (k-s2) arbitrary right shifts, then left shifts spelling
        #   y_{t2+θ2} .. y_k, then (t2-1) arbitrary left shifts, then right
        #   shifts spelling y_{t2-1} .. y_1.
        steps = [_RIGHT[arbitrary]] * (k - i)
        steps += [_LEFT[digit] for digit in y[j + theta - 1 :]]
        steps += [_LEFT[arbitrary]] * (j - 1)
        steps += [_RIGHT[digit] for digit in reversed(y[: j - 1])]
        return steps
    raise RoutingError(f"unknown witness case {witness.case!r}")


def apply_step(
    word: WordTuple, step: RoutingStep, d: int, wildcard: WildcardPolicy | int = 0, index: int = 0
) -> WordTuple:
    """Apply one routing step to ``word``, resolving a wildcard via ``wildcard``."""
    digit = step.digit
    if digit is None:
        digit = wildcard(word, index) if callable(wildcard) else wildcard
    validate_word((digit,), d, 1)
    if step.direction == Direction.LEFT:
        return left_shift(word, digit)
    return right_shift(word, digit)


def apply_path(
    x: WordTuple, path: Iterable[RoutingStep], d: int, wildcard: WildcardPolicy | int = 0
) -> WordTuple:
    """Apply a whole routing path to ``x`` and return the final word."""
    word = x
    for index, step in enumerate(path):
        word = apply_step(word, step, d, wildcard, index)
    return word


def path_words(
    x: WordTuple, path: Iterable[RoutingStep], d: int, wildcard: WildcardPolicy | int = 0
) -> List[WordTuple]:
    """All intermediate vertices of a path, source first, destination last."""
    words = [x]
    for index, step in enumerate(path):
        words.append(apply_step(words[-1], step, d, wildcard, index))
    return words


def verify_path(
    x: WordTuple, y: WordTuple, path: Sequence[RoutingStep], d: int, wildcard: WildcardPolicy | int = 0
) -> bool:
    """True when applying ``path`` to ``x`` lands exactly on ``y``."""
    return apply_path(x, path, d, wildcard) == y


def step_from_action(action: int, d: int) -> RoutingStep:
    """Decode a compiled-table action byte into a :class:`RoutingStep`.

    Actions ``0..d-1`` are type-L steps inserting that digit; actions
    ``d..2d-1`` type-R steps inserting ``action - d`` (the one-byte
    next-hop encoding of :mod:`repro.core.tables`).  Sentinel bytes
    (at-destination, unreachable) are not steps and are rejected.
    """
    if 0 <= action < d:
        return _LEFT[action]
    if d <= action < 2 * d:
        return _RIGHT[action - d]
    raise RoutingError(f"action byte {action} is not a shift action for d = {d}")


@functools.lru_cache(maxsize=None)
def action_steps(d: int) -> Tuple[RoutingStep, ...]:
    """The shared step of every shift action byte ``0..2d-1``, by index.

    What the table tiers index to turn a row of action bytes into a path:
    one tuple index per hop, into the same steps :func:`step_from_action`
    returns.
    """
    return tuple(step_from_action(action, d) for action in range(2 * d))


def action_from_step(step: RoutingStep, d: int) -> int:
    """Inverse of :func:`step_from_action`; wildcards are not encodable."""
    if step.digit is None:
        raise RoutingError("wildcard steps have no one-byte action encoding")
    if not 0 <= step.digit < d:
        raise RoutingError(f"digit {step.digit} is not in 0..{d - 1}")
    if step.direction == Direction.LEFT:
        return step.digit
    return d + step.digit


#: Cache key: (source, destination, directed, method, use_wildcards).
RouteKey = Tuple[WordTuple, WordTuple, bool, str, bool]


class RouteCache:
    """A bounded LRU of planned routing paths, with hit/miss accounting.

    Route planning is a pure function of ``(x, y, method, use_wildcards)``
    — witnesses and paths are deterministic — so steady-state traffic
    with repeated (source, destination) pairs need not recompute them.
    Entries are stored as immutable tuples; :meth:`get` hands back a fresh
    list so callers may mutate their copy (the simulator pops steps off
    the routing-path field in flight).

    >>> cache = RouteCache(maxsize=2)
    >>> route((0, 1), (1, 0), d=2, cache=cache) == route((0, 1), (1, 0), d=2, cache=cache)
    True
    >>> cache.hits, cache.misses
    (1, 1)
    """

    __slots__ = ("maxsize", "hits", "misses", "_entries")

    def __init__(self, maxsize: int = 4096) -> None:
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[RouteKey, Tuple[RoutingStep, ...]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: RouteKey) -> Optional[Path]:
        """The cached path for ``key`` (as a fresh list), or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return list(entry)

    def put(self, key: RouteKey, path: Sequence[RoutingStep]) -> None:
        """Store ``path`` under ``key``, evicting the LRU entry if full."""
        self._entries[key] = tuple(path)
        self._entries.move_to_end(key)
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """The flat counter row benches and simulator stats report."""
        return {
            "entries": float(len(self._entries)),
            "hits": float(self.hits),
            "misses": float(self.misses),
            "hit_rate": self.hit_rate,
        }


def route(
    x: WordTuple,
    y: WordTuple,
    d: int,
    directed: bool = False,
    method: Method = "auto",
    use_wildcards: bool = True,
    cache: Optional[RouteCache] = None,
) -> Path:
    """Validate the endpoints and produce a shortest routing path.

    The one-call public entry point: picks Algorithm 1 for the directed
    network and Algorithm 2/4 for the undirected one.  When ``cache`` is
    given, repeated calls with the same endpoints and options are served
    from it (see :class:`RouteCache`).
    """
    k = len(x)
    validate_word(x, d, k)
    validate_word(y, d, k)
    if cache is not None:
        key = (x, y, directed, str(method), use_wildcards)
        cached = cache.get(key)
        if cached is not None:
            return cached
    if directed:
        path = shortest_path_unidirectional(x, y)
    else:
        path = shortest_path_undirected(x, y, method=method, use_wildcards=use_wildcards)
    if cache is not None:
        cache.put(key, path)
    return path


def path_length_matches_distance(
    x: WordTuple, y: WordTuple, path: Sequence[RoutingStep], directed: bool = False
) -> bool:
    """True when ``len(path)`` equals the corresponding distance function."""
    if directed:
        return len(path) == directed_distance(x, y)
    from repro.core.distance import undirected_distance  # cycle-free local import

    return len(path) == undirected_distance(x, y)


def format_path(path: Sequence[RoutingStep]) -> str:
    """Human-readable rendering, e.g. ``"L0 R* R1 L1"``."""
    return " ".join(str(step) for step in path)


def parse_path(text: str, d: Optional[int] = None) -> Path:
    """Inverse of :func:`format_path` (used by the CLI).

    A step token is ``L`` or ``R`` followed by either ``*`` (a wildcard)
    or a plain decimal digit body — exactly what :func:`format_path`
    emits.  Anything else (``"Lx"``, ``"L+1"``, ``"L1_2"``, a bare
    ``"L"``) raises :class:`RoutingError` naming the offending token;
    ``int()``'s permissiveness (underscores, signs, surrounding space)
    is deliberately not inherited.  When ``d`` is given, digits are
    additionally range-checked against the alphabet, so e.g. ``"L12"``
    is rejected on a binary network but accepted for d >= 13.
    """
    steps: Path = []
    for token in text.split():
        if len(token) < 2 or token[0] not in "LR":
            raise RoutingError(f"malformed step token {token!r}")
        direction = Direction.LEFT if token[0] == "L" else Direction.RIGHT
        body = token[1:]
        if body == "*":
            digit: Optional[int] = None
        else:
            if not body.isascii() or not body.isdigit():
                raise RoutingError(
                    f"malformed digit body in step token {token!r} "
                    "(expected '*' or a decimal digit string)"
                )
            digit = int(body)
            if d is not None and digit >= d:
                raise RoutingError(
                    f"digit {digit} of step token {token!r} is not in 0..{d - 1}"
                )
        steps.append(RoutingStep(direction, digit))
    return steps
