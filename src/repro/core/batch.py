"""Batch distance engines for DG(d, k): many pairs for the price of one.

The pair functions of :mod:`repro.core.distance` are optimal per call —
O(k) each — but all-pairs and one-to-many workloads (gravity tables,
average-distance studies, warm-up of routing caches) repeat per-call setup
that can be hoisted:

* :func:`distance_matrix` / :func:`distances_row` — BFS distance rows
  over *packed* integer words, filled whole frontiers at a time by the
  kernel of :mod:`repro.core.arraybfs` into ``bytearray`` rows, with no
  tuple allocation at all.
* :func:`undirected_distances_many` — builds the suffix structure of the
  fixed word ``x`` *once* (a suffix automaton, the online equivalent of
  the paper's Algorithm-4 prefix tree) and then streams each query ``y``
  through it in O(k), instead of rebuilding a generalized suffix tree per
  pair.
* :func:`distance_counts` / :func:`average_distance_packed` /
  :func:`equation5_crosscheck` — the exact all-pairs distance
  distribution and mean from streamed BFS rows, cross-checked
  against the paper's Equation (5) closed form (which EXPERIMENTS.md E2
  shows to be an upper bound).

Everything here is validated exhaustively against the pair functions in
``tests/test_batch.py``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.core.arraybfs import (
    ACTION_UNREACHABLE,
    DEFAULT_BLOCK_ROWS,
    check_byte_rows,
    fill_matrix_rows,
)
from repro.core.packed import PackedSpace
from repro.core.word import WordTuple, validate_word
from repro.exceptions import InvalidWordError


def distances_row(
    space: PackedSpace, source: int, directed: bool = False
) -> bytearray:
    """BFS distances from packed ``source`` to every vertex, as a bytearray.

    ``row[value]`` is the distance to the vertex whose packed encoding is
    ``value`` (see :meth:`PackedSpace.pack`).
    """
    if not 0 <= source < space.order:
        raise InvalidWordError(
            f"packed source {source} outside 0..{space.order - 1}"
        )
    row = bytearray(space.order)
    fill_matrix_rows(space.d, space.k, (source,), directed, row)
    return row


def distance_matrix(d: int, k: int, directed: bool = False) -> List[bytearray]:
    """The full N x N distance matrix of DG(d, k), one bytearray per source.

    ``matrix[pack(x)][pack(y)]`` is D(X, Y); O(N²·d) time, N² bytes of
    memory, filled by the lockstep kernel of :mod:`repro.core.arraybfs`.
    """
    n = check_byte_rows(d, k)
    flat = bytearray(n * n)
    fill_matrix_rows(d, k, range(n), directed, flat)
    return [flat[i * n:(i + 1) * n] for i in range(n)]


def distance_counts(d: int, k: int, directed: bool = False) -> List[int]:
    """``counts[t]`` = ordered pairs (X, Y) of DG(d, k) with D(X, Y) = t.

    Streams the distance matrix in blocks of source rows, so memory
    stays O(block · N) however large the graph.
    """
    n = check_byte_rows(d, k)
    counts = np.zeros(ACTION_UNREACHABLE + 1, dtype=np.int64)
    buf = bytearray(min(n, DEFAULT_BLOCK_ROWS) * n)
    for start in range(0, n, DEFAULT_BLOCK_ROWS):
        stop = min(start + DEFAULT_BLOCK_ROWS, n)
        rows = memoryview(buf)[:(stop - start) * n]
        fill_matrix_rows(d, k, range(start, stop), directed, rows)
        counts += np.bincount(np.frombuffer(rows, dtype=np.uint8),
                              minlength=counts.size)
    return [int(c) for c in counts[:k + 1]]


def average_distance_packed(d: int, k: int, directed: bool = False) -> float:
    """Exact mean distance over all ordered pairs (including X == Y).

    Agrees with
    :func:`repro.core.average_distance.directed_average_distance_exact` /
    ``undirected_average_distance_exact`` (checked in the tests) while
    scaling to graphs an order of magnitude larger.
    """
    counts = distance_counts(d, k, directed)
    total = sum(t * c for t, c in enumerate(counts))
    return total / (d**k * d**k)


def equation5_crosscheck(d: int, k: int) -> Dict[str, float]:
    """The paper's Equation (5) vs. the exact batch average, in one record.

    E2 (EXPERIMENTS.md) shows Eq. (5) is an upper-bound approximation;
    this evaluator regenerates that finding from the packed BFS engine:
    ``gap = closed_form - exact`` is always >= 0 and shrinks as d grows.
    """
    from repro.core.average_distance import directed_average_distance_closed_form

    exact = average_distance_packed(d, k, directed=True)
    closed = directed_average_distance_closed_form(d, k)
    return {
        "d": float(d),
        "k": float(k),
        "closed_form": closed,
        "exact": exact,
        "gap": closed - exact,
    }


# ----------------------------------------------------------------------
# One-to-many undirected distances: build x's suffix structure once
# ----------------------------------------------------------------------


class _SuffixAutomaton:
    """Suffix automaton of a fixed word ``x``, annotated for Theorem 2.

    The automaton recognises exactly the substrings of ``x``; each state
    additionally carries the minimum and maximum *end positions* of its
    occurrences in ``x`` plus suffix-link-path maxima of the two Theorem-2
    scores, so that a single O(k) scan of any query ``y`` maximises

        ``2s + (b - a)``  (l-case)   and   ``2s + (a - b)``  (r-case)

    over all common substrings ``x[a : a+s] == y[b : b+s]`` — the same
    quantities :meth:`GeneralizedSuffixTree.best_alignments` extracts, but
    without rebuilding any per-pair structure.  With a match of length
    ``s`` ending at ``j`` in ``y`` and at ``e`` in ``x`` the scores read
    ``j + (2s - e)`` and ``-j + (2s + e)``, so per state it suffices to
    know ``min e`` (l-case) and ``max e`` (r-case).
    """

    __slots__ = ("k", "_trans", "_link", "_len", "_up_l", "_up_r",
                 "_min_end", "_max_end", "_neg")

    def __init__(self, word: WordTuple) -> None:
        self.k = len(word)
        self._trans: List[Dict[int, int]] = [{}]
        self._link: List[int] = [-1]
        self._len: List[int] = [0]
        last = 0
        prefix_states: List[int] = []
        for symbol in word:
            last = self._extend(last, symbol)
            prefix_states.append(last)
        self._annotate(prefix_states)

    def _extend(self, last: int, symbol: int) -> int:
        trans, link, lens = self._trans, self._link, self._len
        cur = len(lens)
        trans.append({})
        link.append(-1)
        lens.append(lens[last] + 1)
        p = last
        while p != -1 and symbol not in trans[p]:
            trans[p][symbol] = cur
            p = link[p]
        if p == -1:
            link[cur] = 0
            return cur
        q = trans[p][symbol]
        if lens[p] + 1 == lens[q]:
            link[cur] = q
            return cur
        clone = len(lens)
        trans.append(dict(trans[q]))
        link.append(link[q])
        lens.append(lens[p] + 1)
        while p != -1 and trans[p].get(symbol) == q:
            trans[p][symbol] = clone
            p = link[p]
        link[q] = clone
        link[cur] = clone
        return cur

    def _annotate(self, prefix_states: List[int]) -> None:
        link, lens = self._link, self._len
        n = len(lens)
        min_end = [self.k] * n  # one past any valid end position
        max_end = [-1] * n
        for pos, state in enumerate(prefix_states):
            if pos < min_end[state]:
                min_end[state] = pos
            if pos > max_end[state]:
                max_end[state] = pos
        by_len = sorted(range(1, n), key=lens.__getitem__)
        for state in reversed(by_len):  # deepest first: push endpos up links
            parent = link[state]
            if min_end[state] < min_end[parent]:
                min_end[parent] = min_end[state]
            if max_end[state] > max_end[parent]:
                max_end[parent] = max_end[state]
        neg = -(4 * self.k + 4)  # below any achievable score
        up_l = [neg] * n
        up_r = [neg] * n
        for state in by_len:  # shallowest first: pull maxima down links
            parent = link[state]
            up_l[state] = max(2 * lens[state] - min_end[state], up_l[parent])
            up_r[state] = max(2 * lens[state] + max_end[state], up_r[parent])
        self._min_end = min_end
        self._max_end = max_end
        self._up_l = up_l
        self._up_r = up_r
        self._neg = neg

    def undirected_distance(self, y: WordTuple) -> int:
        """Theorem 2 distance from the automaton's word to ``y``, O(k)."""
        k = self.k
        if len(y) != k:
            raise InvalidWordError(
                f"query {y!r} has length {len(y)}, expected {k}"
            )
        trans, link, lens = self._trans, self._link, self._len
        min_end, max_end = self._min_end, self._max_end
        up_l, up_r = self._up_l, self._up_r
        best = self._neg  # max over both cases of the Theorem-2 score
        cur = 0
        length = 0
        for j, symbol in enumerate(y):
            step = trans[cur].get(symbol)
            if step is None:
                while cur != 0 and symbol not in trans[cur]:
                    cur = link[cur]
                step = trans[cur].get(symbol)
                if step is None:
                    length = 0
                    continue
                length = lens[cur] + 1
                cur = step
            else:
                cur = step
                length += 1
            # Longest match ending at j sits at (cur, length); shorter
            # matches ending at j are the suffix-link ancestors of cur.
            cand = 2 * length - min_end[cur]
            parent_l = up_l[link[cur]]
            if parent_l > cand:
                cand = parent_l
            score = j + cand
            if score > best:
                best = score
            cand = 2 * length + max_end[cur]
            parent_r = up_r[link[cur]]
            if parent_r > cand:
                cand = parent_r
            score = cand - j
            if score > best:
                best = score
        if best <= self._neg:
            return k  # no common symbol: the trivial diameter path
        return min(k, 2 * k - best)


def undirected_distances_many(
    x: WordTuple, ys: Iterable[Sequence[int]]
) -> List[int]:
    """Undirected distances from ``x`` to each word in ``ys``.

    Builds the suffix structure of ``x`` once and streams the queries, so
    m queries cost O(k + m·k) instead of m times the per-pair
    suffix-tree construction of :func:`undirected_distance`.  Exhaustively
    validated against the pair function in the tests.

    >>> undirected_distances_many((0, 0, 1), [(1, 1, 1), (0, 1, 0), (0, 0, 1)])
    [2, 1, 0]
    """
    x = tuple(x)
    if not x:
        raise InvalidWordError("words must be non-empty")
    automaton = _SuffixAutomaton(x)
    return [automaton.undirected_distance(tuple(y)) for y in ys]


def directed_distances_many(
    x: WordTuple, ys: Iterable[Sequence[int]], d: int
) -> List[int]:
    """Directed distances from ``x`` to each of ``ys`` via packed affixes."""
    x = tuple(x)
    k = len(x)
    validate_word(x, d, k)
    space = PackedSpace(d, k)
    px = space.pack(x)
    return [
        space.directed_distance(px, space.pack_checked(tuple(y))) for y in ys
    ]
