"""Distance functions of the de Bruijn graph DG(d, k) (paper Section 2).

Directed graph (Property 1)
    ``D(X, Y) = k − l`` where ``l`` is the longest suffix of ``X`` equal to
    a prefix of ``Y``.

Undirected graph (Theorem 2 / Corollary 4)
    ``D(X, Y) = 2k − 1 + min( min_{i,j} (i − j − l_{i,j}),
    min_{i,j} (−i + j − r_{i,j}) )``, capped at the diameter ``k``.

    Re-parametrised over forward common substrings
    ``x[a : a+s] == y[b : b+s]`` (0-based, ``s >= 1``) this reads

    ``D(X, Y) = min(k, min_{(a,b,s)} (2k − 2s − |a − b|))``

    — see DESIGN.md Section 2 for the derivation and the exhaustive BFS
    cross-check.  Grouped by diagonal ``δ = a − b`` it is
    ``min(k, min_δ (2k − 2·s(δ) − |δ|))``, where ``s(δ)`` is the longest
    run of equal digits pairing ``x_a`` with ``y_{a−δ}``.  Four
    implementations are provided: an O(k³) definition-level reference,
    the paper's O(k²) matching-function route (Algorithm 2's core), the
    O(k) suffix-tree route (Algorithm 4's role) and a word-parallel scan
    of the diagonals (the serving path's evaluation; Algorithms 2 and 4
    are its oracles).

All functions accept plain digit tuples (see :mod:`repro.core.word`); none
of them need the alphabet size ``d`` — the distances depend only on the
digit patterns of the two labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

from repro.core.matching import (
    common_substrings_brute,
    matching_row_l,
    matching_row_r,
)
from repro.core.suffix_tree import GeneralizedSuffixTree
from repro.core.word import WordTuple, overlap_length
from repro.exceptions import InvalidWordError

#: k at or below which the O(k^2) matching method beats the suffix tree's
#: constant factor.  Measured (not guessed): the crossover sweep of
#: benchmarks/bench_routing_throughput.py times undirected_witness via
#: both methods on 300 random d=2 pairs per k (best of 3 repetitions).
#: On this container's CPython, matching wins clearly through k=10
#: (ratio 0.64-0.85) and the two methods stay within ~25% of each other
#: for k=12-20, so the exact crossing is noise-limited inside that band;
#: 14 is its midpoint, and the bench asserts the constant stays inside
#: the band.  Re-run the bench to recalibrate on new hardware (the
#: measurement lands in BENCH_routing_throughput.json and
#: EXPERIMENTS.md E17).
AUTO_METHOD_CUTOVER = 14

#: When true, ``undirected_witness(method="brute")`` re-derives the
#: distance from the O(k^3) definition and asserts it against the witness.
#: Off by default: the brute re-check doubles (or worse) the cost of every
#: brute call, which is exactly what the test-oracle path does not need
#: when it is itself the thing under test.
BRUTE_CHECKS_WITNESS = False

Method = Literal["auto", "suffix_tree", "matching", "scan", "brute"]

Case = Literal["l", "r", "trivial"]


def directed_distance(x: WordTuple, y: WordTuple) -> int:
    """Distance from ``x`` to ``y`` in the *directed* DG(d, k) (Property 1).

    O(k) time via the Morris–Pratt overlap; note the directed distance is
    not symmetric.

    >>> directed_distance((0, 1, 1), (1, 1, 0))
    1
    >>> directed_distance((1, 1, 0), (0, 1, 1))
    2
    """
    return len(x) - overlap_length(x, y)


def directed_distance_brute(x: WordTuple, y: WordTuple) -> int:
    """Definition-level directed distance (O(k²)); test oracle."""
    k = len(x)
    if k != len(y):
        raise InvalidWordError("words must have equal length")
    best = 0
    for s in range(1, k + 1):
        if tuple(x[k - s :]) == tuple(y[:s]):
            best = s
    return k - best


@dataclass(frozen=True)
class UndirectedWitness:
    """Why the undirected distance takes its value, in the paper's terms.

    ``case`` is ``"l"`` for the route ``L^p R^q L^r`` (Algorithm 2 line 8),
    ``"r"`` for ``R^p L^q R^r`` (line 9) and ``"trivial"`` for the diameter
    path of ``k`` left shifts (line 6).  ``i``, ``j`` are the paper's
    1-based anchor indices (``s_1, t_1`` or ``s_2, t_2``) and ``theta`` the
    matched-block length (``θ_1`` or ``θ_2``); all zero for the trivial
    case.
    """

    distance: int
    case: Case
    i: int = 0
    j: int = 0
    theta: int = 0


def undirected_distance_brute(x: WordTuple, y: WordTuple) -> int:
    """O(k³) undirected distance straight from the common-substring form."""
    k = _common_length(x, y)
    best = k
    for a, b, s in common_substrings_brute(x, y):
        candidate = 2 * k - 2 * s - abs(a - b)
        if candidate < best:
            best = candidate
    return max(best, 0)


def undirected_witness_matching(x: WordTuple, y: WordTuple) -> UndirectedWitness:
    """Theorem 2 evaluated with Algorithm 3 rows: O(k²) time, O(k) space.

    This is the computational core of the paper's Algorithm 2, including
    its linear-space refinement (one matching row in memory at a time).
    """
    k = _common_length(x, y)
    best_l: Optional[tuple] = None  # (distance, i_1based, j_1based, theta)
    best_r: Optional[tuple] = None
    for i in range(k):
        row_l = matching_row_l(x, y, i)
        for j in range(k):
            value = 2 * k - 1 + (i + 1) - (j + 1) - row_l[j]
            if row_l[j] >= 1 and (best_l is None or value < best_l[0]):
                best_l = (value, i + 1, j + 1, row_l[j])
        row_r = matching_row_r(x, y, i)
        for j in range(k):
            value = 2 * k - 1 - (i + 1) + (j + 1) - row_r[j]
            if row_r[j] >= 1 and (best_r is None or value < best_r[0]):
                best_r = (value, i + 1, j + 1, row_r[j])
    return _pick_witness(best_l, best_r, k)


def undirected_witness_suffix_tree(x: WordTuple, y: WordTuple) -> UndirectedWitness:
    """Theorem 2 evaluated on a generalized suffix tree: O(k) time and space.

    Plays the role of the paper's Algorithm 4 (Weiner prefix trees of
    ``S``/``S̄`` with the ``p(v)``, ``q(v)`` leaf minima); see DESIGN.md
    Section 2 for the exact correspondence.
    """
    k = _common_length(x, y)
    tree = GeneralizedSuffixTree(x, y)
    align_l, align_r = tree.best_alignments()
    best_l = best_r = None
    if align_l is not None and align_l.s >= 1:
        # l-case: i = a+1, j = b+s (1-based), theta = s.
        distance = 2 * k - 2 * align_l.s - (align_l.b - align_l.a)
        best_l = (distance, align_l.a + 1, align_l.b + align_l.s, align_l.s)
    if align_r is not None and align_r.s >= 1:
        # r-case: i = a+s, j = b+1 (1-based), theta = s.
        distance = 2 * k - 2 * align_r.s - (align_r.a - align_r.b)
        best_r = (distance, align_r.a + align_r.s, align_r.b + 1, align_r.s)
    return _pick_witness(best_l, best_r, k)


def undirected_witness_scan(x: WordTuple, y: WordTuple) -> UndirectedWitness:
    """Theorem 2 as a word-parallel scan of the 2k − 1 diagonals.

    Both words are packed into ints, ``width`` bits per digit, head digit
    most significant.  Diagonal ``δ = a − b`` is one shift and one XOR;
    folding each digit's bits onto its lowest one marks the equal digits,
    and ``e &= e >> width`` repeated until ``e`` is 0 takes ``s(δ)``
    steps.  Diagonals are visited by increasing ``|δ|``: every one costs
    at least ``|δ|``, and one is skipped when the run it needs to beat
    the best so far is longer than its overlap.  The witness follows
    the conventions of :func:`undirected_witness_suffix_tree`, so
    :func:`repro.core.routing.path_from_witness` applies unchanged.
    Plain ints: any ``d`` and any ``k``.
    """
    k = _common_length(x, y)
    low = min(min(x), min(y))
    if low < 0:
        raise InvalidWordError(f"negative digit {low} in {x!r} or {y!r}")
    width = max(1, max(max(x), max(y)).bit_length())
    px = py = 0
    for digit in x:
        px = px << width | digit
    for digit in y:
        py = py << width | digit
    # The lowest bit of every digit, and the shifts that OR a digit's
    # bits onto it without reaching into the next digit.
    ones = ((1 << (k * width)) - 1) // ((1 << width) - 1)
    folds = []
    span = 1
    while span < width:
        folds.append(min(span, width - span))
        span += folds[-1]
    best = k
    found = None  # (δ, s, the last nonzero e)
    for shift in range(k):
        if shift >= best:
            break
        if (2 * k - shift - best) // 2 + 1 > k - shift:
            continue
        mask = ones >> (width * shift)
        for delta in (-shift, shift) if shift else (0,):
            if delta < 0:  # x_{b+δ} against y_b: aligned to y
                diff = (px >> (width * shift)) ^ py
            else:  # x_a against y_{a−δ}: aligned to x
                diff = px ^ (py >> (width * shift))
            for step in folds:
                diff |= diff >> step
            e = mask & ~diff
            s = 0
            while e:
                last = e
                e &= e >> width
                s += 1
            if s and 2 * k - 2 * s - shift < best:
                best = 2 * k - 2 * s - shift
                found = (delta, s, last)
    if found is None:
        return UndirectedWitness(k, "trivial")
    delta, s, last = found
    # The lowest set bit ends the run nearest the tail of the aligned word.
    end = k - 1 - ((last & -last).bit_length() - 1) // width
    if delta < 0:
        b_start = end - s + 1
        a_start = b_start + delta
    else:
        a_start = end - s + 1
        b_start = a_start - delta
    if delta <= 0:
        # l-case: i = a+1, j = b+s (1-based), theta = s.
        return UndirectedWitness(best, "l", a_start + 1, b_start + s, s)
    # r-case: i = a+s, j = b+1 (1-based), theta = s.
    return UndirectedWitness(best, "r", a_start + s, b_start + 1, s)


def undirected_witness(x: WordTuple, y: WordTuple, method: Method = "auto") -> UndirectedWitness:
    """Dispatch to the requested (or size-appropriate) witness computation."""
    if method == "auto":
        method = "matching" if len(x) <= AUTO_METHOD_CUTOVER else "suffix_tree"
    if method == "matching":
        return undirected_witness_matching(x, y)
    if method == "suffix_tree":
        return undirected_witness_suffix_tree(x, y)
    if method == "scan":
        return undirected_witness_scan(x, y)
    if method == "brute":
        # The witness is computed once; the O(k^3) definitional distance
        # is only re-derived as a cross-check under the debug flag.
        witness = undirected_witness_matching(x, y)
        if BRUTE_CHECKS_WITNESS:
            distance = undirected_distance_brute(x, y)
            if witness.distance != distance:  # pragma: no cover - defensive
                raise AssertionError("brute and matching methods disagree")
        return witness
    raise ValueError(f"unknown method {method!r}")


def undirected_distance(x: WordTuple, y: WordTuple, method: Method = "auto") -> int:
    """Distance between ``x`` and ``y`` in the *undirected* DG(d, k).

    >>> undirected_distance((0, 0, 1), (1, 1, 1))
    2
    >>> undirected_distance((0, 1, 0), (0, 1, 0))
    0
    """
    if method == "brute":
        return undirected_distance_brute(x, y)
    return undirected_witness(x, y, method).distance


def _common_length(x: WordTuple, y: WordTuple) -> int:
    if len(x) != len(y):
        raise InvalidWordError(f"words {x!r} and {y!r} have different lengths")
    if not x:
        raise InvalidWordError("words must be non-empty")
    return len(x)


def _pick_witness(best_l, best_r, k: int) -> UndirectedWitness:
    candidates = [w for w in (best_l, best_r) if w is not None]
    if not candidates:
        return UndirectedWitness(k, "trivial")
    distance = min(w[0] for w in candidates)
    if distance >= k:
        # The trivial k-left-shift path is at least as good (line 6 of
        # Algorithm 2 handles the D1 = D2 = k situation).
        return UndirectedWitness(k, "trivial")
    if best_l is not None and best_l[0] == distance:
        return UndirectedWitness(distance, "l", best_l[1], best_l[2], best_l[3])
    assert best_r is not None
    return UndirectedWitness(distance, "r", best_r[1], best_r[2], best_r[3])
