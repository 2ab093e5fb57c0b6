"""Reachability balls: why Equation (5) overestimates, structurally.

The model behind Eq. (5) implicitly assumes the out-ball of radius t from
any vertex contains exactly ``d^t`` vertices (each new digit multiplies
the reach).  In truth the t-step reach set ``{x_{t+1..k} · w : |w| = t}``
*collides across radii* whenever X overlaps itself — e.g. from ``000``
every step-1 word ``00a`` is also a step-2 word — so balls are smaller
than the model says, distances are shorter, and the exact mean sits below
the closed form.  This module measures the effect:

* :func:`directed_ball_profile` — |ball_t(x)| for t = 0..k;
* :func:`mean_ball_profile` — averaged over all sources;
* :func:`model_ball_profile` — what Eq. (5)'s distribution implies;
* :func:`ball_deficit_rows` — the side-by-side table bench E2 prints.
"""

from __future__ import annotations

from itertools import accumulate
from typing import List, Tuple

from repro.core.batch import distance_counts, distances_row
from repro.core.packed import PackedSpace
from repro.core.word import WordTuple, validate_parameters


def directed_ball_profile(x: WordTuple, d: int) -> List[int]:
    """``[|ball_0|, |ball_1|, ..., |ball_k|]`` for out-balls from ``x``.

    One directed BFS row from ``x``; ``ball_k`` is always the whole
    graph (d^k).
    """
    k = len(x)
    space = PackedSpace(d, k)
    row = distances_row(space, space.pack_checked(x), directed=True)
    layers = [0] * (k + 1)
    for dist in row:
        layers[dist] += 1
    # Cumulative: ball_t = vertices within distance t.
    return list(accumulate(layers))


def mean_ball_profile(d: int, k: int) -> List[float]:
    """Mean |ball_t| over every source vertex of DG(d, k).

    Summed over sources, the ball sizes are the cumulative all-pairs
    distance counts, so this needs no per-source loop.
    """
    validate_parameters(d, k)
    n = d**k
    return [total / n for total in accumulate(distance_counts(d, k, True))]


def model_ball_profile(d: int, k: int) -> List[int]:
    """The ball sizes Eq. (5)'s geometric model implies: ``d^t``.

    (The model's P(D <= t) = α^{k-t} is exactly |ball_t| / N = d^t / d^k.)
    """
    validate_parameters(d, k)
    return [d**t for t in range(k + 1)]


def ball_deficit_rows(d: int, k: int) -> List[Tuple[int, float, int, float]]:
    """Rows (t, mean |ball_t|, model d^t, mean/model) for bench E2.

    The ratio exceeds 1 for every 0 < t < k: real balls are *larger* than
    the model's because self-overlapping sources re-reach earlier layers'
    words with fresh digits — more vertices close by, smaller distances,
    hence the closed form's overestimate.
    """
    mean = mean_ball_profile(d, k)
    model = model_ball_profile(d, k)
    return [(t, mean[t], model[t], mean[t] / model[t]) for t in range(k + 1)]
