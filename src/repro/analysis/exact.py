"""Vectorised all-pairs distance computation (numpy) for the benches.

The pure-Python distance functions are O(k) per pair; regenerating
Figure 2 needs *all* ``N²`` pairs for N up to a few thousand, which is
where these numpy kernels come in.  Both kernels are cross-checked against
the pure implementations in the integration tests.

* :func:`directed_distance_matrix` evaluates Property 1 for all pairs at
  once: for each overlap length ``s``, "suffix_s(X) == prefix_s(Y)" is one
  broadcast integer comparison.
* :func:`undirected_distance_matrix` (and its directed twin
  :func:`directed_bfs_distance_matrix`, the BFS oracle for Property 1)
  runs the lockstep all-sources BFS of :mod:`repro.core.arraybfs`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.arraybfs import fill_matrix_rows
from repro.core.word import validate_parameters
from repro.exceptions import InvalidParameterError

#: Memory guard: refuse matrices bigger than this many cells.
MAX_CELLS = 256 * 1024 * 1024


def _check_size(d: int, k: int) -> int:
    validate_parameters(d, k)
    n = d**k
    if n * n > MAX_CELLS:
        raise InvalidParameterError(
            f"DG({d},{k}) has {n}^2 pairs; exceeds the {MAX_CELLS}-cell guard"
        )
    return n


def directed_distance_matrix(d: int, k: int) -> np.ndarray:
    """``D[x, y]`` = directed distance, with vertices in integer encoding.

    The integer encoding is base-d with the head digit most significant
    (see :meth:`repro.core.packed.PackedSpace.pack`).
    """
    n = _check_size(d, k)
    values = np.arange(n, dtype=np.int64)
    overlap = np.zeros((n, n), dtype=np.int8)
    for s in range(1, k + 1):
        suffix = values % (d**s)  # last s digits of X
        prefix = values // (d ** (k - s))  # first s digits of Y
        match = suffix[:, None] == prefix[None, :]
        overlap[match] = s
    return (k - overlap).astype(np.int8)


def _bfs_distance_matrix(d: int, k: int, directed: bool) -> np.ndarray:
    """All-sources BFS distances as an ``int8`` N x N matrix.

    The kernel's 0xFF "unreachable" byte is exactly -1 in the int8 view,
    and real distances never exceed k < 127.
    """
    n = _check_size(d, k)
    flat = bytearray(n * n)
    fill_matrix_rows(d, k, range(n), directed, flat)
    return np.frombuffer(flat, dtype=np.int8).reshape(n, n)


def undirected_distance_matrix(d: int, k: int) -> np.ndarray:
    """``D[x, y]`` = undirected distance, by all-sources BFS."""
    return _bfs_distance_matrix(d, k, directed=False)


def directed_bfs_distance_matrix(d: int, k: int) -> np.ndarray:
    """Directed distances by all-sources BFS (oracle for Property 1)."""
    return _bfs_distance_matrix(d, k, directed=True)


def average_distance_exact(matrix: np.ndarray) -> float:
    """Mean over all ordered pairs (including the zero diagonal)."""
    return float(matrix.mean())


def distance_histogram(matrix: np.ndarray) -> Dict[int, int]:
    """Map distance value -> number of ordered pairs."""
    values, counts = np.unique(matrix, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def directed_average_distance(d: int, k: int) -> float:
    """Exact mean directed distance (vectorised Property 1)."""
    return average_distance_exact(directed_distance_matrix(d, k))


def undirected_average_distance(d: int, k: int) -> float:
    """Exact mean undirected distance (vectorised BFS)."""
    return average_distance_exact(undirected_distance_matrix(d, k))


def undirected_average_series(
    d_values: Tuple[int, ...], k_max: int, cell_guard: int = 4_194_304
) -> Dict[int, List[Tuple[int, float]]]:
    """Figure-2 series: for each d, [(k, mean undirected distance)].

    Stops each series when N² would exceed ``cell_guard`` cells so the
    bench stays fast; the bench supplements larger k by sampling.
    """
    series: Dict[int, List[Tuple[int, float]]] = {}
    for d in d_values:
        points: List[Tuple[int, float]] = []
        for k in range(1, k_max + 1):
            n = d**k
            if n * n > cell_guard:
                break
            points.append((k, undirected_average_distance(d, k)))
        series[d] = points
    return series
