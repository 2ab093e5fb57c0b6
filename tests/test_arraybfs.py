"""Byte-identity tests for the array-native BFS kernel.

The kernel's contract is exact: every output byte — distances *and*
tie-broken next-hop actions — equals what the python reference BFS
(:func:`repro.core.arraybfs.reference_table_rows`) produces, across
orientations, degrees, partial and scattered row sets, and blocked
(failed) vertex sets.  The tests here enumerate that contract; the perf
claim lives in benchmarks/bench_big_k.py (E22).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.arraybfs import (
    ACTION_UNREACHABLE,
    fill_matrix_rows,
    reference_table_rows,
    table_rows,
)
from repro.core.parallel import compile_table_buffers
from repro.exceptions import InvalidParameterError

GRAPHS = [(2, 6), (2, 9), (3, 4), (4, 3)]


@pytest.mark.parametrize("d,k", GRAPHS)
@pytest.mark.parametrize("directed", [False, True])
def test_table_buffers_byte_identical(d, k, directed):
    reference = reference_table_rows(d, k, range(d**k), directed)
    array = compile_table_buffers(d, k, directed, workers=1)
    assert bytes(array[0]) == bytes(reference[0])  # distances
    assert bytes(array[1]) == bytes(reference[1])  # tie-broken actions


@pytest.mark.parametrize("d,k", GRAPHS)
@pytest.mark.parametrize("directed", [False, True])
def test_matrix_byte_identical(d, k, directed):
    # Source-major forward rows are the transpose of the reference's
    # destination-major reverse rows.
    n = d**k
    ref_dist, _ = reference_table_rows(d, k, range(n), directed)
    matrix = bytearray(n * n)
    fill_matrix_rows(d, k, range(n), directed, matrix)
    expected = np.frombuffer(bytes(ref_dist), dtype=np.uint8).reshape(n, n).T
    assert bytes(matrix) == expected.tobytes()


@pytest.mark.parametrize("start,stop", [(0, 1), (7, 8), (5, 21), (0, 64)])
def test_partial_table_rows_match_full_compile(start, stop):
    d, k = 2, 6
    n = d**k
    dist, act = reference_table_rows(d, k, range(n))
    part_dist, part_act = table_rows(d, k, range(start, stop))
    assert bytes(part_dist) == bytes(dist[start * n:stop * n])
    assert bytes(part_act) == bytes(act[start * n:stop * n])


def test_scattered_rows_match_reference():
    # The repair layer refills an arbitrary, unordered set of rows.
    d, k = 2, 6
    dests = [40, 3, 63, 0, 17]
    assert table_rows(d, k, dests) == reference_table_rows(d, k, dests)


def test_tiny_blocks_do_not_change_bytes():
    # Block boundaries must be invisible: a 1-row block equals the
    # all-at-once result equals the reference.
    d, k = 2, 6
    reference = reference_table_rows(d, k, range(d**k))
    for block in (1, 3, 64):
        got = table_rows(d, k, range(d**k), block=block)
        assert got == reference


def test_empty_and_bad_ranges():
    dist, act = table_rows(2, 6, range(5, 5))
    assert dist == bytearray() and act == bytearray()
    with pytest.raises(InvalidParameterError):
        table_rows(2, 6, range(60, 65))
    with pytest.raises(InvalidParameterError):
        table_rows(2, 6, [-1])
    with pytest.raises(InvalidParameterError):
        table_rows(2, 6, range(4), blocked=[64])


@pytest.mark.parametrize("d,k", [(2, 4), (2, 6), (3, 3)])
@pytest.mark.parametrize("directed", [False, True])
def test_blocked_rows_match_reference(d, k, directed):
    """Random fault sets: the kernel equals the reference row for row."""
    n = d**k
    rng = random.Random(f"blocked:{d}:{k}:{directed}")
    for _ in range(6):
        blocked = rng.sample(range(n), rng.randint(1, max(1, n // 6)))
        reference = reference_table_rows(d, k, range(n), directed, blocked)
        for block in (None, 5):
            got = table_rows(d, k, range(n), directed, blocked, block=block)
            assert got == reference
        # A blocked destination's row is entirely unreachable.
        dist, act = got
        for dest in blocked:
            row = slice(dest * n, (dest + 1) * n)
            assert set(dist[row]) == set(act[row]) == {ACTION_UNREACHABLE}
