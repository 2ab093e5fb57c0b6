"""The BFS kernel: whole frontiers as bulk integer arithmetic.

Every all-pairs structure in the package — compiled route tables,
repaired tables, distance matrices and the exact averages built on
them — is filled by the one lockstep kernel in this module.  The
distance-layer structure of de Bruijn digraphs (Fàbrega et al., arXiv
2203.09918) guarantees every BFS frontier expands by *affine maps over
packed ranges* — the d type-L successors of ``v`` are the contiguous
block ``(v % d^(k-1))·d .. +d`` and the d type-R successors stride by
``d^(k-1)`` — so a whole frontier is one strided add per inserted digit,
and a whole *level* a handful of numpy ufunc calls regardless of
frontier size.

Byte identity with the python reference
---------------------------------------

The compiled tables' action bytes depend on how same-level discovery
ties are broken.  :func:`reference_table_rows` — a plain python reverse
BFS over one destination at a time — fixes that rule as *first-wins in
frontier order*, and the kernel replicates it exactly, without sorting:

* candidates are laid out row-major — per frontier word, its successor
  blocks in the reference loop's order — so flattened candidate order
  equals serial iteration order;
* already-seen candidates are masked out via one gather on the distance
  row;
* the surviving candidates are scattered **in reverse**, so numpy's
  "last assignment wins" rule for repeated fancy indices implements
  first-wins (asserted byte-for-byte against the reference in
  ``tests/test_arraybfs.py``; a platform where assignment order ever
  changed would fail those tests loudly, not silently);
* the next frontier keeps discovery order by scattering each candidate's
  position and keeping exactly the ones that read their own position
  back — no argsort, no ``np.unique``, every step O(candidates).

Several roots run one *lockstep* BFS over a block of rows (each frontier
entry is ``row·N + vertex``), so the constant per-level numpy dispatch
cost is amortised ``block`` ways — the single-core ~6x over the python
reference on DG(2,12) (E22).

Blocked vertices (the fault-repair layer's failed sites) are pre-marked
in every row so they are never discovered or expanded, then cleared
back to unreachable; a blocked root gets an all-unreachable row.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.word import validate_parameters
from repro.exceptions import InvalidParameterError, InvalidWordError

#: Action byte of a source that already is the destination.
ACTION_AT_DESTINATION = 0xFE

#: Distance/action byte of an unreachable cell — and, during a BFS, of a
#: cell not reached yet (every real distance is below it: k < 254).
ACTION_UNREACHABLE = 0xFF

#: Temporary mark that keeps blocked vertices out of a BFS: anything but
#: :data:`ACTION_UNREACHABLE` is never discovered.  Cleared afterwards.
_BLOCKED_MARK = 0xFE

#: Rows per lockstep BFS block — enough to amortise numpy dispatch.
DEFAULT_BLOCK_ROWS = 256

#: Cap on transient scratch (candidate arrays, position scratch) per
#: block; blocks shrink automatically for big graphs so a compile of
#: DG(2,15), the largest one table allows, stays laptop-sized.
_SCRATCH_BUDGET_BYTES = 64 << 20


def check_byte_rows(d: int, k: int) -> int:
    """Validate (d, k) for one-byte distance and action rows; returns N."""
    validate_parameters(d, k)
    if k >= ACTION_UNREACHABLE - 1:
        raise InvalidWordError(f"k = {k} overflows the byte distance rows")
    if 2 * d >= ACTION_AT_DESTINATION:
        raise InvalidParameterError(
            f"d = {d} overflows the one-byte action encoding"
        )
    return d**k


def _block_rows(n: int, d: int, requested: Optional[int]) -> int:
    """Rows per lockstep block, bounded by the scratch budget."""
    block = DEFAULT_BLOCK_ROWS if requested is None else requested
    if block < 1:
        raise InvalidParameterError(f"block must be >= 1, got {block}")
    # Peak transient = the candidate matrix: up to block*N rows of 2d
    # int32/int64 entries; keep it (and the position scratch) bounded.
    budget = max(1, _SCRATCH_BUDGET_BYTES // (n * 2 * d * 4))
    return max(1, min(block, budget))


def _run_block(d: int, k: int, roots, directed: bool, reverse: bool,
               dist, act, pos, blocked, is_blocked) -> None:
    """Lockstep BFS from ``roots`` (one per row) over one flat block.

    ``dist`` (and ``act`` for the table kind) are uint8 views of the
    block's rows, pre-set to ``ACTION_UNREACHABLE``; ``pos`` is an
    uninitialised integer scratch of the same length (only read where
    just written).  Each frontier entry is the *global* index
    ``row·N + vertex`` so all rows advance level-synchronously through
    the same ufunc calls.

    ``reverse=True`` expands in-neighbors recording next-hop action
    bytes (the table kind); ``reverse=False`` expands out-neighbors for
    plain distance rows (the matrix kind).  ``blocked`` (an array of
    vertices, with ``is_blocked`` its N-entry mask) or None.
    """
    n = d**k
    high = n // d
    itype = pos.dtype
    width = d if directed else 2 * d
    offsets = np.arange(roots.size, dtype=itype) * n
    frontier = offsets + roots
    marks = None
    if blocked is not None:
        marks = (offsets[:, None] + blocked[None, :]).reshape(-1)
        dist[marks] = _BLOCKED_MARK
        frontier = frontier[~is_blocked[roots]]
    dist[frontier] = 0
    if act is not None:
        act[frontier] = ACTION_AT_DESTINATION
    level = 0
    while frontier.size:
        level += 1
        m = frontier.size
        v = frontier % n
        blk = frontier - v
        cands = np.empty((m, width), dtype=itype)
        if reverse:
            # In-neighbor order of the reference: the d words reaching v
            # by a left shift, then (undirected) the d words reaching it
            # by a right shift.
            body = blk + v // d
            for b in range(d):
                np.add(body, b * high, out=cands[:, b])
            if not directed:
                base = blk + (v % high) * d
                for a in range(d):
                    np.add(base, a, out=cands[:, d + a])
        else:
            # Out-neighbor order: the contiguous type-L block, then
            # (undirected) the strided type-R block.
            base = blk + (v % high) * d
            for a in range(d):
                np.add(base, a, out=cands[:, a])
            if not directed:
                body = blk + v // d
                for b in range(d):
                    np.add(body, b * high, out=cands[:, d + b])
        if act is not None:
            acts = np.empty((m, width), dtype=np.uint8)
            acts[:, :d] = (v % d).astype(np.uint8)[:, None]
            if not directed:
                acts[:, d:] = (d + v // high).astype(np.uint8)[:, None]
        flat = cands.reshape(-1)
        unseen = dist[flat] == ACTION_UNREACHABLE
        cand = flat[unseen]
        if cand.size == 0:
            break
        idx = np.arange(cand.size, dtype=itype)
        first_wins = cand[::-1]  # reversed: last scatter == serial first
        dist[first_wins] = level
        if act is not None:
            act[first_wins] = acts.reshape(-1)[unseen][::-1]
        pos[first_wins] = idx[::-1]
        # A candidate that reads back its own position is the first
        # occurrence of its vertex — the next frontier, already in the
        # reference's discovery order.
        frontier = cand[pos[cand] == idx]
    if marks is not None:
        dist[marks] = ACTION_UNREACHABLE


def _fill_rows(d: int, k: int, roots: Sequence[int], directed: bool,
               reverse: bool, dist_buf, act_buf, blocked: Iterable[int],
               block: Optional[int]) -> None:
    """Block-looped driver shared by the two public fill functions."""
    n = check_byte_rows(d, k)
    blocked = sorted(set(blocked))
    for label, values in (("row", roots), ("blocked", blocked)):
        if len(values) and (min(values) < 0 or max(values) >= n):
            raise InvalidParameterError(
                f"{label} vertices must lie in 0..{n - 1} for DG({d},{k})"
            )
    rows = len(roots)
    dist = np.frombuffer(dist_buf, dtype=np.uint8)
    act = None if act_buf is None else np.frombuffer(act_buf, dtype=np.uint8)
    if dist.size != rows * n or (act is not None and act.size != rows * n):
        raise InvalidParameterError(
            f"row buffers must hold {rows * n} bytes for {rows} rows "
            f"of DG({d},{k})"
        )
    if rows == 0:
        return
    dist[:] = ACTION_UNREACHABLE
    if act is not None:
        act[:] = ACTION_UNREACHABLE
    step = _block_rows(n, d, block)
    itype = np.int32 if step * n < 2**31 else np.int64
    roots = np.asarray(roots, dtype=itype)
    pos = np.empty(min(step, rows) * n, dtype=itype)
    is_blocked = None
    if blocked:
        blocked = np.asarray(blocked, dtype=itype)
        is_blocked = np.zeros(n, dtype=bool)
        is_blocked[blocked] = True
    else:
        blocked = None
    for s in range(0, rows, step):
        e = min(s + step, rows)
        _run_block(d, k, roots[s:e], directed, reverse,
                   dist[s * n:e * n],
                   None if act is None else act[s * n:e * n],
                   pos[: (e - s) * n], blocked, is_blocked)


def fill_table_rows(d: int, k: int, dests: Sequence[int], directed: bool,
                    dist_buf, act_buf, blocked: Iterable[int] = (),
                    block: Optional[int] = None) -> None:
    """Fill destination-major routing rows for ``dests`` in place.

    Row ``i`` of the writable byte buffers ``dist_buf`` / ``act_buf``
    (``len(dests) * d**k`` bytes each: bytearray, memoryview, mmap, ...)
    receives the distances *to* ``dests[i]`` and the first-hop action
    of a shortest path from every source.  ``blocked`` vertices are
    removed from the graph.  Byte-identical to
    :func:`reference_table_rows`.
    """
    _fill_rows(d, k, dests, directed, True, dist_buf, act_buf, blocked,
               block)


def fill_matrix_rows(d: int, k: int, sources: Sequence[int], directed: bool,
                     dist_buf, block: Optional[int] = None) -> None:
    """Fill source-major distance rows for ``sources`` in place.

    Row ``i`` of ``dist_buf`` receives the distances *from*
    ``sources[i]`` to every vertex, the transpose of the table kind's
    distance rows.
    """
    _fill_rows(d, k, sources, directed, False, dist_buf, None, (), block)


def table_rows(d: int, k: int, dests: Sequence[int], directed: bool = False,
               blocked: Iterable[int] = (),
               block: Optional[int] = None) -> Tuple[bytearray, bytearray]:
    """(distances, actions) rows for ``dests``, freshly allocated.

    The tests' allocating entry point to the kernel: unlike
    :func:`repro.core.parallel.compile_table_buffers` it never touches
    the other destinations, so memory and time are ``O(rows · N)`` — four
    DG(2,20) destinations cost ~8 MB, not the impossible N² table.
    """
    n = check_byte_rows(d, k)
    cells = len(dests) * n
    dist = bytearray(cells)
    act = bytearray(cells)
    fill_table_rows(d, k, dests, directed, dist, act, blocked, block)
    return dist, act


# ----------------------------------------------------------------------
# The python reference the kernel is pinned to
# ----------------------------------------------------------------------


def _reference_row(d: int, k: int, dest: int, directed: bool,
                   dist_row: bytearray, act_row: bytearray,
                   blocked) -> None:
    """Reverse BFS from ``dest``: distances *to* dest + next-hop actions.

    ``dist_row[src]`` becomes the length of a shortest path src -> dest;
    ``act_row[src]`` the one-byte action of its first hop (``a`` in
    ``0..d-1``: left shift inserting ``a``; ``d + a``: right shift
    inserting ``a``; ``0xFE``: already at the destination).  Both rows
    must be pre-set to ``0xFF`` (unreachable).

    The BFS runs over *in*-neighbors: when ``u`` is discovered from
    ``v``, the edge ``u -> v`` moves one step closer to ``dest``, and
    the action byte records how ``u`` reaches ``v`` (``v``'s tail digit
    for a left shift, ``v``'s head digit for a right shift).
    """
    high = d ** (k - 1)
    for u in blocked:
        dist_row[u] = _BLOCKED_MARK
    dist_row[dest] = 0
    act_row[dest] = ACTION_AT_DESTINATION
    frontier = [dest]
    level = 0
    while frontier:
        level += 1
        nxt: List[int] = []
        push = nxt.append
        for v in frontier:
            body = v // d
            left_act = v % d  # enter v by a left shift inserting its tail
            for b in range(d):
                u = b * high + body
                if dist_row[u] == 0xFF:
                    dist_row[u] = level
                    act_row[u] = left_act
                    push(u)
            if not directed:
                right_act = d + v // high  # right shift inserting v's head
                base = (v % high) * d
                for u in range(base, base + d):
                    if dist_row[u] == 0xFF:
                        dist_row[u] = level
                        act_row[u] = right_act
                        push(u)
        frontier = nxt
    for u in blocked:
        dist_row[u] = ACTION_UNREACHABLE


def reference_table_rows(d: int, k: int, dests: Sequence[int],
                         directed: bool = False,
                         blocked: Iterable[int] = ()
                         ) -> Tuple[bytearray, bytearray]:
    """The python reverse BFS, one destination at a time (test oracle).

    Same contract as :func:`table_rows`, computed by a plain
    level-synchronous loop whose first-wins frontier order *defines*
    the action bytes every compiled table carries.  Kept only as the
    oracle the tests, ``benchmarks/bench_big_k.py`` and
    :mod:`repro.selfcheck` compare the kernel against.
    """
    n = check_byte_rows(d, k)
    blocked = frozenset(blocked)
    template = bytes([ACTION_UNREACHABLE]) * n
    dist = bytearray(len(dests) * n)
    act = bytearray(len(dests) * n)
    dist_row = bytearray(template)
    act_row = bytearray(template)
    for i, dest in enumerate(dests):
        dist_row[:] = template
        act_row[:] = template
        if dest not in blocked:
            _reference_row(d, k, dest, directed, dist_row, act_row, blocked)
        dist[i * n:(i + 1) * n] = dist_row
        act[i * n:(i + 1) * n] = act_row
    return dist, act
