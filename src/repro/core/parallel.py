"""Multiprocess table compile: all N routing rows at worker-count speed.

:mod:`repro.core.arraybfs` makes a block of BFS rows cheap; this module
makes *all N rows* of a compiled route table cheap by fanning row
chunks across worker processes:

* the parent maps two anonymous shared ``N x N``-byte buffers
  (``mmap.mmap(-1, N*N)``, inherited across ``fork``),
* a chunked work queue hands out ``[start, stop)`` destination ranges
  (so slow and fast rows load-balance dynamically),
* each worker runs the array kernel on its chunk and writes the rows
  straight into the shared mapping — no pickling of results, no per-row
  IPC, and no named segment a resource tracker would have to clean up.

Where ``fork`` is unavailable, or only one worker is requested, the
whole table is filled in-process by the same kernel — the same output
bytes, just one process (asserted in ``tests/test_parallel.py``).

The layout is destination-major *routing* rows: for each destination a
distance row **and** a next-hop action row (one byte per source; see
:mod:`repro.core.tables` for the action encoding), built by BFS from
the destination over in-neighbors so that following actions traces a
shortest path.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
from typing import List, Optional, Tuple

from repro.core.arraybfs import check_byte_rows, fill_table_rows
from repro.exceptions import InvalidParameterError

#: Rows per work-queue item; small enough to load-balance, large enough
#: that queue traffic is negligible next to the BFS work.
DEFAULT_CHUNK_ROWS = 64

#: Upper bound on the default worker count (explicit ``workers=`` may
#: exceed it; benches do, to measure oversubscription).
MAX_DEFAULT_WORKERS = 4

#: Refuse buffers beyond this many cells (2 GiB) — all-pairs structure
#: for larger graphs needs out-of-core compilation, not one mmap.
MAX_CELLS = 2**31


def available_cpus() -> int:
    """CPUs this process may use (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def default_workers() -> int:
    """The worker count used when callers pass ``workers=None``."""
    return max(1, min(MAX_DEFAULT_WORKERS, available_cpus()))


def fork_available() -> bool:
    """True when the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def chunk_ranges(total: int, chunk_size: int) -> List[Tuple[int, int]]:
    """Split ``range(total)`` into ``[start, stop)`` work-queue items.

    >>> chunk_ranges(10, 4)
    [(0, 4), (4, 8), (8, 10)]
    """
    if chunk_size < 1:
        raise InvalidParameterError(f"chunk_size must be >= 1, got {chunk_size}")
    return [(start, min(start + chunk_size, total))
            for start in range(0, total, chunk_size)]


def _check_buffer_size(d: int, k: int) -> int:
    """Validate (d, k) for flat all-pairs byte buffers; returns N."""
    n = check_byte_rows(d, k)
    if n * n > MAX_CELLS:
        raise InvalidParameterError(
            f"DG({d},{k}) needs {n}^2-byte flat buffers, beyond the "
            f"{MAX_CELLS}-cell ({MAX_CELLS >> 30} GiB) guard for one "
            f"all-pairs compile. Big k is served by the planner, which "
            f"routes from the two labels alone with no table (CLI: "
            f"`serve` without --table or --compile-table)."
        )
    return n


def _worker_main(d: int, k: int, directed: bool, dist_map, act_map,
                 queue) -> None:
    """Worker loop: fill ``[start, stop)`` chunks until the None sentinel.

    Runs in a forked child; the two mappings are the parent's anonymous
    shared mmaps inherited across the fork, so writes land directly in
    the parent's buffers.
    """
    n = d**k
    while True:
        task = queue.get()
        if task is None:
            return
        start, stop = task
        fill_table_rows(d, k, range(start, stop), directed,
                        memoryview(dist_map)[start * n:stop * n],
                        memoryview(act_map)[start * n:stop * n])


def compile_table_buffers(
    d: int,
    k: int,
    directed: bool = False,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> Tuple[bytearray, bytearray]:
    """(distances, next-hop actions), destination-major, for DG(d, k).

    The raw material of :class:`repro.core.tables.CompiledRouteTable`:
    ``dist[pack(y) * N + pack(x)]`` is D(X, Y) and
    ``act[pack(y) * N + pack(x)]`` the first-hop action of a shortest
    path from X to Y.

    ``workers=None`` picks ``min(4, cpus)``; ``workers=1`` or a platform
    without ``fork`` fills in-process, with byte-identical output.
    """
    n = _check_buffer_size(d, k)
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")
    if chunk_size is None:
        chunk_size = DEFAULT_CHUNK_ROWS
    chunks = chunk_ranges(n, chunk_size)
    workers = min(workers, len(chunks))

    if workers <= 1 or not fork_available():
        dist, act = bytearray(n * n), bytearray(n * n)
        fill_table_rows(d, k, range(n), directed, dist, act)
        return dist, act

    dist_map = mmap.mmap(-1, n * n)
    act_map = mmap.mmap(-1, n * n)
    try:
        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        processes = [
            context.Process(
                target=_worker_main,
                args=(d, k, directed, dist_map, act_map, queue),
                daemon=True,
            )
            for _ in range(workers)
        ]
        for process in processes:
            process.start()
        for chunk in chunks:
            queue.put(chunk)
        for _ in processes:
            queue.put(None)
        for process in processes:
            process.join()
        failed = [p.exitcode for p in processes if p.exitcode != 0]
        if failed:
            raise InvalidParameterError(
                f"{len(failed)} BFS shard worker(s) exited with "
                f"{failed}; shared buffers are incomplete"
            )
        return bytearray(dist_map), bytearray(act_map)
    finally:
        dist_map.close()
        act_map.close()
