"""Lazy sharded route tables: big-k serving under a byte budget.

:class:`~repro.core.tables.CompiledRouteTable` is O(N²) bytes — perfect
up to DG(2,12), 4 GB at DG(2,16), impossible at DG(2,20).  But the table
is *destination-major*: the complete routing knowledge toward one
destination (distances and next-hop actions from every source) is one
contiguous ``2·N``-byte pair of rows, and destinations sharing a packed
prefix are one contiguous run of rows
(:meth:`repro.core.packed.PackedSpace.prefix_range`).  That makes a
*shard* — all rows for one destination-prefix group — the natural unit
of lazy compilation:

* :class:`RouteShard` — the rows for packed destinations
  ``[start, stop)``, compiled on demand by the array BFS kernel
  (:func:`repro.core.arraybfs.table_rows`, O(rows·N), never the full
  table), persisted as a small self-describing mmap-able file.
* :class:`ShardedRouteTable` — an LRU manager that keeps at most
  ``byte_budget`` bytes of shards resident, compiles cold shards in a
  background thread once they have been requested ``compile_threshold``
  times, and answers cold queries with ``None`` so the caller (the
  service engine) falls back to the paper's O(k) planner — queries never
  block on a compile.

Eviction only drops the manager's reference; an in-flight query that
already grabbed the :class:`RouteShard` keeps reading valid memory, and
the next query for that group transparently recompiles (or reloads) it.
DG(2,20) arithmetic: one destination row-pair is 2 MB, the default 8 MB
shard covers 4 destinations, and a 512 MB budget keeps 64 hot
destination groups resident while the planner covers the cold tail.
"""

from __future__ import annotations

import mmap
import os
import struct
import threading
import zlib
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.core.arraybfs import (
    ACTION_AT_DESTINATION,
    ACTION_UNREACHABLE,
    table_rows,
)
from repro.core.packed import PackedSpace
from repro.core.word import validate_parameters
from repro.exceptions import InvalidParameterError, RoutingError

#: File magic: "de Bruijn Route Shard", format version 1 (legacy,
#: still loadable; no checksums).
MAGIC = b"DBRS\x01"

#: Format version 2: adds a body CRC32 and a header CRC32 between the
#: fixed header and the payload (same scheme as ``DBRT\x02`` tables).
MAGIC2 = b"DBRS\x02"

#: Fixed header after the magic: d, k, directed, pad, order, start, stop.
_HEADER = struct.Struct("<BBBxQQQ")

#: v2 trailer: CRC32(distances ‖ actions), then CRC32(magic ‖ header ‖
#: body_crc) so header corruption cannot masquerade as a clean file.
_CHECKSUMS = struct.Struct("<II")

#: Default ceiling for one shard's bytes when sizing automatically.
DEFAULT_SHARD_TARGET_BYTES = 8 << 20

#: Default residency budget: laptop-sized even for DG(2,20).
DEFAULT_BYTE_BUDGET = 512 << 20


class RouteShard:
    """Routing rows toward packed destinations ``[start, stop)``.

    Both buffers are destination-major and row-relative:
    ``distances[(py - start) * order + px]`` is D(X, Y) and the matching
    ``actions`` byte the first hop from X toward Y (same encoding as the
    full table).  Instances come from :meth:`compile` or :meth:`load`.
    """

    __slots__ = ("d", "k", "directed", "order", "start", "stop", "rows",
                 "distances", "actions", "nbytes", "_mmap", "_file")

    def __init__(self, d: int, k: int, directed: bool, start: int, stop: int,
                 distances, actions, _mmap=None, _file=None) -> None:
        validate_parameters(d, k)
        self.d = d
        self.k = k
        self.directed = bool(directed)
        self.order = d**k
        if not 0 <= start < stop <= self.order:
            raise InvalidParameterError(
                f"shard range [{start}, {stop}) outside 0..{self.order} "
                f"for DG({d},{k})"
            )
        self.start = start
        self.stop = stop
        self.rows = stop - start
        cells = self.rows * self.order
        if len(distances) != cells or len(actions) != cells:
            raise InvalidParameterError(
                f"shard buffers must hold {cells} bytes each, got "
                f"{len(distances)} and {len(actions)}"
            )
        self.distances = distances
        self.actions = actions
        self.nbytes = 2 * cells
        self._mmap = _mmap
        self._file = _file

    # -- construction ---------------------------------------------------

    @classmethod
    def compile(cls, d: int, k: int, start: int, stop: int,
                directed: bool = False) -> "RouteShard":
        """Reverse-BFS just these destinations: O(rows·N), not O(N²)."""
        dist, act = table_rows(d, k, range(start, stop), directed)
        return cls(d, k, directed, start, stop, bytes(dist), bytes(act))

    # -- O(1) lookups ---------------------------------------------------

    def covers(self, destination: int) -> bool:
        """True when this shard holds ``destination``'s rows."""
        return self.start <= destination < self.stop

    def distance_packed(self, source: int, destination: int) -> int:
        """Shortest-path length for packed endpoints, one byte read."""
        value = self.distances[(destination - self.start) * self.order + source]
        if value == 0xFF:
            raise RoutingError(
                f"no route from packed {source} to {destination} in the "
                f"{'directed' if self.directed else 'undirected'} shard"
            )
        return value

    def path_actions(self, source: int, destination: int) -> List[int]:
        """Action bytes of the whole route, walked inside this shard.

        Destination-major layout means the walk never leaves the shard:
        every step reads the same destination row at the new source.
        """
        actions = self.actions
        base = (destination - self.start) * self.order
        space = PackedSpace(self.d, self.k)
        out: List[int] = []
        current = source
        limit = self.order + 1
        while True:
            action = actions[base + current]
            if action == ACTION_AT_DESTINATION:
                return out
            if action == ACTION_UNREACHABLE:
                raise RoutingError(
                    f"no route from packed {source} to {destination}"
                )
            out.append(action)
            current = space.apply_action(current, action)
            if len(out) > limit:  # pragma: no cover - defensive
                raise RoutingError("route shard contains a cycle")

    # -- persistence ----------------------------------------------------

    def save(self, path: str) -> int:
        """Write the shard to ``path`` crash-safely; bytes written.

        v2 format: checksummed header, fsynced tmp file, atomic
        ``os.replace`` — a SIGKILL mid-save leaves the old shard (or
        nothing), and a file corrupted after the fact fails :meth:`load`
        instead of serving garbage routes.
        """
        header = _HEADER.pack(self.d, self.k, int(self.directed),
                              self.order, self.start, self.stop)
        body_crc = zlib.crc32(self.distances)
        body_crc = zlib.crc32(self.actions, body_crc)
        header_crc = zlib.crc32(
            MAGIC2 + header + struct.pack("<I", body_crc))
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as handle:
                handle.write(MAGIC2)
                handle.write(header)
                handle.write(_CHECKSUMS.pack(body_crc, header_crc))
                handle.write(self.distances)
                handle.write(self.actions)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return len(MAGIC2) + _HEADER.size + _CHECKSUMS.size + self.nbytes

    @classmethod
    def load(cls, path: str, use_mmap: bool = True) -> "RouteShard":
        """Load a :meth:`save`'d shard, zero-copy via ``mmap`` by default.

        Validates magic, header consistency, and exact file size, so a
        truncated or corrupted cache file raises
        :class:`~repro.exceptions.InvalidParameterError` instead of
        serving garbage routes.
        """
        handle = open(path, "rb")
        try:
            magic = handle.read(len(MAGIC2))
            if magic == MAGIC2:
                version = 2
            elif magic == MAGIC:
                version = 1
            else:
                raise InvalidParameterError(
                    f"{path!r} is not a route shard (bad magic)"
                )
            core = handle.read(_HEADER.size)
            if len(core) < _HEADER.size:
                raise InvalidParameterError(
                    f"{path!r} is truncated inside the header"
                )
            d, k, directed, order, start, stop = _HEADER.unpack(core)
            header_size = len(magic) + _HEADER.size
            body_crc: Optional[int] = None
            if version == 2:
                sums = handle.read(_CHECKSUMS.size)
                if len(sums) < _CHECKSUMS.size:
                    raise InvalidParameterError(
                        f"{path!r} is truncated inside the checksums"
                    )
                body_crc, header_crc = _CHECKSUMS.unpack(sums)
                want = zlib.crc32(
                    magic + core + struct.pack("<I", body_crc))
                if header_crc != want:
                    raise InvalidParameterError(
                        f"{path!r} header checksum mismatch "
                        f"({header_crc:#010x} != {want:#010x}): torn or "
                        "corrupted write"
                    )
                header_size += _CHECKSUMS.size
            if order != d**k or not 0 <= start < stop <= order:
                raise InvalidParameterError(
                    f"{path!r} header is corrupt: order {order}, "
                    f"range [{start}, {stop}) for DG({d},{k})"
                )
            cells = (stop - start) * order
            expected = header_size + 2 * cells
            size = os.fstat(handle.fileno()).st_size
            if size != expected:
                raise InvalidParameterError(
                    f"{path!r} is truncated: {size} bytes, expected {expected}"
                )
            if use_mmap:
                mapping = mmap.mmap(handle.fileno(), 0,
                                    access=mmap.ACCESS_READ)
                view = memoryview(mapping)
                distances = view[header_size:header_size + cells]
                actions = view[header_size + cells:expected]
                return cls(d, k, bool(directed), start, stop,
                           distances, actions, _mmap=mapping, _file=handle)
            data = handle.read(2 * cells)
            if body_crc is not None:
                got = zlib.crc32(data)
                if got != body_crc:
                    raise InvalidParameterError(
                        f"{path!r} body checksum mismatch "
                        f"({got:#010x} != {body_crc:#010x}): corrupted shard"
                    )
            return cls(d, k, bool(directed), start, stop,
                       data[:cells], data[cells:])
        except Exception:
            handle.close()
            raise
        finally:
            if use_mmap is False:
                handle.close()

    def close(self) -> None:
        """Release an mmap-backed shard's mapping and file handle."""
        if self._mmap is not None:
            if isinstance(self.distances, memoryview):
                self.distances.release()
            if isinstance(self.actions, memoryview):
                self.actions.release()
            self.distances = b""
            self.actions = b""
            self._mmap.close()
            self._mmap = None
        if self._file is not None:
            self._file.close()
            self._file = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "directed" if self.directed else "undirected"
        return (f"RouteShard(DG({self.d},{self.k}), {kind}, "
                f"dests [{self.start}, {self.stop}), {self.nbytes} bytes)")


def default_rows_per_shard(d: int, k: int,
                           byte_budget: int = DEFAULT_BYTE_BUDGET) -> int:
    """Largest prefix-aligned row count whose shard fits the target size.

    Prefix-aligned means a power of ``d`` (so each shard is exactly one
    destination-prefix group); the shard byte size ``2 · rows · d**k``
    is capped at :data:`DEFAULT_SHARD_TARGET_BYTES` and at an eighth of
    the budget so at least eight shards stay resident.
    """
    order = d**k
    target = max(2 * order, min(byte_budget // 8, DEFAULT_SHARD_TARGET_BYTES))
    rows = 1
    while rows * d <= order and 2 * rows * d * order <= target:
        rows *= d
    return rows


class ShardedRouteTable:
    """LRU-bounded lazy shard manager for one DG(d, k) orientation.

    Parameters
    ----------
    byte_budget:
        Ceiling on resident shard bytes; least-recently-used shards are
        dropped to stay under it.
    rows_per_shard:
        Destinations per shard — must be a power of ``d`` dividing
        ``d**k`` so shards are destination-prefix groups.  Default:
        :func:`default_rows_per_shard`.
    cache_dir:
        When set, compiled shards are persisted there and cold hits
        reload from disk (mmap) instead of recompiling; corrupt cache
        files are deleted and recompiled.  ``None`` keeps shards
        memory-only.
    compile_threshold:
        Requests a cold group must accumulate before its compile is
        scheduled (1 = compile on first miss).  Keeps one-off probes of
        a million-node graph from churning the budget.
    synchronous:
        ``True`` compiles inline on a miss (every lookup succeeds);
        ``False`` (default) schedules compiles on a background thread
        and returns ``None`` meanwhile so the caller can fall back to
        the O(k) planner.
    """

    def __init__(
        self,
        d: int,
        k: int,
        directed: bool = False,
        byte_budget: int = DEFAULT_BYTE_BUDGET,
        rows_per_shard: Optional[int] = None,
        cache_dir: Optional[str] = None,
        compile_threshold: int = 1,
        synchronous: bool = False,
    ) -> None:
        validate_parameters(d, k)
        self.d = d
        self.k = k
        self.directed = bool(directed)
        self.order = d**k
        self.space = PackedSpace(d, k)
        if rows_per_shard is None:
            rows_per_shard = default_rows_per_shard(d, k, byte_budget)
        rows = rows_per_shard
        while rows > 1 and rows % d == 0:
            rows //= d
        if rows != 1 or not 1 <= rows_per_shard <= self.order:
            raise InvalidParameterError(
                f"rows_per_shard must be a power of {d} in 1..{self.order}, "
                f"got {rows_per_shard}"
            )
        self.rows_per_shard = rows_per_shard
        self.shard_bytes = 2 * rows_per_shard * self.order
        if byte_budget < self.shard_bytes:
            raise InvalidParameterError(
                f"byte_budget {byte_budget} is below one shard "
                f"({self.shard_bytes} bytes at {rows_per_shard} rows); "
                f"raise the budget or shrink rows_per_shard"
            )
        if compile_threshold < 1:
            raise InvalidParameterError(
                f"compile_threshold must be >= 1, got {compile_threshold}"
            )
        self.byte_budget = byte_budget
        self.cache_dir = cache_dir
        self.compile_threshold = compile_threshold
        self.synchronous = synchronous
        if cache_dir is not None:
            os.makedirs(cache_dir, exist_ok=True)

        self._lock = threading.Lock()
        self._shards: "OrderedDict[int, RouteShard]" = OrderedDict()
        self._resident_bytes = 0
        self._requests: Dict[int, int] = {}
        self._pending: set = set()
        self._stats = {
            "hits": 0, "misses": 0, "compiled": 0, "loaded": 0,
            "evictions": 0, "compile_errors": 0,
        }
        self._queue: List[int] = []
        self._wakeup = threading.Condition(self._lock)
        self._closed = False
        self._worker: Optional[threading.Thread] = None
        if not synchronous:
            self._worker = threading.Thread(
                target=self._worker_main,
                name=f"shard-compile-dg{d}-{k}",
                daemon=True,
            )
            self._worker.start()

    # -- group geometry --------------------------------------------------

    def group_of(self, destination: int) -> int:
        """The shard group index holding ``destination``'s rows."""
        if not 0 <= destination < self.order:
            raise InvalidParameterError(
                f"packed destination {destination} outside 0..{self.order - 1}"
            )
        return destination // self.rows_per_shard

    def group_range(self, group: int) -> Tuple[int, int]:
        """Packed destination ``[start, stop)`` of shard ``group``."""
        start = group * self.rows_per_shard
        return start, min(start + self.rows_per_shard, self.order)

    def shard_path(self, group: int) -> Optional[str]:
        """The cache file for ``group`` (None without a cache_dir)."""
        if self.cache_dir is None:
            return None
        start, stop = self.group_range(group)
        kind = "dir" if self.directed else "und"
        return os.path.join(
            self.cache_dir,
            f"shard-{self.d}-{self.k}-{kind}-{start}-{stop}.dbrs",
        )

    # -- query path ------------------------------------------------------

    def shard_for(self, destination: int) -> Optional[RouteShard]:
        """The resident shard covering ``destination``, else ``None``.

        A miss counts toward the group's compile threshold and (in
        background mode) schedules the compile once the threshold is
        met.  The returned reference stays valid even if the manager
        evicts the shard a moment later — eviction only drops the
        manager's reference, which is what makes mid-query eviction
        transparent to callers.
        """
        group = self.group_of(destination)
        with self._lock:
            shard = self._shards.get(group)
            if shard is not None:
                self._shards.move_to_end(group)
                self._stats["hits"] += 1
                return shard
            self._stats["misses"] += 1
            if self.synchronous:
                pass  # fall through to the inline compile below
            else:
                count = self._requests.get(group, 0) + 1
                self._requests[group] = count
                if count >= self.compile_threshold and group not in self._pending:
                    self._pending.add(group)
                    self._queue.append(group)
                    self._wakeup.notify()
                return None
        return self.ensure_shard(group)

    def resolve_packed(self, source: int, destination: int,
                       want_path: bool) -> Optional[Tuple[int, Optional[List[int]]]]:
        """``(distance, action-bytes-or-None)`` — or ``None`` when cold.

        One shard reference serves both reads, so the answer is
        consistent even when the shard is evicted between them.
        """
        shard = self.shard_for(destination)
        if shard is None:
            return None
        distance = shard.distance_packed(source, destination)
        if not want_path:
            return distance, None
        return distance, shard.path_actions(source, destination)

    def ensure_shard(self, group: int) -> RouteShard:
        """Make shard ``group`` resident now (load or compile) and return it.

        The compile/load runs outside the lock so queries on other
        groups keep flowing; a concurrent duplicate build loses the
        insert race and is simply discarded.
        """
        start, stop = self.group_range(group)
        with self._lock:
            shard = self._shards.get(group)
            if shard is not None:
                self._shards.move_to_end(group)
                return shard
        shard, how = self._build(group, start, stop)
        with self._lock:
            existing = self._shards.get(group)
            if existing is not None:  # lost the race; keep the winner
                self._shards.move_to_end(group)
                return existing
            self._stats[how] += 1
            self._shards[group] = shard
            self._shards.move_to_end(group)
            self._resident_bytes += shard.nbytes
            self._requests.pop(group, None)
            self._evict_over_budget()
        return shard

    def _build(self, group: int, start: int, stop: int) -> Tuple[RouteShard, str]:
        """Load ``group`` from the cache dir or compile it fresh."""
        path = self.shard_path(group)
        if path is not None and os.path.exists(path):
            try:
                shard = RouteShard.load(path)
                if (shard.d, shard.k, shard.directed,
                        shard.start, shard.stop) == (
                        self.d, self.k, self.directed, start, stop):
                    return shard, "loaded"
                shard.close()
                raise InvalidParameterError(f"{path!r} is for another shard")
            except InvalidParameterError:
                os.remove(path)  # corrupt/foreign cache entry: rebuild
        shard = RouteShard.compile(self.d, self.k, start, stop,
                                   self.directed)
        if path is not None:
            shard.save(path)
        return shard, "compiled"

    def _evict_over_budget(self) -> None:
        """Drop LRU shards (never the newest) until under budget.

        Must hold the lock.  Dropped shards are not ``close()``d —
        in-flight queries may still hold references; the garbage
        collector releases each mapping when the last reader drops it.
        """
        while self._resident_bytes > self.byte_budget and len(self._shards) > 1:
            _, victim = self._shards.popitem(last=False)
            self._resident_bytes -= victim.nbytes
            self._stats["evictions"] += 1

    # -- background compiler ---------------------------------------------

    def _worker_main(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._closed:
                    self._wakeup.wait()
                if self._closed:
                    return
                group = self._queue.pop(0)
            try:
                self.ensure_shard(group)
            except Exception:  # pragma: no cover - defensive
                with self._lock:
                    self._stats["compile_errors"] += 1
            finally:
                with self._lock:
                    self._pending.discard(group)
                    self._wakeup.notify_all()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every scheduled compile has landed (for tests/bench)."""
        with self._lock:
            return self._wakeup.wait_for(
                lambda: not self._queue and not self._pending, timeout
            )

    def close(self) -> None:
        """Stop the background worker and drop every resident shard."""
        with self._lock:
            self._closed = True
            self._queue.clear()
            self._wakeup.notify_all()
            worker = self._worker
            self._worker = None
        if worker is not None:
            worker.join(timeout=5.0)
        with self._lock:
            self._shards.clear()
            self._resident_bytes = 0

    # -- accounting ------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Live tier counters (all plain ints, safe to snapshot)."""
        with self._lock:
            out = dict(self._stats)
            out["resident_shards"] = len(self._shards)
            out["resident_bytes"] = self._resident_bytes
            out["pending"] = len(self._pending) + len(self._queue)
            out["shard_bytes"] = self.shard_bytes
            out["byte_budget"] = self.byte_budget
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "directed" if self.directed else "undirected"
        return (f"ShardedRouteTable(DG({self.d},{self.k}), {kind}, "
                f"{self.rows_per_shard} rows/shard, "
                f"budget {self.byte_budget} bytes)")
