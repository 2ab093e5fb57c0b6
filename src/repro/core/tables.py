"""Compiled all-pairs route tables: one byte per (source, destination).

The paper's planners are O(k) *per pair*; at production scale the win is
amortisation — compile the all-pairs shortest-path structure once and
route in O(1) per hop forever after.  :class:`CompiledRouteTable` is
that artifact:

* **next-hop actions** — for every (source, destination) pair one byte
  encoding the first hop of a shortest path: ``a`` in ``0..d-1`` means
  "left shift inserting ``a``", ``d + a`` means "right shift inserting
  ``a``", ``0xFE`` means "already there", ``0xFF`` unreachable.  The
  whole table is ``N**2`` bytes (plus an equal-sized distance table),
  destination-major: ``actions[pack(y) * N + pack(x)]``.
* **O(1) everything** — ``action`` / ``next_hop`` / ``distance`` are
  single byte reads; ``path`` walks at most k+… bytes.  No per-message
  planning, no witness computation, no tuples.
* **persistence** — :meth:`save` writes a small self-describing binary
  file; :meth:`load` maps it back with :mod:`mmap` so a table compiled
  once is reused across runs without even reading it into memory.

Compilation shards the reverse-BFS row construction across worker
processes (:mod:`repro.core.parallel`); the result is validated against
the serial engines and the Algorithm 1/2 planners in the tests.

The memory/time trade against the paper is explicit: Algorithms 1–4
need O(k) = O(log N) space and O(k) time per pair; the compiled table
spends O(N**2) bytes and O(N**2 · d) one-off compile time to make every
subsequent hop O(1).  See docs/API.md ("Compiled routing tables").
"""

from __future__ import annotations

import mmap
import os
import struct
import zlib
from typing import List, Optional, Tuple, Union

from repro.core.arraybfs import ACTION_AT_DESTINATION, ACTION_UNREACHABLE
from repro.core.packed import PackedSpace
from repro.core.parallel import compile_table_buffers
from repro.core.routing import Path, step_from_action
from repro.core.word import WordTuple, validate_parameters
from repro.exceptions import InvalidParameterError, RoutingError

#: File magic: "de Bruijn Route Table", format version 1 (legacy,
#: still loadable; no checksums).
MAGIC = b"DBRT\x01"

#: Format version 2: same layout plus a body CRC32 and a header CRC32
#: between the fixed header and the payload.  Written atomically
#: (tmp file + ``os.replace``) so a crash mid-save leaves either the
#: old table or the new one, never a torn hybrid.
MAGIC2 = b"DBRT\x02"

#: Fixed-size header after the magic: d, k, directed flag, pad, order.
_HEADER = struct.Struct("<BBBxQ")

#: v2 trailer after the fixed header: CRC32(actions ‖ distances), then
#: CRC32(magic ‖ header ‖ body_crc) — the header checksum covers the
#: body checksum, so a corrupted header can't silently "verify".
_CHECKSUMS = struct.Struct("<II")

ByteBuffer = Union[bytes, bytearray, memoryview]


class CompiledRouteTable:
    """All-pairs next-hop actions and distances for one DG(d, k).

    Instances come from :meth:`compile` (sharded BFS) or :meth:`load`
    (mmap of a :meth:`save`'d file); both expose the same O(1) lookups.

    >>> table = CompiledRouteTable.compile(2, 3, workers=1)
    >>> table.distance((0, 0, 1), (1, 1, 1))
    2
    >>> [str(step) for step in table.path((0, 0, 1), (1, 1, 1))]
    ['L1', 'L1']
    """

    __slots__ = ("d", "k", "directed", "order", "space", "actions",
                 "distances", "nbytes", "_mmap", "_file")

    def __init__(
        self,
        d: int,
        k: int,
        directed: bool,
        actions: ByteBuffer,
        distances: ByteBuffer,
        _mmap: Optional[mmap.mmap] = None,
        _file=None,
    ) -> None:
        validate_parameters(d, k)
        self.d = d
        self.k = k
        self.directed = bool(directed)
        self.space = PackedSpace(d, k)
        self.order = self.space.order
        cells = self.order * self.order
        if len(actions) != cells or len(distances) != cells:
            raise InvalidParameterError(
                f"table buffers must hold {cells} bytes each, got "
                f"{len(actions)} and {len(distances)}"
            )
        self.actions = actions
        self.distances = distances
        self.nbytes = 2 * cells
        self._mmap = _mmap
        self._file = _file

    # -- construction ---------------------------------------------------

    @classmethod
    def compile(
        cls,
        d: int,
        k: int,
        directed: bool = False,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ) -> "CompiledRouteTable":
        """Compile the table by sharded reverse BFS (one row per destination).

        ``workers`` fans the row chunks across that many forked
        processes writing into shared memory; ``workers=1`` (or a
        platform without ``fork``) compiles in-process with the same
        kernel and the same bytes.
        """
        dist, act = compile_table_buffers(d, k, directed, workers, chunk_size)
        return cls(d, k, directed, bytes(act), bytes(dist))

    def thaw(self) -> "CompiledRouteTable":
        """A deep copy with mutable ``bytearray`` buffers.

        The fault-repair layer (:mod:`repro.network.resilience`) refills
        action/distance rows in place; loaded tables (read-only) and
        compiled ones (immutable ``bytes``) are thawed first.  The
        original table is left untouched.
        """
        return CompiledRouteTable(
            self.d, self.k, self.directed,
            bytearray(self.actions), bytearray(self.distances),
        )

    @property
    def mutable(self) -> bool:
        """True when the buffers accept in-place writes (repairable)."""
        actions = self.actions
        if isinstance(actions, bytearray):
            return True
        return isinstance(actions, memoryview) and not actions.readonly

    # -- O(1) lookups ---------------------------------------------------

    def action(self, source: int, destination: int) -> int:
        """The raw next-hop action byte for packed (source, destination)."""
        return self.actions[destination * self.order + source]

    def distance_packed(self, source: int, destination: int) -> int:
        """Shortest-path length for packed endpoints, one byte read."""
        value = self.distances[destination * self.order + source]
        if value == 0xFF:
            raise RoutingError(
                f"no route from packed {source} to {destination} in the "
                f"{'directed' if self.directed else 'undirected'} table"
            )
        return value

    def next_hop_packed(self, source: int, destination: int) -> int:
        """The packed neighbor one optimal hop toward ``destination``."""
        action = self.actions[destination * self.order + source]
        if action >= ACTION_AT_DESTINATION:
            if action == ACTION_AT_DESTINATION:
                raise RoutingError(
                    f"already at packed destination {destination}; no hop"
                )
            raise RoutingError(
                f"no route from packed {source} to {destination}"
            )
        return self.space.apply_action(source, action)

    # -- tuple-word conveniences ---------------------------------------

    def distance(self, x: WordTuple, y: WordTuple) -> int:
        """Shortest-path length between word tuples (packs, then O(1))."""
        space = self.space
        return self.distance_packed(space.pack_checked(x), space.pack_checked(y))

    def path_actions(self, source: int, destination: int) -> List[int]:
        """The action bytes of the whole route, walked from the table."""
        actions = self.actions
        base = destination * self.order
        space = self.space
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
                raise RoutingError("compiled table contains a cycle")

    def path(self, x: WordTuple, y: WordTuple) -> Path:
        """A shortest routing path (list of steps) from ``x`` to ``y``."""
        space = self.space
        px, py = space.pack_checked(x), space.pack_checked(y)
        d = self.d
        return [step_from_action(action, d)
                for action in self.path_actions(px, py)]

    # -- accounting -----------------------------------------------------

    def memory_bytes(self) -> int:
        """Total table footprint: 2 bytes per ordered pair."""
        return self.nbytes

    # -- persistence ----------------------------------------------------

    def save(self, path: str) -> int:
        """Write the table to ``path`` crash-safely; returns bytes written.

        Format (v2): 5-byte magic, 12-byte header (d, k, directed,
        order), body CRC32, header CRC32, then the action table and the
        distance table back to back.  The bytes go to a temporary file
        in the same directory which is fsynced and atomically
        ``os.replace``'d over ``path`` — a crash or SIGKILL mid-save
        leaves the previous table intact, never a torn file, and the
        checksums let :meth:`load` reject any corruption that does reach
        disk.  Loadable with :meth:`load`, byte-identically (tested).
        """
        header = _HEADER.pack(self.d, self.k, int(self.directed), self.order)
        body_crc = zlib.crc32(self.actions)
        body_crc = zlib.crc32(self.distances, body_crc)
        header_crc = zlib.crc32(
            MAGIC2 + header + struct.pack("<I", body_crc))
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as handle:
                handle.write(MAGIC2)
                handle.write(header)
                handle.write(_CHECKSUMS.pack(body_crc, header_crc))
                handle.write(self.actions)
                handle.write(self.distances)
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
    def load(cls, path: str, use_mmap: bool = True) -> "CompiledRouteTable":
        """Load a :meth:`save`'d table, zero-copy via ``mmap`` by default.

        With ``use_mmap=True`` the action/distance buffers are read-only
        memoryview windows into the page cache — a multi-gigabyte table
        costs milliseconds to open and only faults in the rows actually
        routed.  ``use_mmap=False`` reads everything into plain bytes.
        Call :meth:`close` (or drop the table) to release the mapping.
        Either way the buffers are read-only; :meth:`thaw` makes a
        mutable copy.

        Both format versions load.  A v2 file's header checksum is
        always verified (a corrupt or torn header fails loudly instead
        of mapping garbage); its body checksum is verified on the
        full-read path (``use_mmap=False``) — the mmap fast path trusts
        the atomic writer plus the header checksum, because summing a
        multi-gigabyte body would defeat the point of mapping it.
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
                    f"{path!r} is not a compiled route table (bad magic)"
                )
            core = handle.read(_HEADER.size)
            if len(core) < _HEADER.size:
                raise InvalidParameterError(
                    f"{path!r} is truncated inside the header"
                )
            d, k, directed, order = _HEADER.unpack(core)
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
            if order != d**k:
                raise InvalidParameterError(
                    f"{path!r} header is corrupt: order {order} != {d}**{k}"
                )
            cells = order * order
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
                actions = view[header_size:header_size + cells]
                distances = view[header_size + cells:expected]
                return cls(d, k, bool(directed), actions, distances,
                           _mmap=mapping, _file=handle)
            data = handle.read(2 * cells)
            if body_crc is not None:
                got = zlib.crc32(data)
                if got != body_crc:
                    raise InvalidParameterError(
                        f"{path!r} body checksum mismatch "
                        f"({got:#010x} != {body_crc:#010x}): corrupted table"
                    )
            return cls(d, k, bool(directed), data[:cells], data[cells:])
        except Exception:
            handle.close()
            raise
        finally:
            if use_mmap is False:
                handle.close()

    def close(self) -> None:
        """Release an mmap-backed table's mapping and file handle."""
        if self._mmap is not None:
            if isinstance(self.actions, memoryview):
                self.actions.release()
            if isinstance(self.distances, memoryview):
                self.distances.release()
            self.actions = b""
            self.distances = b""
            self._mmap.close()
            self._mmap = None
        if self._file is not None:
            self._file.close()
            self._file = None

    # -- debugging ------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "directed" if self.directed else "undirected"
        return (f"CompiledRouteTable(DG({self.d},{self.k}), {kind}, "
                f"{self.nbytes} bytes)")


def table_path(path: str) -> Tuple[int, int, bool]:
    """Peek at a saved table's (d, k, directed) without loading its body."""
    header_size = len(MAGIC) + _HEADER.size
    with open(path, "rb") as handle:
        prefix = handle.read(header_size)
    if len(prefix) < header_size or not (
        prefix.startswith(MAGIC) or prefix.startswith(MAGIC2)
    ):
        raise InvalidParameterError(
            f"{path!r} is not a compiled route table (bad magic)"
        )
    d, k, directed, _ = _HEADER.unpack(prefix[len(MAGIC2):])
    return d, k, bool(directed)
