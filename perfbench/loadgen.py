"""The benchmark's own closed-loop generator over raw loopback sockets.

Every query frame is built before timing starts; the timed loops only
write pre-built bytes, count reply frames and take one timestamp per
query (lone caller) or per received chunk (pipelined peak).  Replies are
kept as raw bytes and decoded and checked after the timed window.

It deliberately does not reuse ``repro.service.loadgen._vuser``: that
loop stamps ``sent_at`` after its pacing sleep and records a batch's
mean round trip as every query's latency.

:func:`serve_canned` is the floor: a server that answers every query
frame with one fixed reply, so the same loops run against it measure
the generator plus loopback TCP alone.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import random
import signal
import socket
import statistics
import struct
import threading
import time
from array import array
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from perfbench.host import Placement, cpu_seconds

from repro.service.protocol import (
    FLAG_DIRECTED,
    FLAG_WANT_PATH,
    FrameDecoder,
    FrameType,
    encode_query,
    encode_reply,
)

HOST = "127.0.0.1"
_LENGTH = struct.Struct("!I")
_HEAD = struct.Struct("!IBI")
_BITS = bytes.maketrans(b"01", b"\x00\x01")

#: Query classes: (directed, want_path).
UNDIRECTED_PATH = (False, True)
DIRECTED_PATH = (True, True)
UNDIRECTED_DISTANCE = (False, False)


@dataclass
class Queries:
    """One stream of pre-encoded queries; request id = ``base`` + index.

    DG(2, k) query frames all have the same length, so the stream is one
    bytes blob with a fixed stride and the timed loops send slices of it.
    """

    k: int
    base: int
    stride: int
    blob: bytes
    sources: array
    destinations: array
    flags: bytearray

    def __len__(self) -> int:
        return len(self.flags)

    def one(self, index: int) -> "Queries":
        """Query ``index`` alone, as a stream of one."""
        return Queries(self.k, self.base + index, self.stride,
                       self.blob[index * self.stride:(index + 1) * self.stride],
                       self.sources[index:index + 1],
                       self.destinations[index:index + 1],
                       self.flags[index:index + 1])

    def query(self, index: int) -> Tuple[Tuple[int, ...], Tuple[int, ...], bool, bool]:
        """``(source, destination, directed, want_path)`` of query ``index``."""
        flags = self.flags[index]
        return (tuple(word_bytes(self.sources[index], self.k)),
                tuple(word_bytes(self.destinations[index], self.k)),
                bool(flags & FLAG_DIRECTED), bool(flags & FLAG_WANT_PATH))


def word_bytes(value: int, k: int) -> bytes:
    """The wire bytes (one per binary digit) of packed word ``value``."""
    return format(value, f"0{k}b").encode("ascii").translate(_BITS)


def make_queries(
    rng: random.Random,
    k: int,
    count: int,
    mix: Sequence[Tuple[Tuple[bool, bool], int]],
    sites: Optional[Sequence[int]] = None,
    base: int = 0,
) -> Queries:
    """``count`` uniform DG(2, k) pairs with the query classes of ``mix``.

    ``mix`` holds ``(class, weight)``; classes repeat in that fixed
    proportion (a shuffled block per cycle), so every prefix of the
    stream carries the same mix.  ``sites`` restricts both endpoints to
    the given packed words (the cluster's surviving sites).  Request
    ids start at ``base`` so that streams sharing a server stay apart.
    """
    block: List[int] = []
    for (directed, want_path), weight in mix:
        flags = (FLAG_DIRECTED if directed else 0) | (
            FLAG_WANT_PATH if want_path else 0)
        block.extend([flags] * weight)
    stride = _HEAD.size + 3 + 2 * k
    blob = bytearray(stride * count)
    sources = array("Q")
    destinations = array("Q")
    all_flags = bytearray()
    getrandbits = rng.getrandbits
    pack_head = _HEAD.pack_into
    cycle: List[int] = []
    for index in range(count):
        if not cycle:
            cycle = block[:]
            rng.shuffle(cycle)
        flags = cycle.pop()
        if sites is None:
            x, y = getrandbits(k), getrandbits(k)
        else:
            x, y = rng.choice(sites), rng.choice(sites)
        at = index * stride
        pack_head(blob, at, stride - 4, FrameType.QUERY, base + index)
        blob[at + 9:at + stride] = (bytes((flags, 2, k)) + word_bytes(x, k)
                                    + word_bytes(y, k))
        sources.append(x)
        destinations.append(y)
        all_flags.append(flags)
    out = Queries(k, base, stride, bytes(blob), sources, destinations,
                  all_flags)
    for index in range(min(count, 64)):
        source, destination, directed, want_path = out.query(index)
        if out.one(index).blob != encode_query(
                base + index, 2, source, destination, directed, want_path):
            raise AssertionError("pre-encoded frame differs from encode_query")
    return out


def connect(port: int, timeout: float = 10.0) -> socket.socket:
    """A blocking loopback connection with Nagle off."""
    sock = socket.create_connection((HOST, port), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _read_one(sock: socket.socket) -> bytes:
    data = sock.recv(1 << 16)
    while True:
        if not data:
            raise ConnectionError("server closed the connection")
        if len(data) >= 4:
            want = 4 + _LENGTH.unpack_from(data)[0]
            if len(data) == want:
                return data
            if len(data) > want:
                raise ConnectionError("unsolicited bytes after a reply")
        more = sock.recv(1 << 16)
        if not more:
            raise ConnectionError("server closed the connection")
        data += more


#: Queries each pipelined connection keeps in flight.
WINDOW = 32
#: Share of a measurement's seconds given to the lone caller.
LONE_SHARE = 0.4
#: Alternating lone/peak rounds, so both loops sample the whole run.
ROUNDS = 3
#: Consecutive lone-caller queries per window of the tail percentile.
TAIL_WINDOW = 1000


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (q in 0..1)."""
    ordered = sorted(values)
    index = max(0, min(len(ordered) - 1, int(round(q * len(ordered))) - 1))
    return ordered[index]


def latency_summary(latencies: Sequence[float]) -> Tuple[float, float]:
    """``(p50_ms, p99_ms)`` of lone-caller latencies.

    p50 is over every sample.  p99 is the median of the p99s of
    consecutive ``TAIL_WINDOW``-query windows: each window's p99 has ten
    samples beyond it, and a burst of hypervisor steal inside a few
    windows does not set the run's tail.
    """
    p50 = statistics.median(latencies)
    windows = [percentile(latencies[at:at + TAIL_WINDOW], 0.99)
               for at in range(0, len(latencies) - TAIL_WINDOW + 1,
                               TAIL_WINDOW)]
    p99 = statistics.median(windows) if windows else percentile(latencies, 0.99)
    return 1e3 * p50, 1e3 * p99


@dataclass
class LoneResult:
    """Lone-caller rounds so far: per-query latency (s), start, raw reply.

    Query ``i`` of the stream is the ``i``-th entry; each round resumes
    where the previous one stopped.
    """

    latencies: array = field(default_factory=lambda: array("d"))
    starts: array = field(default_factory=lambda: array("d"))
    replies: List[bytes] = field(default_factory=list)
    exhausted: bool = False


def lone_caller(port: int, queries: Queries, seconds: float,
                into: LoneResult) -> None:
    """One connection, one query in flight, each timed from its own send.

    The end stamp of a query is the send stamp of the next one, so the
    loop takes exactly one timestamp per query.
    """
    view = memoryview(queries.blob)
    stride = queries.stride
    latencies, starts, replies = into.latencies, into.starts, into.replies
    first = len(replies) * stride
    if first >= len(view):
        into.exhausted = True
        return
    with connect(port) as sock:
        sock.settimeout(60.0)
        send = sock.sendall
        clock = time.perf_counter
        now = clock()
        deadline = now + seconds
        for at in range(first, len(view), stride):
            started = now
            send(view[at:at + stride])
            reply = _read_one(sock)
            now = clock()
            starts.append(started)
            latencies.append(now - started)
            replies.append(reply)
            if now >= deadline:
                break
    if now < deadline:
        into.exhausted = True


@dataclass
class PipeResult:
    """One pipelined stream: raw reply bytes plus reply-count stamps.

    ``sent`` is the index of the stream's next unsent query; each round
    resumes there.
    """

    chunks: List[bytes] = field(default_factory=list)
    stamps: array = field(default_factory=lambda: array("d"))
    counts: array = field(default_factory=lambda: array("l"))
    sent: int = 0
    error: Optional[BaseException] = None
    #: The stream ran out of queries before a round's deadline.
    ran_dry: bool = False


def _pipeline(sock: socket.socket, queries: Queries, window: int,
              go: threading.Event, deadline: List[float],
              out: PipeResult) -> None:
    """Keep ``window`` queries in flight until the deadline, then drain."""
    try:
        recv = sock.recv
        send = sock.sendall
        clock = time.perf_counter
        unpack = _LENGTH.unpack_from
        view = memoryview(queries.blob)
        stride = queries.stride
        total = len(queries)
        first = out.sent
        sent = min(first + window, total)
        go.wait()
        send(view[first * stride:sent * stride])
        stop_at = deadline[0]
        buffer = bytearray()
        received = first
        sending = True
        chunks, stamps, counts = out.chunks, out.stamps, out.counts
        while received < sent:
            data = recv(1 << 16)
            if not data:
                raise ConnectionError("server closed the connection")
            chunks.append(data)
            buffer += data
            size = len(buffer)
            offset = 0
            got = 0
            while size - offset >= 4:
                end = offset + 4 + unpack(buffer, offset)[0]
                if end > size:
                    break
                offset = end
                got += 1
            if not got:
                continue
            del buffer[:offset]
            received += got
            now = clock()
            stamps.append(now)
            counts.append(got)
            if sending:
                if now >= stop_at:
                    sending = False
                else:
                    upto = min(sent + got, total)
                    if upto > sent:
                        send(view[sent * stride:upto * stride])
                        sent = upto
                    elif sent == total:
                        out.ran_dry = True
        out.sent = sent
    except BaseException as exc:  # reported by peak(); the thread must end
        out.error = exc


@dataclass
class PeakResult:
    """Pipelined rounds so far: one :class:`PipeResult` per stream."""

    streams: List[PipeResult]
    windows: List[Tuple[float, float]] = field(default_factory=list)
    exhausted: bool = False

    @property
    def answered(self) -> int:
        return sum(stream.sent for stream in self.streams)

    def window_end(self, started: float, length: float) -> float:
        """Where a round's window ends for the figures read off it.

        At its deadline, or earlier at the last reply of a stream that
        ran out of queries in it, so that the rates stay the loop's own.
        A stream that ran dry never replies again, so it has no stamp at
        or after the end of the window it ran dry in.
        """
        end = started + length
        for stream in self.streams:
            if bisect.bisect_left(stream.stamps, end) == len(stream.stamps):
                last = stream.stamps[-1] if stream.stamps else started
                end = max(started, min(end, last))
        return end

    def counted(self) -> Tuple[int, float]:
        """Replies inside the rounds' windows, and those windows' seconds."""
        replies, seconds = 0, 0.0
        for started, length in self.windows:
            end = self.window_end(started, length)
            replies += sum(got for s in self.streams
                           for stamp, got in zip(s.stamps, s.counts)
                           if started <= stamp <= end)
            seconds += end - started
        return replies, seconds

    def rate(self) -> float:
        """Replies per second over all rounds together."""
        replies, seconds = self.counted()
        return replies / seconds if seconds > 0 else 0.0


def peak(port: int, streams: Sequence[Queries], window: int,
         seconds: float, into: PeakResult) -> None:
    """One thread and connection per stream, each pipelining ``window``."""
    live = [(queries, result) for queries, result in zip(streams, into.streams)
            if result.sent < len(queries)]
    if len(live) < len(streams):
        into.exhausted = True
    if not live:
        return
    socks = [connect(port) for _ in live]
    go = threading.Event()
    deadline = [0.0]
    threads = [
        threading.Thread(target=_pipeline, args=(
            sock, queries, window, go, deadline, result))
        for sock, (queries, result) in zip(socks, live)]
    try:
        for sock in socks:
            sock.settimeout(60.0)
        for thread in threads:
            thread.start()
        started = time.perf_counter()
        deadline[0] = started + seconds
        go.set()
        for thread in threads:
            thread.join(timeout=seconds + 120.0)
            if thread.is_alive():
                raise TimeoutError("pipelined connection did not drain")
    finally:
        go.set()
        for sock in socks:
            sock.close()
        for thread in threads:
            thread.join(timeout=5.0)
    for _, result in live:
        if result.error is not None:
            raise result.error
        if result.ran_dry:
            into.exhausted = True
    into.windows.append((started, seconds))


@dataclass
class Loops:
    """Both closed loops against one server, and CPU read around the peak."""

    lone: LoneResult
    peak: PeakResult
    peak_wall_s: float = 0.0
    server_cpu_s: float = 0.0
    generator_cpu_s: float = 0.0


def run_rounds(port: int, lone: Queries, streams: Sequence[Queries],
               seconds: float, server_pids: Sequence[int] = ()) -> Loops:
    """``ROUNDS`` rounds of lone caller then pipelined peak, ``seconds`` in all.

    The generator's garbage collector is off while the loops run, so
    its pauses do not land in the program's latencies.
    """
    out = Loops(LoneResult(), PeakResult([PipeResult() for _ in streams]))
    lone_s = LONE_SHARE * seconds / ROUNDS
    peak_s = (1 - LONE_SHARE) * seconds / ROUNDS
    gc.collect()
    gc.disable()
    try:
        for _ in range(ROUNDS):
            lone_caller(port, lone, lone_s, out.lone)
            cpu0 = sum(cpu_seconds(pid) for pid in server_pids)
            generator0 = time.process_time()
            wall0 = time.perf_counter()
            peak(port, streams, WINDOW, peak_s, out.peak)
            out.peak_wall_s += time.perf_counter() - wall0
            out.generator_cpu_s += time.process_time() - generator0
            out.server_cpu_s += sum(cpu_seconds(pid) for pid in server_pids) - cpu0
    finally:
        gc.enable()
    return out


def decode_frames(chunks: Sequence[bytes]):
    """Decode a received byte stream into protocol :class:`Frame` objects."""
    return FrameDecoder().feed(b"".join(chunks))


# ----------------------------------------------------------------------
# Canned-reply server (the generator + loopback TCP floor)
# ----------------------------------------------------------------------


class _Canned(asyncio.Protocol):
    """Answers each frame with one fixed distance-only reply."""

    def __init__(self) -> None:
        self.buffer = bytearray()
        self.transport: Optional[asyncio.Transport] = None
        template = encode_reply(0, 1, None)
        self.prefix = template[:5]
        self.suffix = template[9:]

    def connection_made(self, transport) -> None:
        self.transport = transport
        transport.get_extra_info("socket").setsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def data_received(self, data: bytes) -> None:
        buffer = self.buffer
        buffer += data
        size = len(buffer)
        offset = 0
        out = []
        prefix, suffix = self.prefix, self.suffix
        while size - offset >= 4:
            end = offset + 4 + _LENGTH.unpack_from(buffer, offset)[0]
            if end > size:
                break
            out.append(prefix + bytes(buffer[offset + 5:offset + 9]) + suffix)
            offset = end
        if offset:
            del buffer[:offset]
            self.transport.write(b"".join(out))


def serve_canned(cpu: Optional[int], port_pipe) -> None:
    """Child-process body: serve canned replies until SIGTERM."""
    Placement.pin(0, cpu)

    async def main() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        server = await loop.create_server(_Canned, HOST, 0)
        port_pipe.send(server.sockets[0].getsockname()[1])
        port_pipe.close()
        try:
            await stop.wait()
        finally:
            server.close()
            await server.wait_closed()

    asyncio.run(main())
