"""Asyncio route-query server: micro-batching, backpressure, drain.

The server answers :mod:`repro.service.protocol` frames for exactly one
DG(d, k) through a :class:`~repro.service.engine.RouteQueryEngine`.
Four production behaviours are structural, not bolted on:

* **Bounded admission** — accepted queries enter a fixed-capacity queue.
  When it is full the connection handler answers *immediately* with an
  ``ERROR/OVERLOADED`` frame instead of buffering without limit: memory
  stays bounded under any burst and clients get an explicit
  backpressure signal they can retry on.  The high-water mark is
  exported as ``server.queue_peak``.
* **Micro-batching** — distance-only queries that the table tier cannot
  answer are coalesced by destination in a :class:`MicroBatcher` and
  flushed when a group reaches ``batch_size`` or its ``batch_deadline``
  expires, whichever comes first.  A flush answers the whole group from
  one shared suffix automaton (see
  :meth:`~repro.service.engine.RouteQueryEngine.resolve_distances`).
* **One write per pass** — a reply is appended to its connection's
  buffer, and the first frame buffered since the last write schedules
  one flush with ``loop.call_soon``.  Every frame queued for a
  connection during one event-loop pass then leaves in a single
  transport write, so 64 pipelined queries answered in one pass cost
  one ``send``, not 64.  The read loop and the dispatcher flush before
  they ``drain()``, and closing a connection flushes first.
  ``server.writes`` counts the writes.
* **Graceful drain** — :meth:`RouteQueryServer.stop` stops accepting,
  answers still-queued work (or fails it with ``SHUTTING_DOWN`` after
  ``drain_timeout``), flushes the batcher, and only then closes
  connections, writing their buffered replies first.  Nothing accepted
  is silently dropped.

Latency from admission until the reply is queued for its
connection's write is observed into the ``server.latency_seconds``
histogram; the whole registry snapshot is
served over ``STATS`` frames and by ``debruijn-routing serve
--stats-json``.
"""

from __future__ import annotations

import asyncio
import logging
import socket
from dataclasses import dataclass
from typing import Awaitable, Callable, Dict, List, Optional, Tuple

from repro.exceptions import DeBruijnError, ProtocolError
from repro.service.engine import RouteQueryEngine
from repro.service.metrics import MetricsRegistry
from repro.service.protocol import (
    ErrorCode,
    Frame,
    FrameDecoder,
    FrameType,
    RouteQuery,
    decode_query,
    encode_error,
    encode_reply,
    encode_stats_reply,
)

#: Linear bucket edges for the batch-group-size histogram.
_GROUP_SIZE_BUCKETS = tuple(float(n) for n in range(1, 65))

logger = logging.getLogger(__name__)


@dataclass
class ServerConfig:
    """Tunables for one :class:`RouteQueryServer`."""

    host: str = "127.0.0.1"
    port: int = 0  #: 0 binds an ephemeral port (returned by ``start``)
    max_pending: int = 1024  #: admission-queue capacity (backpressure bound)
    batch_size: int = 32  #: flush a destination group at this size
    batch_deadline: float = 0.002  #: seconds before a partial group flushes
    request_timeout: float = 5.0  #: queue age beyond which requests fail
    drain_timeout: float = 5.0  #: seconds ``stop`` waits for queued work
    reuse_port: bool = False  #: bind with SO_REUSEPORT (multi-worker pool)
    slo_ms: Optional[float] = None  #: count replies slower than this budget
    #: Seconds a connection may take to *finish a started frame*.  An
    #: idle connection (no partial frame buffered) never times out —
    #: healthy pooled clients park for free — but a slow-loris peer
    #: trickling bytes forever inside one frame is quarantined.  None
    #: disables the deadline.
    read_timeout: Optional[float] = None
    #: Hard cap on concurrently open connections; new arrivals beyond
    #: it are closed immediately (``server.conn_rejected``).  None
    #: disables admission control.
    max_connections: Optional[int] = None


@dataclass
class _Pending:
    """One admitted query waiting for the dispatcher."""

    query: RouteQuery
    connection: "_Connection"
    enqueued_at: float


class _Connection:
    """Per-connection state: writer, frame decoder, reply buffer, liveness."""

    __slots__ = ("reader", "writer", "decoder", "closed", "_out", "_registry")

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        registry: MetricsRegistry,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.decoder = FrameDecoder()
        self.closed = False
        self._out: List[bytes] = []
        self._registry = registry

    def send(self, payload: bytes) -> None:
        """Queue ``payload`` for this connection's next write (no-op
        once closed).

        The first frame queued since the last write schedules
        :meth:`flush` with ``call_soon``, so every frame queued before
        it runs leaves in the same transport write.
        """
        if self.closed:
            return
        out = self._out
        out.append(payload)
        if len(out) == 1:
            asyncio.get_running_loop().call_soon(self.flush)

    def flush(self) -> None:
        """Write every queued frame in one transport write.

        A peer that vanished mid-reply must never propagate out of a
        reply path — the transport error marks the connection closed
        and the read loop reaps it.
        """
        out = self._out
        if not out:
            return
        data = b"".join(out)
        out.clear()
        if self.writer.is_closing():
            # The transport learned about the peer's reset before our
            # read loop did; writing now would only generate asyncio
            # "socket.send() raised exception" noise.
            self.closed = True
            return
        try:
            self.writer.write(data)
        except (ConnectionError, OSError, RuntimeError):
            self.closed = True
            return
        self._registry.inc("server.writes")


class MicroBatcher:
    """Coalesce distance-only queries by (destination, directed).

    Groups flush on size (``batch_size``) or age (``batch_deadline``),
    whichever happens first; the deadline timer is armed when a group is
    born and cancelled by a size flush.  Flushing is synchronous — one
    :meth:`~repro.service.engine.RouteQueryEngine.resolve_distances`
    call answers the whole group — so it is safe to run from a
    ``call_later`` callback.
    """

    def __init__(self, server: "RouteQueryServer") -> None:
        self._server = server
        self._groups: Dict[Tuple[Tuple[int, ...], bool], List[_Pending]] = {}
        self._timers: Dict[Tuple[Tuple[int, ...], bool], asyncio.TimerHandle] = {}

    def add(self, item: _Pending) -> None:
        """Admit one distance-only query into its destination group."""
        key = (item.query.destination, item.query.directed)
        group = self._groups.setdefault(key, [])
        group.append(item)
        config = self._server.config
        if len(group) >= config.batch_size:
            self._flush(key)
        elif len(group) == 1:
            loop = asyncio.get_running_loop()
            self._timers[key] = loop.call_later(
                config.batch_deadline, self._flush, key
            )

    def _flush(self, key: Tuple[Tuple[int, ...], bool]) -> None:
        group = self._groups.pop(key, None)
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.cancel()
        if not group:
            return
        destination, directed = key
        server = self._server
        server.registry.histogram(
            "server.batch_group_size", _GROUP_SIZE_BUCKETS
        ).observe(float(len(group)))
        try:
            distances = server.engine.resolve_distances(
                destination, [item.query.source for item in group], directed
            )
        except DeBruijnError as exc:
            for item in group:
                server._send_error(
                    item.connection,
                    item.query.request_id,
                    ErrorCode.INTERNAL,
                    repr(exc),
                )
            return
        for item, distance in zip(group, distances):
            server._send_reply(item, distance, None)

    def flush_all(self) -> None:
        """Drain every group immediately (shutdown path)."""
        for key in list(self._groups):
            self._flush(key)

    @property
    def pending(self) -> int:
        """Queries currently parked in unflushed groups."""
        return sum(len(group) for group in self._groups.values())


class RouteQueryServer:
    """The asyncio front end over one :class:`RouteQueryEngine`.

    Lifecycle: :meth:`start` binds and returns the port, queries flow
    until :meth:`stop` drains and closes.  ``async with`` does both.
    """

    def __init__(
        self,
        engine: RouteQueryEngine,
        config: Optional[ServerConfig] = None,
    ) -> None:
        self.engine = engine
        self.config = config if config is not None else ServerConfig()
        # Server and engine share one registry so a single STATS frame
        # shows both tiers' counters side by side.
        self.registry: MetricsRegistry = engine.registry
        self.port: Optional[int] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._queue: Optional["asyncio.Queue[_Pending]"] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._connections: set = set()
        self._batcher = MicroBatcher(self)
        self._draining = False
        self._queue_peak = 0
        #: Optional coroutine returning the snapshot served over STATS.
        #: A multi-worker deployment points this at the supervisor's
        #: fleet-wide aggregation; ``None`` answers from the local
        #: registry synchronously.
        self.stats_provider: Optional[
            Callable[[], Awaitable[dict]]
        ] = None
        self._stats_tasks: set = set()

    # -- lifecycle -------------------------------------------------------

    async def start(
        self, listen_socket: Optional[socket.socket] = None
    ) -> int:
        """Bind, launch the dispatcher, and return the listening port.

        ``listen_socket`` serves accepts from a pre-bound listening
        socket instead of binding ``config.host:port`` — the shared-
        listener fallback where a supervisor binds once and every forked
        worker accepts from the same socket.  With ``config.reuse_port``
        the server binds its own socket with ``SO_REUSEPORT`` so many
        worker processes can listen on one address and let the kernel
        spread connections across them.
        """
        self._queue = asyncio.Queue(maxsize=self.config.max_pending)
        if listen_socket is not None:
            self._server = await asyncio.start_server(
                self._handle_connection, sock=listen_socket
            )
        elif self.config.reuse_port:
            self._server = await asyncio.start_server(
                self._handle_connection,
                self.config.host,
                self.config.port,
                reuse_port=True,
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, self.config.host, self.config.port
            )
        self.port = self._server.sockets[0].getsockname()[1]
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        return self.port

    async def stop(self) -> None:
        """Graceful drain: stop accepting, answer queued work, close."""
        self._draining = True
        if self._server is not None:
            self._server.close()
        if self._queue is not None:
            try:
                await asyncio.wait_for(
                    self._queue.join(), timeout=self.config.drain_timeout
                )
            except asyncio.TimeoutError:
                while True:
                    try:
                        item = self._queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    self._send_error(
                        item.connection,
                        item.query.request_id,
                        ErrorCode.SHUTTING_DOWN,
                        "server drain timeout",
                    )
                    self._queue.task_done()
        self._batcher.flush_all()
        for task in list(self._stats_tasks):
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        for connection in list(self._connections):
            await self._close_connection(connection)
        if self._server is not None:
            # From Python 3.12.1 this also waits for every accepted
            # connection to close, so it must follow the loop above.
            await self._server.wait_closed()

    async def __aenter__(self) -> "RouteQueryServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- connection handling ---------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        max_conns = self.config.max_connections
        if max_conns is not None and len(self._connections) >= max_conns:
            # Admission control: shedding a whole connection is cheaper
            # and clearer than accepting frames we cannot answer.
            self.registry.inc("server.conn_rejected")
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            return
        connection = _Connection(reader, writer, self.registry)
        self._connections.add(connection)
        self.registry.inc("server.connections")
        read_timeout = self.config.read_timeout
        loop = asyncio.get_running_loop()
        frame_deadline: Optional[float] = None
        try:
            while True:
                timeout = None
                if frame_deadline is not None:
                    timeout = frame_deadline - loop.time()
                    if timeout <= 0:
                        self.registry.inc("server.read_timeouts")
                        logger.info("read deadline: mid-frame stall, closing")
                        break
                try:
                    if timeout is None:
                        data = await reader.read(1 << 16)
                    else:
                        data = await asyncio.wait_for(
                            reader.read(1 << 16), timeout
                        )
                except asyncio.TimeoutError:
                    self.registry.inc("server.read_timeouts")
                    logger.info("read deadline: mid-frame stall, closing")
                    break
                if not data:
                    break
                try:
                    frames = connection.decoder.feed(data)
                except ProtocolError as exc:
                    # Quarantine: a corrupt frame costs this connection
                    # its stream, never the server.
                    self.registry.inc("server.malformed_frames")
                    logger.info("malformed frame, closing connection: %s", exc)
                    break
                if read_timeout is not None:
                    if connection.decoder.pending_bytes:
                        # Any completed frame is progress and re-arms
                        # the deadline; only a partial frame that stops
                        # completing for read_timeout seconds is a stall.
                        if frames or frame_deadline is None:
                            frame_deadline = loop.time() + read_timeout
                    else:
                        frame_deadline = None
                for frame in frames:
                    self._handle_frame(connection, frame)
                await self._flush_writer(connection)
        except (ConnectionError, OSError) as exc:
            # Peer vanished mid-frame or mid-reply: log and close, never
            # let the handler task die with an unretrieved exception.
            self.registry.inc("server.client_disconnects")
            logger.debug("client disconnect: %r", exc)
        finally:
            await self._close_connection(connection)

    def _handle_frame(self, connection: _Connection, frame: Frame) -> None:
        if frame.frame_type == FrameType.STATS:
            self.registry.inc("server.stats_requests")
            if self.stats_provider is not None:
                task = asyncio.create_task(
                    self._answer_stats(connection, frame.request_id)
                )
                self._stats_tasks.add(task)
                task.add_done_callback(self._stats_tasks.discard)
                return
            connection.send(
                encode_stats_reply(frame.request_id, self.snapshot())
            )
            return
        if frame.frame_type != FrameType.QUERY:
            self._send_error(
                connection,
                frame.request_id,
                ErrorCode.UNSUPPORTED,
                f"cannot serve frame type {frame.frame_type!r}",
            )
            return
        self.registry.inc("server.queries")
        try:
            query = decode_query(frame)
        except ProtocolError as exc:
            self.registry.inc("server.malformed_frames")
            self._send_error(
                connection, frame.request_id, ErrorCode.MALFORMED, str(exc)
            )
            return
        engine = self.engine
        if query.d != engine.d or query.k != engine.k:
            self._send_error(
                connection,
                frame.request_id,
                ErrorCode.UNSUPPORTED,
                f"this server routes DG({engine.d},{engine.k}), "
                f"not DG({query.d},{query.k})",
            )
            return
        if self._draining:
            self._send_error(
                connection,
                frame.request_id,
                ErrorCode.SHUTTING_DOWN,
                "server is draining",
            )
            return
        item = _Pending(query, connection, asyncio.get_running_loop().time())
        assert self._queue is not None
        try:
            self._queue.put_nowait(item)
        except asyncio.QueueFull:
            self.registry.inc("server.rejected_overload")
            self._send_error(
                connection,
                frame.request_id,
                ErrorCode.OVERLOADED,
                f"admission queue full ({self.config.max_pending})",
            )
            return
        depth = self._queue.qsize()
        if depth > self._queue_peak:
            self._queue_peak = depth

    async def _answer_stats(
        self, connection: _Connection, request_id: int
    ) -> None:
        """Answer one STATS frame through the external provider.

        Falls back to the local snapshot when the provider fails (e.g.
        the supervisor is mid-restart) — a STATS request never goes
        unanswered while the connection is alive.
        """
        try:
            snapshot = await self.stats_provider()
        except Exception:
            self.registry.inc("server.stats_provider_errors")
            snapshot = self.snapshot()
        connection.send(encode_stats_reply(request_id, snapshot))
        await self._flush_writer(connection)

    async def _flush_writer(self, connection: _Connection) -> None:
        connection.flush()
        if not connection.closed:
            try:
                await connection.writer.drain()
            except (ConnectionError, OSError, RuntimeError):
                # Peer reset mid-reply: mark closed, read loop reaps it.
                connection.closed = True
                self.registry.inc("server.client_disconnects")

    async def _close_connection(self, connection: _Connection) -> None:
        self._connections.discard(connection)
        if connection.closed:
            return
        connection.flush()
        connection.closed = True
        try:
            connection.writer.close()
            await connection.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    # -- dispatching -----------------------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._queue is not None
        queue = self._queue
        loop = asyncio.get_running_loop()
        drain_every = 64
        since_drain = 0
        while True:
            item = await queue.get()
            try:
                self._dispatch_one(item, loop.time())
            except Exception as exc:  # noqa: BLE001 - dispatcher must survive
                # One bad query must never kill the dispatcher for
                # every other connection.
                self.registry.inc("server.dispatch_errors")
                logger.exception("dispatch failed: %r", exc)
            finally:
                queue.task_done()
            since_drain += 1
            if queue.empty() or since_drain >= drain_every:
                since_drain = 0
                await self._flush_writer(item.connection)

    def _dispatch_one(self, item: _Pending, now: float) -> None:
        query = item.query
        if now - item.enqueued_at > self.config.request_timeout:
            self.registry.inc("server.timed_out")
            self._send_error(
                item.connection,
                query.request_id,
                ErrorCode.TIMEOUT,
                f"queued {now - item.enqueued_at:.3f}s "
                f"> {self.config.request_timeout}s",
            )
            return
        engine = self.engine
        if not query.want_path and not engine.has_table(query.directed):
            # Distance-only and no O(1) table: park it for coalescing.
            self._batcher.add(item)
            return
        try:
            distance, path = engine.resolve(
                query.source, query.destination, query.directed, query.want_path
            )
        except DeBruijnError as exc:
            self._send_error(
                item.connection, query.request_id, ErrorCode.INTERNAL, repr(exc)
            )
            return
        self._send_reply(item, distance, path)

    # -- replies ---------------------------------------------------------

    def _send_reply(self, item: _Pending, distance: int, path) -> None:
        item.connection.send(
            encode_reply(item.query.request_id, distance, path)
        )
        self.registry.inc("server.replies")
        elapsed = asyncio.get_running_loop().time() - item.enqueued_at
        self.registry.histogram("server.latency_seconds").observe(elapsed)
        slo_ms = self.config.slo_ms
        if slo_ms is not None and elapsed * 1e3 > slo_ms:
            self.registry.inc("server.slo_violations")

    def _send_error(
        self,
        connection: _Connection,
        request_id: int,
        code: ErrorCode,
        message: str,
    ) -> None:
        connection.send(encode_error(request_id, code, message))
        self.registry.inc("server.errors")
        self.registry.inc(f"server.errors.{code.name.lower()}")

    # -- introspection ---------------------------------------------------

    def snapshot(self) -> dict:
        """The live metrics snapshot served over ``STATS`` frames."""
        self.registry.set_counter("server.queue_peak", self._queue_peak)
        self.registry.set_counter(
            "server.queue_depth",
            self._queue.qsize() if self._queue is not None else 0,
        )
        self.registry.set_counter("server.batch_pending", self._batcher.pending)
        self.registry.set_counter(
            "server.open_connections", len(self._connections)
        )
        if self.config.slo_ms is not None:
            self.registry.counter("server.slo_violations")  # ensure visible
        return self.engine.stats()
