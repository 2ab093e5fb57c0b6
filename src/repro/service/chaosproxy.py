"""Wire-level fault injection: a chaos TCP proxy for the route service.

E19/E20 proved the *simulated* network degrades gracefully under faults;
this module brings the same discipline to the real serving path.  A
:class:`ChaosProxy` sits between a client (or loadgen) and a server (or
supervisor fleet) as an ordinary TCP forwarder, and injects faults
drawn from a seeded, replayable :class:`FaultPlan`:

* **latency / jitter** — every forwarded chunk is delayed by
  ``latency_ms`` plus a uniform jitter draw;
* **bandwidth cap** — chunks are re-sliced and paced so a direction
  never exceeds ``bandwidth_kbps``;
* **mid-frame resets** — a fated connection is aborted (RST via
  ``SO_LINGER 0`` where possible) after a seeded byte offset, which by
  construction usually lands *inside* a length-prefixed frame;
* **corruption / truncation** — per-chunk Bernoulli draws flip a byte
  or drop the chunk's tail, exercising the decoder's quarantine path on
  both ends of the wire;
* **black-hole partition** — between :meth:`ChaosProxy.partition` and
  :meth:`ChaosProxy.heal` (or a timed window from the plan) all bytes
  are silently discarded and new connections hang, exactly like a
  dropped route: no RST, no FIN, just darkness.  Healing resets the
  desynchronised survivors so clients reconnect onto clean streams;
* **slow-loris trickle** — a fated connection forwards one byte at a
  time with a pause between writes, starving the peer's frame decoder
  without ever going idle.

Faults compose per-direction (``c2s``, ``s2c`` or both) and
per-connection: which connections are fated for reset/trickle, at what
byte offset, and every per-chunk draw all come from
``random.Random(f"{seed}:{conn}:{direction}")`` streams, so a plan
replays the same *decisions* for the same seed.  (Chunk boundaries are
the kernel's to choose, so replay is decision-level, not byte-level.)
Every injected event increments a ``proxy.*`` counter in a
:class:`~repro.service.metrics.MetricsRegistry`.

:class:`ChaosProxyThread` runs the proxy on a daemon thread for tests,
benchmarks and the ``debruijn-routing chaosproxy`` CLI.
"""

from __future__ import annotations

import asyncio
import random
import socket
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.exceptions import ServiceError
from repro.service.loop import LoopThread
from repro.service.metrics import MetricsRegistry

__all__ = [
    "FaultPlan",
    "ChaosProxy",
    "ChaosProxyThread",
    "UdpChaosProxy",
    "DIRECTIONS",
]

#: Valid values for :attr:`FaultPlan.directions`.
DIRECTIONS = ("both", "c2s", "s2c")

_READ_CHUNK = 1 << 16


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, replayable description of what the proxy should break.

    All rates are probabilities in ``[0, 1]``.  ``reset_rate`` and
    ``trickle_rate`` are drawn once per connection (a connection is
    *fated* or not); ``corrupt_rate`` and ``truncate_rate`` are drawn
    per forwarded chunk.  A zero/None field disables that fault, so
    ``FaultPlan(seed="s")`` is a transparent proxy.
    """

    seed: str = "chaos"
    #: Added latency per forwarded chunk, milliseconds.
    latency_ms: float = 0.0
    #: Uniform extra jitter on top of ``latency_ms``, milliseconds.
    jitter_ms: float = 0.0
    #: Per-direction bandwidth cap; ``0`` disables the cap.
    bandwidth_kbps: float = 0.0
    #: Probability a connection is fated for a mid-stream abort.
    reset_rate: float = 0.0
    #: Fated resets fire after a byte offset drawn from this range.
    reset_after_bytes: Tuple[int, int] = (64, 4096)
    #: Per-chunk probability of flipping one byte.
    corrupt_rate: float = 0.0
    #: Per-chunk probability of dropping the tail of the chunk.
    truncate_rate: float = 0.0
    #: Probability a connection is fated for slow-loris forwarding.
    trickle_rate: float = 0.0
    #: Pause between single-byte writes on a trickled connection.
    trickle_interval: float = 0.05
    #: Seconds after proxy start at which a timed partition begins.
    partition_at: Optional[float] = None
    #: Seconds the timed partition lasts before the proxy heals.
    partition_duration: float = 1.0
    #: Which direction(s) faults apply to: ``both``, ``c2s`` or ``s2c``.
    directions: str = "both"

    def __post_init__(self) -> None:
        if self.directions not in DIRECTIONS:
            raise ValueError(
                f"directions must be one of {DIRECTIONS}, got {self.directions!r}"
            )
        for field in ("reset_rate", "corrupt_rate", "truncate_rate", "trickle_rate"):
            rate = getattr(self, field)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{field} must be in [0, 1], got {rate}")
        for field in ("latency_ms", "jitter_ms", "bandwidth_kbps", "trickle_interval"):
            value = getattr(self, field)
            if value < 0:
                raise ValueError(f"{field} must be non-negative, got {value}")
        lo, hi = self.reset_after_bytes
        if lo < 1 or hi < lo:
            raise ValueError(f"bad reset_after_bytes range: {self.reset_after_bytes}")

    def rng_for(self, conn_index: int, direction: str) -> random.Random:
        """Deterministic stream for one (connection, direction) pair."""
        return random.Random(f"{self.seed}:{conn_index}:{direction}")

    def applies_to(self, direction: str) -> bool:
        """Does this plan inject faults in ``direction``?"""
        return self.directions == "both" or self.directions == direction

    def fate(self, conn_index: int, direction: str) -> "_ConnFate":
        """Draw the per-connection fault decisions.  Pure: same seed,
        same connection index, same fate — this is what makes a
        campaign replayable."""
        rng = self.rng_for(conn_index, direction)
        fated_reset = self.applies_to(direction) and rng.random() < self.reset_rate
        reset_after = rng.randint(*self.reset_after_bytes) if fated_reset else None
        fated_trickle = self.applies_to(direction) and rng.random() < self.trickle_rate
        return _ConnFate(
            rng=rng,
            direction=direction,
            reset_after=reset_after,
            trickle=fated_trickle,
        )


@dataclass
class _ConnFate:
    """Resolved per-(connection, direction) fault state."""

    rng: random.Random
    direction: str
    reset_after: Optional[int]
    trickle: bool
    forwarded: int = 0


class ChaosProxy:
    """Asyncio TCP proxy applying a :class:`FaultPlan` to both pumps.

    ``await start()`` binds the listen socket (ephemeral port by
    default) and returns; :attr:`port` is then routable.  Each accepted
    client connection dials ``upstream_host:upstream_port`` and runs
    two pump tasks (client→server and server→client), each owning the
    fate drawn for its direction.
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        plan: Optional[FaultPlan] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.plan = plan or FaultPlan()
        self.host = host
        self.port = port
        self.registry = registry or MetricsRegistry()
        self._server: Optional[asyncio.base_events.Server] = None
        self._conn_index = 0
        self._partitioned = False
        self._partition_event: Optional[asyncio.Event] = None
        self._writers: List[asyncio.StreamWriter] = []
        #: Each accepted connection's handler task and its open streams,
        #: a connection parked in a partition included.
        self._handlers: "Dict[asyncio.Task, List[asyncio.StreamWriter]]" = {}
        self._partition_task: Optional[asyncio.Task] = None
        self._started_at = 0.0

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> int:
        """Bind the listen socket and return the routable port."""
        self._partition_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_client, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = asyncio.get_running_loop().time()
        if self.plan.partition_at is not None:
            self._partition_task = asyncio.create_task(self._timed_partition())
        return self.port

    async def stop(self) -> None:
        """Close the listener and abort every connection.

        The connections go first, parked ones included: from Python
        3.12.1 ``Server.wait_closed()`` also waits for every accepted
        connection to close.
        """
        if self._partition_task is not None:
            self._partition_task.cancel()
            self._partition_task = None
        if self._server is None:
            return
        self._server.close()
        # An aborted stream ends its handler's pumps or partition wait.
        # A handler accepted just before close() registers itself on
        # its first step, so repeat until none is left.
        while self._handlers:
            for streams in self._handlers.values():
                for stream in streams:
                    self._abort(stream)
            await asyncio.gather(*self._handlers, return_exceptions=True)
        await self._server.wait_closed()
        self._server = None

    async def __aenter__(self) -> "ChaosProxy":
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # partition control

    @property
    def partitioned(self) -> bool:
        return self._partitioned

    def partition(self) -> None:
        """Begin black-holing every byte in both directions."""
        if not self._partitioned:
            self._partitioned = True
            self.registry.inc("proxy.partitions")
            if self._partition_event is not None:
                self._partition_event.clear()

    def heal(self) -> None:
        """End the partition.  Connections that lost bytes into the
        black hole are desynchronised mid-frame, so they are reset
        rather than resumed — clients reconnect onto clean streams,
        which is also what a real routing flap looks like."""
        if self._partitioned:
            self._partitioned = False
            self.registry.inc("proxy.heals")
            if self._partition_event is not None:
                self._partition_event.set()
            for writer in list(self._writers):
                self._abort(writer)
                self.registry.inc("proxy.partition_resets")
            self._writers.clear()

    async def _timed_partition(self) -> None:
        loop = asyncio.get_running_loop()
        delay = self._started_at + (self.plan.partition_at or 0.0) - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        self.partition()
        await asyncio.sleep(self.plan.partition_duration)
        self.heal()

    # ------------------------------------------------------------------
    # data path

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        index = self._conn_index
        self._conn_index += 1
        self.registry.inc("proxy.connections")
        handler = asyncio.current_task()
        streams = self._handlers[handler] = [writer]
        try:
            if self._partitioned:
                # New connections during a partition hang in the dark
                # until healed or the client gives up; do not dial
                # upstream.
                self.registry.inc("proxy.blackholed_connects")
                assert self._partition_event is not None
                waiters = {
                    asyncio.ensure_future(self._partition_event.wait()),
                    asyncio.ensure_future(reader.read(_READ_CHUNK)),
                }
                try:
                    await asyncio.wait(
                        waiters, return_when=asyncio.FIRST_COMPLETED
                    )
                finally:
                    for waiter in waiters:
                        waiter.cancel()
                return
            try:
                up_reader, up_writer = await asyncio.open_connection(
                    self.upstream_host, self.upstream_port
                )
            except OSError:
                self.registry.inc("proxy.upstream_failures")
                return
            streams.append(up_writer)
            self._writers.extend(streams)
            await asyncio.gather(
                self._pump(reader, up_writer, self.plan.fate(index, "c2s")),
                self._pump(up_reader, writer, self.plan.fate(index, "s2c")),
                return_exceptions=True,
            )
        finally:
            del self._handlers[handler]
            for stream in streams:
                self._abort(stream)
                if stream in self._writers:
                    self._writers.remove(stream)

    async def _pump(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        fate: _ConnFate,
    ) -> None:
        plan = self.plan
        apply = plan.applies_to(fate.direction)
        try:
            while True:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    break
                if self._partitioned:
                    # Black hole: the bytes simply vanish.
                    self.registry.inc("proxy.blackholed_bytes", len(data))
                    continue
                reset = False
                if apply:
                    data, reset = self._mutate(data, fate)
                    if data:
                        await self._delay(fate)
                if data:
                    await self._write_paced(writer, data, fate)
                    self.registry.inc(f"proxy.bytes_{fate.direction}", len(data))
                if reset:
                    # Abort mid-frame: the peer got the prefix above and
                    # now sees a hard reset instead of the rest.
                    return
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            self._abort(writer)

    def _mutate(self, data: bytes, fate: _ConnFate) -> Tuple[bytes, bool]:
        """Apply per-chunk fault draws.  Returns the (possibly shorter
        or corrupted) bytes to forward plus a reset flag; a set flag
        means the fated byte offset was crossed and the connection must
        be aborted right after the prefix is written."""
        plan, rng = self.plan, fate.rng
        if fate.reset_after is not None and fate.forwarded + len(data) >= fate.reset_after:
            keep = max(0, fate.reset_after - fate.forwarded)
            self.registry.inc("proxy.resets_injected")
            fate.forwarded += keep
            return data[:keep], True
        if plan.truncate_rate and rng.random() < plan.truncate_rate and len(data) > 1:
            cut = rng.randint(1, len(data) - 1)
            self.registry.inc("proxy.truncations")
            self.registry.inc("proxy.bytes_dropped", len(data) - cut)
            data = data[:cut]
        if plan.corrupt_rate and rng.random() < plan.corrupt_rate:
            pos = rng.randrange(len(data))
            flip = rng.randint(1, 255)
            data = data[:pos] + bytes([data[pos] ^ flip]) + data[pos + 1 :]
            self.registry.inc("proxy.bytes_corrupted")
        fate.forwarded += len(data)
        return data, False

    async def _delay(self, fate: _ConnFate) -> None:
        plan = self.plan
        if plan.latency_ms <= 0 and plan.jitter_ms <= 0:
            return
        pause = plan.latency_ms + fate.rng.uniform(0.0, plan.jitter_ms)
        self.registry.inc("proxy.delays_injected")
        await asyncio.sleep(pause / 1000.0)

    async def _write_paced(
        self, writer: asyncio.StreamWriter, data: bytes, fate: _ConnFate
    ) -> None:
        plan = self.plan
        if writer.is_closing():
            raise ConnectionResetError("proxy peer gone")
        if fate.trickle and plan.applies_to(fate.direction):
            self.registry.inc("proxy.trickled_chunks")
            for i in range(len(data)):
                if writer.is_closing():
                    raise ConnectionResetError("proxy peer gone")
                writer.write(data[i : i + 1])
                await writer.drain()
                await asyncio.sleep(plan.trickle_interval)
            return
        if plan.bandwidth_kbps > 0 and plan.applies_to(fate.direction):
            budget = int(plan.bandwidth_kbps * 1024 / 20) or 1  # bytes per 50ms slice
            offset = 0
            while offset < len(data):
                if writer.is_closing():
                    raise ConnectionResetError("proxy peer gone")
                writer.write(data[offset : offset + budget])
                await writer.drain()
                offset += budget
                if offset < len(data):
                    self.registry.inc("proxy.bandwidth_stalls")
                    await asyncio.sleep(0.05)
            return
        writer.write(data)
        await writer.drain()

    @staticmethod
    def _abort(writer: asyncio.StreamWriter) -> None:
        """Hard-close a stream, preferring RST over FIN so resets look
        like real mid-frame network failures, not graceful EOFs."""
        try:
            sock = writer.get_extra_info("socket")
            if sock is not None:
                sock.setsockopt(
                    socket.SOL_SOCKET,
                    socket.SO_LINGER,
                    struct.pack("ii", 1, 0),
                )
        except OSError:
            pass
        try:
            writer.transport.abort()  # type: ignore[attr-defined]
        except Exception:
            try:
                writer.close()
            except Exception:
                pass

    def snapshot(self) -> Dict[str, object]:
        """The ``proxy.*`` counters as a metrics snapshot."""
        return self.registry.snapshot()


class ChaosProxyThread:
    """Run a :class:`ChaosProxy` on a private event loop thread.

    Mirrors :class:`~repro.service.supervisor.SupervisorThread`: tests
    and benchmarks get a routable ``port`` synchronously and drive
    partitions from plain code.
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        plan: Optional[FaultPlan] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        start_timeout: float = 10.0,
    ) -> None:
        self.proxy = ChaosProxy(
            upstream_host, upstream_port, plan=plan, host=host, port=port
        )
        self._loop = LoopThread(name="chaos-proxy")
        try:
            self._loop.call(self.proxy.start(), start_timeout)
        except Exception as exc:
            self.close()
            raise ServiceError(f"chaos proxy failed to start: {exc!r}") from exc

    @property
    def port(self) -> int:
        return self.proxy.port

    @property
    def registry(self) -> MetricsRegistry:
        return self.proxy.registry

    def partition(self) -> None:
        """Thread-safe :meth:`ChaosProxy.partition`."""
        self._loop.fire(self.proxy.partition)

    def heal(self) -> None:
        """Thread-safe :meth:`ChaosProxy.heal`."""
        self._loop.fire(self.proxy.heal)

    def snapshot(self) -> Dict[str, object]:
        """Thread-safe :meth:`ChaosProxy.snapshot`."""
        return self.proxy.snapshot()

    def close(self) -> None:
        """Stop the proxy and join its event-loop thread."""
        if self._loop.closed:
            return
        try:
            self._loop.call(self.proxy.stop())
        except Exception:
            pass
        finally:
            self._loop.close()

    def __enter__(self) -> "ChaosProxyThread":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# Datagram (membership-port) chaos
# ----------------------------------------------------------------------


class _UdpRelayProtocol(asyncio.DatagramProtocol):
    def __init__(self, proxy: "UdpChaosProxy") -> None:
        self._proxy = proxy

    def connection_made(self, transport) -> None:
        self._proxy._transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        self._proxy._relay(data)

    def error_received(self, exc: Exception) -> None:
        pass  # ICMP unreachable from a dead upstream: expected mid-fault


class UdpChaosProxy:
    """A datagram relay in front of one node's membership port.

    Every peer addresses the shadowed node *through* its proxy, so one
    proxy controls everything that node can hear: :meth:`partition`
    black-holes its ingress, and :meth:`block_sender` discards traffic
    from specific origin nodes (``sender_of`` peeks the node id out of
    the datagram) — together the two sides of a bidirectional isolation,
    since the victim's own egress is silenced by blocking it at every
    *other* node's ingress proxy.

    Replies never traverse the proxy: SWIM acks are standalone
    datagrams addressed via the peer map, so an ingress-only relay is a
    complete interposition — no NAT state to desynchronise.
    """

    def __init__(
        self,
        upstream: Tuple[str, int],
        host: str = "127.0.0.1",
        port: int = 0,
        sender_of=None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.upstream = upstream
        self.host = host
        self.port = port
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Callable peeking the sender node id from a datagram (None ->
        #: sender blocking disabled).  Must never raise on garbage.
        self.sender_of = sender_of
        self.blocked_senders: set = set()
        self._partitioned = False
        self._transport = None

    async def start(self) -> Tuple[str, int]:
        """Bind the relay socket; returns the address peers should dial."""
        loop = asyncio.get_running_loop()
        transport, _ = await loop.create_datagram_endpoint(
            lambda: _UdpRelayProtocol(self),
            local_addr=(self.host, self.port))
        self._transport = transport
        sockname = transport.get_extra_info("sockname")
        self.port = sockname[1]
        return (sockname[0], self.port)

    # -- fault controls (call from the proxy's loop) ---------------------

    def partition(self) -> None:
        """Black-hole every datagram toward the shadowed node."""
        self._partitioned = True
        self.registry.inc("proxy.partitions")

    def heal(self) -> None:
        """Lift :meth:`partition`; relaying resumes immediately."""
        self._partitioned = False
        self.registry.inc("proxy.heals")

    def block_sender(self, node_id: int) -> None:
        """Discard datagrams whose origin is ``node_id``."""
        self.blocked_senders.add(node_id)

    def unblock_sender(self, node_id: int) -> None:
        """Lift :meth:`block_sender` for ``node_id``."""
        self.blocked_senders.discard(node_id)

    # -- the relay -------------------------------------------------------

    def _relay(self, data: bytes) -> None:
        registry = self.registry
        if self._partitioned:
            registry.inc("proxy.datagrams_blackholed")
            return
        if self.blocked_senders and self.sender_of is not None:
            try:
                sender = self.sender_of(data)
            except Exception:
                sender = None
            if sender in self.blocked_senders:
                registry.inc("proxy.datagrams_blocked")
                return
        transport = self._transport
        if transport is None or transport.is_closing():
            return
        transport.sendto(data, self.upstream)
        registry.inc("proxy.datagrams_relayed")

    async def stop(self) -> None:
        """Close the relay socket."""
        if self._transport is not None:
            self._transport.close()
            self._transport = None
