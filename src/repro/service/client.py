"""Pipelining client for the route-query service, with a connection pool.

:class:`RouteServiceClient` is the asyncio client: it keeps up to
``pool_size`` connections open, correlates replies to queries by request
id, and pipelines — :meth:`~RouteServiceClient.query_many` keeps a
bounded ``window`` of queries in flight per connection instead of
waiting a full round trip per query, which is where a de Bruijn query
service earns its throughput (single-query latency is wire-dominated; a
pipelined burst amortises it away).  It makes exactly one attempt: a
failed connection leaves the pool and the call raises, with every reply
received so far already in its ``results`` buffer.

Blocking wrappers (:func:`query_once`, :func:`run_burst`,
:func:`fetch_stats`) cover scripts, tests and the ``debruijn-routing
query`` subcommand without forcing callers to manage an event loop.

Retrying is :class:`RetryPolicy`'s job alone, in exactly two places:

* :class:`RobustRouteClient` re-asks a burst's unanswered queries under
  the policy's retry budget and deadline, with a
  :class:`CircuitBreaker` (closed → open → half-open with a single
  probe) and endpoint failover.  It guarantees every
  query gets *an* answer — a server reply, or a synthetic ``TIMEOUT``
  reply carrying :data:`CLIENT_DEADLINE_MESSAGE` once the budget is
  spent.  Resilience events are counted in a
  :class:`~repro.service.metrics.MetricsRegistry` (``client.retries``,
  ``client.deadline_exceeded``, ``client.breaker_open``, ...).
* :func:`query_once` and :func:`fetch_stats` repeat their idempotent
  one-shot round trip on a fresh connection, sleeping
  :meth:`RetryPolicy.backoff` between attempts.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass
from typing import (Awaitable, Callable, Dict, List, Optional, Sequence,
                    Tuple, TypeVar)

from repro.core.routing import Path
from repro.core.word import WordTuple
from repro.exceptions import ProtocolError, ServiceError
from repro.service.metrics import MetricsRegistry
from repro.service.protocol import (
    ErrorCode,
    FrameDecoder,
    FrameType,
    decode_error,
    decode_reply,
    decode_stats_reply,
    encode_query,
    encode_stats_request,
)

#: ``error_message`` of the synthetic reply a :class:`RobustRouteClient`
#: fabricates when a query's deadline budget runs out client-side.
#: Loadgen and the chaos campaign treat these as *lost*, not answered.
CLIENT_DEADLINE_MESSAGE = "client deadline exceeded"

_T = TypeVar("_T")

#: Seconds a client waits for a TCP connection to open.
CONNECT_TIMEOUT = 5.0

#: Error codes worth re-asking: transient server-side conditions, plus
#: ``MALFORMED``/``INTERNAL`` which, for a query the client knows it
#: encoded correctly, are evidence of wire corruption rather than a
#: caller bug.  ``UNSUPPORTED`` (wrong d/k) is permanent and is not
#: retried.
RETRYABLE_ERROR_CODES = frozenset(
    {
        ErrorCode.OVERLOADED,
        ErrorCode.TIMEOUT,
        ErrorCode.SHUTTING_DOWN,
        ErrorCode.MALFORMED,
        ErrorCode.INTERNAL,
    }
)


@dataclass(frozen=True)
class RouteReply:
    """The outcome of one query: a distance/path, or a service error."""

    distance: Optional[int]
    path: Optional[Path]
    error_code: Optional[ErrorCode] = None
    error_message: str = ""

    @property
    def ok(self) -> bool:
        """True for a successful ``REPLY``, False for any ``ERROR``."""
        return self.error_code is None


@dataclass
class QueryOutcome:
    """A pipelined burst's replies (input order) plus wall-clock cost."""

    replies: List[RouteReply]
    elapsed: float

    @property
    def ok_count(self) -> int:
        return sum(1 for reply in self.replies if reply.ok)

    @property
    def error_counts(self) -> Dict[str, int]:
        """Errors keyed by :class:`ErrorCode` name."""
        counts: Dict[str, int] = {}
        for reply in self.replies:
            if reply.error_code is not None:
                name = reply.error_code.name
                counts[name] = counts.get(name, 0) + 1
        return counts

    @property
    def qps(self) -> float:
        """Answered queries (replies *and* errors) per second."""
        return len(self.replies) / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def lost_count(self) -> int:
        """Queries that never got a server answer: synthetic
        client-deadline replies fabricated by :class:`RobustRouteClient`."""
        return sum(
            1
            for reply in self.replies
            if reply.error_message == CLIENT_DEADLINE_MESSAGE
        )


class _PooledConnection:
    """One pooled stream plus its decoder and request-id counter."""

    __slots__ = ("reader", "writer", "decoder", "next_id")

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.decoder = FrameDecoder()
        self.next_id = 0

    def take_id(self) -> int:
        self.next_id = (self.next_id + 1) & 0xFFFFFFFF
        return self.next_id


class RouteServiceClient:
    """Asyncio client with pooling and per-connection pipelining.

    >>> # doctest-style sketch; see tests/test_service.py for live use
    >>> # async with RouteServiceClient("127.0.0.1", port, d=2) as client:
    >>> #     reply = await client.query((0, 1, 1), (1, 1, 0))
    """

    def __init__(
        self,
        host: str,
        port: int,
        d: Optional[int] = None,
        pool_size: int = 1,
    ) -> None:
        if pool_size < 1:
            raise ServiceError(f"pool size must be >= 1, got {pool_size}")
        self.host = host
        self.port = port
        self.d = d
        self.pool_size = pool_size
        self._pool: List[Optional[_PooledConnection]] = [None] * pool_size

    async def _connection(self, index: int) -> _PooledConnection:
        slot = index % self.pool_size
        connection = self._pool[slot]
        if connection is None or connection.writer.is_closing():
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port),
                timeout=CONNECT_TIMEOUT,
            )
            connection = _PooledConnection(reader, writer)
            self._pool[slot] = connection
        return connection

    async def close(self) -> None:
        """Close every pooled connection."""
        for slot, connection in enumerate(self._pool):
            if connection is None:
                continue
            self._pool[slot] = None
            try:
                connection.writer.close()
                await connection.writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def __aenter__(self) -> "RouteServiceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- queries ---------------------------------------------------------

    def _digit_base(self, d: Optional[int]) -> int:
        base = d if d is not None else self.d
        if base is None:
            raise ServiceError(
                "alphabet size d is required (set it on the client or query)"
            )
        return base

    async def query(
        self,
        source: WordTuple,
        destination: WordTuple,
        directed: bool = False,
        want_path: bool = True,
        d: Optional[int] = None,
    ) -> RouteReply:
        """One round trip for one (source, destination) pair."""
        outcome = await self.query_many(
            [(source, destination)], directed=directed, want_path=want_path, d=d
        )
        return outcome.replies[0]

    async def query_many(
        self,
        pairs: Sequence[Tuple[WordTuple, WordTuple]],
        directed: bool = False,
        want_path: bool = True,
        d: Optional[int] = None,
        window: int = 256,
        results: Optional[List[Optional[RouteReply]]] = None,
    ) -> QueryOutcome:
        """Pipeline ``pairs`` across the pool; replies come back in order.

        ``window`` bounds in-flight queries per connection (the client's
        half of backpressure); ``window=0`` means "fire everything at
        once" — used by the overload tests to slam a bounded server.

        One attempt, no retries: the first shard whose connection fails
        ends the call.  Its sibling shards are cancelled, every
        connection that was mid-stream leaves the pool, and the error is
        raised (a mid-burst EOF is a :class:`ServiceError`).  Re-asking
        is :class:`RobustRouteClient`'s job.

        ``results`` (len == len(pairs)) is filled in place as replies
        stream back, so a caller whose burst fails, or who cancels or
        times it out, still sees every reply received before that — the
        hardened client's way of keeping partial progress across
        abandoned attempts.
        """
        base = self._digit_base(d)
        if results is not None and len(results) != len(pairs):
            raise ServiceError(
                f"results buffer holds {len(results)} slots for "
                f"{len(pairs)} pairs")
        replies: List[Optional[RouteReply]] = (
            results if results is not None else [None] * len(pairs))
        shards = [range(slot, len(pairs), self.pool_size)
                  for slot in range(self.pool_size)]
        live_shards = []
        for slot, shard in enumerate(shards):
            if not shard:
                continue
            connection = await self._connection(slot)
            live_shards.append((slot, shard, connection))
        start = time.perf_counter()
        window = window if window > 0 else len(pairs)
        tasks = [
            asyncio.ensure_future(self._run_shard(
                slot, connection, shard, pairs, replies, base, directed,
                want_path, window))
            for slot, shard, connection in live_shards
        ]
        try:
            await asyncio.gather(*tasks)
        except BaseException:
            # The first failure ends the call.  A sibling left running
            # could wait out a stalled stream (a corrupted length
            # prefix) that no caller is waiting for any more.
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            raise
        elapsed = time.perf_counter() - start
        return QueryOutcome([reply for reply in replies if reply is not None],
                            elapsed)

    async def _run_shard(
        self,
        slot: int,
        connection: _PooledConnection,
        shard: Sequence[int],
        pairs: Sequence[Tuple[WordTuple, WordTuple]],
        replies: List[Optional[RouteReply]],
        d: int,
        directed: bool,
        want_path: bool,
        window: int,
    ) -> None:
        """Drive one shard.  A connection that fails, or is cancelled
        mid-stream, leaves the pool."""
        try:
            await self._pipeline(connection, shard, pairs, replies, d,
                                 directed, want_path, window)
        except BaseException:
            if self._pool[slot] is connection:
                self._pool[slot] = None
            connection.writer.close()
            raise

    async def _pipeline(
        self,
        connection: _PooledConnection,
        shard: Sequence[int],
        pairs: Sequence[Tuple[WordTuple, WordTuple]],
        replies: List[Optional[RouteReply]],
        d: int,
        directed: bool,
        want_path: bool,
        window: int,
    ) -> None:
        in_flight: Dict[int, int] = {}
        cursor = 0
        answered = 0
        writer, reader, decoder = (
            connection.writer,
            connection.reader,
            connection.decoder,
        )
        while answered < len(shard):
            frames = []
            while cursor < len(shard) and len(in_flight) < window:
                index = shard[cursor]
                cursor += 1
                request_id = connection.take_id()
                in_flight[request_id] = index
                source, destination = pairs[index]
                frames.append(
                    encode_query(
                        request_id, d, source, destination, directed, want_path
                    )
                )
            if frames:
                # One write per refill of the window, and never into a
                # transport the peer has reset: the caller retries.
                if writer.is_closing():
                    raise ConnectionResetError("connection closed mid-burst")
                writer.write(b"".join(frames))
            await writer.drain()
            for frame in await self._read_frames(reader, decoder):
                index = in_flight.pop(frame.request_id, None)
                if index is None:
                    raise ProtocolError(
                        f"reply for unknown request id {frame.request_id}"
                    )
                if frame.frame_type == FrameType.REPLY:
                    distance, path = decode_reply(frame)
                    replies[index] = RouteReply(distance, path)
                elif frame.frame_type == FrameType.ERROR:
                    code, message = decode_error(frame)
                    replies[index] = RouteReply(None, None, code, message)
                else:
                    raise ProtocolError(
                        f"unexpected frame type {frame.frame_type!r} mid-burst"
                    )
                answered += 1

    async def _read_frames(self, reader, decoder) -> List:
        while True:
            data = await reader.read(1 << 16)
            if not data:
                raise ServiceError("server closed the connection mid-burst")
            frames = decoder.feed(data)
            if frames:
                return frames

    async def stats(self) -> Dict[str, object]:
        """Fetch the server's metrics snapshot over a ``STATS`` frame."""
        connection = await self._connection(0)
        request_id = connection.take_id()
        connection.writer.write(encode_stats_request(request_id))
        await connection.writer.drain()
        for frame in await self._read_frames(connection.reader, connection.decoder):
            if (
                frame.frame_type == FrameType.STATS_REPLY
                and frame.request_id == request_id
            ):
                return decode_stats_reply(frame)
            raise ProtocolError(
                f"expected a stats reply, got {frame.frame_type!r}"
            )
        raise ServiceError("no stats reply received")  # pragma: no cover


# ----------------------------------------------------------------------
# Resilience layer: retry policy, circuit breaker, robust client
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """How hard a client entry point fights for an answer.

    ``retries`` bounds the re-asks and :meth:`backoff` spaces them, for
    :class:`RobustRouteClient` bursts and the one-shot helpers alike;
    the other fields shape bursts only.  ``deadline`` is the wall-clock
    budget (seconds) shared by every query in one burst — all attempts,
    backoffs and breaker waits must fit inside it.
    """

    retries: int = 4
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    deadline: Optional[float] = 30.0
    #: Cap on one attempt's wall clock.  None lets a single attempt use
    #: the whole remaining deadline; a finite cap makes black-hole
    #: partitions (connect succeeds, bytes vanish) fail fast enough for
    #: the circuit breaker to accumulate failures and trip.
    attempt_timeout: Optional[float] = None
    seed: str = "retry"

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff_base and backoff_max must be non-negative")
        for name in ("deadline", "attempt_timeout"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Exponential backoff for ``attempt`` (1-based) with seeded
        jitter: the nominal delay is scaled by a uniform draw in
        [0.5, 1.0) so synchronized clients desynchronize."""
        nominal = min(self.backoff_max, self.backoff_base * (2 ** (attempt - 1)))
        return nominal * (0.5 + rng.random() / 2.0)


@dataclass(frozen=True)
class BreakerConfig:
    """Circuit breaker tuning: trip after ``failure_threshold``
    consecutive transport failures, probe every ``probe_interval``
    seconds while open."""

    failure_threshold: int = 5
    probe_interval: float = 1.0


class CircuitBreaker:
    """Closed → open → half-open breaker over transport failures.

    While **closed** every call is allowed; ``failure_threshold``
    consecutive failures trip it **open**, where calls fail fast
    (``client.breaker_short_circuits``) instead of burning the deadline
    budget against a dead wire.  After ``probe_interval`` seconds one
    call is let through as a **half-open** probe: success closes the
    breaker, failure re-opens it and restarts the interval.  This is
    what bounds partition-heal recovery to one probe interval (E24).
    """

    def __init__(
        self,
        config: Optional[BreakerConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        now: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or BreakerConfig()
        self.registry = registry or MetricsRegistry()
        self.state = "closed"
        self.failures = 0
        self._opened_at = 0.0
        self._probe_inflight = False
        self._now = now

    def allow(self) -> bool:
        """May a request proceed right now?"""
        if self.state == "closed":
            return True
        now = self._now()
        if self.state == "open":
            if now - self._opened_at >= self.config.probe_interval:
                self.state = "half_open"
                self._probe_inflight = True
                return True
            return False
        # half-open: exactly one probe at a time
        if self._probe_inflight:
            return False
        self._probe_inflight = True
        return True

    def seconds_until_probe(self) -> float:
        """Seconds until an open breaker lets the next probe through."""
        if self.state != "open":
            return 0.0
        elapsed = self._now() - self._opened_at
        return max(0.0, self.config.probe_interval - elapsed)

    def record_success(self) -> None:
        """An attempt succeeded: close the breaker, reset the count."""
        self.state = "closed"
        self.failures = 0
        self._probe_inflight = False

    def record_failure(self) -> None:
        """An attempt failed: count it, trip open past the threshold."""
        self.failures += 1
        self._probe_inflight = False
        tripped = (
            self.state == "half_open"
            or self.failures >= self.config.failure_threshold
        )
        if tripped and self.state != "open":
            self.state = "open"
            self._opened_at = self._now()
            self.registry.inc("client.breaker_open")
        elif tripped:
            self._opened_at = self._now()


class RobustRouteClient:
    """Hardened client: every query in a burst gets an answer.

    Wraps a pooled :class:`RouteServiceClient` behind a
    :class:`RetryPolicy` and a :class:`CircuitBreaker`.  Transport
    failures and retryable error replies are re-asked (see
    :meth:`query_many`) until they succeed, the retry budget runs out,
    or the burst's deadline expires — at which point still-unanswered
    queries are filled with synthetic ``TIMEOUT`` replies carrying
    :data:`CLIENT_DEADLINE_MESSAGE` and counted in
    ``client.deadline_exceeded``.

    ``fallbacks`` lists alternate ``(host, port)`` endpoints serving the
    same table (e.g. the surviving processes of a cluster).  When an
    attempt dies on a transport fault the client rotates to the next
    endpoint before retrying — counted in ``client.failovers`` — so a
    burst survives its primary being SIGKILLed mid-flight.
    """

    def __init__(
        self,
        host: str,
        port: int,
        d: Optional[int] = None,
        pool_size: int = 1,
        policy: Optional[RetryPolicy] = None,
        breaker: Optional[BreakerConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        fallbacks: Sequence[Tuple[str, int]] = (),
    ) -> None:
        self.policy = policy or RetryPolicy()
        self.registry = registry or MetricsRegistry()
        self.breaker = CircuitBreaker(breaker, self.registry)
        self._rng = random.Random(self.policy.seed)
        self._endpoints: List[Tuple[str, int]] = [(host, port)]
        self._endpoints.extend((h, p) for h, p in fallbacks)
        self._endpoint_index = 0
        self._d = d
        self._pool_size = pool_size
        self._primary = RouteServiceClient(host, port, d=d, pool_size=pool_size)

    @property
    def endpoint(self) -> Tuple[str, int]:
        """The ``(host, port)`` the next attempt will dial."""
        return self._endpoints[self._endpoint_index]

    def _rotate_endpoint(self) -> None:
        """Point the (already-closed) client at the next endpoint."""
        if len(self._endpoints) < 2:
            return
        self._endpoint_index = (
            self._endpoint_index + 1
        ) % len(self._endpoints)
        host, port = self._endpoints[self._endpoint_index]
        self.registry.inc("client.failovers")
        self._primary = RouteServiceClient(
            host, port, d=self._d, pool_size=self._pool_size)

    async def close(self) -> None:
        """Close the pooled connections."""
        await self._primary.close()

    async def __aenter__(self) -> "RobustRouteClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def query(
        self,
        source: WordTuple,
        destination: WordTuple,
        directed: bool = False,
        want_path: bool = True,
        d: Optional[int] = None,
    ) -> RouteReply:
        """One hardened query; never raises on transport failure."""
        outcome = await self.query_many(
            [(source, destination)], directed=directed, want_path=want_path, d=d
        )
        return outcome.replies[0]

    async def stats(self) -> Dict[str, object]:
        """A ``STATS`` round trip on the primary client."""
        return await self._primary.stats()

    async def query_many(
        self,
        pairs: Sequence[Tuple[WordTuple, WordTuple]],
        directed: bool = False,
        want_path: bool = True,
        d: Optional[int] = None,
        window: int = 256,
    ) -> QueryOutcome:
        """Hardened burst: every pair gets a reply, real or synthetic.

        The module's one burst retry loop.  Each attempt asks the
        pending pairs once over fresh or pooled connections; every
        reply it received is kept, even when it failed or timed out.
        Pairs still without a reply, or with a retryable error reply,
        are re-asked until the policy's retries or deadline run out.
        An attempt *progresses* when it settles at least one pair, and
        three rules keep a burst moving on a wire that kills every
        connection:

        1. a progressing attempt counts as a breaker success and
           resets the retry budget, which therefore only counts
           consecutive attempts that settled nothing;
        2. after a progressing attempt the loop redials at once; it
           backs off only after an attempt that settled nothing;
        3. each failed attempt halves the in-flight window (floor 8),
           and the window does not grow back within the burst.
        """
        start = time.perf_counter()
        deadline = (
            start + self.policy.deadline if self.policy.deadline is not None else None
        )
        final: List[Optional[RouteReply]] = [None] * len(pairs)
        pending = list(range(len(pairs)))
        if window <= 0:
            window = len(pairs)
        attempt = 0
        while pending:
            remaining = deadline - time.perf_counter() if deadline else None
            if remaining is not None and remaining <= 0:
                break
            if not self.breaker.allow():
                self.registry.inc("client.breaker_short_circuits")
                wait = max(self.breaker.seconds_until_probe(), 0.001)
                if remaining is not None and wait >= remaining:
                    await asyncio.sleep(max(0.0, remaining))
                    break
                await asyncio.sleep(wait)
                continue
            self.registry.inc("client.attempts")
            # The attempt streams replies into this buffer, so even an
            # attempt that times out or dies mid-burst contributes the
            # replies it already received.
            scratch: List[Optional[RouteReply]] = [None] * len(pending)
            bound = remaining
            if self.policy.attempt_timeout is not None:
                bound = (
                    self.policy.attempt_timeout
                    if remaining is None
                    else min(remaining, self.policy.attempt_timeout)
                )
            failed = False
            try:
                await self._attempt(
                    [pairs[i] for i in pending], directed, want_path, d,
                    window, bound, scratch,
                )
            except (ServiceError, ConnectionError, OSError, asyncio.TimeoutError):
                failed = True
                # Redial every connection, at the next fallback endpoint
                # when one is configured: even a connection that finished
                # its shard may sit on a trickling or dying wire.
                await self._primary.close()
                self._rotate_endpoint()
                # Rule 3: on a wire that kills connections after a byte
                # quota, a big pipelined window burns the quota on
                # queries whose replies never come back.
                if window > 8:
                    window = max(8, window >> 1)
            still: List[int] = []
            for offset, index in enumerate(pending):
                reply = scratch[offset]
                if reply is None:
                    still.append(index)
                    continue
                final[index] = reply
                if (
                    not reply.ok
                    and reply.error_code in RETRYABLE_ERROR_CODES
                ):
                    still.append(index)
            progressed = len(still) < len(pending)
            pending = still
            if failed and not progressed:
                self.breaker.record_failure()
            else:
                self.breaker.record_success()  # rule 1
            if not pending:
                break
            attempt = 0 if progressed else attempt + 1
            if attempt > self.policy.retries:
                break
            self.registry.inc("client.retries")
            if attempt:  # rule 2
                delay = self.policy.backoff(attempt, self._rng)
                if deadline is not None:
                    delay = min(delay, max(0.0, deadline - time.perf_counter()))
                await asyncio.sleep(delay)
        lost = 0
        for index in range(len(pairs)):
            if final[index] is None:
                final[index] = RouteReply(
                    None, None, ErrorCode.TIMEOUT, CLIENT_DEADLINE_MESSAGE
                )
                lost += 1
        if lost:
            self.registry.inc("client.deadline_exceeded", lost)
        elapsed = time.perf_counter() - start
        return QueryOutcome([r for r in final if r is not None], elapsed)

    async def _attempt(
        self,
        subset: Sequence[Tuple[WordTuple, WordTuple]],
        directed: bool,
        want_path: bool,
        d: Optional[int],
        window: int,
        remaining: Optional[float],
        scratch: List[Optional[RouteReply]],
    ) -> None:
        """One attempt over the pooled connections, bounded by
        ``remaining`` seconds.

        ``scratch`` is the caller's results buffer: replies stream into
        it as they arrive, so the caller keeps whatever this attempt
        managed even when it is cancelled or errors out.
        """
        await asyncio.wait_for(
            self._primary.query_many(
                subset, directed=directed, want_path=want_path, d=d,
                window=window, results=scratch,
            ),
            remaining,
        )


# ----------------------------------------------------------------------
# Blocking conveniences (scripts, CLI, tests)
# ----------------------------------------------------------------------


#: The one-shot helpers' default: three retries on a 50 ms backoff base.
ONE_SHOT_POLICY = RetryPolicy(retries=3)


def _retry_one_shot(call: Callable[[], Awaitable[_T]],
                    policy: Optional[RetryPolicy]) -> _T:
    """Run the idempotent round trip ``call`` (a fresh connection each
    time), repeating it after a transport failure — a refused, reset or
    timed-out connection, or one closed before the reply.

    ``policy`` (default :data:`ONE_SHOT_POLICY`) gives the retry count
    and the :meth:`RetryPolicy.backoff` schedule; its burst fields
    (``deadline``, ``attempt_timeout``) do not apply to one round trip.
    The last attempt's failure propagates.
    """
    policy = policy or ONE_SHOT_POLICY

    async def _run() -> _T:
        rng = random.Random(policy.seed)
        attempt = 0
        while True:
            try:
                return await call()
            except (ServiceError, OSError, asyncio.TimeoutError):
                attempt += 1
                if attempt > policy.retries:
                    raise
                await asyncio.sleep(policy.backoff(attempt, rng))

    return asyncio.run(_run())


def query_once(
    host: str,
    port: int,
    source: WordTuple,
    destination: WordTuple,
    d: int,
    directed: bool = False,
    want_path: bool = True,
    policy: Optional[RetryPolicy] = None,
) -> RouteReply:
    """Connect, ask one query, disconnect — the smallest possible client.

    Retried under ``policy`` like every one-shot helper
    (:func:`_retry_one_shot`): worker respawn windows (the supervisor
    recycling a crashed worker, a cluster node restarting) last tens of
    milliseconds, and a one-shot query should ride them out rather than
    bubble ``ECONNREFUSED`` to the operator.
    """

    async def _ask() -> RouteReply:
        async with RouteServiceClient(host, port, d=d) as client:
            return await client.query(
                source, destination, directed=directed, want_path=want_path
            )

    return _retry_one_shot(_ask, policy)


def run_burst(
    host: str,
    port: int,
    pairs: Sequence[Tuple[WordTuple, WordTuple]],
    d: int,
    directed: bool = False,
    want_path: bool = True,
    pool_size: int = 1,
    window: int = 256,
) -> QueryOutcome:
    """Blocking pipelined burst, one attempt (see
    :meth:`RouteServiceClient.query_many`); returns the
    :class:`QueryOutcome`."""

    async def _run() -> QueryOutcome:
        async with RouteServiceClient(
            host, port, d=d, pool_size=pool_size
        ) as client:
            return await client.query_many(
                pairs,
                directed=directed,
                want_path=want_path,
                window=window,
            )

    return asyncio.run(_run())


def run_robust_burst(
    host: str,
    port: int,
    pairs: Sequence[Tuple[WordTuple, WordTuple]],
    d: int,
    directed: bool = False,
    want_path: bool = True,
    pool_size: int = 1,
    window: int = 256,
    policy: Optional[RetryPolicy] = None,
    breaker: Optional[BreakerConfig] = None,
    fallbacks: Sequence[Tuple[str, int]] = (),
) -> Tuple[QueryOutcome, Dict[str, object]]:
    """Blocking hardened burst; returns (outcome, client metrics
    snapshot) so callers can report ``client.*`` counters alongside the
    replies."""

    async def _run() -> Tuple[QueryOutcome, Dict[str, object]]:
        async with RobustRouteClient(
            host, port, d=d, pool_size=pool_size, policy=policy,
            breaker=breaker, fallbacks=fallbacks,
        ) as client:
            outcome = await client.query_many(
                pairs, directed=directed, want_path=want_path, window=window
            )
            return outcome, client.registry.snapshot()

    return asyncio.run(_run())


def fetch_stats(
    host: str, port: int, policy: Optional[RetryPolicy] = None
) -> Dict[str, object]:
    """Blocking ``STATS`` round trip, retried like :func:`query_once`.

    A ``STATS`` request is idempotent and tiny, so when the wire is
    hostile (e.g. the connection dies mid-reply behind a chaos proxy)
    the round trip is simply repeated on a fresh connection; the seeded
    jitter of the backoff keeps a fleet of pollers hammering a
    respawning worker from re-synchronizing its retries.
    """

    async def _ask() -> Dict[str, object]:
        async with RouteServiceClient(host, port) as client:
            return await client.stats()

    return _retry_one_shot(_ask, policy)
