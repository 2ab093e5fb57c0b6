"""Tests for the route-query service: protocol, metrics, engine, server."""

from __future__ import annotations

import asyncio
import gc
import random
import socket
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distance import directed_distance, undirected_distance
from repro.core.routing import Direction, RoutingStep, route, verify_path
from repro.core.tables import CompiledRouteTable
from repro.core.word import random_word
from repro.exceptions import ProtocolError, ServiceError
from repro.service.client import (
    QueryOutcome,
    RetryPolicy,
    RouteReply,
    RouteServiceClient,
    fetch_stats,
    query_once,
    run_burst,
)
from repro.service.engine import RouteQueryEngine
from repro.service.metrics import Counter, Histogram, MetricsRegistry
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    ErrorCode,
    Frame,
    FrameDecoder,
    FrameType,
    decode_error,
    decode_query,
    decode_reply,
    decode_stats_reply,
    encode_error,
    encode_frame,
    encode_query,
    encode_reply,
    encode_stats_reply,
    encode_stats_request,
)
from repro.service.server import RouteQueryServer, ServerConfig


def run(coro):
    """Run one asyncio scenario to completion."""
    return asyncio.run(coro)


def _pairs(d, k, count, seed=0):
    rng = random.Random(seed)
    return [(random_word(d, k, rng), random_word(d, k, rng))
            for _ in range(count)]


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------


def test_query_frame_roundtrip():
    blob = encode_query(9, 2, (0, 1, 1), (1, 1, 0), directed=True,
                        want_path=False)
    (frame,) = FrameDecoder().feed(blob)
    assert frame.frame_type == FrameType.QUERY
    query = decode_query(frame)
    assert query.request_id == 9
    assert (query.d, query.k) == (2, 3)
    assert query.source == (0, 1, 1)
    assert query.destination == (1, 1, 0)
    assert query.directed and not query.want_path


def test_reply_frame_roundtrip():
    path = [RoutingStep(Direction.LEFT, 1), RoutingStep(Direction.RIGHT, None)]
    (frame,) = FrameDecoder().feed(encode_reply(3, 2, path))
    assert frame.frame_type == FrameType.REPLY
    assert decode_reply(frame) == (2, path)


def test_reply_frame_distance_only():
    (frame,) = FrameDecoder().feed(encode_reply(4, 5, None))
    assert decode_reply(frame) == (5, [])


def test_error_frame_roundtrip():
    (frame,) = FrameDecoder().feed(
        encode_error(11, ErrorCode.OVERLOADED, "queue full"))
    assert decode_error(frame) == (ErrorCode.OVERLOADED, "queue full")


def test_stats_frames_roundtrip():
    (request,) = FrameDecoder().feed(encode_stats_request(1))
    assert request.frame_type == FrameType.STATS and request.body == b""
    snapshot = {"counters": {"server.replies": 7}, "histograms": {}}
    (reply,) = FrameDecoder().feed(encode_stats_reply(2, snapshot))
    assert decode_stats_reply(reply) == snapshot


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_decoder_is_chunking_invariant(data):
    """Arbitrary TCP segmentation decodes to the same frame stream."""
    frames = data.draw(st.lists(st.sampled_from([
        encode_stats_request(1),
        encode_query(2, 2, (0, 1), (1, 0)),
        encode_reply(3, 1, [RoutingStep(Direction.LEFT, 0)]),
        encode_error(4, ErrorCode.TIMEOUT, "late"),
    ]), min_size=1, max_size=6))
    stream = b"".join(frames)
    cut_count = data.draw(st.integers(0, min(6, len(stream) - 1)))
    cuts = sorted(data.draw(st.sets(
        st.integers(1, len(stream) - 1),
        min_size=cut_count, max_size=cut_count)))
    decoder = FrameDecoder()
    decoded = []
    previous = 0
    for cut in cuts + [len(stream)]:
        decoded.extend(decoder.feed(stream[previous:cut]))
        previous = cut
    assert len(decoded) == len(frames)
    assert decoder.pending_bytes == 0


def test_decoder_rejects_unknown_frame_type():
    blob = bytearray(encode_stats_request(1))
    blob[4] = 0xEE
    with pytest.raises(ProtocolError):
        FrameDecoder().feed(bytes(blob))


def test_decoder_rejects_oversized_length():
    with pytest.raises(ProtocolError):
        FrameDecoder().feed(b"\xff\xff\xff\xff")


def test_decode_query_rejects_digit_outside_alphabet():
    blob = encode_query(1, 3, (0, 2, 1), (1, 0, 2))
    (frame,) = FrameDecoder().feed(blob)
    bad = Frame(frame.frame_type, frame.request_id,
                frame.body[:1] + bytes([2]) + frame.body[2:])
    with pytest.raises(ProtocolError):
        decode_query(bad)


def test_decode_query_rejects_truncated_body():
    (frame,) = FrameDecoder().feed(encode_query(1, 2, (0, 1), (1, 0)))
    with pytest.raises(ProtocolError):
        decode_query(Frame(frame.frame_type, 1, frame.body[:-1]))


def test_encode_query_rejects_length_mismatch():
    with pytest.raises(ProtocolError):
        encode_query(1, 2, (0, 1), (1, 0, 1))


def test_encode_frame_rejects_wide_request_id():
    with pytest.raises(ProtocolError):
        encode_frame(FrameType.STATS, 1 << 32)


def test_decode_error_rejects_unknown_code():
    (frame,) = FrameDecoder().feed(encode_error(1, ErrorCode.INTERNAL, ""))
    with pytest.raises(ProtocolError):
        decode_error(Frame(frame.frame_type, 1, bytes([250])))


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def test_counter_increments_and_rejects_decrease():
    counter = Counter("demo")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_histogram_quantiles_track_sorted_samples():
    rng = random.Random(42)
    histogram = Histogram("latency")
    samples = [rng.expovariate(1 / 0.003) + 1e-4 for _ in range(5000)]
    for value in samples:
        histogram.observe(value)
    samples.sort()
    for q in (0.50, 0.95, 0.99):
        exact = samples[int(q * len(samples)) - 1]
        estimate = histogram.quantile(q)
        # Geometric buckets are 75 % apart; the estimate must land within
        # one bucket of the exact sample quantile.
        assert exact / 1.8 <= estimate <= exact * 1.8
    assert histogram.count == 5000
    assert histogram.quantile(1.0) == max(samples)


def test_histogram_empty_and_bad_inputs():
    histogram = Histogram("empty", bounds=(1.0, 2.0))
    assert histogram.quantile(0.5) == 0.0
    assert histogram.snapshot()["count"] == 0.0
    with pytest.raises(ValueError):
        histogram.quantile(0.0)
    with pytest.raises(ValueError):
        Histogram("bad", bounds=())
    with pytest.raises(ValueError):
        Histogram("bad", bounds=(2.0, 1.0))


def test_registry_get_or_create_and_snapshot():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    assert registry.histogram("h") is registry.histogram("h")
    registry.inc("a", 3)
    registry.set_counter("gauge", 9)
    registry.set_counter("gauge", 2)  # gauge-style values may go down
    registry.histogram("h").observe(0.5)
    snapshot = registry.snapshot()
    assert snapshot["counters"]["a"] == 3
    assert snapshot["counters"]["gauge"] == 2
    assert snapshot["histograms"]["h"]["count"] == 1.0


@settings(deadline=None, max_examples=40)
@given(
    left=st.lists(st.floats(min_value=1e-5, max_value=5.0), max_size=200),
    right=st.lists(st.floats(min_value=1e-5, max_value=5.0), max_size=200),
)
def test_merged_percentiles_match_concatenated_samples(left, right):
    """The satellite property: merge == one histogram over both streams.

    Merging is bucket-wise count addition with min-of-mins /
    max-of-maxes, so the merged estimator state is *identical* to a
    single histogram that observed the concatenation — quantiles agree
    exactly — and both stay within one bucket width of the true sorted-
    sample percentile.
    """
    shard_a, shard_b, merged, oracle = (
        MetricsRegistry() for _ in range(4)
    )
    for value in left:
        shard_a.histogram("lat").observe(value)
        oracle.histogram("lat").observe(value)
    for value in right:
        shard_b.histogram("lat").observe(value)
        oracle.histogram("lat").observe(value)
    shard_a.inc("q", len(left))
    shard_b.inc("q", len(right))
    merged.merge(shard_a.snapshot())
    merged.merge(shard_b.snapshot())

    assert merged.snapshot()["counters"]["q"] == len(left) + len(right)
    got = merged.histogram("lat")
    want = oracle.histogram("lat")
    assert got.count == want.count
    assert got.counts == want.counts
    for q in (0.5, 0.95, 0.99):
        assert got.quantile(q) == pytest.approx(want.quantile(q))

    samples = sorted(left + right)
    if samples:
        import bisect
        import math

        for q in (0.5, 0.99):
            rank = max(0, math.ceil(q * len(samples)) - 1)
            exact = samples[rank]
            estimate = got.quantile(q)
            # Within one bucket width: the estimate interpolates inside
            # the bucket holding the rank-th observation, and clamping
            # to observed min/max keeps it inside that bucket too.
            index = bisect.bisect_left(got.bounds, exact)
            lower = got.bounds[index - 1] if index > 0 else 0.0
            upper = (got.bounds[index] if index < len(got.bounds)
                     else samples[-1])
            assert abs(estimate - exact) <= (upper - lower) + 1e-9


def test_merge_rejects_incompatible_histograms():
    registry = MetricsRegistry()
    donor = MetricsRegistry()
    donor.histogram("h", bounds=(1.0, 2.0)).observe(0.5)
    registry.histogram("h", bounds=(1.0, 3.0))
    with pytest.raises(ValueError):
        registry.merge(donor.snapshot())

    summary_only = donor.snapshot()
    del summary_only["histograms"]["h"]["bounds"]
    with pytest.raises(ValueError):
        MetricsRegistry().merge(summary_only)

    # Merging an empty histogram is a no-op, not an error.
    empty = MetricsRegistry()
    empty.histogram("h", bounds=(1.0, 2.0))
    target = MetricsRegistry()
    target.merge(empty.snapshot())
    assert target.histogram("h", bounds=(1.0, 2.0)).count == 0


# ----------------------------------------------------------------------
# Engine tiers
# ----------------------------------------------------------------------


@pytest.mark.parametrize("directed, k", [
    pytest.param(False, 5, id="False"),
    pytest.param(True, 5, id="True"),
    pytest.param(False, 20, id="False-k20"),
    pytest.param(True, 20, id="True-k20"),
])
def test_engine_planner_tier_matches_route(directed, k):
    engine = RouteQueryEngine(2, k)
    oracle = directed_distance if directed else undirected_distance
    for x, y in _pairs(2, k, 40, seed=3):
        distance, path = engine.resolve(x, y, directed, want_path=True)
        expected = route(x, y, 2, directed=directed, method="scan",
                         use_wildcards=False)
        assert distance == len(expected)
        assert path == expected
        assert verify_path(x, y, path, 2)
        # Property 1 when directed; otherwise what ``auto`` picks:
        # Algorithm 2 at k = 5, Algorithm 4 at k = 20.
        assert distance == oracle(x, y)
    assert engine.registry.counter("engine.planned").value == 40 * 1


def test_engine_table_tier_matches_planner():
    table = CompiledRouteTable.compile(2, 5, workers=1)
    engine = RouteQueryEngine(2, 5, table=table)
    for x, y in _pairs(2, 5, 40, seed=4):
        distance, path = engine.resolve(x, y, False, want_path=True)
        assert distance == undirected_distance(x, y)
        assert len(path) == distance
    assert engine.registry.counter("engine.table_lookups").value == 40
    assert engine.registry.counter("engine.planned").value == 0
    # Directed queries fall back to the planner (table is undirected).
    x, y = (0, 0, 1, 1, 0), (1, 1, 0, 0, 1)
    distance, _ = engine.resolve(x, y, True, want_path=True)
    assert distance == directed_distance(x, y)
    assert engine.registry.counter("engine.planned").value == 1


def test_engine_distance_only_skips_path():
    engine = RouteQueryEngine(2, 4)
    distance, path = engine.resolve((0, 0, 1, 1), (1, 1, 0, 0), False, False)
    assert path is None
    assert distance == undirected_distance((0, 0, 1, 1), (1, 1, 0, 0))


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("k, with_table", [
    pytest.param(5, False, id="False"),
    pytest.param(5, True, id="True"),
    pytest.param(20, False, id="k20"),
])
def test_engine_batch_distances_match_pairs(directed, k, with_table):
    table = (CompiledRouteTable.compile(2, k, workers=1, directed=directed)
             if with_table else None)
    engine = RouteQueryEngine(2, k, table=table)
    destination = (1, 0, 1, 1, 0) * (k // 5)
    sources = [x for x, _ in _pairs(2, k, 25, seed=5)]
    got = engine.resolve_distances(destination, sources, directed)
    oracle = directed_distance if directed else undirected_distance
    assert got == [oracle(x, destination) for x in sources]


def test_engine_cache_disabled_and_table_mismatch():
    engine = RouteQueryEngine(2, 4)
    with pytest.raises(ServiceError):
        engine.attach_table(CompiledRouteTable.compile(2, 3, workers=1))


# ----------------------------------------------------------------------
# Server and client, end to end
# ----------------------------------------------------------------------


def test_server_roundtrip_matches_oracle():
    async def scenario():
        async with RouteQueryServer(RouteQueryEngine(2, 6)) as server:
            async with RouteServiceClient("127.0.0.1", server.port,
                                          d=2) as client:
                pairs = _pairs(2, 6, 60, seed=6)
                outcome = await client.query_many(pairs)
                assert outcome.ok_count == len(pairs)
                for (x, y), reply in zip(pairs, outcome.replies):
                    assert reply.distance == undirected_distance(x, y)
                    assert len(reply.path) == reply.distance
        return True

    assert run(scenario())


def test_server_distance_only_burst_micro_batches():
    async def scenario():
        engine = RouteQueryEngine(2, 6)
        config = ServerConfig(batch_size=8, batch_deadline=0.01)
        async with RouteQueryServer(engine, config) as server:
            async with RouteServiceClient("127.0.0.1", server.port, d=2,
                                          pool_size=2) as client:
                pairs = _pairs(2, 6, 120, seed=7)
                outcome = await client.query_many(pairs, want_path=False)
                assert outcome.ok_count == len(pairs)
                for (x, y), reply in zip(pairs, outcome.replies):
                    assert reply.distance == undirected_distance(x, y)
                    assert reply.path == []
                snapshot = await client.stats()
        counters = snapshot["counters"]
        assert counters["engine.batched"] == 120
        # Coalescing must actually happen: fewer flushes than queries.
        assert 0 < counters["engine.batch_flushes"] < 120
        group = snapshot["histograms"]["server.batch_group_size"]
        assert group["max"] > 1.0
        return True

    assert run(scenario())


def test_server_table_tier_serves_whole_burst():
    async def scenario():
        table = CompiledRouteTable.compile(2, 6, workers=1)
        engine = RouteQueryEngine(2, 6, table=table)
        async with RouteQueryServer(engine) as server:
            async with RouteServiceClient("127.0.0.1", server.port,
                                          d=2) as client:
                pairs = _pairs(2, 6, 80, seed=8)
                outcome = await client.query_many(pairs)
                assert outcome.ok_count == len(pairs)
                snapshot = await client.stats()
        assert snapshot["counters"]["engine.table_lookups"] == 80
        assert snapshot["counters"].get("engine.planned", 0) == 0
        return True

    assert run(scenario())


def test_server_rejects_wrong_graph_and_frame_type():
    async def scenario():
        async with RouteQueryServer(RouteQueryEngine(2, 6)) as server:
            async with RouteServiceClient("127.0.0.1", server.port,
                                          d=2) as client:
                # k=4 words against a k=6 server: UNSUPPORTED.
                reply = await client.query((0, 1, 1, 0), (1, 1, 0, 0))
                assert not reply.ok
                assert reply.error_code == ErrorCode.UNSUPPORTED
                # A REPLY frame sent *to* the server: UNSUPPORTED.
                connection = await client._connection(0)
                connection.writer.write(encode_reply(77, 1, None))
                await connection.writer.drain()
                (frame,) = await client._read_frames(
                    connection.reader, connection.decoder)
                assert frame.frame_type == FrameType.ERROR
                code, _ = decode_error(frame)
                assert code == ErrorCode.UNSUPPORTED
        return True

    assert run(scenario())


def test_server_overload_rejects_but_stays_responsive():
    async def scenario():
        engine = RouteQueryEngine(2, 6)
        config = ServerConfig(max_pending=16)
        async with RouteQueryServer(engine, config) as server:
            async with RouteServiceClient("127.0.0.1", server.port,
                                          d=2) as client:
                pairs = _pairs(2, 6, 400, seed=9)
                outcome = await client.query_many(pairs, window=0)
                # Every query got an answer: a reply or an explicit error.
                assert len(outcome.replies) == len(pairs)
                rejected = outcome.error_counts.get("OVERLOADED", 0)
                assert rejected > 0
                assert outcome.ok_count + rejected == len(pairs)
                # The server still answers stats after the storm, and the
                # admission queue never grew past its bound.
                snapshot = await client.stats()
                assert snapshot["counters"]["server.queue_peak"] <= 16
                assert (snapshot["counters"]["server.errors.overloaded"]
                        == rejected)
        return True

    assert run(scenario())


def test_server_request_timeout_fails_stale_queries():
    async def scenario():
        engine = RouteQueryEngine(2, 6)
        config = ServerConfig(request_timeout=0.0)
        async with RouteQueryServer(engine, config) as server:
            async with RouteServiceClient("127.0.0.1", server.port,
                                          d=2) as client:
                outcome = await client.query_many(_pairs(2, 6, 10, seed=10))
                assert outcome.error_counts.get("TIMEOUT", 0) == 10
                snapshot = await client.stats()
        assert snapshot["counters"]["server.timed_out"] == 10
        return True

    assert run(scenario())


def test_server_drains_cleanly_mid_burst():
    async def scenario():
        engine = RouteQueryEngine(2, 6)
        async with RouteQueryServer(engine) as server:
            client = RouteServiceClient("127.0.0.1", server.port, d=2)
            pairs = _pairs(2, 6, 300, seed=11)
            burst = asyncio.create_task(
                client.query_many(pairs, want_path=False))
            await asyncio.sleep(0.01)
            await server.stop()
            outcome = await burst
            await client.close()
        # Every single query was answered: replies for everything admitted
        # before the drain, SHUTTING_DOWN errors for the rest.  Nothing
        # was silently dropped.
        assert len(outcome.replies) == len(pairs)
        late = outcome.error_counts.get("SHUTTING_DOWN", 0)
        assert outcome.ok_count + late == len(pairs)
        return True

    assert run(scenario())


def test_client_joins_each_window_into_one_write():
    """256 queries with window=64 over one pooled connection: each window
    leaves in one write, so the first alone joins 64 frames."""

    async def scenario():
        async with RouteQueryServer(RouteQueryEngine(2, 6)) as server:
            async with RouteServiceClient("127.0.0.1", server.port, d=2,
                                          pool_size=1) as client:
                connection = await client._connection(0)
                writes = []
                write = connection.writer.write

                def counting_write(data):
                    writes.append(len(data))
                    write(data)

                connection.writer.write = counting_write
                outcome = await client.query_many(
                    _pairs(2, 6, 256, seed=16), want_path=False, window=64)
        assert outcome.ok_count == 256
        return len(writes)

    assert run(scenario()) < 256


def test_pipelined_burst_is_answered_once_in_fewer_writes():
    """One sendall mixing table, micro-batched, malformed and wrong-graph
    queries: every request id gets exactly one frame of the right kind,
    STATS balances, and the replies leave in fewer writes than replies."""

    async def scenario():
        table = CompiledRouteTable.compile(2, 6, workers=1)  # undirected
        engine = RouteQueryEngine(2, 6, table=table)
        rng = random.Random(14)
        blobs, expected = [], {}
        for x, y in _pairs(2, 6, 120, seed=14):
            rid = len(expected)
            blobs.append(encode_query(rid, 2, x, y))
            expected[rid] = ("table", undirected_distance(x, y))
        targets = [(0, 0, 0, 0, 0, 0), (1, 0, 1, 1, 0, 1)]
        for index in range(60):
            x = random_word(2, 6, rng)
            y = targets[index % 2]
            rid = len(expected)
            blobs.append(encode_query(rid, 2, x, y, directed=True,
                                      want_path=False))
            expected[rid] = ("batched", directed_distance(x, y))
        rid = len(expected)
        blobs.append(encode_query(rid, 2, (0, 1, 2, 0, 1, 0), (1,) * 6))
        expected[rid] = ("error", ErrorCode.MALFORMED)
        rid = len(expected)
        blobs.append(encode_query(rid, 2, (0, 1, 1, 0), (1, 1, 0, 0)))
        expected[rid] = ("error", ErrorCode.UNSUPPORTED)
        rng.shuffle(blobs)

        async with RouteQueryServer(engine) as server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(b"".join(blobs))
            await writer.drain()
            decoder, frames = FrameDecoder(), []
            while len(frames) < len(expected):
                data = await asyncio.wait_for(reader.read(1 << 16), 5.0)
                assert data, f"EOF after {len(frames)} frames"
                frames.extend(decoder.feed(data))
            counters = server.snapshot()["counters"]
        # stop() writes whatever is still buffered before it hangs up.
        assert decoder.feed(await asyncio.wait_for(reader.read(), 5.0)) == []
        writer.close()

        assert sorted(frame.request_id for frame in frames) == sorted(expected)
        for frame in frames:
            kind, want = expected[frame.request_id]
            if kind == "error":
                assert frame.frame_type == FrameType.ERROR
                assert decode_error(frame)[0] == want
                continue
            assert frame.frame_type == FrameType.REPLY
            distance, path = decode_reply(frame)
            assert distance == want
            assert len(path) == (distance if kind == "table" else 0)
        assert counters["server.queries"] == len(expected)
        assert (counters["server.queries"]
                == counters["server.replies"] + counters["server.errors"])
        assert counters["server.replies"] == 180
        assert counters["engine.batched"] == 60
        assert 0 < counters["server.writes"] < counters["server.replies"]
        return True

    assert run(scenario())


def test_buffered_replies_survive_drain():
    """Every admitted query's reply reaches the client before EOF, the
    ones parked in the micro-batcher until ``stop`` included."""

    async def scenario():
        engine = RouteQueryEngine(2, 6)  # no table: distance-only parks
        config = ServerConfig(batch_deadline=60.0)
        pairs = _pairs(2, 6, 150, seed=15)
        server = RouteQueryServer(engine, config)
        await server.start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        writer.write(b"".join(
            encode_query(rid, 2, x, y, want_path=rid % 2 == 0)
            for rid, (x, y) in enumerate(pairs)))
        await writer.drain()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 5.0
        while (server.registry.counter("server.queries").value
               < len(pairs)):
            assert loop.time() < deadline, "burst never fully admitted"
            await asyncio.sleep(0.005)
        await server.stop()
        blob = await asyncio.wait_for(reader.read(), timeout=5.0)
        writer.close()
        frames = FrameDecoder().feed(blob)
        assert sorted(frame.request_id for frame in frames) == list(
            range(len(pairs)))
        for frame in frames:
            assert frame.frame_type == FrameType.REPLY
            x, y = pairs[frame.request_id]
            assert decode_reply(frame)[0] == undirected_distance(x, y)
        return True

    assert run(scenario())


def test_peer_reset_with_buffered_replies_is_contained():
    """A client that pipelines a burst and resets (SO_LINGER 0) before
    reading costs the server that connection only: nothing reaches the
    loop's exception handler and the next client is answered."""

    async def scenario():
        problems = []
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(
            lambda _loop, context: problems.append(context))
        try:
            table = CompiledRouteTable.compile(2, 6, workers=1)
            engine = RouteQueryEngine(2, 6, table=table)
            async with RouteQueryServer(engine) as server:
                disconnects = server.registry.counter(
                    "server.client_disconnects")
                before = disconnects.value
                burst = b"".join(
                    encode_query(rid, 2, x, y, want_path=False)
                    for rid, (x, y) in enumerate(_pairs(2, 6, 200, seed=16)))
                with socket.create_connection(
                        ("127.0.0.1", server.port)) as peer:
                    peer.sendall(burst)
                    peer.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                    struct.pack("ii", 1, 0))
                deadline = loop.time() + 5.0
                while disconnects.value == before:
                    assert loop.time() < deadline, "reset never noticed"
                    await asyncio.sleep(0.005)
                async with RouteServiceClient(
                    "127.0.0.1", server.port, d=2
                ) as client:
                    outcome = await client.query_many(_pairs(2, 6, 20, 17))
                assert outcome.ok_count == 20
        finally:
            loop.set_exception_handler(None)
        gc.collect()
        await asyncio.sleep(0)
        gc.collect()
        assert problems == []
        return True

    assert run(scenario())


def test_server_latency_histogram_populates():
    async def scenario():
        async with RouteQueryServer(RouteQueryEngine(2, 6)) as server:
            async with RouteServiceClient("127.0.0.1", server.port,
                                          d=2) as client:
                await client.query_many(_pairs(2, 6, 50, seed=12))
                snapshot = await client.stats()
        latency = snapshot["histograms"]["server.latency_seconds"]
        assert latency["count"] == 50.0
        assert 0.0 < latency["p50"] <= latency["p95"] <= latency["p99"]
        return True

    assert run(scenario())


def test_blocking_helpers_roundtrip():
    async def _server():
        server = RouteQueryServer(RouteQueryEngine(2, 5))
        port = await server.start()
        return server, port

    # Drive the blocking helpers from a worker thread so they can own
    # their own event loops while the server runs in this one.
    async def scenario():
        server, port = await _server()
        try:
            x, y = (0, 1, 1, 0, 1), (1, 1, 0, 1, 0)

            def blocking_calls():
                reply = query_once("127.0.0.1", port, x, y, 2)
                outcome = run_burst("127.0.0.1", port, _pairs(2, 5, 30),
                                    2, pool_size=2)
                snapshot = fetch_stats("127.0.0.1", port)
                return reply, outcome, snapshot

            reply, outcome, snapshot = await asyncio.get_running_loop()\
                .run_in_executor(None, blocking_calls)
            assert reply.ok and reply.distance == undirected_distance(x, y)
            assert outcome.ok_count == 30
            assert snapshot["counters"]["server.replies"] == 31
        finally:
            await server.stop()
        return True

    assert run(scenario())


def test_client_requires_alphabet_size():
    client = RouteServiceClient("127.0.0.1", 1)
    with pytest.raises(ServiceError):
        run(client.query((0, 1), (1, 0)))
    with pytest.raises(ServiceError):
        RouteServiceClient("127.0.0.1", 1, pool_size=0)


def test_query_outcome_accounting():
    outcome = QueryOutcome(
        replies=[
            RouteReply(2, []),
            RouteReply(None, None, ErrorCode.OVERLOADED, "full"),
            RouteReply(None, None, ErrorCode.OVERLOADED, "full"),
        ],
        elapsed=0.5,
    )
    assert outcome.ok_count == 1
    assert outcome.error_counts == {"OVERLOADED": 2}
    assert outcome.qps == 6.0


def test_server_slo_violation_counter():
    async def scenario():
        # A sub-microsecond budget: every reply violates it.
        async with RouteQueryServer(
            RouteQueryEngine(2, 4), ServerConfig(slo_ms=1e-6)
        ) as server:
            async with RouteServiceClient(
                "127.0.0.1", server.port, d=2
            ) as client:
                outcome = await client.query_many(_pairs(2, 4, 50, seed=1))
            assert outcome.ok_count == 50
            snapshot = server.snapshot()
            assert snapshot["counters"]["server.slo_violations"] == 50
        # A one-minute budget: the counter exists but stays zero.
        async with RouteQueryServer(
            RouteQueryEngine(2, 4), ServerConfig(slo_ms=60000.0)
        ) as server:
            async with RouteServiceClient(
                "127.0.0.1", server.port, d=2
            ) as client:
                await client.query_many(_pairs(2, 4, 20, seed=2))
            snapshot = server.snapshot()
            assert snapshot["counters"]["server.slo_violations"] == 0

    run(scenario())


# ----------------------------------------------------------------------
# Wire-level hardening (E24 satellites)
# ----------------------------------------------------------------------


def test_decoder_enforces_max_frame_bytes_cap():
    """MAX_FRAME_BYTES is a hard allocation ceiling, not advice."""
    over = struct.pack("!I", MAX_FRAME_BYTES + 1)
    with pytest.raises(ProtocolError):
        FrameDecoder().feed(over)
    # Exactly at the cap: a legal (if huge) pending frame, no blow-up.
    decoder = FrameDecoder()
    assert decoder.feed(struct.pack("!I", MAX_FRAME_BYTES)) == []
    assert decoder.pending_bytes == 4
    # The encoder refuses to build what the decoder would reject.
    with pytest.raises(ProtocolError):
        encode_frame(FrameType.STATS_REPLY, 1, b"x" * MAX_FRAME_BYTES)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_decoder_survives_arbitrary_mangling(data):
    """Fuzz: corrupt/truncate/reorder a valid stream however you like —
    the decoder yields clean frames or raises ProtocolError.  It never
    hangs, never dies with another exception type, and never buffers
    more than it was fed."""
    frames = data.draw(st.lists(st.sampled_from([
        encode_stats_request(1),
        encode_query(2, 2, (0, 1), (1, 0)),
        encode_reply(3, 1, [RoutingStep(Direction.LEFT, 0)]),
        encode_error(4, ErrorCode.TIMEOUT, "late"),
    ]), min_size=1, max_size=4))
    stream = bytearray(b"".join(frames))
    for _ in range(data.draw(st.integers(1, 5))):
        if not stream:
            break
        op = data.draw(st.sampled_from(
            ["flip", "truncate", "insert", "delete", "swap"]))
        if op == "flip":
            i = data.draw(st.integers(0, len(stream) - 1))
            stream[i] ^= data.draw(st.integers(1, 255))
        elif op == "truncate":
            stream = stream[:data.draw(st.integers(0, len(stream)))]
        elif op == "insert":
            i = data.draw(st.integers(0, len(stream)))
            stream[i:i] = data.draw(st.binary(min_size=1, max_size=8))
        elif op == "delete":
            i = data.draw(st.integers(0, len(stream) - 1))
            n = data.draw(st.integers(1, min(8, len(stream) - i)))
            del stream[i:i + n]
        elif len(stream) >= 2:
            i = data.draw(st.integers(0, len(stream) - 2))
            j = data.draw(st.integers(i + 1, len(stream) - 1))
            stream[i], stream[j] = stream[j], stream[i]
    decoder = FrameDecoder()
    fed = 0
    try:
        pos = 0
        while pos < len(stream):
            step = data.draw(st.integers(1, len(stream) - pos))
            chunk = bytes(stream[pos:pos + step])
            pos += step
            fed += len(chunk)
            for frame in decoder.feed(chunk):
                # A surfaced frame's body either parses or raises
                # ProtocolError — nothing else escapes.
                try:
                    if frame.frame_type == FrameType.QUERY:
                        decode_query(frame)
                    elif frame.frame_type == FrameType.REPLY:
                        decode_reply(frame)
                    elif frame.frame_type == FrameType.ERROR:
                        decode_error(frame)
                    elif frame.frame_type == FrameType.STATS_REPLY:
                        decode_stats_reply(frame)
                except ProtocolError:
                    pass
    except ProtocolError:
        return  # clean rejection of a mangled stream: accepted outcome
    assert decoder.pending_bytes <= fed


def test_server_logs_and_closes_on_midframe_disconnect():
    """Satellite 1: a peer vanishing mid-frame or mid-reply is logged
    and closed — no handler task dies with an unretrieved exception."""

    async def scenario():
        problems = []
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(
            lambda _loop, context: problems.append(context))
        try:
            async with RouteQueryServer(RouteQueryEngine(2, 6)) as server:
                query = encode_query(1, 2, (0,) * 6, (1,) * 6)

                # Disconnect mid-frame: half a query, then a clean FIN.
                _, half = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                half.write(query[:7])
                await half.drain()
                half.close()

                # Disconnect mid-reply: full query, then an instant RST
                # so the server's reply write hits a dead socket.
                _, gone = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                gone.write(query)
                await gone.drain()
                gone.transport.abort()

                await asyncio.sleep(0.2)

                # The server shrugged both off and still answers.
                async with RouteServiceClient(
                    "127.0.0.1", server.port, d=2
                ) as client:
                    outcome = await client.query_many(_pairs(2, 6, 10, 42))
                assert outcome.ok_count == 10
        finally:
            loop.set_exception_handler(None)
        gc.collect()
        await asyncio.sleep(0)
        gc.collect()
        unretrieved = [
            context for context in problems
            if "never retrieved" in str(context.get("message", ""))
        ]
        assert not unretrieved, unretrieved
        return True

    assert run(scenario())


def test_server_read_timeout_kills_slow_loris():
    """A connection stalled mid-frame is reaped after read_timeout."""

    async def scenario():
        config = ServerConfig(read_timeout=0.2)
        async with RouteQueryServer(RouteQueryEngine(2, 6), config) as server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            query = encode_query(1, 2, (0,) * 6, (1,) * 6)
            writer.write(query[:5])  # partial frame, then silence
            await writer.drain()
            data = await asyncio.wait_for(reader.read(), timeout=3.0)
            assert data == b""  # the server hung up on us
            counters = server.snapshot()["counters"]
            assert counters.get("server.read_timeouts", 0) >= 1
            writer.close()
        return True

    assert run(scenario())


def test_server_max_connections_sheds_excess():
    """Admission control: connection N+1 is closed at accept."""

    async def scenario():
        config = ServerConfig(max_connections=1)
        async with RouteQueryServer(RouteQueryEngine(2, 6), config) as server:
            reader1, writer1 = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer1.write(encode_query(1, 2, (0,) * 6, (1,) * 6))
            await writer1.drain()
            await reader1.readexactly(4)  # conn 1 is live and serving
            reader2, writer2 = await asyncio.open_connection(
                "127.0.0.1", server.port)
            data = await asyncio.wait_for(reader2.read(), timeout=3.0)
            assert data == b""  # shed without a byte of service
            counters = server.snapshot()["counters"]
            assert counters.get("server.conn_rejected", 0) >= 1
            writer1.close()
            writer2.close()
        return True

    assert run(scenario())


def test_server_quarantines_malformed_frames():
    """A corrupt frame costs that connection its stream — never the
    server, never its other clients."""

    async def scenario():
        async with RouteQueryServer(RouteQueryEngine(2, 6)) as server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            bad = bytearray(encode_stats_request(1))
            bad[4] = 0xEE  # unknown frame type
            writer.write(bytes(bad))
            await writer.drain()
            data = await asyncio.wait_for(reader.read(), timeout=3.0)
            assert data == b""  # quarantined
            counters = server.snapshot()["counters"]
            assert counters.get("server.malformed_frames", 0) >= 1
            writer.close()

            # The server itself is unhurt.
            async with RouteServiceClient(
                "127.0.0.1", server.port, d=2
            ) as client:
                outcome = await client.query_many(_pairs(2, 6, 10, 7))
            assert outcome.ok_count == 10
        return True

    assert run(scenario())


def test_fetch_stats_retries_through_connection_resets():
    """A STATS round trip is idempotent, so fetch_stats retries resets.

    The fake server RSTs its first two connections mid-handshake (the
    SO_LINGER trick forces a real TCP reset) and only answers the STATS
    frame on the third; the default retry budget must ride that out,
    while a zero-retry budget against a permanently hostile server must
    still surface the transport error.  query_once retries through the
    same helper, so one more input closes the first connection with a
    FIN after reading the query and before replying (the client sees a
    ``ServiceError``): one retry must bring back the second answer.
    """
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    port = listener.getsockname()[1]
    resets_left = [2]
    fins_left = [0]

    def serve():
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            if resets_left[0] > 0:
                resets_left[0] -= 1
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
                conn.close()
                continue
            decoder = FrameDecoder()
            frames = []
            while not frames:
                data = conn.recv(1 << 16)
                if not data:
                    break
                frames = decoder.feed(data)
            if frames and fins_left[0] > 0:
                fins_left[0] -= 1
            elif frames and frames[0].frame_type == FrameType.QUERY:
                conn.sendall(encode_reply(frames[0].request_id, 3, None))
            elif frames:
                conn.sendall(encode_stats_reply(
                    frames[0].request_id,
                    {"counters": {"server.replies": 7}}))
            conn.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        snapshot = fetch_stats(
            "127.0.0.1", port,
            policy=RetryPolicy(retries=3, backoff_base=0.01))
        assert snapshot["counters"]["server.replies"] == 7

        resets_left[0] = 10 ** 9
        with pytest.raises((ConnectionError, OSError, ServiceError)):
            fetch_stats("127.0.0.1", port,
                        policy=RetryPolicy(retries=1, backoff_base=0.01))

        resets_left[0], fins_left[0] = 0, 1
        reply = query_once(
            "127.0.0.1", port, (0, 1, 1), (1, 1, 0), 2,
            policy=RetryPolicy(retries=1, backoff_base=0.01))
        assert reply.ok and reply.distance == 3 and fins_left[0] == 0
    finally:
        listener.close()
        thread.join(5)
