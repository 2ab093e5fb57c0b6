"""Spans recorded from outside the program, around each layer's entry points.

:func:`instrument_server` runs inside a serving process (a supervisor
worker, after the fork) and wraps, for that process only:

* ``FrameDecoder.feed`` and the ``decode_query`` / ``encode_reply`` the
  server module calls (``service/protocol``);
* the engine's ``resolve`` / ``resolve_distances`` (``service/engine``)
  and the planner and batch calls the engine makes into ``core/``;
* ``MicroBatcher.add``, as an instant span marking when a query parks.

A span is ``(name, start, end, parent, request id, items)``; spans are
kept in a list and written out once, when ``RouteQueryServer.stop``
returns.  ``time.perf_counter`` is ``CLOCK_MONOTONIC`` here, so worker
and generator stamps share one clock.
"""

from __future__ import annotations

import pickle
import statistics
import time
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

Span = Tuple[str, float, float, Optional[str], object, int]


def instrument_server(engine, out_path: str,
                      built: Optional[Tuple[float, float]] = None) -> None:
    """Wrap the layer entry points this process's server will call.

    ``built`` is the (start, end) of the engine's construction, kept as
    an ``engine.build`` span.
    """
    import repro.service.engine as engine_mod
    import repro.service.server as server_mod
    from repro.service.protocol import FrameDecoder

    spans: List[Span] = []
    if built is not None:
        spans.append(("engine.build", built[0], built[1], None, None, 1))
    add = spans.append
    clock = time.perf_counter
    rid_of: Dict[int, int] = {}  # id(query.source) -> request id, until resolved
    current: List[object] = [None]

    feed = FrameDecoder.feed

    def traced_feed(self, data):
        start = clock()
        frames = feed(self, data)
        add(("protocol.feed", start, clock(), None, None, len(frames)))
        return frames

    decode_query = server_mod.decode_query

    def traced_decode_query(frame):
        start = clock()
        query = decode_query(frame)
        add(("protocol.decode_query", start, clock(), None, frame.request_id, 1))
        rid_of[id(query.source)] = frame.request_id
        return query

    encode_reply = server_mod.encode_reply

    def traced_encode_reply(request_id, distance, path):
        start = clock()
        blob = encode_reply(request_id, distance, path)
        add(("protocol.encode_reply", start, clock(), None, request_id, 1))
        return blob

    batcher_add = server_mod.MicroBatcher.add

    def traced_batcher_add(self, item):
        now = clock()
        add(("server.park", now, now, None, item.query.request_id, 1))
        return batcher_add(self, item)

    route = engine_mod.route

    def traced_route(*args, **kwargs):
        start = clock()
        path = route(*args, **kwargs)
        add(("core.route", start, clock(), "engine.resolve", current[0], 1))
        return path

    distances_many = engine_mod.undirected_distances_many

    def traced_distances_many(destination, sources):
        start = clock()
        out = distances_many(destination, sources)
        add(("core.distances_many", start, clock(),
             "engine.resolve_distances", current[0], len(out)))
        return out

    resolve = engine.resolve

    def traced_resolve(source, destination, directed, want_path):
        rid = rid_of.pop(id(source), None)
        current[0] = rid
        start = clock()
        answer = resolve(source, destination, directed, want_path)
        add(("engine.resolve", start, clock(), None, rid, 1))
        return answer

    resolve_distances = engine.resolve_distances

    def traced_resolve_distances(destination, sources, directed):
        rids = [rid_of.pop(id(source), None) for source in sources]
        current[0] = rids
        start = clock()
        answer = resolve_distances(destination, sources, directed)
        add(("engine.resolve_distances", start, clock(), None, rids,
             len(sources)))
        return answer

    stop = server_mod.RouteQueryServer.stop

    async def traced_stop(self):
        await stop(self)
        with open(out_path, "wb") as handle:
            pickle.dump(spans, handle, protocol=pickle.HIGHEST_PROTOCOL)

    FrameDecoder.feed = traced_feed
    server_mod.decode_query = traced_decode_query
    server_mod.encode_reply = traced_encode_reply
    server_mod.MicroBatcher.add = traced_batcher_add
    server_mod.RouteQueryServer.stop = traced_stop
    engine_mod.route = traced_route
    engine_mod.undirected_distances_many = traced_distances_many
    engine.resolve = traced_resolve
    engine.resolve_distances = traced_resolve_distances


def load_spans(path: str) -> List[Span]:
    """Read the spans a traced server of this benchmark wrote."""
    with open(path, "rb") as handle:
        return pickle.load(handle)


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_costs(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-call cost of each wrapped entry point over the traced run (µs).

    ``feed`` is per frame; ``resolve_distances`` is per flush.
    """
    total: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    items: Dict[str, int] = defaultdict(int)
    for name, start, end, _, _, count in spans:
        total[name] += end - start
        calls[name] += 1
        items[name] += count

    def per_call(name: str) -> float:
        return 1e6 * total[name] / calls[name] if calls[name] else 0.0

    return {
        "protocol.feed_us": (1e6 * total["protocol.feed"]
                             / items["protocol.feed"]
                             if items["protocol.feed"] else 0.0),
        "protocol.decode_query_us": per_call("protocol.decode_query"),
        "protocol.encode_reply_us": per_call("protocol.encode_reply"),
        "engine.resolve_us": per_call("engine.resolve"),
        "engine.resolve_distances_us": per_call("engine.resolve_distances"),
    }


def lone_self_times(spans: Sequence[Span], rids: Sequence[int],
                    starts: Sequence[float],
                    latencies: Sequence[float]) -> Dict[str, float]:
    """Median self time per lone-caller query, by layer (µs), and waits.

    With one query in flight, every span between a query's send and its
    reply belongs to it.  ``server`` is the worker's time on the query
    outside the wrapped calls (the asyncio hops, the micro-batcher's
    wait); ``outside`` is the round trip minus the worker's part:
    loopback TCP, the event loop's socket reads and writes, and the
    generator.  ``server.queue_wait_us`` (end of ``decode_query`` to
    start of ``resolve``) and ``server.batch_wait_ms`` (park to flush)
    are medians over the lone queries that took each path.
    """
    by_rid: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    first: Dict[int, float] = {}
    last: Dict[int, float] = {}

    def note(rid: int, layer: str, start: float, end: float) -> None:
        by_rid[rid][layer] += end - start
        if rid not in first or start < first[rid]:
            first[rid] = start
        if rid not in last or end > last[rid]:
            last[rid] = end

    wanted = set(rids)
    feeds = []
    decoded: Dict[int, float] = {}
    parked: Dict[int, float] = {}
    queue_waits: List[float] = []
    batch_waits: List[float] = []
    for name, start, end, _, rid, _ in spans:
        if name == "protocol.feed":
            feeds.append((start, end))
            continue
        targets = rid if isinstance(rid, list) else [rid]
        targets = [r for r in targets if r in wanted]
        if not targets:
            continue
        if name == "server.park":
            parked[rid] = start
            continue
        if name == "protocol.decode_query":
            decoded[rid] = end
        elif name == "engine.resolve" and rid in decoded:
            queue_waits.append(start - decoded[rid])
        elif name == "engine.resolve_distances":
            batch_waits.extend(start - parked[r] for r in targets
                               if r in parked)
        share = (end - start) / len(targets)
        for r in targets:
            note(r, name.split(".")[0], start, start + share)
    # A lone query's frame arrives in its own feed call: attribute each
    # feed to the query whose send precedes it.
    feeds.sort()
    order = sorted(zip(starts, latencies, rids))
    position = 0
    for start, end in feeds:
        while position + 1 < len(order) and order[position + 1][0] <= start:
            position += 1
        if order:
            sent, latency, rid = order[position]
            if sent <= start <= sent + latency:
                note(rid, "protocol", start, end)
    rows: Dict[str, List[float]] = defaultdict(list)
    for rid, latency in zip(rids, latencies):
        layers = by_rid.get(rid)
        if not layers:
            continue
        span = last[rid] - first[rid]
        core = layers.get("core", 0.0)
        engine = layers.get("engine", 0.0) - core
        protocol = layers.get("protocol", 0.0)
        inside = protocol + engine + core
        rows["protocol"].append(protocol)
        rows["engine"].append(engine)
        rows["core"].append(core)
        rows["server"].append(max(0.0, span - inside))
        rows["outside"].append(max(0.0, latency - span))
        rows["round_trip"].append(latency)
    out = {f"self.{layer}_us": 1e6 * _median(values)
           for layer, values in rows.items()}
    out["server.queue_wait_us"] = 1e6 * _median(queue_waits)
    out["server.batch_wait_ms"] = 1e3 * _median(batch_waits)
    return out
