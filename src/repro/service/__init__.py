"""Route-query service: a network-facing front end for the routing core.

Everything the previous PRs built — the Algorithm 1 and Theorem 2
planners, the one-to-many batch engine of
:mod:`repro.core.batch`, and the mmap-loadable
:class:`~repro.core.tables.CompiledRouteTable` — was only reachable
in-process.  This package puts it on the wire:

* :mod:`repro.service.protocol` — length-prefixed binary frames
  (query / reply / error / stats) that reuse the paper's five-field
  path encoding from :mod:`repro.network.message`.
* :mod:`repro.service.engine` — the tiered resolver: O(1) compiled-table
  lookups when a table is loaded, ``route()`` planning otherwise (the
  word-parallel diagonal scan for undirected queries), and
  same-destination coalescing through the suffix-automaton batch engine.
* :mod:`repro.service.server` — an asyncio server with a micro-batching
  queue (flush on size or deadline), a bounded admission queue that
  answers overload with an explicit error frame instead of buffering
  without limit, per-request timeouts, and graceful drain on shutdown.
* :mod:`repro.service.client` — a pipelining client with a connection
  pool, plus blocking convenience wrappers for scripts and the CLI.
* :mod:`repro.service.metrics` — the counter / fixed-bucket-histogram
  registry whose snapshot the server exposes over a ``STATS`` frame,
  with bucket-wise snapshot merging for fleet-wide aggregation.
* :mod:`repro.service.supervisor` — the multi-core front end: a
  supervisor forks one worker per core (``SO_REUSEPORT`` or a shared
  listener), each mmap-loading the same compiled table, with fleet-wide
  ``STATS`` aggregation, graceful drain, and crashed-worker respawn.
* :mod:`repro.service.loadgen` — closed-loop load generation: capacity
  sweeps that report sustained-at-SLO qps, and soak scenarios with
  client churn, window-0 slams, and RSS-drift tracking.
* :mod:`repro.service.chaosproxy` — a wire-level fault injector: a TCP
  proxy driven by a seeded replayable :class:`FaultPlan` (latency,
  bandwidth caps, mid-frame resets, corruption, partitions, trickle)
  that the hardened client/server/supervisor stack is tested against.
* :mod:`repro.service.loop` — :class:`~repro.service.loop.LoopThread`,
  the event-loop thread every synchronous wrapper (``SupervisorThread``,
  ``ChaosProxyThread``, the cluster harness) runs its loop on.

Quickstart (see also ``examples/serve_queries.py``)::

    import asyncio
    from repro.service import RouteQueryEngine, RouteQueryServer, RouteServiceClient

    async def main():
        server = RouteQueryServer(RouteQueryEngine(d=2, k=6))
        port = await server.start()
        async with RouteServiceClient("127.0.0.1", port) as client:
            reply = await client.query((0, 1, 1, 0, 1, 0), (1, 1, 0, 1, 1, 0))
            print(reply.distance, reply.path)
        await server.stop()

    asyncio.run(main())
"""

from repro.service.chaosproxy import ChaosProxy, ChaosProxyThread, FaultPlan
from repro.service.client import (
    CLIENT_DEADLINE_MESSAGE,
    BreakerConfig,
    CircuitBreaker,
    QueryOutcome,
    RetryPolicy,
    RobustRouteClient,
    RouteReply,
    RouteServiceClient,
    query_once,
    run_robust_burst,
)
from repro.service.engine import EngineSpec, RouteQueryEngine, build_engine
from repro.service.loadgen import (
    LoadScenario,
    SoakResult,
    StepResult,
    SweepResult,
    measure_soak,
    measure_step,
    measure_sweep,
)
from repro.service.metrics import Counter, Histogram, MetricsRegistry
from repro.service.protocol import (
    ErrorCode,
    FrameDecoder,
    FrameType,
    RouteQuery,
    encode_frame,
)
from repro.service.server import RouteQueryServer, ServerConfig
from repro.service.supervisor import (
    ServiceSupervisor,
    SupervisorConfig,
    SupervisorThread,
    reuseport_supported,
)

__all__ = [
    "BreakerConfig",
    "ChaosProxy",
    "ChaosProxyThread",
    "CircuitBreaker",
    "CLIENT_DEADLINE_MESSAGE",
    "Counter",
    "EngineSpec",
    "FaultPlan",
    "RetryPolicy",
    "RobustRouteClient",
    "run_robust_burst",
    "ErrorCode",
    "FrameDecoder",
    "FrameType",
    "Histogram",
    "LoadScenario",
    "MetricsRegistry",
    "QueryOutcome",
    "RouteQuery",
    "RouteQueryEngine",
    "RouteQueryServer",
    "RouteReply",
    "RouteServiceClient",
    "ServerConfig",
    "ServiceSupervisor",
    "SoakResult",
    "StepResult",
    "SupervisorConfig",
    "SupervisorThread",
    "SweepResult",
    "build_engine",
    "encode_frame",
    "measure_soak",
    "measure_step",
    "measure_sweep",
    "query_once",
    "reuseport_supported",
]
