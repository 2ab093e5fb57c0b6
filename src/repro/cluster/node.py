"""One cluster node process: serve queries, gossip, self-heal (E25).

A node owns a contiguous packed-site range of DG(d, k) (its
"prefix-shard group"), answers route queries for the *whole* graph from
a read-only mmap of the compiled table, and runs a
:class:`~repro.cluster.swim.SwimAgent` against its peers.  When the
agent confirms a peer DEAD, every site in that peer's range is treated
as failed:

1. immediately, the engine enters **detour mode** — table walks that
   would step onto a dead site deflect through
   :meth:`~repro.network.resilience.LocalDetourPolicy.ranked_alternatives`
   (distance-layer deflection, bounded alternatives and budget), so
   queries keep answering from the stale table;
2. a background task fills a fresh table for the surviving topology
   with the blocked fill ``compile_with_failures`` runs, so its bytes
   are identical.  It fills at most ``_STEP_CELLS`` cells per step and
   yields to the event loop between steps, so the SWIM agent and the
   server keep answering through the repair.  The finished table then
   replaces the served one in a single step, and detour mode ends.

Both phases are measured, not assumed: the engine counts detoured
queries, the node publishes repair counts/latency and a table digest
through the ordinary ``STATS`` frame, and the harness compares that
digest against its own ``compile_with_failures`` compile.
"""

from __future__ import annotations

import asyncio
import hashlib
import mmap
import signal
import socket
import time
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.core.arraybfs import (ACTION_AT_DESTINATION, ACTION_UNREACHABLE,
                                 fill_table_rows)
from repro.core.routing import action_steps
from repro.core.tables import CompiledRouteTable
from repro.exceptions import RoutingError
from repro.network.membership import SwimConfig
from repro.network.resilience import LocalDetourPolicy
from repro.service.engine import RouteQueryEngine
from repro.service.metrics import MetricsRegistry
from repro.service.server import RouteQueryServer, ServerConfig


#: Table cells one repair step may fill before it yields to the event
#: loop.  A cell count rather than a row count, so that one step holds
#: the loop for the same few milliseconds whatever k is.
_STEP_CELLS = 1 << 15


def table_digest(table: CompiledRouteTable) -> int:
    """A 64-bit content digest of the table's action+distance bytes.

    The byte-identity witness between a survivor's live repaired table
    and the harness's fresh ``compile_with_failures``: equal digests
    over the full ``2 * order**2`` payload (sha256-truncated) mean equal
    bytes for any practical purpose, and an int travels through the
    ``STATS`` counter snapshot unchanged.  The payload is hashed row by
    row, each destination's action row then its distance row, so a
    repair can hash every step's rows as it fills them.
    """
    digest = hashlib.sha256()
    _hash_rows(digest, table, 0, table.order)
    return int.from_bytes(digest.digest()[:8], "big")


def _hash_rows(digest, table: CompiledRouteTable, start: int,
               stop: int) -> None:
    """Feed rows ``start..stop`` to ``digest``, as :func:`table_digest` does."""
    n = table.order
    for base in range(start * n, stop * n, n):
        digest.update(table.actions[base:base + n])
        digest.update(table.distances[base:base + n])


@dataclass(frozen=True)
class ClusterNodeSpec:
    """Everything one node process needs, as picklable plain data.

    ``site_ranges[i]`` is node *i*'s owned packed range ``[start,
    stop)``; the ranges partition ``[0, d**k)``.  ``swim_peers[i]`` is
    where node *i*'s membership port is reached — the node's own entry
    is its real bind address, other entries may point at the harness's
    wire-fault proxies.  ``repair_delay`` artificially postpones the
    table repair so tests and benchmarks can observe (and count) a
    real detour window even on fast hardware.
    """

    node_id: int
    n_nodes: int
    d: int
    k: int
    directed: bool
    table_path: str
    site_ranges: Tuple[Tuple[int, int], ...]
    swim_peers: Tuple[Tuple[str, int], ...]
    probe_interval: float = 0.25
    probe_timeout: float = 0.12
    suspicion_timeout: float = 0.6
    indirect_probes: int = 1
    seed: str = "cluster"
    repair_delay: float = 0.0

    def swim_config(self) -> SwimConfig:
        """The membership timers as a :class:`SwimConfig`."""
        return SwimConfig(
            probe_interval=self.probe_interval,
            probe_timeout=self.probe_timeout,
            indirect_probes=self.indirect_probes,
            suspicion_timeout=self.suspicion_timeout,
            seed=self.seed,
        )

    def failed_sites(self, dead_nodes: FrozenSet[int]) -> List[int]:
        """The packed sites owned by ``dead_nodes``, sorted."""
        failed: List[int] = []
        for node in sorted(dead_nodes):
            start, stop = self.site_ranges[node]
            failed.extend(range(start, stop))
        return failed


class ClusterQueryEngine(RouteQueryEngine):
    """A route engine whose table walk honors a live dead-site set.

    ``dead_packed`` holds the packed sites of peers whose DEAD verdict
    has *not yet been repaired into the table*.  While non-empty, path
    queries walk the (stale) table checking each next hop against the
    set and deflecting through the detour policy's ranked alternatives;
    once the repaired table is swapped in the set empties and the engine
    is exactly its parent again (the repaired table routes around the
    dead range by construction).
    """

    def __init__(
        self,
        d: int,
        k: int,
        table: CompiledRouteTable,
        registry: Optional[MetricsRegistry] = None,
        detour_policy: Optional[LocalDetourPolicy] = None,
    ) -> None:
        super().__init__(d, k, table=table, registry=registry)
        self.detour_policy = (detour_policy if detour_policy is not None
                              else LocalDetourPolicy(table))
        self.dead_packed: FrozenSet[int] = frozenset()

    def resolve(self, source, destination, directed, want_path):
        """Answer one query, detouring around ``dead_packed`` if set."""
        table = self._table_for(directed)
        dead = self.dead_packed
        if table is None or not dead:
            return super().resolve(source, destination, directed, want_path)
        self.registry.inc("engine.table_lookups")
        space = table.space
        px = space.pack_checked(source)
        py = space.pack_checked(destination)
        if py in dead:
            raise RoutingError(
                f"destination {destination!r} is on a confirmed-dead node")
        if px in dead:
            raise RoutingError(
                f"source {source!r} is on a confirmed-dead node")
        return self._walk_with_detours(table, px, py, want_path)

    def _walk_with_detours(self, table, px: int, py: int, want_path: bool):
        space = table.space
        actions = table.actions
        dead = self.dead_packed
        policy = self.detour_policy
        base = py * table.order
        current = px
        steps: List[int] = []
        detours = 0
        hop_budget = table.order + policy.max_detours + 1
        while current != py:
            if len(steps) >= hop_budget:
                raise RoutingError(
                    "detour walk exceeded its hop budget (deflection "
                    "cycle around the dead range)")
            action = actions[base + current]
            if action == ACTION_UNREACHABLE:
                raise RoutingError(
                    "destination unreachable from the detour position")
            if action == ACTION_AT_DESTINATION:  # pragma: no cover
                break
            nxt = space.apply_action(current, action)
            if nxt in dead:
                if detours >= policy.max_detours:
                    raise RoutingError(
                        "detour budget exhausted around dead next hops")
                for nbr, alt_action in policy.ranked_alternatives(
                        table, current, nxt, py)[:policy.max_alternatives]:
                    if nbr not in dead:
                        nxt, action = nbr, alt_action
                        detours += 1
                        break
                else:
                    raise RoutingError(
                        "no live detour around a dead next hop")
            steps.append(action)
            current = nxt
        if detours:
            self.registry.inc("cluster.detoured_queries")
            self.registry.inc("cluster.detour_hops", detours)
        if not want_path:
            return len(steps), None
        step_of = action_steps(table.d)
        return len(steps), [step_of[action] for action in steps]


class _ClusterNode:
    """The asyncio composition living inside one node process."""

    def __init__(self, spec: ClusterNodeSpec,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.spec = spec
        self.registry = registry if registry is not None else MetricsRegistry()
        self.table = CompiledRouteTable.load(spec.table_path)
        self.engine = ClusterQueryEngine(
            spec.d, spec.k, self.table, registry=self.registry)
        self.agent: Optional[object] = None
        self._verdict: FrozenSet[int] = frozenset()
        self._repair_task: Optional[asyncio.Task] = None
        registry = self.registry
        registry.set_counter("cluster.node_id", spec.node_id)
        registry.set_counter("cluster.n_nodes", spec.n_nodes)
        registry.set_counter("cluster.dead_mask", 0)
        registry.set_counter("cluster.unrepaired", 0)
        registry.set_counter("cluster.table_digest", table_digest(self.table))

    # -- verdict -> repair pipeline --------------------------------------

    def _on_dead_change(self, dead_nodes: FrozenSet[int]) -> None:
        spec = self.spec
        self._verdict = dead_nodes
        self.engine.dead_packed = frozenset(spec.failed_sites(dead_nodes))
        mask = 0
        for node in dead_nodes:
            mask |= 1 << node
        self.registry.set_counter("cluster.dead_mask", mask)
        self.registry.set_counter("cluster.unrepaired", 1)
        if self._repair_task is None or self._repair_task.done():
            self._repair_task = asyncio.get_running_loop().create_task(
                self._repair_loop())

    async def _repair_loop(self) -> None:
        spec = self.spec
        registry = self.registry
        while True:
            target = self._verdict
            if spec.repair_delay > 0:
                await asyncio.sleep(spec.repair_delay)
                if self._verdict != target:
                    continue  # verdict moved while we held the window open
            started = time.perf_counter()
            built = await self._fill(target)
            if built is None:
                continue  # verdict moved mid-fill: start again
            fresh, digest = built
            # No await from here on: a query sees either the old table in
            # detour mode or the new one, whole, out of detour mode.
            old, self.table = self.table, fresh
            self.engine.attach_table(fresh)
            self.engine.dead_packed = frozenset()
            old.close()
            registry.inc("cluster.repairs")
            registry.histogram("cluster.repair_ms").observe(
                (time.perf_counter() - started) * 1000.0)
            registry.set_counter("cluster.table_digest", digest)
            registry.set_counter("cluster.unrepaired", 0)
            return

    async def _fill(self, target: FrozenSet[int]
                    ) -> Optional[Tuple[CompiledRouteTable, int]]:
        """A fresh table for ``target`` and its digest, built in steps.

        Each step fills and hashes at most ``_STEP_CELLS`` cells, then
        yields to the event loop; returns None as soon as the verdict
        has moved on from ``target``.  The buffers are one anonymous
        mapping, so allocating them holds the loop for no step either:
        the kernel hands out zeroed pages as the fill first touches them.
        """
        spec = self.spec
        n = spec.d ** spec.k
        cells = n * n
        mapping = mmap.mmap(-1, 2 * cells)
        fresh = CompiledRouteTable(
            spec.d, spec.k, spec.directed, memoryview(mapping)[:cells],
            memoryview(mapping)[cells:], _mmap=mapping)
        blocked = spec.failed_sites(target)
        rows = max(1, _STEP_CELLS // n)
        digest = hashlib.sha256()
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            fill_table_rows(spec.d, spec.k, range(start, stop),
                            spec.directed,
                            fresh.distances[start * n:stop * n],
                            fresh.actions[start * n:stop * n], blocked)
            _hash_rows(digest, fresh, start, stop)
            await asyncio.sleep(0)
            if self._verdict != target:
                fresh.close()
                return None
        return fresh, int.from_bytes(digest.digest()[:8], "big")

    # -- lifecycle -------------------------------------------------------

    async def run(self, stop_event: asyncio.Event,
                  tcp_socket: Optional[socket.socket] = None,
                  udp_socket: Optional[socket.socket] = None) -> None:
        from repro.cluster.swim import SwimAgent

        spec = self.spec
        server = RouteQueryServer(self.engine, ServerConfig())
        peers = {node: tuple(addr)
                 for node, addr in enumerate(spec.swim_peers)
                 if node != spec.node_id}
        self.agent = SwimAgent(
            spec.node_id, spec.n_nodes, spec.swim_config(),
            peers=peers,
            bind=tuple(spec.swim_peers[spec.node_id]),
            registry=self.registry,
            on_dead_change=self._on_dead_change,
        )
        await self.agent.start(sock=udp_socket)
        try:
            await server.start(listen_socket=tcp_socket)
            await stop_event.wait()
        finally:
            await server.stop()
            await self.agent.close()
            self.table.close()


async def _node_async(spec: ClusterNodeSpec,
                      tcp_socket: Optional[socket.socket],
                      udp_socket: Optional[socket.socket]) -> None:
    loop = asyncio.get_running_loop()
    stop_event = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop_event.set)
    loop.add_signal_handler(signal.SIGINT, lambda: None)
    node = _ClusterNode(spec)
    await node.run(stop_event, tcp_socket=tcp_socket, udp_socket=udp_socket)


def cluster_node_main(spec: ClusterNodeSpec,
                      tcp_socket: Optional[socket.socket] = None,
                      udp_socket: Optional[socket.socket] = None,
                      close_first: Sequence[socket.socket] = ()) -> None:
    """Fork target: run one node until SIGTERM.

    The harness pre-binds both sockets in the parent and hands them
    through the fork so there is no port race between readiness polling
    and bind.  ``close_first`` holds the *other* nodes' inherited
    sockets: every forked child gets a copy of every fd bound before the
    fork, and a listening socket stays bound while *any* process holds
    it — so each child drops its siblings' sockets immediately, and a
    SIGKILLed node's ports genuinely die with it (clients see
    ``ECONNREFUSED``, not a backlog hang).
    """
    for sock in close_first:
        try:
            sock.close()
        except OSError:  # pragma: no cover - already closed is fine
            pass
    asyncio.run(_node_async(spec, tcp_socket, udp_socket))
