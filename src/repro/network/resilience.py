"""Graceful degradation for the routing stack (experiment E19).

Three layers make the simulator survive the chaos engine
(:mod:`repro.network.chaos`) instead of dropping traffic:

* **Local detours** — :class:`LocalDetourPolicy` redirects a message
  whose next hop is down using *local* knowledge only: the forwarding
  site's own adjacency (which of its neighbors/incident links are up)
  plus precomputed healthy-topology structure.  In compiled-table mode
  the candidates are the site's neighbors ranked by the table's
  distance-to-destination bytes — the distance-layer deflection rule of
  Fàbrega–Martí-Farré–Muñoz (arXiv:2203.09918).  In planned-path mode
  the candidates are the alternate first hops of a Pradhan–Reddy
  vertex-disjoint path family computed on the *intact* graph.  Both are
  bounded to ``d - 1`` alternatives per blocked hop — the paper's
  tolerance bound — and a per-message detour budget rules out
  deflection livelock.  The global failed set is never consulted.

* **Table repair** — :func:`repair_route_table` refills a mutable
  :class:`repro.core.tables.CompiledRouteTable` after site failures
  with one blocked fill of every row through the array kernel, the same
  fill :func:`compile_with_failures` runs, so the result is
  **byte-identical** to a full compile on the surviving topology
  (asserted on randomized fault sets in the tests).  Even one failed
  site makes the full refill cheaper than finding and patching only the
  rows it invalidates (E19).

* **Self-healing tables** — :class:`SelfHealingRouteTable` refills its
  working table whenever the failed set changes (fault *or* recovery),
  so repeated churn never accumulates drift.

The module is deliberately simulator-agnostic: the simulator only knows
the ``detour(simulator, address, blocked_target, message)`` protocol.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union

from repro.core.arraybfs import ACTION_UNREACHABLE, fill_table_rows
from repro.core.tables import CompiledRouteTable
from repro.core.word import WordTuple
from repro.exceptions import InvalidParameterError
from repro.network.faults import vertex_disjoint_paths
from repro.network.message import Message
from repro.network.router import vertex_path_to_steps

#: Either representation of a failed site: a packed integer or a word
#: tuple (normalised internally via the table's PackedSpace).
FailedSite = Union[int, WordTuple]


def _normalize_failed(table: CompiledRouteTable,
                      failed: Iterable[FailedSite]) -> FrozenSet[int]:
    """Failed sites as a frozenset of packed values in the table's space."""
    space = table.space
    out: Set[int] = set()
    for site in failed:
        if isinstance(site, int):
            if not 0 <= site < table.order:
                raise InvalidParameterError(
                    f"packed failed site {site} outside 0..{table.order - 1}"
                )
            out.add(site)
        else:
            out.add(space.pack_checked(site))
    return frozenset(out)


# ----------------------------------------------------------------------
# Repair: one blocked fill over every row
# ----------------------------------------------------------------------


def repair_route_table(table: CompiledRouteTable,
                       failed: Iterable[FailedSite]) -> None:
    """Refill ``table`` in place so it routes around ``failed`` sites.

    ``table`` must hold mutable buffers (``thaw()`` a compiled or loaded
    table).  Every row is refilled by one blocked BFS fill, so the result
    is byte-identical to :func:`compile_with_failures` on the same fault
    set whatever fault set the table encoded before.
    """
    if not table.mutable:
        raise InvalidParameterError(
            "repair needs mutable table buffers; call table.thaw() first")
    blocked = _normalize_failed(table, failed)
    fill_table_rows(table.d, table.k, range(table.order), table.directed,
                    table.distances, table.actions, blocked)


def compile_with_failures(
    d: int,
    k: int,
    directed: bool = False,
    failed: Iterable[FailedSite] = (),
) -> CompiledRouteTable:
    """Compile an all-pairs table for DG(d, k) minus the failed sites.

    Semantics: failed vertices are removed from the graph entirely —
    their rows (as destinations) and cells (as sources) read ``0xFF``
    unreachable, and no surviving route traverses them.  This is the
    ground truth the cluster's repaired tables are checked against.
    """
    n = d**k
    table = CompiledRouteTable(d, k, directed, bytearray(n * n),
                               bytearray(n * n))
    repair_route_table(table, failed)
    return table


class SelfHealingRouteTable:
    """A mutable route table that tracks a changing failed set.

    Every :meth:`sync` to a new failed set refills the whole table with
    :func:`repair_route_table`, so a fault, a recovery or any churn in
    between lands on the same bytes a fresh :func:`compile_with_failures`
    would hold.  In-flight messages holding a reference to :attr:`table`
    see the new action bytes immediately — the "self-healing" the chaos
    campaign's ``repair`` strategy measures.
    """

    def __init__(self, table: CompiledRouteTable) -> None:
        if not table.mutable:
            table = table.thaw()
        self.table = table
        self.failed: FrozenSet[int] = frozenset()
        #: Syncs that refilled the table.
        self.repairs = 0

    def sync(self, failed: Iterable[FailedSite]
             ) -> Optional[CompiledRouteTable]:
        """Refill the table for ``failed``; None if it already encodes it."""
        target = _normalize_failed(self.table, failed)
        if target == self.failed:
            return None
        repair_route_table(self.table, target)
        self.failed = target
        self.repairs += 1
        return self.table


# ----------------------------------------------------------------------
# Local detour routing
# ----------------------------------------------------------------------


class LocalDetourPolicy:
    """Redirect blocked hops from local knowledge only.

    Plugged into :attr:`repro.network.simulator.Simulator.detour_policy`;
    the simulator calls :meth:`detour` when a message's next hop is
    down.  Decisions use only

    * the forwarding site's adjacency (its neighbors' liveness and its
      incident links — the information a real site gets from keepalives),
    * precomputed *healthy*-topology structure: the compiled table's
      distance bytes (table mode) or a Pradhan–Reddy vertex-disjoint
      path family (planned-path mode).

    At most ``max_alternatives`` candidates (default ``d - 1``, the
    Pradhan–Reddy tolerance bound) are considered per blocked hop, and
    a message that has already detoured ``max_detours`` times is given
    up rather than deflected forever.

    With a ``membership`` provider (E20, any object with
    ``view_at(observer)`` returning a
    :class:`repro.network.membership.MembershipView` — a
    :class:`~repro.network.membership.SwimDetector` or the trivial
    :class:`~repro.network.membership.OracleMembership`) candidate
    liveness is judged by the *forwarding site's own detected view*
    instead of the simulator's oracle set: a stale view may deflect
    onto a dead neighbor (the hop is then lost in flight, exactly as a
    real router's would be) or shun a live-but-suspected one.  Link
    state stays local knowledge either way.
    """

    def __init__(
        self,
        table: CompiledRouteTable,
        max_alternatives: Optional[int] = None,
        max_detours: Optional[int] = None,
        family_cache_size: int = 256,
        membership: Optional[object] = None,
    ) -> None:
        self.table = table
        self.space = table.space
        d = table.d
        self.max_alternatives = (
            max(1, d - 1) if max_alternatives is None else max_alternatives)
        self.max_detours = (
            2 * table.k + d if max_detours is None else max_detours)
        self._families: Dict[Tuple[WordTuple, WordTuple],
                             List[List[WordTuple]]] = {}
        self._family_cache_size = family_cache_size
        #: Optional view provider; None keeps the oracle behaviour.
        self.membership = membership

    def _distrusts(self, simulator, observer: WordTuple,
                   site: WordTuple) -> bool:
        """Whether ``observer`` should avoid ``site`` as a next hop."""
        if self.membership is not None:
            return not self.membership.view_at(observer).trusts(site)
        return simulator.is_failed(site)

    # -- the simulator protocol -----------------------------------------

    def detour(self, simulator, address: WordTuple, blocked: WordTuple,
               message: Message) -> Optional[WordTuple]:
        """A live replacement next hop, or None to fall through.

        Updates the message's routing state (packed coordinate or
        remaining path) to match the returned hop.
        """
        if message.detours_used >= self.max_detours:
            return None
        if message.route_table is not None:
            return self._detour_table(simulator, address, blocked, message)
        return self._detour_path(simulator, address, blocked, message)

    # -- table mode: distance-layer deflection --------------------------

    def ranked_alternatives(self, table: CompiledRouteTable, current: int,
                            blocked: int, destination: int
                            ) -> List[Tuple[int, int]]:
        """Detour candidates from ``current`` as ``(neighbor, action)``.

        The distance-layer deflection rule shared by the simulator's
        detour hook and the cluster engine's liveness-checked table
        walk: every neighbor of ``current`` except itself and the
        ``blocked`` next hop, ranked by the table's distance-to-
        ``destination`` byte (ties by packed id), unreachable neighbors
        dropped.  All coordinates are packed; the paired action byte is
        the shift that moves ``current`` onto the neighbor, so callers
        can extend a path, not just pick an address.
        """
        space = self.space
        d = space.d
        dest_base = destination * space.order
        distances = table.distances
        actions_of: Dict[int, int] = {}
        for action in range(d if table.directed else 2 * d):
            nbr = space.apply_action(current, action)
            if nbr != current and nbr != blocked and nbr not in actions_of:
                actions_of[nbr] = action
        return sorted(
            ((nbr, action) for nbr, action in actions_of.items()
             if distances[dest_base + nbr] != ACTION_UNREACHABLE),
            key=lambda pair: (distances[dest_base + pair[0]], pair[0]),
        )

    def _detour_table(self, simulator, address: WordTuple,
                      blocked: WordTuple, message: Message
                      ) -> Optional[WordTuple]:
        space = self.space
        table = message.route_table
        current = space.pack(address)
        blocked_packed = space.pack(blocked)
        dest_base = message.packed_dest_base
        ranked = self.ranked_alternatives(
            table, current, blocked_packed, dest_base // space.order)
        for nbr, _action in ranked[:self.max_alternatives]:
            neighbor_address = space.unpack(nbr)
            if self._distrusts(simulator, address, neighbor_address) or \
                    simulator.is_link_failed(address, neighbor_address):
                continue  # adjacent liveness / the site's detected view
            message.packed_current = nbr
            message.detours_used += 1
            return neighbor_address
        return None

    # -- path mode: disjoint-family alternates --------------------------

    def _detour_path(self, simulator, address: WordTuple,
                     blocked: WordTuple, message: Message
                     ) -> Optional[WordTuple]:
        destination = message.destination
        if address == destination:  # pragma: no cover - defensive
            return None
        family = self._family(simulator.graph, address, destination)
        considered = 0
        for path in family:
            if considered >= self.max_alternatives:
                break
            next_hop = path[1]
            if next_hop == blocked:
                continue  # the primary we already know is down
            considered += 1
            if self._distrusts(simulator, address, next_hop) or \
                    simulator.is_link_failed(address, next_hop):
                continue
            if message.hop_router is None:
                # Planned mode: splice the alternate's remaining steps in.
                message.routing_path = vertex_path_to_steps(
                    path, simulator.d)[1:]
            # Stateless mode needs no splice: the next site re-plans.
            message.detours_used += 1
            return next_hop
        return None

    def _family(self, graph, source: WordTuple,
                destination: WordTuple) -> List[List[WordTuple]]:
        """The (cached) healthy-topology disjoint path family."""
        key = (source, destination)
        family = self._families.get(key)
        if family is None:
            family = vertex_disjoint_paths(
                graph, source, destination,
                max_paths=self.max_alternatives + 1,
            )
            if len(self._families) >= self._family_cache_size:
                self._families.pop(next(iter(self._families)))
            self._families[key] = family
        return family
