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

* **Incremental table repair** — :func:`repair_route_table` patches a
  mutable :class:`repro.core.tables.CompiledRouteTable` in place after
  site failures.  Only the rows whose shortest-path trees actually
  route a surviving source through a failed site are re-BFS'd (by the
  array kernel with the failed sites blocked); rows where the
  failed sites are leaves only get their failed-source cells cleared.
  The result is **byte-identical** to a full recompile on the surviving
  topology (:func:`compile_with_failures`, asserted on randomized fault
  sets in the tests) at a fraction of the work.

* **Self-healing tables** — :class:`SelfHealingRouteTable` keeps the
  pristine healthy buffers alongside the working ones and re-syncs the
  working table whenever the failed set changes (fault *or* recovery),
  restoring previously patched rows first so repeated churn never
  accumulates drift.

The module is deliberately simulator-agnostic: the simulator only knows
the ``detour(simulator, address, blocked_target, message)`` protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union

from repro.core.arraybfs import (
    ACTION_AT_DESTINATION,
    ACTION_UNREACHABLE,
    fill_table_rows,
    table_rows,
)
from repro.core.tables import CompiledRouteTable
from repro.core.word import WordTuple
from repro.exceptions import InvalidParameterError
from repro.network.faults import vertex_disjoint_paths
from repro.network.message import Message
from repro.network.router import vertex_path_to_steps

#: Either representation of a failed site: a packed integer or a word
#: tuple (normalised internally via the table's PackedSpace).
FailedSite = Union[int, WordTuple]

#: Rows re-BFS'd per kernel call during a repair.  Small, equal blocks
#: keep the kernel's scratch small and reusable, so a long-lived node
#: that repairs again on every verdict change does not grow its heap
#: (at 256-row blocks a DG(2,9) survivor kept ~1 MB more after three
#: repairs); the per-call cost is noise next to the row scan.
_REPAIR_BLOCK_ROWS = 32


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
# Full recompile on the surviving topology (the repair reference)
# ----------------------------------------------------------------------


def compile_with_failures(
    d: int,
    k: int,
    directed: bool = False,
    failed: Iterable[FailedSite] = (),
) -> CompiledRouteTable:
    """Compile an all-pairs table for DG(d, k) minus the failed sites.

    Semantics: failed vertices are removed from the graph entirely —
    their rows (as destinations) and cells (as sources) read ``0xFF``
    unreachable, and no surviving route traverses them.  This full
    compile is the ground truth :func:`repair_route_table` is asserted
    byte-identical against; production code should repair incrementally
    instead of calling this.
    """
    n = d**k
    table = CompiledRouteTable(d, k, directed, bytearray(n * n),
                               bytearray(n * n))
    blocked = _normalize_failed(table, failed)
    fill_table_rows(d, k, range(n), directed, table.distances,
                    table.actions, blocked)
    return table


# ----------------------------------------------------------------------
# Incremental in-place repair
# ----------------------------------------------------------------------


@dataclass
class RepairReport:
    """What one :func:`repair_route_table` pass actually did."""

    failed_sites: int = 0
    rows_scanned: int = 0
    #: Rows fully re-BFS'd because a surviving source routed through a
    #: failed site.
    rows_repaired: int = 0
    #: Rows where only the failed-source cells needed clearing (the
    #: failed sites were leaves of the row's shortest-path tree).
    rows_patched: int = 0
    #: Rows left completely untouched.
    rows_untouched: int = 0
    #: Row indices (packed destinations) whose bytes changed.
    touched_rows: List[int] = field(default_factory=list)

    @property
    def rows_rewritten(self) -> int:
        return self.rows_repaired + self.rows_patched


def repair_route_table(
    table: CompiledRouteTable,
    failed: Iterable[FailedSite],
) -> RepairReport:
    """Patch ``table`` in place so it routes around ``failed`` sites.

    ``table`` must hold mutable buffers (``thaw()`` a compiled table or
    ``load(..., writable=True)`` an mmap'd one) and must currently
    describe the **intact** topology — repair is a healthy-to-failed
    delta, not an arbitrary diff (use :class:`SelfHealingRouteTable`
    for churn).  The repaired bytes are identical to
    :func:`compile_with_failures` on the same fault set.

    Per destination row the work is:

    1. O(|F|) reachability pre-check — rows no failed site can reach
       are provably untouched;
    2. one early-exit O(N) scan over the action bytes: a surviving
       source's route traverses a failed site iff *some* surviving
       source's recorded next hop is a failed site (the first failed
       node on any affected chain has a surviving tree-predecessor), so
       one predecessor-of-a-failure sighting decides the row;
    3. rows with a sighting get a blocked re-BFS (same kernel as the
       compiler, so tie-breaking — and therefore every byte — matches
       the full recompile), batched ``_REPAIR_BLOCK_ROWS`` rows at a
       time; rows without keep their bytes except for the failed-source
       cells, which are cleared.
    """
    if not table.mutable:
        raise InvalidParameterError(
            "repair needs mutable table buffers; call table.thaw() or "
            "load(..., writable=True) first"
        )
    blocked = _normalize_failed(table, failed)
    report = RepairReport(failed_sites=len(blocked))
    if not blocked:
        return report
    n = table.order
    d = table.d
    k = table.k
    directed = table.directed
    actions = table.actions
    distances = table.distances
    space = table.space
    unreachable_row = bytes([ACTION_UNREACHABLE]) * n
    rebfs: List[int] = []
    blocked_list = list(blocked)
    blocked_mask = bytearray(n)
    for f in blocked_list:
        blocked_mask[f] = 1
    apply_action = space.apply_action

    for y in range(n):
        report.rows_scanned += 1
        base = y * n
        if y in blocked:
            # A dead destination: everything about this row is gone.
            if bytes(actions[base:base + n]) != unreachable_row or \
                    bytes(distances[base:base + n]) != unreachable_row:
                actions[base:base + n] = unreachable_row
                distances[base:base + n] = unreachable_row
                report.rows_repaired += 1
                report.touched_rows.append(y)
            else:  # pragma: no cover - already-unreachable row
                report.rows_untouched += 1
            continue

        if all(distances[base + f] == ACTION_UNREACHABLE
               for f in blocked_list):
            # No failed site reaches y at all; nothing in this row can
            # route through one.
            report.rows_untouched += 1
            continue

        # Early-exit scan: does any *surviving* source hop straight into
        # a failed site?  If a survivor's route traverses a failure at
        # all, the chain's first failed node has a surviving
        # predecessor whose action byte points at it — so one sighting
        # decides the row, usually within a few cells.
        needs_rebfs = False
        for x in range(n):
            if blocked_mask[x]:
                continue
            a = actions[base + x]
            if a >= ACTION_AT_DESTINATION:
                continue
            if blocked_mask[apply_action(x, a)]:
                needs_rebfs = True
                break

        if not needs_rebfs:
            # The failed sites are leaves of this row's tree: clearing
            # their own cells is the entire repair.
            changed = False
            for f in blocked_list:
                if actions[base + f] != ACTION_UNREACHABLE or \
                        distances[base + f] != ACTION_UNREACHABLE:
                    actions[base + f] = ACTION_UNREACHABLE
                    distances[base + f] = ACTION_UNREACHABLE
                    changed = True
            if changed:
                report.rows_patched += 1
                report.touched_rows.append(y)
            else:  # pragma: no cover - pre-check makes this rare
                report.rows_untouched += 1
            continue

        rebfs.append(y)
        report.rows_repaired += 1
        report.touched_rows.append(y)

    for i in range(0, len(rebfs), _REPAIR_BLOCK_ROWS):
        rows = rebfs[i:i + _REPAIR_BLOCK_ROWS]
        dist, act = table_rows(d, k, rows, directed, blocked)
        for j, y in enumerate(rows):
            distances[y * n:(y + 1) * n] = dist[j * n:(j + 1) * n]
            actions[y * n:(y + 1) * n] = act[j * n:(j + 1) * n]
    return report


class SelfHealingRouteTable:
    """A mutable route table that tracks a changing failed set.

    Keeps the pristine healthy bytes alongside the working buffers; on
    every :meth:`sync` the rows touched by the previous repair are
    restored from pristine first, then :func:`repair_route_table` runs
    against the new failed set.  In-flight messages holding a reference
    to :attr:`table` see the patched action bytes immediately — the
    "self-healing" the chaos campaign's ``repair`` strategy measures.
    """

    def __init__(self, table: CompiledRouteTable) -> None:
        if not table.mutable:
            table = table.thaw()
        self.table = table
        self._pristine_actions = bytes(table.actions)
        self._pristine_distances = bytes(table.distances)
        self._dirty_rows: List[int] = []
        self.failed: FrozenSet[int] = frozenset()
        #: Cumulative accounting across syncs.
        self.repairs = 0
        self.rows_repaired = 0
        self.rows_patched = 0

    def sync(self, failed: Iterable[FailedSite]) -> Optional[RepairReport]:
        """Bring the working table in line with ``failed``; None if no-op."""
        target = _normalize_failed(self.table, failed)
        if target == self.failed:
            return None
        n = self.table.order
        actions = self.table.actions
        distances = self.table.distances
        for row in self._dirty_rows:
            base = row * n
            actions[base:base + n] = self._pristine_actions[base:base + n]
            distances[base:base + n] = self._pristine_distances[base:base + n]
        self._dirty_rows = []
        self.failed = target
        report = repair_route_table(self.table, target)
        self._dirty_rows = list(report.touched_rows)
        self.repairs += 1
        self.rows_repaired += report.rows_repaired
        self.rows_patched += report.rows_patched
        return report


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
