"""Tiered route-query resolution: table → planner → batch.

One :class:`RouteQueryEngine` serves a single DG(d, k) in both
orientations and picks the cheapest tier that can answer:

1. **Compiled table** — when a :class:`~repro.core.tables.
   CompiledRouteTable` of matching orientation is attached (compiled
   in-process or mmap-loaded from a ``compile-tables`` artifact), a
   distance is one byte read and a path is one byte read per hop.
2. **Planner** — otherwise :func:`repro.core.routing.route` plans each
   query from the two labels alone, for any k: Algorithm 1 for directed
   queries, the word-parallel diagonal scan of Theorem 2
   (``method="scan"``) for undirected ones.  Nothing is memoised:
   uniform pairs almost never repeat, and a planned path holds only
   references to core's shared steps.
3. **One-to-many batch** — distance-only queries that the server's
   micro-batcher coalesced by destination are answered in one sweep:
   undirected groups build the destination's suffix automaton once
   (:func:`repro.core.batch.undirected_distances_many`, valid because
   the undirected distance is symmetric), directed groups hoist the
   :class:`~repro.core.packed.PackedSpace` affix machinery.

Per-tier counters land in the shared metrics registry so the ``STATS``
frame shows where traffic is actually being served.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.batch import undirected_distances_many
from repro.core.packed import PackedSpace
from repro.core.routing import Path, action_steps, route
from repro.core.tables import CompiledRouteTable
from repro.core.word import WordTuple, validate_parameters
from repro.exceptions import ServiceError
from repro.service.metrics import MetricsRegistry


class RouteQueryEngine:
    """Resolve (source, destination) queries for one DG(d, k).

    ``table`` may be attached at construction or later via
    :meth:`attach_table`.

    >>> engine = RouteQueryEngine(2, 3)
    >>> distance, path = engine.resolve(
    ...     (0, 0, 1), (1, 1, 1), directed=False, want_path=True)
    >>> distance, [str(step) for step in path]
    (2, ['L1', 'L1'])
    """

    def __init__(
        self,
        d: int,
        k: int,
        table: Optional[CompiledRouteTable] = None,
        use_wildcards: bool = False,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        validate_parameters(d, k)
        self.d = d
        self.k = k
        self.use_wildcards = use_wildcards
        self.registry = registry if registry is not None else MetricsRegistry()
        self.table: Optional[CompiledRouteTable] = None
        self.space = PackedSpace(d, k)
        if table is not None:
            self.attach_table(table)

    def attach_table(self, table: CompiledRouteTable) -> None:
        """Serve matching-orientation queries from ``table`` from now on."""
        if (table.d, table.k) != (self.d, self.k):
            raise ServiceError(
                f"table is for DG({table.d},{table.k}), engine serves "
                f"DG({self.d},{self.k})"
            )
        self.table = table

    def _table_for(self, directed: bool) -> Optional[CompiledRouteTable]:
        table = self.table
        if table is not None and table.directed == directed:
            return table
        return None

    def has_table(self, directed: bool) -> bool:
        """True when the O(1) tier can answer ``directed`` queries."""
        return self._table_for(directed) is not None

    # -- single-query tiers ---------------------------------------------

    def resolve(
        self,
        source: WordTuple,
        destination: WordTuple,
        directed: bool,
        want_path: bool,
    ) -> Tuple[int, Optional[Path]]:
        """Answer one query: ``(distance, path-or-None)``.

        Raises :class:`~repro.exceptions.DeBruijnError` subclasses on
        invalid words; the server maps those to ``ERROR`` frames.
        """
        table = self._table_for(directed)
        if table is not None:
            self.registry.inc("engine.table_lookups")
            space = table.space
            px = space.pack_checked(source)
            py = space.pack_checked(destination)
            distance = table.distance_packed(px, py)
            if not want_path:
                return distance, None
            step_of = action_steps(table.d)
            return distance, [
                step_of[action] for action in table.path_actions(px, py)
            ]
        self.registry.inc("engine.planned")
        path = route(
            source,
            destination,
            self.d,
            directed=directed,
            method="scan",
            use_wildcards=self.use_wildcards,
        )
        return len(path), (path if want_path else None)

    # -- batch tier ------------------------------------------------------

    def resolve_distances(
        self,
        destination: WordTuple,
        sources: Sequence[WordTuple],
        directed: bool,
    ) -> List[int]:
        """Distances from each source to one shared ``destination``.

        The micro-batcher's flush path.  With a matching table it is a
        row of byte reads; otherwise one shared structure per flush
        (suffix automaton / packed space) replaces per-query planning.
        """
        table = self._table_for(directed)
        if table is not None:
            self.registry.inc("engine.table_lookups", len(sources))
            space = table.space
            py = space.pack_checked(destination)
            return [
                table.distance_packed(space.pack_checked(s), py) for s in sources
            ]
        self.registry.inc("engine.batched", len(sources))
        self.registry.inc("engine.batch_flushes")
        if directed:
            space = self.space
            py = space.pack_checked(destination)
            return [
                space.directed_distance(space.pack_checked(s), py)
                for s in sources
            ]
        # Undirected distance is symmetric (Theorem 2), so one automaton
        # of the shared destination answers the whole group.
        return undirected_distances_many(destination, sources)

    # -- accounting ------------------------------------------------------

    def stats(self) -> dict:
        """Engine-tier counters plus whether a table is attached."""
        self.registry.set_counter(
            "engine.table_attached", 0 if self.table is None else 1
        )
        return self.registry.snapshot()


@dataclass(frozen=True)
class EngineSpec:
    """A plain-data recipe for building one :class:`RouteQueryEngine`.

    The multi-worker supervisor forks one process per core and each
    worker must build its *own* engine — live objects cannot cross an
    exec boundary, and even under ``fork`` every worker should mmap the
    compiled table file itself so the only shared state is the kernel
    page cache.  A spec captures everything ``serve`` knows how to
    assemble (table path / in-process compile / bare planner) as
    picklable values; :meth:`build` turns it into an engine
    wherever it lands.
    """

    d: int
    k: int
    table_path: Optional[str] = None  #: mmap-load this compiled table
    compile_table: bool = False  #: compile the undirected table in-process
    use_wildcards: bool = False

    def build(
        self, registry: Optional[MetricsRegistry] = None
    ) -> "RouteQueryEngine":
        """Construct the engine this spec describes (see class docs)."""
        table = None
        if self.table_path is not None:
            table = CompiledRouteTable.load(self.table_path)
            if (table.d, table.k) != (self.d, self.k):
                table.close()
                raise ServiceError(
                    f"{self.table_path} holds DG({table.d},{table.k}), "
                    f"spec wants DG({self.d},{self.k})"
                )
        elif self.compile_table:
            table = CompiledRouteTable.compile(self.d, self.k)
        return RouteQueryEngine(
            self.d,
            self.k,
            table=table,
            use_wildcards=self.use_wildcards,
            registry=registry,
        )


def build_engine(spec: EngineSpec) -> RouteQueryEngine:
    """Module-level :meth:`EngineSpec.build` (a picklable fork target)."""
    return spec.build()

