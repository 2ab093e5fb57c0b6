"""Tests for compiled route tables (repro.core.tables) and the
table-driven router/simulator fast path.

Coverage: compiled distances and paths against the Algorithm 1/2
planners, the one-byte action encoding round trip, save/mmap-load byte
identity, and full simulator parity (every message delivered through
the O(1) path with optimal hop counts, including under failures).
"""

from __future__ import annotations

import random

import pytest

from repro.core.arraybfs import reference_table_rows
from repro.core.distance import directed_distance, undirected_distance
from repro.core.packed import PackedSpace
from repro.core.routing import (
    Direction,
    RoutingStep,
    action_from_step,
    path_words,
    step_from_action,
)
from repro.core.tables import MAGIC, CompiledRouteTable, table_path
from repro.exceptions import InvalidParameterError, InvalidWordError, RoutingError
from repro.network.router import BidirectionalOptimalRouter, TableDrivenRouter
from repro.network.simulator import Simulator, run_workload

from tests.conftest import SMALL_GRAPHS, all_words, random_words


# ----------------------------------------------------------------------
# Action byte encoding
# ----------------------------------------------------------------------


def test_action_step_roundtrip():
    for d in (2, 3, 5):
        for a in range(d):
            left = step_from_action(a, d)
            assert left == RoutingStep(Direction.LEFT, a)
            assert action_from_step(left, d) == a
            right = step_from_action(d + a, d)
            assert right == RoutingStep(Direction.RIGHT, a)
            assert action_from_step(right, d) == d + a


def test_action_step_rejects_out_of_range():
    with pytest.raises(RoutingError):
        step_from_action(2 * 2, 2)  # first invalid byte for d=2
    with pytest.raises(RoutingError):
        action_from_step(RoutingStep(Direction.LEFT, None), 2)  # wildcard


def test_apply_action_matches_shift_semantics():
    space = PackedSpace(2, 4)
    value = space.pack((1, 0, 1, 1))
    assert space.unpack(space.apply_action(value, 0)) == (0, 1, 1, 0)
    assert space.unpack(space.apply_action(value, 2 + 1)) == (1, 1, 0, 1)
    with pytest.raises(InvalidWordError):
        space.apply_action(value, 4)


# ----------------------------------------------------------------------
# Compiled distances and paths vs the paper's planners
# ----------------------------------------------------------------------


@pytest.mark.parametrize("d,k", SMALL_GRAPHS, ids=lambda p: str(p))
def test_compiled_table_exhaustive_undirected(d, k):
    table = CompiledRouteTable.compile(d, k, workers=1)
    for x in all_words(d, k):
        for y in all_words(d, k):
            expected = undirected_distance(x, y)
            assert table.distance(x, y) == expected
            path = table.path(x, y)
            assert len(path) == expected
            assert path_words(x, path, d)[-1] == y


@pytest.mark.parametrize("d,k", [(2, 4), (3, 3)], ids=lambda p: str(p))
def test_compiled_table_exhaustive_directed(d, k):
    table = CompiledRouteTable.compile(d, k, directed=True, workers=1)
    for x in all_words(d, k):
        for y in all_words(d, k):
            expected = directed_distance(x, y)
            assert table.distance(x, y) == expected
            path = table.path(x, y)
            assert len(path) == expected
            assert all(step.direction is Direction.LEFT for step in path)


@pytest.mark.parametrize("d,k", [(2, 6), (3, 4)], ids=lambda p: str(p))
def test_table_router_matches_optimal_lengths(d, k):
    """The ISSUE acceptance pairing: table paths == Algorithm 2 lengths."""
    router = TableDrivenRouter(d=d, k=k, workers=2)
    optimal = BidirectionalOptimalRouter(use_wildcards=False)
    words = all_words(d, k)
    rng = random.Random(0x7AB1E)
    for _ in range(400):
        x, y = rng.choice(words), rng.choice(words)
        assert len(router.plan(x, y)) == len(optimal.plan(x, y))


def test_next_hop_decreases_distance():
    table = CompiledRouteTable.compile(2, 5, workers=1)
    router = TableDrivenRouter(table=table)
    space = table.space
    for x, y in zip(random_words(2, 5, 30, seed=1),
                    random_words(2, 5, 30, seed=2)):
        if x == y:
            continue
        step = router.next_hop(x, y)
        nxt = space.unpack(space.apply_action(space.pack(x),
                                              action_from_step(step, 2)))
        assert undirected_distance(nxt, y) == undirected_distance(x, y) - 1


def test_memory_cells_reports_compact_footprint():
    router = TableDrivenRouter(d=2, k=4)
    assert router.memory_cells() == 0  # nothing compiled yet
    router.plan((0, 0, 0, 0), (1, 1, 1, 1))
    n = 2**4
    assert router.memory_cells() == 2 * n * n  # action + distance bytes


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------


@pytest.mark.parametrize("use_mmap", [True, False], ids=["mmap", "read"])
def test_save_load_roundtrip_byte_identical(tmp_path, use_mmap):
    table = CompiledRouteTable.compile(3, 3, workers=1)
    path = str(tmp_path / "table.routes")
    written = table.save(path)
    # v2 layout: magic + fixed header + (body_crc, header_crc) + payload.
    assert written == len(MAGIC) + 12 + 8 + table.nbytes
    loaded = CompiledRouteTable.load(path, use_mmap=use_mmap)
    try:
        assert (loaded.d, loaded.k, loaded.directed) == (3, 3, False)
        assert bytes(loaded.actions) == bytes(table.actions)
        assert bytes(loaded.distances) == bytes(table.distances)
        for x, y in zip(random_words(3, 3, 20, seed=3),
                        random_words(3, 3, 20, seed=4)):
            assert loaded.distance(x, y) == table.distance(x, y)
    finally:
        loaded.close()
    assert table_path(path) == (3, 3, False)


def test_load_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.routes"
    bad.write_bytes(b"not a route table at all")
    with pytest.raises(InvalidParameterError):
        CompiledRouteTable.load(str(bad))
    truncated = tmp_path / "short.routes"
    table = CompiledRouteTable.compile(2, 2, workers=1)
    full = str(tmp_path / "full.routes")
    table.save(full)
    with open(full, "rb") as handle:
        truncated.write_bytes(handle.read()[:-5])
    with pytest.raises(InvalidParameterError):
        CompiledRouteTable.load(str(truncated))


def test_load_rejects_wrong_magic_and_corrupt_header(tmp_path):
    table = CompiledRouteTable.compile(2, 2, workers=1)
    full = str(tmp_path / "full.routes")
    table.save(full)
    with open(full, "rb") as handle:
        payload = bytearray(handle.read())

    # Right size, wrong magic: a shard file (or anything else) must not
    # load as a full table.
    wrong_magic = tmp_path / "magic.routes"
    swapped = bytearray(payload)
    swapped[:5] = b"DBRS\x01"
    wrong_magic.write_bytes(swapped)
    with pytest.raises(InvalidParameterError):
        CompiledRouteTable.load(str(wrong_magic))

    # Right magic and size, self-inconsistent header (order != d**k).
    corrupt = tmp_path / "corrupt.routes"
    broken = bytearray(payload)
    broken[5] = 3  # d: 2 -> 3 without touching the stored order
    corrupt.write_bytes(broken)
    with pytest.raises(InvalidParameterError):
        CompiledRouteTable.load(str(corrupt))

    # A shorter-than-header file dies on the magic check, not an unpack.
    stub = tmp_path / "stub.routes"
    stub.write_bytes(payload[:7])
    with pytest.raises(InvalidParameterError):
        CompiledRouteTable.load(str(stub))

    # The original still loads after all that slicing.
    loaded = CompiledRouteTable.load(full)
    try:
        assert bytes(loaded.actions) == bytes(table.actions)
    finally:
        loaded.close()


def test_save_is_atomic_and_checksummed(tmp_path):
    """Crash-safety of v2 saves: no torn files, corruption detected."""
    table = CompiledRouteTable.compile(2, 3, workers=1)
    path = str(tmp_path / "table.routes")
    table.save(path)

    # No temporary droppings survive a successful save.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.routes"]

    # A torn write (simulated: the new payload truncated mid-body, as a
    # crash between write and replace would leave a tmp file — or a
    # non-atomic writer would leave the real file) must not load.
    with open(path, "rb") as handle:
        payload = handle.read()
    torn = tmp_path / "torn.routes"
    torn.write_bytes(payload[: len(payload) // 2])
    with pytest.raises(InvalidParameterError):
        CompiledRouteTable.load(str(torn))

    # A single flipped header byte fails the header checksum.
    flipped = bytearray(payload)
    flipped[6] ^= 0xFF  # k field
    bad_header = tmp_path / "badheader.routes"
    bad_header.write_bytes(flipped)
    with pytest.raises(InvalidParameterError):
        CompiledRouteTable.load(str(bad_header))

    # A flipped body byte fails the body checksum on the full-read path.
    rotten = bytearray(payload)
    rotten[-1] ^= 0xFF
    bad_body = tmp_path / "badbody.routes"
    bad_body.write_bytes(rotten)
    with pytest.raises(InvalidParameterError):
        CompiledRouteTable.load(str(bad_body), use_mmap=False)


def test_load_accepts_legacy_v1_files(tmp_path):
    """Tables saved by the pre-checksum writer keep loading."""
    import struct as _struct

    table = CompiledRouteTable.compile(2, 3, workers=1)
    legacy = str(tmp_path / "legacy.routes")
    with open(legacy, "wb") as handle:
        handle.write(b"DBRT\x01")
        handle.write(_struct.pack("<BBBxQ", table.d, table.k,
                                  int(table.directed), table.order))
        handle.write(bytes(table.actions))
        handle.write(bytes(table.distances))
    for use_mmap in (True, False):
        loaded = CompiledRouteTable.load(legacy, use_mmap=use_mmap)
        try:
            assert bytes(loaded.actions) == bytes(table.actions)
            assert bytes(loaded.distances) == bytes(table.distances)
        finally:
            loaded.close()
    assert table_path(legacy) == (2, 3, False)


def test_compile_kernels_are_byte_identical():
    """The compiled table equals the python reference BFS byte for byte."""
    for directed in (False, True):
        dist, act = reference_table_rows(2, 6, range(2**6), directed)
        table = CompiledRouteTable.compile(2, 6, directed=directed, workers=1)
        assert bytes(table.actions) == bytes(act)
        assert bytes(table.distances) == bytes(dist)


# ----------------------------------------------------------------------
# Simulator integration
# ----------------------------------------------------------------------


def _random_injections(d, k, count, seed):
    rng = random.Random(seed)
    words = all_words(d, k)
    injections = []
    t = 0.0
    made = 0
    while made < count:
        x, y = rng.choice(words), rng.choice(words)
        if x == y:
            continue
        injections.append((t, x, y))
        t += 0.25
        made += 1
    return injections


@pytest.mark.parametrize("d,k", [(2, 5), (3, 3)], ids=lambda p: str(p))
def test_simulator_table_parity_with_optimal(d, k):
    """Table-driven runs deliver everything via the O(1) path with the
    same mean hop count as the Algorithm-2 router."""
    injections = _random_injections(d, k, 60, seed=9)
    table_stats = run_workload(Simulator(d, k),
                               TableDrivenRouter(d=d, k=k), injections)
    optimal_stats = run_workload(
        Simulator(d, k),
        BidirectionalOptimalRouter(use_wildcards=False), injections)
    assert table_stats.delivered_count == len(injections)
    assert table_stats.table_routed == table_stats.delivered_count
    assert table_stats.table_bytes == 2 * (d**k) ** 2
    assert table_stats.mean_hops() == optimal_stats.mean_hops()


def test_simulator_table_reroutes_around_failure():
    """A failed first hop knocks the message off the compiled route; the
    reroute machinery must still deliver it (route_table cleared)."""
    d, k = 2, 4
    table = CompiledRouteTable.compile(d, k, workers=1)
    space = table.space
    source, destination = (0, 1, 0, 1), (1, 1, 1, 0)
    assert table.distance(source, destination) >= 2
    first_hop = space.unpack(table.next_hop_packed(
        space.pack(source), space.pack(destination)))

    simulator = Simulator(d, k, reroute_on_failure=True)
    simulator.fail_node(first_hop, at=0.0)
    message = simulator.send(source, destination,
                             TableDrivenRouter(table=table), at=1.0)
    stats = simulator.run()
    assert stats.delivered_count == 1
    assert stats.rerouted >= 1
    assert message.route_table is None  # the detour left the table route


def test_simulator_drops_when_no_detour_exists():
    """With rerouting disabled, a failed table next hop is a clean drop."""
    d, k = 2, 4
    table = CompiledRouteTable.compile(d, k, workers=1)
    space = table.space
    source, destination = (0, 1, 0, 1), (1, 1, 1, 0)
    first_hop = space.unpack(table.next_hop_packed(
        space.pack(source), space.pack(destination)))
    simulator = Simulator(d, k, reroute_on_failure=False)
    simulator.fail_node(first_hop, at=0.0)
    simulator.send(source, destination, TableDrivenRouter(table=table),
                   at=1.0)
    stats = simulator.run()
    assert stats.delivered_count == 0
    assert stats.dropped_count == 1
