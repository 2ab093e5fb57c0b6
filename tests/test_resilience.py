"""Tests for local detours, table repair, and self-healing tables."""

from __future__ import annotations

import random

import pytest

from repro.core.arraybfs import reference_table_rows
from repro.core.routing import path_words
from repro.core.tables import CompiledRouteTable
from repro.exceptions import InvalidParameterError
from repro.network.resilience import (
    LocalDetourPolicy,
    SelfHealingRouteTable,
    compile_with_failures,
    repair_route_table,
)
from repro.network.router import BidirectionalOptimalRouter, TableDrivenRouter
from repro.network.simulator import Simulator

CONFIGS = [(2, 4, False), (2, 5, False), (3, 3, False), (2, 4, True)]


def _bytes_of(table):
    return bytes(table.actions), bytes(table.distances)


# ----------------------------------------------------------------------
# Repair: byte identity against the full recompile and the python oracle
# ----------------------------------------------------------------------


@pytest.mark.parametrize("d,k,directed", CONFIGS)
def test_repair_is_byte_identical_to_full_recompile(d, k, directed):
    table = CompiledRouteTable.compile(d, k, directed=directed, workers=1)
    n = table.order
    rng = random.Random(f"repair:{d}:{k}:{directed}")
    for _ in range(8):
        failed = rng.sample(range(n), rng.randint(1, max(1, n // 6)))
        patched = table.thaw()
        repair_route_table(patched, failed)
        reference = compile_with_failures(d, k, directed, failed)
        assert _bytes_of(patched) == _bytes_of(reference)
        oracle_dist, oracle_act = reference_table_rows(
            d, k, range(n), directed, blocked=failed)
        assert _bytes_of(patched) == (bytes(oracle_act), bytes(oracle_dist))


@pytest.mark.parametrize("d,k,directed", CONFIGS)
def test_repair_moves_a_repaired_table_to_another_fault_set(d, k, directed):
    n = d**k
    rng = random.Random(f"re-repair:{d}:{k}:{directed}")
    first = rng.sample(range(n), max(1, n // 6))
    for second in ([], rng.sample(range(n), 1),
                   rng.sample(range(n), max(1, n // 4)), first[:1]):
        table = compile_with_failures(d, k, directed, first)
        repair_route_table(table, second)
        reference = compile_with_failures(d, k, directed, second)
        assert _bytes_of(table) == _bytes_of(reference)


def test_repair_with_word_tuple_failures():
    table = CompiledRouteTable.compile(2, 4, workers=1)
    patched = table.thaw()
    repair_route_table(patched, [(0, 1, 1, 0)])
    packed = table.space.pack((0, 1, 1, 0))
    reference = compile_with_failures(2, 4, failed=[packed])
    assert _bytes_of(patched) == _bytes_of(reference)


def test_repair_of_empty_failed_set_is_a_noop():
    table = CompiledRouteTable.compile(2, 4, workers=1).thaw()
    before = _bytes_of(table)
    repair_route_table(table, [])
    assert _bytes_of(table) == before


def test_repair_refuses_immutable_buffers():
    table = CompiledRouteTable.compile(2, 3, workers=1)  # bytes buffers
    with pytest.raises(InvalidParameterError):
        repair_route_table(table, [0])


def test_repair_rejects_out_of_range_packed_site():
    table = CompiledRouteTable.compile(2, 3, workers=1).thaw()
    with pytest.raises(InvalidParameterError):
        repair_route_table(table, [table.order])


def test_compile_with_failures_empty_set_matches_plain_compile():
    plain = CompiledRouteTable.compile(2, 4, workers=1)
    reference = compile_with_failures(2, 4)
    assert _bytes_of(plain) == _bytes_of(reference)


def test_failed_destination_row_reads_unreachable():
    table = CompiledRouteTable.compile(2, 4, workers=1).thaw()
    dead = 5
    repair_route_table(table, [dead])
    n = table.order
    assert bytes(table.actions[dead * n:(dead + 1) * n]) == b"\xff" * n
    # And nobody routes *through* the dead site: its column is cut too.
    for y in range(n):
        assert table.actions[y * n + dead] == 0xFF or y == dead


# ----------------------------------------------------------------------
# thaw
# ----------------------------------------------------------------------


def test_thaw_copies_and_decouples():
    table = CompiledRouteTable.compile(2, 3, workers=1)
    thawed = table.thaw()
    assert not table.mutable and thawed.mutable
    assert _bytes_of(table) == _bytes_of(thawed)
    thawed.actions[0] = 0xFF
    assert table.actions[0] != 0xFF or _bytes_of(table) != _bytes_of(thawed)


# ----------------------------------------------------------------------
# Self-healing tables under churn
# ----------------------------------------------------------------------


def test_self_healing_tracks_churn_and_reverts():
    base = CompiledRouteTable.compile(2, 4, workers=1)
    healer = SelfHealingRouteTable(base.thaw())
    rng = random.Random("churn")
    n = base.order
    for _ in range(10):
        failed = rng.sample(range(n), rng.randint(0, n // 4))
        healer.sync(failed)
        reference = compile_with_failures(2, 4, failed=failed)
        assert _bytes_of(healer.table) == _bytes_of(reference)
    healer.sync([])
    assert _bytes_of(healer.table) == _bytes_of(base)


def test_self_healing_sync_is_idempotent():
    healer = SelfHealingRouteTable(
        CompiledRouteTable.compile(2, 3, workers=1).thaw())
    assert healer.sync([2]) is not None
    assert healer.sync([2]) is None  # same failed set: no work
    assert healer.repairs == 1


def test_self_healing_thaws_immutable_input():
    table = CompiledRouteTable.compile(2, 3, workers=1)  # immutable
    healer = SelfHealingRouteTable(table)
    assert healer.table.mutable
    healer.sync([1])  # must not raise


# ----------------------------------------------------------------------
# Local detours in the simulator
# ----------------------------------------------------------------------


def _midpoint_packed(table, source, destination):
    """The packed first hop the compiled table picks for the pair."""
    space = table.space
    return table.next_hop_packed(space.pack(source), space.pack(destination))


def test_table_mode_detour_beats_oblivious_drop():
    table = CompiledRouteTable.compile(2, 4, workers=1)
    space = table.space
    dead = (0, 1, 1, 0)
    router = TableDrivenRouter(table=table)

    def run(policy):
        sim = Simulator(2, 4, detour_policy=policy)
        sim.fail_node(dead, at=0.0)
        t = 1.0
        for value in range(table.order):
            source = space.unpack(value)
            for dest_value in (table.order - 1, 1):
                destination = space.unpack(dest_value)
                if dead in (source, destination) or source == destination:
                    continue
                sim.send(source, destination, router, at=t)
                t += 1.0
        return sim.run()

    oblivious = run(None)
    detoured = run(LocalDetourPolicy(table))
    assert oblivious.dropped_count > 0  # the failure actually bites
    assert detoured.delivered_count > oblivious.delivered_count
    assert detoured.detoured > 0


def test_table_mode_detour_avoids_the_failed_hop():
    table = CompiledRouteTable.compile(2, 4, workers=1)
    space = table.space
    source, destination = (0, 0, 0, 1), (1, 1, 1, 1)
    dead = space.unpack(_midpoint_packed(table, source, destination))
    sim = Simulator(2, 4, detour_policy=LocalDetourPolicy(table))
    sim.fail_node(dead, at=0.0)
    message = sim.send(source, destination, TableDrivenRouter(table=table),
                       at=1.0)
    stats = sim.run()
    assert stats.delivered_count == 1
    assert dead not in message.trace
    assert message.detours_used >= 1
    assert stats.detoured >= 1


def test_detour_budget_exhaustion_falls_back_to_drop():
    table = CompiledRouteTable.compile(2, 4, workers=1)
    space = table.space
    source, destination = (0, 0, 0, 1), (1, 1, 1, 1)
    dead = space.unpack(_midpoint_packed(table, source, destination))
    policy = LocalDetourPolicy(table, max_detours=0)
    sim = Simulator(2, 4, detour_policy=policy)
    sim.fail_node(dead, at=0.0)
    sim.send(source, destination, TableDrivenRouter(table=table), at=1.0)
    stats = sim.run()
    assert stats.delivered_count == 0
    assert stats.dropped_count == 1
    assert stats.detoured == 0


def test_path_mode_detour_uses_disjoint_family():
    table = CompiledRouteTable.compile(2, 4, workers=1)
    router = BidirectionalOptimalRouter(use_wildcards=False)
    source, destination = (0, 0, 0, 1), (1, 1, 1, 1)
    first_hop = path_words(source, router.plan(source, destination), 2)[1]
    sim = Simulator(2, 4, detour_policy=LocalDetourPolicy(table))
    sim.fail_node(first_hop, at=0.0)
    message = sim.send(source, destination, router, at=1.0)
    stats = sim.run()
    assert stats.delivered_count == 1
    assert first_hop not in message.trace
    assert stats.detoured >= 1


def test_detour_preferred_over_omniscient_reroute():
    # With both enabled, the local detour handles the block (detoured
    # increments) before the omniscient reroute is even consulted.
    table = CompiledRouteTable.compile(2, 4, workers=1)
    space = table.space
    source, destination = (0, 0, 0, 1), (1, 1, 1, 1)
    dead = space.unpack(_midpoint_packed(table, source, destination))
    sim = Simulator(2, 4, reroute_on_failure=True,
                    detour_policy=LocalDetourPolicy(table))
    sim.fail_node(dead, at=0.0)
    sim.send(source, destination, TableDrivenRouter(table=table), at=1.0)
    stats = sim.run()
    assert stats.delivered_count == 1
    assert stats.detoured >= 1
    assert stats.rerouted == 0


def test_repaired_table_routes_around_failure_without_detours():
    base = CompiledRouteTable.compile(2, 4, workers=1)
    space = base.space
    source, destination = (0, 0, 0, 1), (1, 1, 1, 1)
    dead = space.unpack(_midpoint_packed(base, source, destination))
    healer = SelfHealingRouteTable(base.thaw())
    healer.sync([dead])
    sim = Simulator(2, 4)
    sim.fail_node(dead, at=0.0)
    message = sim.send(source, destination,
                       TableDrivenRouter(table=healer.table), at=1.0)
    stats = sim.run()
    assert stats.delivered_count == 1
    assert dead not in message.trace
    assert stats.detoured == 0  # the table itself already knows the way


def test_thaw_of_freshly_loaded_table_is_repairable(tmp_path):
    path = str(tmp_path / "dg.routes")
    original = CompiledRouteTable.compile(2, 4, workers=1)
    original.save(path)
    with open(path, "rb") as handle:
        disk_before = handle.read()

    loaded = CompiledRouteTable.load(path)  # read-only mmap
    assert not loaded.mutable
    working = loaded.thaw()
    assert working.mutable
    repair_route_table(working, [5])
    assert _bytes_of(working) == _bytes_of(
        compile_with_failures(2, 4, failed=[5]))
    # The read-only mapping is untouched by the thawed copy's repair...
    assert _bytes_of(loaded) == _bytes_of(original)
    loaded.close()
    # ...and so is the file on disk, byte for byte.
    with open(path, "rb") as handle:
        assert handle.read() == disk_before
