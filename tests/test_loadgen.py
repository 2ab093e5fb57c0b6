"""Tests for the closed-loop load generator: steps, sweeps, soaks."""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys

import pytest

from repro.exceptions import ServiceError
from repro.service.engine import RouteQueryEngine
from repro.service.loadgen import (
    LoadScenario,
    StepResult,
    _percentile,
    fleet_rss_bytes,
    read_rss_bytes,
    run_soak,
    run_step,
    run_sweep,
)
from repro.service.server import RouteQueryServer, ServerConfig


def run(coro):
    return asyncio.run(coro)


SCENARIO = LoadScenario(d=2, k=6, want_path=False)


async def _with_server(work):
    """Run ``work(port)`` against a fresh in-loop table-tier server."""
    from repro.core.tables import CompiledRouteTable

    engine = RouteQueryEngine(2, 6, table=CompiledRouteTable.compile(2, 6))
    async with RouteQueryServer(engine, ServerConfig()) as server:
        return await work(server.port), server.snapshot()


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def test_percentile_is_exact_on_known_samples():
    samples = sorted(float(v) for v in range(1, 101))
    assert _percentile(samples, 1.0) == 100.0
    assert _percentile(samples, 0.5) == pytest.approx(50.5)
    assert _percentile(samples, 0.99) == pytest.approx(99.01)
    assert _percentile([], 0.5) == 0.0
    assert _percentile([7.0], 0.99) == 7.0


def test_rss_reading_on_this_platform():
    rss = read_rss_bytes(os.getpid())
    if rss is not None:  # Linux
        assert rss > 1 << 20
        total = fleet_rss_bytes([os.getpid(), os.getpid()])
        assert total == 2 * rss or total > 0  # racy second read is fine
    assert read_rss_bytes(2**22 + 12345) is None  # no such pid


_MAPPER = """
import mmap, sys
print("ready", flush=True)
sys.stdin.readline()
with open(sys.argv[1], "rb") as handle:
    table = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    touched = sum(table[at] for at in range(0, len(table), mmap.PAGESIZE))
print("mapped", flush=True)
sys.stdin.readline()
"""


def _vmrss_bytes(pid):
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    raise AssertionError(f"pid {pid} has no VmRSS line")


def test_soak_rss_reading_leaves_out_mapped_file_pages(tmp_path):
    """A worker that faults in a mapped table after the soak's first
    RSS sample grows VmRSS by the table's size without leaking; the
    soak's reading must not move."""
    if read_rss_bytes(os.getpid()) is None:
        pytest.skip("no RssAnon in /proc on this platform")
    table = tmp_path / "table.bin"
    table.write_bytes(b"\x01" * (16 << 20))
    # Leaving the block closes the child's stdin, which ends it.
    with subprocess.Popen([sys.executable, "-c", _MAPPER, str(table)],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          text=True) as child:
        assert child.stdout.readline().strip() == "ready"
        vmrss_first = _vmrss_bytes(child.pid)
        soak_first = fleet_rss_bytes([child.pid])
        child.stdin.write("map\n")
        child.stdin.flush()
        assert child.stdout.readline().strip() == "mapped"
        vmrss_last = _vmrss_bytes(child.pid)
        soak_last = fleet_rss_bytes([child.pid])
    assert vmrss_last - vmrss_first > 12 << 20
    assert abs(soak_last - soak_first) < 1 << 20


def test_step_result_slo_logic():
    good = StepResult(None, 1.0, 1000, 1000, 0, 0, 1000.0,
                      1.0, 2.0, 3.0, 4.0, slo_ms=50.0)
    assert good.within_slo and good.ok_fraction == 1.0
    slow = StepResult(None, 1.0, 1000, 1000, 0, 0, 1000.0,
                      1.0, 2.0, 60.0, 80.0, slo_ms=50.0)
    assert not slow.within_slo
    lossy = StepResult(None, 1.0, 1000, 990, 0, 10, 1000.0,
                       1.0, 2.0, 3.0, 4.0, slo_ms=50.0)
    assert not lossy.within_slo  # ok fraction below 99.9 %
    unrated = StepResult(None, 1.0, 10, 10, 0, 0, 10.0,
                         1.0, 2.0, 3.0, 4.0)
    assert unrated.within_slo  # no SLO configured

    row = good.to_row()
    assert row["within_slo"] is True and row["queries"] == 1000


def test_scenario_pairs_are_reproducible():
    import random

    first = SCENARIO.pairs(random.Random(3), 5)
    second = SCENARIO.pairs(random.Random(3), 5)
    assert first == second
    assert all(len(x) == 6 and len(y) == 6 for x, y in first)


# ----------------------------------------------------------------------
# Closed-loop steps
# ----------------------------------------------------------------------


def test_run_step_unpaced_answers_and_measures():
    async def work(port):
        return await run_step("127.0.0.1", port, SCENARIO,
                              duration=0.4, connections=2, batch=4)

    step, snapshot = run(_with_server(work))
    assert step.ok > 0 and step.failures == 0 and step.errors == 0
    assert step.achieved_qps > 0
    assert 0.0 < step.p50_ms <= step.p99_ms <= step.max_ms
    assert snapshot["counters"]["server.replies"] >= step.ok


def test_run_step_paced_tracks_offered_rate():
    async def work(port):
        return await run_step("127.0.0.1", port, SCENARIO,
                              duration=1.0, connections=2,
                              offered_qps=400.0, batch=4, slo_ms=100.0)

    step, _ = run(_with_server(work))
    # A paced step on an idle server should achieve roughly its offered
    # rate — generous bounds keep this stable on loaded CI hosts.
    assert 100.0 <= step.achieved_qps <= 800.0
    assert step.offered_qps == 400.0
    assert step.within_slo


def test_run_step_validates_inputs():
    with pytest.raises(ServiceError):
        run(run_step("127.0.0.1", 1, SCENARIO, connections=0))
    with pytest.raises(ServiceError):
        run(run_step("127.0.0.1", 1, SCENARIO, offered_qps=-5.0))


# ----------------------------------------------------------------------
# Sweep: knee detection
# ----------------------------------------------------------------------


def test_run_sweep_finds_knee_on_idle_server():
    async def work(port):
        return await run_sweep("127.0.0.1", port, SCENARIO,
                               rates=[100.0, 300.0], slo_ms=200.0,
                               step_duration=0.5, connections=2,
                               batch=4, warmup=0.1)

    sweep, _ = run(_with_server(work))
    assert len(sweep.steps) == 2
    assert sweep.knee is not None
    assert sweep.sustained_qps > 0
    row = sweep.to_row()
    assert row["slo_ms"] == 200.0
    assert len(row["steps"]) == 2


def test_run_sweep_stops_after_consecutive_breaches():
    # An impossible SLO makes every step breach; the walk must stop
    # after ``stop_after_breach`` steps instead of finishing the ladder.
    async def work(port):
        return await run_sweep("127.0.0.1", port, SCENARIO,
                               rates=[50.0, 60.0, 70.0, 80.0, 90.0],
                               slo_ms=1e-9, step_duration=0.2,
                               connections=1, batch=2, warmup=0.0,
                               stop_after_breach=2)

    sweep, _ = run(_with_server(work))
    assert sweep.knee is None
    assert sweep.sustained_qps == 0.0
    assert len(sweep.steps) == 2


# ----------------------------------------------------------------------
# Soak: churn, slams, drift accounting
# ----------------------------------------------------------------------


def test_run_soak_smoke_with_churn_and_slams():
    async def work(port):
        return await run_soak("127.0.0.1", port, SCENARIO,
                              duration=2.0, connections=2,
                              rss_pids=[os.getpid()],
                              churn_every=0.5, slam_size=64, batch=4)

    soak, snapshot = run(_with_server(work))
    assert soak.queries > 0 and soak.failures == 0
    assert soak.slams >= 1
    assert soak.reconnects >= 1
    assert len(soak.quartile_p99_ms) == 4
    assert all(v >= 0.0 for v in soak.quartile_p99_ms)
    if soak.rss_first_bytes is not None:  # Linux
        assert soak.rss_drift is not None
        assert abs(soak.rss_drift) < 1.0
    degradation = soak.p99_degradation
    assert degradation is None or degradation > 0.0
    row = soak.to_row()
    assert row["queries"] == soak.queries
    # Slams with window=0 hit the admission path; whatever was not
    # OVERLOADED was answered.
    assert snapshot["counters"]["server.replies"] >= soak.ok
