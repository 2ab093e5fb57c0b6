"""E24 — Wire-level chaos campaign: the hardened stack vs real faults.

E19/E20 injected faults into the *simulated* network; this bench
injects them into real sockets.  A :class:`~repro.service.supervisor.
SupervisorThread` fleet serves DG(2,10) behind the fault-injecting TCP
proxy of :mod:`repro.service.chaosproxy`, whose seeded
:class:`~repro.service.chaosproxy.FaultPlan` makes every campaign
replayable: the same seed re-draws the same per-connection fates
(which connections reset mid-frame, which trickle) and the same
per-chunk corruption decisions.

The campaign, per fault class (baseline / latency+jitter / bandwidth
cap / mid-frame resets / corruption+truncation / slow-loris trickle):

1. **Robust client** — a 10k-query burst through the proxy with
   progress-aware retries, deadline budget and adaptive window
   (:class:`~repro.service.client.RobustRouteClient`).  The bar:
   **zero lost queries** for every class, plus a bounded-latency
   probe (p99 of a closed-loop step under the same faults must stay
   under ``P99_BOUND_MS``).
2. **Naive client** — the plain pipelining client, one attempt
   (reset and corruption classes only; a naive client on a trickled
   wire just hangs).  The bar is the *contrast*: resets and corruption
   must cause measurable loss without the hardening.

Two scenarios ride along:

* **Partition / heal** — the proxy black-holes all traffic; the
  client's circuit breaker must open, and after :meth:`heal` the
  first successful burst must land within one breaker probe interval.
* **Hung worker** — SIGSTOP a worker: the pid stays alive and the
  socket stays open, so only the supervisor's heartbeat can tell.
  The bar: detection + SIGKILL + respawn within the heartbeat budget,
  accounted against the same ``max_restarts`` budget as crashes.

Records append to ``BENCH_service_chaos.json`` (``bench="service_chaos"``).
``test_service_chaos_smoke`` is the CI ``chaos-e2e-smoke`` companion:
a small fleet, reset+latency faults, a 400-query robust burst, zero
loss.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time
from dataclasses import asdict
from typing import Dict, Optional

import pytest

from repro.analysis.tables import format_kv_block, format_table
from repro.benchio import append_record
from repro.core.parallel import available_cpus, compile_table_buffers
from repro.core.tables import CompiledRouteTable
from repro.core.word import random_word
from repro.exceptions import ServiceError
from repro.service.chaosproxy import ChaosProxyThread, FaultPlan
from repro.service.client import (
    BreakerConfig,
    RetryPolicy,
    RobustRouteClient,
    run_burst,
    run_robust_burst,
)
from repro.service.engine import EngineSpec
from repro.service.loadgen import LoadScenario, measure_step
from repro.service.server import ServerConfig
from repro.service.supervisor import SupervisorConfig, SupervisorThread

import random as _random

GRAPH = (2, 10)
N_QUERIES = 10_000
SEED = 0xE24
PLAN_SEED = "e24"
#: Closed-loop p99 bound under every fault class ("bounded", not "tight";
#: a retried batch pays backoff + a fresh attempt).
P99_BOUND_MS = 5_000.0
#: Breaker probe interval for the partition scenario; recovery after
#: heal must land within one interval.
PROBE_SECONDS = 1.0
JSON_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                         "BENCH_service_chaos.json")

#: The campaign grid.  Every plan shares PLAN_SEED, so the whole
#: campaign replays from one seed.
FAULT_CLASSES = [
    ("baseline", FaultPlan(seed=PLAN_SEED)),
    ("latency", FaultPlan(seed=PLAN_SEED, latency_ms=1.0, jitter_ms=2.0)),
    ("bandwidth", FaultPlan(seed=PLAN_SEED, bandwidth_kbps=2_000.0)),
    ("reset", FaultPlan(seed=PLAN_SEED, reset_rate=1.0)),
    ("corruption", FaultPlan(seed=PLAN_SEED, corrupt_rate=0.05,
                             truncate_rate=0.02)),
    ("trickle", FaultPlan(seed=PLAN_SEED, trickle_rate=0.25,
                          trickle_interval=0.02)),
]
#: Classes where the naive client must show measurable loss (the rest
#: either lose nothing even naively, or simply hang a naive client).
NAIVE_CLASSES = {"baseline", "reset", "corruption"}

ROBUST_POLICY = RetryPolicy(retries=8, deadline=120.0, attempt_timeout=5.0,
                            seed="e24-robust")
ROBUST_BREAKER = BreakerConfig(failure_threshold=8,
                               probe_interval=PROBE_SECONDS)


def _spec(tmp_path, d: int, k: int) -> EngineSpec:
    """Compile DG(d,k) once and describe it as a shared mmap table."""
    dist, act = compile_table_buffers(d, k, directed=False,
                                     workers=min(4, available_cpus()))
    table = CompiledRouteTable(d, k, False, bytes(act), bytes(dist))
    path = str(tmp_path / f"chaos-{d}-{k}.routes")
    table.save(path)
    return EngineSpec(d, k, table_path=path)


def _fleet_config(workers: int = 2) -> SupervisorConfig:
    """A hardened fleet: read deadlines + admission cap on every worker."""
    return SupervisorConfig(
        workers=workers,
        server=ServerConfig(read_timeout=5.0, max_connections=256),
    )


def _pairs(d: int, k: int, count: int, seed: int):
    rng = _random.Random(seed)
    return [(random_word(d, k, rng), random_word(d, k, rng))
            for _ in range(count)]


def _robust_burst(port: int, pairs, d: int) -> Dict[str, object]:
    """One hardened burst through the proxy; returns the scorecard."""
    outcome, client_stats = run_robust_burst(
        "127.0.0.1", port, pairs, d, want_path=False,
        pool_size=2, window=256,
        policy=ROBUST_POLICY, breaker=ROBUST_BREAKER)
    counters = client_stats.get("counters", {})
    return {
        "queries": len(outcome.replies),
        "ok": outcome.ok_count,
        "lost": outcome.lost_count,
        "elapsed_s": round(outcome.elapsed, 3),
        "qps": round(outcome.qps, 1),
        "client": {name: counters[name] for name in sorted(counters)},
    }


def _naive_burst(port: int, pairs, d: int) -> Dict[str, object]:
    """The plain client, one attempt: the contrast measurement."""
    try:
        outcome = run_burst("127.0.0.1", port, pairs, d,
                            want_path=False, pool_size=2, window=256)
    except (ServiceError, ConnectionError, OSError) as exc:
        return {"completed": False, "lost": len(pairs),
                "error": type(exc).__name__}
    errors = len(outcome.replies) - outcome.ok_count
    return {"completed": True, "lost": errors, "ok": outcome.ok_count,
            "error": None}


def _p99_probe(port: int, scenario: LoadScenario) -> Dict[str, object]:
    """A short closed-loop step under the same faults: the p99 bound."""
    step = measure_step(
        "127.0.0.1", port, scenario, duration=2.0, connections=2,
        batch=8, policy=ROBUST_POLICY, breaker=ROBUST_BREAKER)
    return {"queries": step.queries, "lost": step.failures,
            "p50_ms": round(step.p50_ms, 3), "p99_ms": round(step.p99_ms, 3)}


def _measure_class(name: str, plan: FaultPlan, spec: EngineSpec,
                   pairs, scenario: LoadScenario) -> Dict[str, object]:
    """One fault class: fresh fleet, fresh proxy, robust + naive runs."""
    d = spec.d
    row: Dict[str, object] = {"class": name, "plan": asdict(plan)}
    with SupervisorThread(spec, _fleet_config()) as fleet:
        with ChaosProxyThread("127.0.0.1", fleet.port, plan) as proxy:
            row["robust"] = _robust_burst(proxy.port, pairs, d)
            row["probe"] = _p99_probe(proxy.port, scenario)
            if name in NAIVE_CLASSES:
                row["naive"] = _naive_burst(proxy.port, pairs, d)
            else:
                row["naive"] = None
            counters = proxy.snapshot().get("counters", {})
            row["proxy"] = {k: counters[k] for k in sorted(counters)}
    return row


def _measure_partition(spec: EngineSpec, d: int, k: int) -> Dict[str, object]:
    """Partition -> breaker opens; heal -> recovery within one probe.

    One :class:`RobustRouteClient` lives across the whole scenario so
    the breaker state carries over: opened by the partition, it must
    half-open on its next probe after the heal and close again — the
    recovery time is gated by the probe interval, which is exactly
    what the bar measures.
    """
    policy = RetryPolicy(retries=50, deadline=2.0, attempt_timeout=0.4,
                         backoff_base=0.02, backoff_max=0.2,
                         seed="e24-part")
    breaker = BreakerConfig(failure_threshold=3,
                            probe_interval=PROBE_SECONDS)
    row: Dict[str, object] = {"probe_interval_s": PROBE_SECONDS}
    with SupervisorThread(spec, _fleet_config()) as fleet:
        with ChaosProxyThread("127.0.0.1", fleet.port,
                              FaultPlan(seed=PLAN_SEED)) as proxy:

            async def _scenario() -> None:
                async with RobustRouteClient(
                    "127.0.0.1", proxy.port, d=d,
                    policy=policy, breaker=breaker,
                ) as client:
                    out = await client.query_many(
                        _pairs(d, k, 50, 11), want_path=False)
                    assert out.lost_count == 0, \
                        "pre-partition burst lost queries"

                    proxy.partition()
                    out = await client.query_many(
                        _pairs(d, k, 50, 12), want_path=False)
                    counters = client.registry.snapshot()["counters"]
                    row["during_partition_lost"] = out.lost_count
                    row["breaker_opens"] = counters.get(
                        "client.breaker_open", 0)

                    proxy.heal()
                    healed_at = time.perf_counter()
                    out = await client.query_many(
                        _pairs(d, k, 50, 13), want_path=False)
                    row["recovery_s"] = round(
                        time.perf_counter() - healed_at, 3)
                    row["post_heal_lost"] = out.lost_count

            asyncio.run(_scenario())
    return row


def _measure_hung_worker(spec: EngineSpec) -> Dict[str, object]:
    """SIGSTOP a worker; the heartbeat must recycle it under budget."""
    config = SupervisorConfig(
        workers=2, max_restarts=3,
        heartbeat_interval=0.2, heartbeat_timeout=1.0,
        server=ServerConfig(read_timeout=5.0))
    budget_s = config.heartbeat_timeout + 5 * config.heartbeat_interval + 4.0
    row: Dict[str, object] = {
        "heartbeat_interval_s": config.heartbeat_interval,
        "heartbeat_timeout_s": config.heartbeat_timeout,
        "budget_s": budget_s,
    }
    with SupervisorThread(spec, config) as fleet:
        victim = fleet.worker_pids()[0]
        os.kill(victim, signal.SIGSTOP)
        stopped_at = time.perf_counter()
        detected: Optional[float] = None
        while time.perf_counter() - stopped_at < budget_s:
            agg = fleet.aggregate()
            hung = agg.get("fleet", {}).get("hung_recycles", 0)
            pids = fleet.worker_pids()
            if hung >= 1 and len(pids) == config.workers \
                    and victim not in pids:
                detected = time.perf_counter() - stopped_at
                break
            time.sleep(0.1)
        agg = fleet.aggregate()
        row["detected_and_respawned_s"] = (
            round(detected, 3) if detected is not None else None)
        row["hung_recycles"] = agg.get("fleet", {}).get("hung_recycles", 0)
        row["restarts_used"] = agg.get("fleet", {}).get("restarts", 0)
    return row


def test_service_chaos(benchmark, report, tmp_path):
    """The full E24 campaign; appends to BENCH_service_chaos.json."""
    d, k = GRAPH
    scenario = LoadScenario(d=d, k=k, want_path=False, seed=SEED)
    pairs = _pairs(d, k, N_QUERIES, SEED)

    def measure() -> Dict[str, object]:
        spec = _spec(tmp_path, d, k)
        record: Dict[str, object] = {
            "graph": {"d": d, "k": k, "n": d ** k},
            "n_queries": N_QUERIES,
            "plan_seed": PLAN_SEED,
            "policy": asdict(ROBUST_POLICY),
            "p99_bound_ms": P99_BOUND_MS,
        }
        record["classes"] = [
            _measure_class(name, plan, spec, pairs, scenario)
            for name, plan in FAULT_CLASSES
        ]
        record["partition"] = _measure_partition(spec, d, k)
        record["hung_worker"] = _measure_hung_worker(spec)
        return record

    record = benchmark.pedantic(measure, rounds=1, iterations=1)
    append_record(JSON_PATH, record, bench="service_chaos")

    report(f"E24 — DG({d},{k}) wire-level chaos campaign, "
           f"{N_QUERIES} queries per class (plan seed {PLAN_SEED!r})\n"
           + format_table(
               ["class", "robust lost", "robust qps", "probe p99 ms",
                "naive lost", "retries", "resets inj"],
               [[row["class"], row["robust"]["lost"],
                 row["robust"]["qps"], row["probe"]["p99_ms"],
                 ("-" if row["naive"] is None
                  else row["naive"]["lost"]),
                 row["robust"]["client"].get("client.retries", 0),
                 row["proxy"].get("proxy.resets_injected", 0)]
                for row in record["classes"]], precision=1))
    part = record["partition"]
    hung = record["hung_worker"]
    report(format_kv_block("partition / heal + hung worker", [
        ("breaker opens during partition", part["breaker_opens"]),
        ("recovery after heal s", part["recovery_s"]),
        ("probe interval s", part["probe_interval_s"]),
        ("hung detected+respawned s", hung["detected_and_respawned_s"]),
        ("hung recycles", hung["hung_recycles"]),
        ("restart budget used", hung["restarts_used"]),
    ]))

    # -- acceptance: the hardened stack loses nothing, anywhere --------
    for row in record["classes"]:
        assert row["robust"]["lost"] == 0, (
            f"{row['class']}: robust client lost "
            f"{row['robust']['lost']} of {N_QUERIES} queries")
        assert row["probe"]["lost"] == 0, (
            f"{row['class']}: closed-loop probe lost queries")
        assert row["probe"]["p99_ms"] <= P99_BOUND_MS, (
            f"{row['class']}: p99 {row['probe']['p99_ms']} ms over the "
            f"{P99_BOUND_MS} ms bound")

    # -- and the contrast: without hardening, faults mean loss ---------
    by_class = {row["class"]: row for row in record["classes"]}
    assert by_class["baseline"]["naive"]["lost"] == 0, (
        "naive client lost queries on a clean wire")
    for name in ("reset", "corruption"):
        assert by_class[name]["naive"]["lost"] > 0, (
            f"{name}: the naive client lost nothing — the fault class "
            f"is not actually biting")
        assert by_class[name]["proxy"].get(
            "proxy.resets_injected", 0) + by_class[name]["proxy"].get(
            "proxy.bytes_corrupted", 0) > 0, (
            f"{name}: the proxy injected no faults")

    # -- partition heals within one probe interval ---------------------
    assert part["breaker_opens"] >= 1, "the breaker never opened"
    assert part["post_heal_lost"] == 0, "queries lost after heal"
    assert part["recovery_s"] <= part["probe_interval_s"] + 0.25, (
        f"recovery took {part['recovery_s']} s, over one probe "
        f"interval ({part['probe_interval_s']} s)")

    # -- hung worker: detected, recycled, budget-accounted -------------
    assert hung["detected_and_respawned_s"] is not None, (
        f"hung worker not recycled within {hung['budget_s']} s")
    assert hung["hung_recycles"] >= 1
    assert hung["restarts_used"] >= 1, (
        "hung recycle did not charge the shared restart budget")


@pytest.mark.smoke
def test_service_chaos_smoke(tmp_path):
    """CI chaos-e2e-smoke: reset+latency faults, zero loss, ~seconds."""
    d, k = 2, 8
    spec = _spec(tmp_path, d, k)
    plan = FaultPlan(seed="e24-smoke", reset_rate=0.5, latency_ms=1.0)
    pairs = _pairs(d, k, 400, SEED)
    with SupervisorThread(spec, _fleet_config()) as fleet:
        with ChaosProxyThread("127.0.0.1", fleet.port, plan) as proxy:
            row = _robust_burst(proxy.port, pairs, d)
            counters = proxy.snapshot().get("counters", {})
    assert row["lost"] == 0, f"smoke lost {row['lost']} queries"
    assert row["ok"] == len(pairs)
    assert counters.get("proxy.connections", 0) >= 1
