"""E25 — real-process cluster: detection, delivery, repair, recovery.

The earlier resilience experiments all ran inside the simulator.  E25
measures the same claims on real OS processes and real sockets: a
:class:`~repro.cluster.harness.ClusterHarness` fleet (one process per
prefix-shard group, SWIM membership over UDP) is SIGKILLed under a live
query burst, and the drill records

* **detection latency** — kill to each survivor's DEAD verdict, against
  the analytic SWIM bound;
* **per-phase delivery** — queries answered before / through / after
  the fault window, with the zero-lost invariant enforced;
* **repair** — wall time until every survivor's table digest is
  byte-identical to a fresh ``compile_with_failures``;
* **recovery** — a SIGSTOP'd node is convicted, then SIGCONT'd: it must
  refute, rejoin, and the fleet must converge back to the pristine
  table (detection-driven healing is reversible).

Results append to ``BENCH_cluster.json`` (benchio envelope).  The whole
bench is smoke-sized: small graph, fast SWIM timers.
"""

from __future__ import annotations

import logging
import os
import time
from typing import Dict, List

from repro.analysis.tables import format_kv_block, format_table
from repro.benchio import append_record
from repro.cluster.harness import ClusterHarness, ClusterSpec, run_kill_drill

JSON_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                         "BENCH_cluster.json")

SPEC = ClusterSpec(
    d=2, k=5, nodes=4,
    probe_interval=0.15, probe_timeout=0.08, suspicion_timeout=0.4,
    indirect_probes=1, repair_delay=0.25, seed="bench-e25",
)
DRILLS = 2
QUERIES = 1_200

# The victim's dying connections make asyncio's transport layer log one
# line per socket; that is the drill working, not a bench failure.
logging.getLogger("asyncio").setLevel(logging.CRITICAL)


def _pause_resume_recovery(workdir: str) -> Dict[str, float]:
    """SIGSTOP a node until conviction, SIGCONT it, time the rejoin."""
    with ClusterHarness(SPEC, workdir) as harness:
        harness.up()
        victim = SPEC.nodes - 1
        pause_stamp = harness.pause(victim)
        verdicts = harness.wait_for_verdict([victim])
        convict_s = max(verdicts.values()) - pause_stamp
        harness.wait_repaired([victim])

        resume_stamp = harness.resume(victim)
        pristine = harness.expected_digest([])
        deadline = time.monotonic() + SPEC.detection_bound() + 15.0
        while True:
            rows = [harness.counters(node) for node in range(SPEC.nodes)]
            if all(row.get("cluster.dead_mask", -1) == 0
                   and row.get("cluster.unrepaired", -1) == 0
                   and row.get("cluster.table_digest") == pristine
                   for row in rows):
                break
            if time.monotonic() > deadline:
                raise AssertionError("fleet did not reconverge after "
                                     "SIGCONT")
            time.sleep(0.02)
        rejoin_s = time.monotonic() - resume_stamp
    return {"convict_s": convict_s, "rejoin_s": rejoin_s}


def test_cluster_kill_drill_smoke(benchmark, report, tmp_path):
    """The E25 drill suite; writes BENCH_cluster.json."""

    def measure():
        drills = [
            run_kill_drill(SPEC, str(tmp_path / f"drill{i}"),
                           queries=QUERIES, burst_window=32)
            for i in range(DRILLS)
        ]
        recovery = _pause_resume_recovery(str(tmp_path / "recovery"))
        return drills, recovery

    drills, recovery = benchmark.pedantic(measure, rounds=1, iterations=1)

    bound = SPEC.detection_bound()
    detections: List[float] = []
    repairs: List[float] = []
    phases = {"before": [0, 0], "fault": [0, 0], "healed": [0, 0]}
    lost = failovers = detoured = queries = 0
    for drill in drills:
        # run_kill_drill already raised on any broken invariant; fold
        # the measurements into one distribution across drills/survivors.
        detections.extend(drill["detection_s"].values())
        repairs.extend(drill["repair_s"].values())
        burst = drill["fault_burst"]
        lost += burst["lost"]
        failovers += burst["failovers"]
        queries += burst["queries"]
        detoured += drill["detoured_queries"]
        for name, phase in burst["per_phase"].items():
            phases[name][0] += phase["queries"]
            phases[name][1] += phase["ok"]
    assert lost == 0
    assert max(detections) <= bound
    assert recovery["convict_s"] <= bound
    assert phases["fault"][0] > 0  # traffic really crossed the fault
    assert phases["healed"][0] > 0  # and kept flowing after the repair

    detections.sort()
    record = {
        "bench": "cluster",
        "spec": dict(drills[0]["spec"]),
        "drills": DRILLS,
        "queries_total": queries,
        "lost": lost,
        "failovers": failovers,
        "detoured_queries": detoured,
        "detection_s": {
            "samples": detections,
            "min": detections[0],
            "p50": detections[len(detections) // 2],
            "max": detections[-1],
            "bound": bound,
        },
        "repair_s": {"min": min(repairs), "max": max(repairs)},
        "per_phase_delivery": {
            name: {"queries": total, "ok": ok}
            for name, (total, ok) in phases.items()
        },
        "pause_resume": recovery,
    }
    append_record(JSON_PATH, record, bench="cluster")

    report(format_kv_block(
        f"E25 cluster drills (d={SPEC.d}, k={SPEC.k}, "
        f"{SPEC.nodes} processes, {DRILLS} drills)", [
            ("queries through faults", queries),
            ("lost", lost),
            ("client failovers", failovers),
            ("detoured during window", detoured),
            ("detection p50 / max (s)",
             f"{record['detection_s']['p50']:.3f} / "
             f"{record['detection_s']['max']:.3f}"),
            ("detection bound (s)", f"{bound:.3f}"),
            ("repair max (s)", f"{max(repairs):.3f}"),
            ("SIGSTOP conviction (s)", f"{recovery['convict_s']:.3f}"),
            ("SIGCONT rejoin (s)", f"{recovery['rejoin_s']:.3f}"),
        ])
        + "\n\n"
        + format_table(
            ["phase", "queries", "ok"],
            [[name, total, ok] for name, (total, ok) in phases.items()],
        ))
