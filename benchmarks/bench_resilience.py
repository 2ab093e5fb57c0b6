"""E19 — chaos engine: fault injection vs the resilience stack.

The robustness experiment the paper's Section 5 fault-tolerance claims
point at, run end to end: a seeded chaos campaign (site churn with
exponential MTBF/MTTR, correlated regional outages, Bernoulli link
loss) sweeps fault intensity over four routing strategies —

* ``oblivious``  — compiled-table routing, drop on any failed next hop;
* ``reroute``    — omniscient BFS re-plan around the failed set (E7);
* ``detour``     — local-knowledge deflection bounded to d-1
  alternatives (:class:`repro.network.resilience.LocalDetourPolicy`);
* ``repair``     — self-healing route table refilled on every fault
  transition.

Asserted: detour and repair deliver strictly more than oblivious at
every nonzero intensity, and the in-place repair is byte-identical to a
full recompile and to the python reference BFS.  Results append to
``BENCH_resilience.json`` (benchio envelope) so the curves are tracked
over time.
"""

from __future__ import annotations

import os
import random
import time
from typing import Dict, List

from repro.analysis.tables import format_kv_block, format_table
from repro.benchio import append_record
from repro.core.arraybfs import reference_table_rows
from repro.core.tables import CompiledRouteTable
from repro.network.chaos import ChaosConfig, campaign_curves, run_campaign
from repro.network.resilience import compile_with_failures, repair_route_table

JSON_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                         "BENCH_resilience.json")

GRAPH = (2, 6)
INTENSITIES = (0.0, 0.25, 0.5, 1.0)
CAMPAIGN = ChaosConfig(
    d=GRAPH[0], k=GRAPH[1], seed="bench-e19", horizon=3000.0,
    messages=300, spacing=5.0, mtbf=600.0, mttr=120.0,
    loss_rate=0.05, regional_rate=0.0005, region_prefix_len=2,
)

REPAIR_GRAPH = (2, 7)
FAULT_COUNTS = (1, 2, 4, 8)


def test_resilience_campaign(benchmark, report):
    """The E19 sweep; writes BENCH_resilience.json."""

    def measure() -> List[Dict[str, object]]:
        return run_campaign(CAMPAIGN, INTENSITIES)

    records = benchmark.pedantic(measure, rounds=1, iterations=1)
    by_key = {(r["strategy"], r["intensity"]): r for r in records}

    for intensity in INTENSITIES:
        floor = by_key[("oblivious", intensity)]["delivery_ratio"]
        if intensity == 0.0:
            # The fault-free control: every strategy is lossless.
            for strategy in ("oblivious", "reroute", "detour", "repair"):
                assert by_key[(strategy, intensity)]["delivery_ratio"] == 1.0
            continue
        assert floor < 1.0  # the chaos actually bites at this intensity
        for strategy in ("detour", "repair"):
            ratio = by_key[(strategy, intensity)]["delivery_ratio"]
            assert ratio > floor, (
                f"{strategy} must beat oblivious at intensity {intensity}: "
                f"{ratio:.3f} vs {floor:.3f}")
    assert by_key[("detour", 1.0)]["detoured"] > 0
    assert by_key[("repair", 1.0)]["table_repairs"] > 0

    record: Dict[str, object] = {
        "graph": {"d": CAMPAIGN.d, "k": CAMPAIGN.k,
                  "n": CAMPAIGN.d ** CAMPAIGN.k},
        "config": {
            "seed": CAMPAIGN.seed, "horizon": CAMPAIGN.horizon,
            "messages": CAMPAIGN.messages, "mtbf": CAMPAIGN.mtbf,
            "mttr": CAMPAIGN.mttr, "loss_rate": CAMPAIGN.loss_rate,
            "regional_rate": CAMPAIGN.regional_rate,
        },
        "campaign": records,
    }
    append_record(JSON_PATH, record, bench="resilience")

    rows = [(r["strategy"], r["intensity"], r["delivery_ratio"],
             r["mean_stretch"], r["time_to_recover"], r["detoured"],
             r["table_repairs"], r["link_lost"])
            for r in records]
    report(f"E19 — chaos campaign on DG{GRAPH}, seed {CAMPAIGN.seed!r}\n"
           + format_table(
               ["strategy", "intensity", "delivery ratio", "stretch",
                "time to recover", "detoured", "repairs", "link lost"],
               rows, precision=3)
           + "\ndetour and repair beat drop-on-failure at every nonzero "
             "intensity; the campaign replays exactly from its seed.")
    curves = campaign_curves(records)
    report("E19 — delivery-ratio curves (intensity -> ratio)\n"
           + format_kv_block("per strategy", [
               (name, "  ".join(f"{i:.2f}:{r:.3f}" for i, r in points))
               for name, points in sorted(curves.items())]))


def test_incremental_repair_vs_full_recompile(benchmark, report):
    """Byte-identity of an in-place repair, against the full recompile
    and the python reference BFS, and what each costs."""
    d, k = REPAIR_GRAPH
    table = CompiledRouteTable.compile(d, k, workers=1)
    n = table.order
    rng = random.Random("bench-e19-repair")

    def measure():
        rows = []
        for fault_count in FAULT_COUNTS:
            failed = rng.sample(range(n), fault_count)
            patched = table.thaw()
            start = time.perf_counter()
            repair_route_table(patched, failed)
            repair_seconds = time.perf_counter() - start
            start = time.perf_counter()
            reference = compile_with_failures(d, k, False, failed)
            full_seconds = time.perf_counter() - start
            oracle_dist, oracle_act = reference_table_rows(
                d, k, range(n), False, blocked=failed)
            identical = (
                bytes(patched.actions) == bytes(reference.actions)
                == bytes(oracle_act)
                and bytes(patched.distances) == bytes(reference.distances)
                == bytes(oracle_dist))
            rows.append({
                "fault_count": fault_count,
                "repair_seconds": repair_seconds,
                "full_seconds": full_seconds,
                "speedup": full_seconds / repair_seconds,
                "identical": identical,
            })
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    for row in rows:
        assert row["identical"], (
            f"repair diverged from full recompile at "
            f"{row['fault_count']} faults")

    append_record(JSON_PATH, {
        "graph": {"d": d, "k": k, "n": n},
        "repair": rows,
    }, bench="resilience_repair")

    report(f"E19 — in-place repair vs full recompile on DG({d},{k}) "
           f"(N={n} rows)\n"
           + format_table(
               ["faults", "repair s", "recompile s", "speedup"],
               [[r["fault_count"], r["repair_seconds"], r["full_seconds"],
                 r["speedup"]] for r in rows], precision=4)
           + "\nevery repaired table is byte-identical to the recompile "
             "and to the python reference BFS; both run the same fill.")


def test_chaos_campaign_smoke(benchmark):
    """Tiny seeded campaign: reproducible and strictly ordered (CI-fast)."""
    config = ChaosConfig(d=2, k=4, seed="bench-smoke", horizon=600.0,
                         messages=60, spacing=5.0, mtbf=150.0, mttr=50.0,
                         loss_rate=0.05)

    def run():
        return run_campaign(config, intensities=(0.0, 1.0),
                            strategies=("oblivious", "repair"))

    records = benchmark.pedantic(run, rounds=1, iterations=1)
    by_key = {(r["strategy"], r["intensity"]): r for r in records}
    assert by_key[("oblivious", 0.0)]["delivery_ratio"] == 1.0
    assert (by_key[("repair", 1.0)]["delivery_ratio"]
            > by_key[("oblivious", 1.0)]["delivery_ratio"])
