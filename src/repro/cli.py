"""Command-line interface: ``debruijn-routing <subcommand>``.

Subcommands
-----------

``distance``            distance between two vertices (both orientations)
``route``               print a shortest routing path and its hop trace
``average-distance``    Equation (5) vs exact means for a (d, k) grid
``structure``           the Figure-1 structural report for one graph
``simulate``            run a uniform-traffic simulation and print stats
``sequence``            print a de Bruijn sequence B(d, k)
``disjoint-paths``      vertex-disjoint route family between two sites
``broadcast``           tree vs unicast one-to-all broadcast makespans
``topology``            de Bruijn vs Kautz vs the Moore bound
``experiments``         regenerate the static experiment tables (E1..E12)
``congestion``          offline congestion of permutation patterns
``robustness``          random-failure robustness sweep
``sort``                distributed sort demo on the embedded array
``render``              write the graph (optionally with a route) as SVG/DOT
``compile-tables``      compile + save a next-hop route table (parallel BFS)
``chaos``               seeded fault-injection campaign across strategies
``detect``              SWIM failure detection on one seeded fault timeline
``serve``               run the route-query server under its supervisor
                        (E21; ``--workers N`` scales it across cores, E23)
``loadgen``             closed-loop capacity sweep / soak against a
                        running server (E23)
``query``               query a running server (one pair, or a burst)
``chaosproxy``          wire-level fault-injecting TCP proxy in front of
                        a server (E24); ``query``/``loadgen`` gain
                        ``--retries``/``--deadline-ms``

Examples::

    debruijn-routing distance -d 2 0110 1110
    debruijn-routing route -d 2 --directed 0110 1110
    debruijn-routing average-distance -d 2 -k 6
    debruijn-routing simulate -d 2 -k 4 --cycles 200 --rate 0.05
    debruijn-routing simulate -d 2 -k 6 --router table
    debruijn-routing compile-tables -d 2 -k 8 --workers 4 --verify 200
    debruijn-routing chaos -d 2 -k 6 --intensities 0,0.5,1 --assert-improves
    debruijn-routing chaos -d 2 -k 5 --membership --intensities 0,1
    debruijn-routing detect -d 2 -k 6 --mtbf 600 --mttr 120
    debruijn-routing serve -d 2 -k 6 --port 7531 --duration 30
    debruijn-routing query -d 2 -k 6 --port 7531 011010 110110
    debruijn-routing query -d 2 -k 6 --port 7531 --burst 1000 --stats
    debruijn-routing sequence -d 2 -k 4 --method euler
    debruijn-routing disjoint-paths -d 2 001 110
    debruijn-routing broadcast -d 2 -k 5
    debruijn-routing topology -d 2 -k 6
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional

from repro.analysis.tables import format_kv_block, format_table
from repro.core.distance import directed_distance, undirected_distance, undirected_witness
from repro.core.routing import format_path, path_words, route
from repro.core.word import format_word, parse_word
from repro.core.average_distance import (
    directed_average_distance_closed_form,
    directed_average_distance_exact,
    undirected_average_distance_exact,
)
from repro.graphs.debruijn import DeBruijnGraph
from repro.graphs.properties import structural_report
from repro.network.router import BidirectionalOptimalRouter, TrivialRouter, UnidirectionalOptimalRouter
from repro.network.simulator import Simulator, run_workload
from repro.network.traffic import uniform_random


def _add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    """Retry/deadline/breaker knobs shared by query and loadgen.

    ``--retries`` or ``--deadline-ms`` switches bursts to the hardened
    client (E24); with neither of them the plain
    pipelining client is used, exactly as before.  A single ``query
    SOURCE DESTINATION`` retries under the same policy, or under the
    one-shot default when no flag is given.
    """
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="hardened client: re-ask failed or retryable "
                             "queries up to N times with seeded-jitter "
                             "exponential backoff")
    parser.add_argument("--deadline-ms", type=float, default=None,
                        help="hardened client: per-burst deadline budget; "
                             "still-unanswered queries get synthetic "
                             "TIMEOUT replies when it expires")
    parser.add_argument("--attempt-timeout-ms", type=float, default=None,
                        help="cap one attempt's wait (default: the whole "
                             "remaining deadline)")
    parser.add_argument("--breaker-failures", type=int, default=5,
                        help="consecutive failures that trip the circuit "
                             "breaker open")
    parser.add_argument("--breaker-probe-ms", type=float, default=1000.0,
                        help="open-state probe interval (half-open single "
                             "trial) in milliseconds")


def _resilience_from_args(args: argparse.Namespace):
    """Build (RetryPolicy, BreakerConfig) from CLI flags, or (None, None)."""
    if args.retries is None and args.deadline_ms is None:
        return None, None
    from repro.service.client import BreakerConfig, RetryPolicy

    policy = RetryPolicy(
        retries=args.retries if args.retries is not None else 4,
        deadline=(args.deadline_ms / 1000.0
                  if args.deadline_ms is not None else 30.0),
        attempt_timeout=(args.attempt_timeout_ms / 1000.0
                         if args.attempt_timeout_ms is not None else None),
        seed=f"retry:{args.seed}",
    )
    breaker = BreakerConfig(
        failure_threshold=args.breaker_failures,
        probe_interval=args.breaker_probe_ms / 1000.0,
    )
    return policy, breaker


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="debruijn-routing",
        description="Optimal routing in de Bruijn networks (Liu, ICDCS 1990).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("distance", help="distance between two vertices")
    p_dist.add_argument("-d", type=int, required=True, help="alphabet size")
    p_dist.add_argument("source", help="source word, e.g. 0110")
    p_dist.add_argument("destination", help="destination word")

    p_route = sub.add_parser("route", help="shortest routing path")
    p_route.add_argument("-d", type=int, required=True)
    p_route.add_argument("--directed", action="store_true", help="uni-directional network")
    p_route.add_argument(
        "--method", default="auto", choices=["auto", "matching", "suffix_tree"],
        help="undirected witness computation (Algorithm 2 vs 4)",
    )
    p_route.add_argument("--no-wildcards", action="store_true", help="fix arbitrary digits to 0")
    p_route.add_argument("source")
    p_route.add_argument("destination")

    p_avg = sub.add_parser("average-distance", help="Eq. (5) vs exact average distances")
    p_avg.add_argument("-d", type=int, required=True)
    p_avg.add_argument("-k", type=int, required=True, help="largest k of the sweep")
    p_avg.add_argument("--max-pairs", type=int, default=1_048_576,
                       help="skip exact enumeration beyond this many pairs")

    p_struct = sub.add_parser("structure", help="Figure-1 structural report")
    p_struct.add_argument("-d", type=int, required=True)
    p_struct.add_argument("-k", type=int, required=True)
    p_struct.add_argument("--directed", action="store_true")

    p_sim = sub.add_parser("simulate", help="uniform-traffic network simulation")
    p_sim.add_argument("-d", type=int, required=True)
    p_sim.add_argument("-k", type=int, required=True)
    p_sim.add_argument("--cycles", type=int, default=100)
    p_sim.add_argument("--rate", type=float, default=0.05, help="injection probability per site per cycle")
    p_sim.add_argument("--router", default="optimal",
                       choices=["optimal", "optimal-unidirectional", "trivial",
                                "table"])
    p_sim.add_argument("--seed", type=int, default=7)

    p_seq = sub.add_parser("sequence", help="print a de Bruijn sequence B(d, k)")
    p_seq.add_argument("-d", type=int, required=True)
    p_seq.add_argument("-k", type=int, required=True)
    p_seq.add_argument("--method", default="fkm", choices=["fkm", "euler"])

    p_djp = sub.add_parser("disjoint-paths", help="vertex-disjoint routes between two sites")
    p_djp.add_argument("-d", type=int, required=True)
    p_djp.add_argument("source")
    p_djp.add_argument("destination")

    p_bc = sub.add_parser("broadcast", help="tree vs unicast broadcast makespans")
    p_bc.add_argument("-d", type=int, required=True)
    p_bc.add_argument("-k", type=int, required=True)
    p_bc.add_argument("--root", default=None, help="root site (default 0...0)")

    p_topo = sub.add_parser("topology", help="de Bruijn vs Kautz vs the Moore bound")
    p_topo.add_argument("-d", type=int, required=True)
    p_topo.add_argument("-k", type=int, required=True)
    p_topo.add_argument("--shootout", action="store_true",
                        help="also compare against ring/torus/hypercube at ~d^k vertices")

    p_exp = sub.add_parser("experiments", help="regenerate the static experiment tables")
    p_exp.add_argument("--only", default=None, help="one experiment id, e.g. E2")
    p_exp.add_argument("--markdown", action="store_true", help="emit Markdown instead of text")
    p_exp.add_argument("--output", default=None, help="write the report to a file")

    p_cong = sub.add_parser("congestion", help="offline congestion of permutation patterns")
    p_cong.add_argument("-d", type=int, required=True)
    p_cong.add_argument("-k", type=int, required=True)

    p_rob = sub.add_parser("robustness", help="random-failure robustness sweep")
    p_rob.add_argument("-d", type=int, required=True)
    p_rob.add_argument("-k", type=int, required=True)
    p_rob.add_argument("--fractions", default="0,0.1,0.2,0.3",
                       help="comma-separated failure fractions")
    p_rob.add_argument("--seed", type=int, default=0)

    p_sort = sub.add_parser("sort", help="distributed sort demo on the embedded array")
    p_sort.add_argument("-d", type=int, required=True)
    p_sort.add_argument("-k", type=int, required=True)
    p_sort.add_argument("--seed", type=int, default=1)

    p_render = sub.add_parser("render", help="write the graph (optionally a route) as SVG/DOT")
    p_render.add_argument("-d", type=int, required=True)
    p_render.add_argument("-k", type=int, required=True)
    p_render.add_argument("--directed", action="store_true")
    p_render.add_argument("--route", nargs=2, metavar=("SRC", "DST"),
                          help="highlight a shortest route between two sites")
    p_render.add_argument("--format", default="svg", choices=["svg", "dot"])
    p_render.add_argument("--output", default="-", help="file path, or - for stdout")

    p_ct = sub.add_parser(
        "compile-tables",
        help="compile a compact next-hop route table with the sharded BFS "
             "engine and save it to disk")
    p_ct.add_argument("-d", type=int, required=True)
    p_ct.add_argument("-k", type=int, required=True)
    p_ct.add_argument("--directed", action="store_true",
                      help="compile for the uni-directional network")
    p_ct.add_argument("--workers", type=int, default=None,
                      help="BFS shard processes (default min(4, cpus))")
    p_ct.add_argument("--chunk-size", type=int, default=None,
                      help="destination rows per work-queue item")
    p_ct.add_argument("--output", default=None,
                      help="table file path (default dg<d>-<k>-<uni|bi>.routes)")
    p_ct.add_argument("--verify", type=int, default=0, metavar="PAIRS",
                      help="cross-check this many random pairs against the "
                           "pure-python distance functions after compiling")
    p_ct.add_argument("--seed", type=int, default=7, help="--verify sampling seed")

    p_chaos = sub.add_parser(
        "chaos",
        help="seeded stochastic fault-injection campaign across routing "
             "strategies (E19)")
    p_chaos.add_argument("-d", type=int, default=2)
    p_chaos.add_argument("-k", type=int, default=6)
    p_chaos.add_argument("--seed", default="chaos",
                         help="campaign seed; replaying it reproduces every "
                              "fault, loss and traffic pair")
    p_chaos.add_argument("--messages", type=int, default=300)
    p_chaos.add_argument("--spacing", type=float, default=5.0,
                         help="inter-arrival gap between injections")
    p_chaos.add_argument("--horizon", type=float, default=3000.0)
    p_chaos.add_argument("--mtbf", type=float, default=600.0,
                         help="mean time between per-site failures at "
                              "intensity 1")
    p_chaos.add_argument("--mttr", type=float, default=120.0,
                         help="mean time to repair a failed site")
    p_chaos.add_argument("--loss-rate", type=float, default=0.05,
                         help="Bernoulli per-transmission loss at intensity 1")
    p_chaos.add_argument("--regional-rate", type=float, default=0.0,
                         help="correlated regional outages per unit time at "
                              "intensity 1")
    p_chaos.add_argument("--region-prefix", type=int, default=1,
                         help="shared-prefix length defining a region")
    p_chaos.add_argument("--intensities", default="0,0.5,1.0",
                         help="comma-separated fault-intensity sweep")
    p_chaos.add_argument("--strategies", default=None,
                         help="comma-separated subset of oblivious,reroute,"
                              "detour,repair,detour-detect,repair-detect")
    p_chaos.add_argument("--membership", action="store_true",
                         help="add the SWIM detection-driven strategy legs "
                              "(detour-detect, repair-detect) to the sweep "
                              "(E20)")
    p_chaos.add_argument("--assert-improves", action="store_true",
                         help="exit nonzero unless detour and repair beat "
                              "oblivious delivery at every nonzero intensity "
                              "(with --membership, the detection legs must "
                              "beat oblivious at the highest intensity too)")

    p_det = sub.add_parser(
        "detect",
        help="SWIM failure detection on one seeded fault timeline: "
             "detection latency, false positives/negatives, overhead (E20)")
    p_det.add_argument("-d", type=int, default=2)
    p_det.add_argument("-k", type=int, default=6)
    p_det.add_argument("--seed", default="detect",
                       help="seed for the fault schedule and probe streams")
    p_det.add_argument("--horizon", type=float, default=3000.0)
    p_det.add_argument("--mtbf", type=float, default=600.0,
                       help="mean up-time per site")
    p_det.add_argument("--mttr", type=float, default=120.0,
                       help="mean outage duration")
    p_det.add_argument("--loss-rate", type=float, default=0.0,
                       help="Bernoulli loss applied to protocol packets")
    p_det.add_argument("--probe-interval", type=float, default=10.0)
    p_det.add_argument("--probe-timeout", type=float, default=3.0)
    p_det.add_argument("--suspicion", type=float, default=20.0,
                       help="suspect-to-confirm refutation window")
    p_det.add_argument("--indirect", type=int, default=2,
                       help="indirect probe helpers per silent target")
    p_det.add_argument("--assert-detects", type=float, default=None,
                       metavar="RATIO",
                       help="exit nonzero unless at least this fraction of "
                            "outages was detected")

    p_serve = sub.add_parser(
        "serve",
        help="serve route queries over TCP (asyncio, micro-batching, "
             "bounded admission; E21)")
    p_serve.add_argument("-d", type=int, required=True)
    p_serve.add_argument("-k", type=int, required=True)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="TCP port (0 binds an ephemeral port and "
                              "prints it)")
    p_serve.add_argument("--table", default=None, metavar="PATH",
                         help="mmap-load a compile-tables artifact for O(1) "
                              "lookups")
    p_serve.add_argument("--compile-table", action="store_true",
                         help="compile the undirected table in-process at "
                              "startup")
    p_serve.add_argument("--max-pending", type=int, default=1024,
                         help="admission-queue bound; beyond it queries get "
                              "explicit OVERLOADED replies")
    p_serve.add_argument("--batch-size", type=int, default=32,
                         help="micro-batch flush size")
    p_serve.add_argument("--batch-deadline", type=float, default=0.002,
                         help="micro-batch flush deadline in seconds")
    p_serve.add_argument("--request-timeout", type=float, default=5.0)
    p_serve.add_argument("--read-timeout", type=float, default=None,
                         help="frame-completion deadline: a connection that "
                              "starts a frame must finish it within this "
                              "many seconds (slow-loris defense; idle "
                              "connections are unaffected)")
    p_serve.add_argument("--max-connections", type=int, default=None,
                         help="admission cap on concurrent connections; "
                              "beyond it new connections are closed and "
                              "counted in server.conn_rejected")
    p_serve.add_argument("--duration", type=float, default=None,
                         help="serve for this many seconds, then drain and "
                              "exit (default: until interrupted)")
    p_serve.add_argument("--stats-json", default=None, metavar="PATH",
                         help="write the final metrics snapshot to this file "
                              "on shutdown")
    p_serve.add_argument("--workers", type=int, default=1, metavar="N",
                         help="worker processes the supervisor forks and "
                              "respawns; N>1 shares the port (SO_REUSEPORT "
                              "or a shared listener), each worker "
                              "mmap-loading the same table (E23)")
    p_serve.add_argument("--listener", default="auto",
                         choices=["auto", "reuseport", "shared"],
                         help="how workers share the port: kernel "
                              "SO_REUSEPORT spreading, one shared listening "
                              "socket, or auto-detect")
    p_serve.add_argument("--max-restarts", type=int, default=3,
                         help="crashed-worker respawns before the slot is "
                              "abandoned")
    p_serve.add_argument("--slo-ms", type=float, default=None,
                         help="count replies slower than this budget in the "
                              "server.slo_violations counter")

    p_load = sub.add_parser(
        "loadgen",
        help="closed-loop load generator against a running server: "
             "capacity sweep to the knee, or a soak (E23)")
    p_load.add_argument("-d", type=int, required=True)
    p_load.add_argument("-k", type=int, required=True)
    p_load.add_argument("--host", default="127.0.0.1")
    p_load.add_argument("--port", type=int, required=True)
    p_load.add_argument("--rates", default=None, metavar="R1,R2,...",
                        help="offered-qps ladder for a capacity sweep; the "
                             "report is sustained qps at the SLO knee")
    p_load.add_argument("--queries", type=int, default=0, metavar="N",
                        help="unpaced closed-loop step sized to roughly N "
                             "queries (quick smoke; exclusive with --rates)")
    p_load.add_argument("--soak", type=float, default=0.0, metavar="SECONDS",
                        help="run a soak this long: steady load with client "
                             "churn and window-0 slams, tracking RSS drift "
                             "and per-quartile p99")
    p_load.add_argument("--rate", type=float, default=None,
                        help="offered qps during --soak (default: flat out)")
    p_load.add_argument("--connections", type=int, default=4,
                        help="closed-loop virtual users")
    p_load.add_argument("--step-duration", type=float, default=2.0,
                        help="seconds per sweep step")
    p_load.add_argument("--slo-ms", type=float, default=50.0,
                        help="p99 budget a step must meet to count as "
                             "sustained")
    p_load.add_argument("--batch", type=int, default=8,
                        help="queries per vuser round trip")
    p_load.add_argument("--directed", action="store_true")
    p_load.add_argument("--want-path", action="store_true",
                        help="ask for full paths (default: distance-only)")
    p_load.add_argument("--seed", type=int, default=1105)
    p_load.add_argument("--rss-pids", default=None, metavar="PID1,PID2,...",
                        help="sample these processes' RSS during --soak")
    p_load.add_argument("--stats-json", default=None, metavar="PATH",
                        help="write the loadgen report (and the server's "
                             "final STATS snapshot) to this file")
    p_load.add_argument("--assert-complete", action="store_true",
                        help="exit nonzero if any query was lost or errored")
    p_load.add_argument("--assert-fleet-consistent", action="store_true",
                        help="fetch STATS afterwards and exit nonzero unless "
                             "the aggregated server.queries counter equals "
                             "the client-observed answer count (fresh server "
                             "only)")
    _add_resilience_flags(p_load)

    p_query = sub.add_parser(
        "query",
        help="query a running route server: one pair, or a pipelined "
             "random burst")
    p_query.add_argument("-d", type=int, required=True)
    p_query.add_argument("-k", type=int, required=True)
    p_query.add_argument("--host", default="127.0.0.1")
    p_query.add_argument("--port", type=int, required=True)
    p_query.add_argument("source", nargs="?", default=None)
    p_query.add_argument("destination", nargs="?", default=None)
    p_query.add_argument("--directed", action="store_true")
    p_query.add_argument("--distance-only", action="store_true",
                         help="ask only for distances (lets the server "
                              "micro-batch)")
    p_query.add_argument("--burst", type=int, default=0, metavar="N",
                         help="pipeline N random pairs instead of one pair")
    p_query.add_argument("--seed", type=int, default=7,
                         help="burst pair-sampling seed")
    p_query.add_argument("--pool", type=int, default=2,
                         help="client connection-pool size for bursts")
    p_query.add_argument("--window", type=int, default=256,
                         help="in-flight queries per connection (0 = "
                              "unbounded slam)")
    p_query.add_argument("--stats", action="store_true",
                         help="fetch and print the server's STATS snapshot")
    p_query.add_argument("--stats-json", default=None, metavar="PATH",
                         help="fetch the STATS snapshot (tier breakdown "
                              "included: engine.*) and write it to this "
                              "file")
    p_query.add_argument("--assert-min-replies", type=int, default=None,
                         metavar="N",
                         help="exit nonzero unless the server's replies "
                              "counter is at least N")
    _add_resilience_flags(p_query)

    p_chaosproxy = sub.add_parser(
        "chaosproxy",
        help="wire-level fault-injecting TCP proxy: put it between a "
             "client and a route server and inject latency, resets, "
             "corruption, bandwidth caps, trickle, and partitions from "
             "a seeded replayable plan (E24)")
    p_chaosproxy.add_argument("--host", default="127.0.0.1",
                              help="address the proxy listens on")
    p_chaosproxy.add_argument("--port", type=int, default=0,
                              help="listen port (0 binds an ephemeral port "
                                   "and prints it)")
    p_chaosproxy.add_argument("--upstream-host", default="127.0.0.1")
    p_chaosproxy.add_argument("--upstream-port", type=int, required=True,
                              help="the real server the proxy forwards to")
    p_chaosproxy.add_argument("--seed", default="chaos",
                              help="FaultPlan seed; the same seed replays "
                                   "the same per-connection fault decisions")
    p_chaosproxy.add_argument("--latency-ms", type=float, default=0.0,
                              help="added one-way latency per chunk")
    p_chaosproxy.add_argument("--jitter-ms", type=float, default=0.0,
                              help="uniform extra latency on top of "
                                   "--latency-ms")
    p_chaosproxy.add_argument("--bandwidth-kbps", type=float, default=0.0,
                              help="cap forwarded throughput (0 = no cap)")
    p_chaosproxy.add_argument("--reset-rate", type=float, default=0.0,
                              help="fraction of connections fated to a "
                                   "mid-frame RST after a seeded byte count")
    p_chaosproxy.add_argument("--corrupt-rate", type=float, default=0.0,
                              help="per-chunk probability of a flipped byte")
    p_chaosproxy.add_argument("--truncate-rate", type=float, default=0.0,
                              help="per-chunk probability of dropping the "
                                   "chunk's tail")
    p_chaosproxy.add_argument("--trickle-rate", type=float, default=0.0,
                              help="fraction of connections fated to "
                                   "slow-loris byte-at-a-time delivery")
    p_chaosproxy.add_argument("--trickle-interval", type=float, default=0.05,
                              help="seconds between trickled bytes")
    p_chaosproxy.add_argument("--partition-at", type=float, default=None,
                              metavar="SECONDS",
                              help="black-hole all traffic this long after "
                                   "start...")
    p_chaosproxy.add_argument("--partition-duration", type=float, default=1.0,
                              help="...and heal after this many seconds")
    p_chaosproxy.add_argument("--direction", default="both",
                              choices=["both", "c2s", "s2c"],
                              help="which direction the byte-level faults "
                                   "apply to")
    p_chaosproxy.add_argument("--duration", type=float, default=None,
                              help="run this long then exit (default: until "
                                   "interrupted)")
    p_chaosproxy.add_argument("--stats-json", default=None, metavar="PATH",
                              help="write the injected-fault counter "
                                   "snapshot to this file on shutdown")

    p_cluster = sub.add_parser(
        "cluster",
        help="real-process de Bruijn cluster: one OS process per "
             "prefix-shard group, SWIM membership over UDP, live "
             "self-healing route tables, and a fault drill (E25)")
    cl_sub = p_cluster.add_subparsers(dest="cluster_command", required=True)

    def _cluster_shape(p: argparse.ArgumentParser) -> None:
        p.add_argument("-d", type=int, default=2)
        p.add_argument("-k", type=int, default=5)
        p.add_argument("--nodes", type=int, default=4,
                       help="node processes (each owns a contiguous "
                            "packed-site range)")
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--probe-interval", type=float, default=0.25,
                       help="SWIM direct-probe period per node")
        p.add_argument("--probe-timeout", type=float, default=0.12)
        p.add_argument("--suspicion-timeout", type=float, default=0.6,
                       help="SUSPECT -> DEAD window (refutation deadline)")
        p.add_argument("--indirect-probes", type=int, default=1)
        p.add_argument("--repair-delay", type=float, default=0.0,
                       help="postpone the self-healing sync this long so "
                            "the detour window is observable")
        p.add_argument("--seed", default="cluster")
        p.add_argument("--workdir", default=None,
                       help="where the shared compiled table lives "
                            "(default: a fresh temp dir)")

    c_drill = cl_sub.add_parser(
        "drill",
        help="the E25 drill: SIGKILL one node under a live query burst, "
             "assert detection latency, byte-identical repair, and zero "
             "lost queries")
    _cluster_shape(c_drill)
    c_drill.add_argument("--victim", type=int, default=None,
                         help="node to SIGKILL (default: the last one)")
    c_drill.add_argument("--queries", type=int, default=10_000,
                         help="minimum queries pushed through the fault")
    c_drill.add_argument("--window", type=int, default=64,
                         help="in-flight queries per burst connection")
    c_drill.add_argument("--json", default=None, metavar="PATH",
                         help="write the full drill report to this file")
    c_drill.add_argument("--assert-complete", action="store_true",
                         help="exit nonzero unless every drill phase ran "
                              "and measured (queries in every phase, a "
                              "verdict from every survivor)")

    c_up = cl_sub.add_parser(
        "up",
        help="run a fleet in the foreground with an optional scripted "
             "fault timeline; Ctrl-C or --duration ends it")
    _cluster_shape(c_up)
    c_up.add_argument("--duration", type=float, default=None,
                      help="stop after this many seconds (default: until "
                           "interrupted)")
    c_up.add_argument("--status-interval", type=float, default=1.0,
                      help="print a fleet status line this often")
    c_up.add_argument("--kill", type=int, default=None, metavar="NODE",
                      help="SIGKILL this node at --kill-after seconds")
    c_up.add_argument("--kill-after", type=float, default=2.0)
    c_up.add_argument("--isolate", type=int, default=None, metavar="NODE",
                      help="black-hole this node's membership traffic at "
                           "--isolate-after (implies --proxies)")
    c_up.add_argument("--isolate-after", type=float, default=2.0)
    c_up.add_argument("--heal-after", type=float, default=None,
                      help="lift the isolation this many seconds in")
    c_up.add_argument("--proxies", action="store_true",
                      help="route membership traffic through per-node "
                           "chaos proxies (required for wire faults)")

    sub.add_parser("about", help="list every module of the installed package")

    return parser


def _cmd_distance(args: argparse.Namespace) -> int:
    x = parse_word(args.source, args.d)
    y = parse_word(args.destination, args.d)
    if len(x) != len(y):
        print("error: words must have equal length", file=sys.stderr)
        return 2
    witness = undirected_witness(x, y)
    print(
        format_kv_block(
            f"DG({args.d}, {len(x)}) distances {args.source} -> {args.destination}",
            [
                ("directed", directed_distance(x, y)),
                ("directed (reverse)", directed_distance(y, x)),
                ("undirected", witness.distance),
                ("witness case", witness.case),
            ],
        )
    )
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    x = parse_word(args.source, args.d)
    y = parse_word(args.destination, args.d)
    path = route(
        x, y, args.d,
        directed=args.directed,
        method=args.method,
        use_wildcards=not args.no_wildcards,
    )
    print(f"path ({len(path)} hops): {format_path(path) or '(empty)'}")
    trace = path_words(x, path, args.d)
    print("trace:", " -> ".join(format_word(w) for w in trace))
    return 0


def _cmd_average(args: argparse.Namespace) -> int:
    rows = []
    for k in range(1, args.k + 1):
        n = args.d**k
        closed = directed_average_distance_closed_form(args.d, k)
        if n * n <= args.max_pairs:
            exact_directed = directed_average_distance_exact(args.d, k)
            exact_undirected = undirected_average_distance_exact(args.d, k)
            rows.append((k, n, closed, exact_directed, closed - exact_directed, exact_undirected))
        else:
            rows.append((k, n, closed, float("nan"), float("nan"), float("nan")))
    print(
        format_table(
            ["k", "N", "eq(5)", "directed exact", "eq(5) - exact", "undirected exact"],
            rows,
        )
    )
    return 0


def _cmd_structure(args: argparse.Namespace) -> int:
    graph = DeBruijnGraph(args.d, args.k, directed=args.directed)
    report = structural_report(graph)
    print(format_kv_block(f"{graph!r}", sorted(report.items())))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.router == "optimal":
        router = BidirectionalOptimalRouter()
        bidirectional = True
    elif args.router == "optimal-unidirectional":
        router = UnidirectionalOptimalRouter()
        bidirectional = False
    elif args.router == "table":
        from repro.network.router import TableDrivenRouter

        router = TableDrivenRouter(d=args.d, k=args.k)
        bidirectional = True
    else:
        router = TrivialRouter()
        bidirectional = True
    simulator = Simulator(args.d, args.k, bidirectional=bidirectional)
    workload = uniform_random(args.d, args.k, args.cycles, args.rate, random.Random(args.seed))
    stats = run_workload(simulator, router, workload)
    print(format_kv_block(f"DN({args.d},{args.k}) {router.name}", sorted(stats.summary().items())))
    return 0


def _cmd_sequence(args: argparse.Namespace) -> int:
    from repro.graphs.sequences import debruijn_sequence_euler, debruijn_sequence_lyndon

    builder = debruijn_sequence_lyndon if args.method == "fkm" else debruijn_sequence_euler
    sequence = builder(args.d, args.k)
    print(format_word(sequence))
    print(f"# B({args.d},{args.k}) via {args.method}: length {len(sequence)}, "
          f"every length-{args.k} word appears exactly once cyclically")
    return 0


def _cmd_disjoint_paths(args: argparse.Namespace) -> int:
    from repro.graphs.debruijn import undirected_graph
    from repro.network.faults import vertex_disjoint_paths

    x = parse_word(args.source, args.d)
    y = parse_word(args.destination, args.d)
    if len(x) != len(y):
        print("error: words must have equal length", file=sys.stderr)
        return 2
    graph = undirected_graph(args.d, len(x))
    paths = vertex_disjoint_paths(graph, x, y)
    print(f"{len(paths)} internally vertex-disjoint routes "
          f"(tolerance bound d-1 = {args.d - 1}):")
    for path in paths:
        print("  " + " -> ".join(format_word(w) for w in path))
    return 0


def _cmd_broadcast(args: argparse.Namespace) -> int:
    from repro.network.broadcast import (
        broadcast_lower_bound,
        simulate_tree_broadcast,
        simulate_unicast_broadcast,
    )
    from repro.network.router import BidirectionalOptimalRouter

    root = parse_word(args.root, args.d) if args.root else (0,) * args.k
    _, tree_time = simulate_tree_broadcast(args.d, args.k, root)
    _, unicast_time = simulate_unicast_broadcast(
        args.d, args.k, root, BidirectionalOptimalRouter()
    )
    print(format_kv_block(
        f"one-to-all broadcast from {format_word(root)} in DN({args.d},{args.k})",
        [
            ("sites", args.d**args.k),
            ("lower bound (eccentricity)", broadcast_lower_bound(args.d, args.k, root)),
            ("tree-relay makespan", tree_time),
            ("unicast-storm makespan", unicast_time),
            ("speedup", unicast_time / tree_time),
        ],
    ))
    return 0


def _cmd_topology(args: argparse.Namespace) -> int:
    from repro.analysis.moore import comparison_rows

    rows = [
        (row.family, row.d, row.diameter, row.order, row.moore_bound, row.efficiency)
        for row in comparison_rows(args.d, args.k)
    ]
    print(format_table(
        ["family", "degree", "diameter", "vertices", "Moore bound", "efficiency"], rows))
    if args.shootout:
        from repro.analysis.comparison import shootout

        profiles = shootout(args.d**args.k)
        print()
        print(format_table(
            ["family", "vertices", "degree", "diameter", "mean distance", "degree growth"],
            [(p.family, p.vertices, p.degree, p.diameter, p.mean_distance, p.degree_growth)
             for p in profiles], precision=2))
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments import markdown_report, run_all, run_experiment

    if args.only:
        results = [run_experiment(args.only)]
    else:
        results = run_all()
    if args.markdown:
        rendered = markdown_report(results)
    else:
        rendered = "\n\n".join(result.to_text() for result in results)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {args.output}")
    else:
        print(rendered)
    return 0


def _cmd_congestion(args: argparse.Namespace) -> int:
    from repro.analysis.load import adversarial_patterns, congestion
    from repro.network.router import BidirectionalOptimalRouter, TrivialRouter

    rows = []
    for pattern, demands in adversarial_patterns(args.d, args.k).items():
        for label, router in [
            ("optimal", BidirectionalOptimalRouter(use_wildcards=False)),
            ("trivial", TrivialRouter()),
        ]:
            r = congestion(demands, router, args.d)
            rows.append((pattern, label, r.demands, r.mean_hops, r.max_load, r.fairness))
    print(format_table(
        ["pattern", "router", "demands", "mean hops", "max link load", "fairness"], rows))
    return 0


def _cmd_robustness(args: argparse.Namespace) -> int:
    from repro.analysis.robustness import random_failure_sweep

    fractions = tuple(float(f) for f in args.fractions.split(",") if f.strip())
    rows = [
        (p.failure_fraction, p.failed_count, p.component_fraction,
         p.reachable_fraction, p.mean_stretch, p.max_stretch)
        for p in random_failure_sweep(args.d, args.k, fractions, seed=args.seed)
    ]
    print(format_table(
        ["failure fraction", "failed", "largest component",
         "reachable pairs", "mean stretch", "max stretch"], rows))
    return 0


def _cmd_sort(args: argparse.Namespace) -> int:
    from repro.network.sorting import odd_even_transposition_sort, worst_case_rounds

    n = args.d**args.k
    rng = random.Random(args.seed)
    keys = [rng.randrange(10 * n) for _ in range(n)]
    result = odd_even_transposition_sort(args.d, args.k, keys)
    ok = list(result.final_keys) == sorted(keys)
    print(format_kv_block(
        f"odd-even transposition sort on DN({args.d},{args.k})",
        [
            ("sites", n),
            ("rounds used", result.rounds_used),
            ("worst case", worst_case_rounds(n)),
            ("messages", result.messages),
            ("sorted correctly", ok),
        ],
    ))
    return 0 if ok else 1


def _cmd_render(args: argparse.Namespace) -> int:
    from repro.analysis.dot import graph_to_dot
    from repro.analysis.svg import graph_to_svg
    from repro.graphs.debruijn import DeBruijnGraph

    graph = DeBruijnGraph(args.d, args.k, directed=args.directed)
    trace = None
    if args.route:
        x = parse_word(args.route[0], args.d)
        y = parse_word(args.route[1], args.d)
        trace = path_words(x, route(x, y, args.d, directed=args.directed,
                                    use_wildcards=False), args.d)
    if args.format == "svg":
        rendered = graph_to_svg(graph, highlight_path=trace)
    else:
        rendered = graph_to_dot(graph, highlight_path=trace)
    if args.output == "-":
        print(rendered)
    else:
        with open(args.output, "w") as handle:
            handle.write(rendered)
        print(f"wrote {args.output} ({len(rendered)} bytes)")
    return 0


def _cmd_compile_tables(args: argparse.Namespace) -> int:
    import time

    from repro.core.parallel import default_workers
    from repro.core.tables import CompiledRouteTable
    from repro.core.word import random_word

    workers = args.workers if args.workers is not None else default_workers()
    start = time.perf_counter()
    table = CompiledRouteTable.compile(
        args.d, args.k, directed=args.directed,
        workers=workers, chunk_size=args.chunk_size,
    )
    compile_seconds = time.perf_counter() - start
    output = args.output or (
        f"dg{args.d}-{args.k}-{'uni' if args.directed else 'bi'}.routes"
    )
    table.save(output)

    mismatches = 0
    if args.verify > 0:
        oracle = directed_distance if args.directed else undirected_distance
        rng = random.Random(args.seed)
        for _ in range(args.verify):
            x = random_word(args.d, args.k, rng)
            y = random_word(args.d, args.k, rng)
            expected = oracle(x, y)
            got = table.distance(x, y)
            hops = len(table.path(x, y))
            if got != expected or hops != expected:
                mismatches += 1
                print(f"MISMATCH {format_word(x)} -> {format_word(y)}: "
                      f"table distance {got}, path {hops} hops, "
                      f"oracle {expected}", file=sys.stderr)

    entries = [
        ("sites", table.order),
        ("orientation", "directed" if args.directed else "undirected"),
        ("workers", workers),
        ("compile seconds", round(compile_seconds, 3)),
        ("table bytes", table.nbytes),
        ("bytes per pair", table.nbytes / (table.order ** 2)),
        ("saved to", output),
    ]
    if args.verify > 0:
        entries.append(("verified pairs", args.verify))
        entries.append(("mismatches", mismatches))
    print(format_kv_block(
        f"compiled route table for DG({args.d},{args.k})", entries))
    return 1 if mismatches else 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.network.chaos import (
        DETECTION_STRATEGIES, STRATEGIES, ChaosConfig, run_campaign)

    config = ChaosConfig(
        d=args.d, k=args.k, seed=args.seed, horizon=args.horizon,
        messages=args.messages, spacing=args.spacing,
        mtbf=args.mtbf, mttr=args.mttr,
        regional_rate=args.regional_rate,
        region_prefix_len=args.region_prefix,
        loss_rate=args.loss_rate,
    )
    intensities = tuple(float(v) for v in args.intensities.split(",")
                        if v.strip())
    strategies = (tuple(s.strip() for s in args.strategies.split(","))
                  if args.strategies else STRATEGIES)
    if args.membership:
        strategies += tuple(s for s in DETECTION_STRATEGIES
                            if s not in strategies)
    records = run_campaign(config, intensities, strategies)
    print(format_table(
        ["strategy", "intensity", "delivered", "dropped", "delivery ratio",
         "stretch", "time to recover", "detoured", "repairs", "lost"],
        [(r["strategy"], r["intensity"], r["delivered"], r["dropped"],
          r["delivery_ratio"], r["mean_stretch"], r["time_to_recover"],
          r["detoured"], r["table_repairs"], r["link_lost"])
         for r in records],
        precision=3,
    ))
    detection = [r for r in records if r["membership_messages"]]
    if detection:
        print()
        print(format_table(
            ["strategy", "intensity", "detected", "mean det latency",
             "p95 det latency", "false pos", "false neg", "msgs", "bytes"],
            [(r["strategy"], r["intensity"], r["detected_outages"],
              r["mean_detection_latency"], r["p95_detection_latency"],
              r["false_positives"], r["false_negatives"],
              r["membership_messages"], r["membership_bytes"])
             for r in detection],
            precision=3,
        ))
    print(f"# seed {config.seed!r} replays this campaign exactly")
    if args.assert_improves:
        baseline = {(r["intensity"]): r["delivery_ratio"]
                    for r in records if r["strategy"] == "oblivious"}
        failures = []
        for r in records:
            if r["strategy"] in ("detour", "repair") and r["intensity"] > 0:
                floor = baseline.get(r["intensity"])
                if floor is not None and r["delivery_ratio"] <= floor:
                    failures.append(
                        f"{r['strategy']} at intensity {r['intensity']}: "
                        f"{r['delivery_ratio']:.3f} <= oblivious {floor:.3f}")
        if args.membership and intensities:
            top = max(intensities)
            if top > 0:
                floor = baseline.get(top)
                for r in records:
                    if r["strategy"] in DETECTION_STRATEGIES \
                            and r["intensity"] == top and floor is not None \
                            and r["delivery_ratio"] <= floor:
                        failures.append(
                            f"{r['strategy']} at intensity {top}: "
                            f"{r['delivery_ratio']:.3f} <= oblivious "
                            f"{floor:.3f}")
        if failures:
            for line in failures:
                print("RESILIENCE REGRESSION:", line, file=sys.stderr)
            return 1
        checked = "detour/repair"
        if args.membership:
            checked += " and the detection-driven legs"
        print(f"# resilience check passed: {checked} beat oblivious")
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    from repro.network.chaos import generate_schedule, install_link_loss
    from repro.network.membership import SwimConfig, SwimDetector

    simulator = Simulator(args.d, args.k)
    schedule = generate_schedule(
        args.d, args.k, args.horizon, seed=f"{args.seed}:faults",
        mtbf=args.mtbf, mttr=args.mttr,
    )
    schedule.apply(simulator)
    install_link_loss(simulator, args.loss_rate, seed=args.seed)
    detector = SwimDetector(
        simulator,
        SwimConfig(
            probe_interval=args.probe_interval,
            probe_timeout=args.probe_timeout,
            suspicion_timeout=args.suspicion,
            indirect_probes=args.indirect,
            seed=f"{args.seed}:swim",
        ),
        horizon=args.horizon,
    )
    detector.start()
    simulator.run()
    report = detector.finalize()
    stats = simulator.stats
    detected_ratio = (report.detected / report.outages
                      if report.outages else 1.0)
    print(format_kv_block(
        f"SWIM failure detection on DG({args.d},{args.k})",
        [
            ("sites", len(detector.sites)),
            ("horizon", args.horizon),
            ("outages", report.outages),
            ("detected", report.detected),
            ("detected ratio", round(detected_ratio, 3)),
            ("mean detection latency", round(report.mean_latency, 3)),
            ("p95 detection latency",
             round(stats.p95_detection_latency(), 3)),
            ("false positives", report.false_positives),
            ("false negatives", report.false_negatives),
            ("protocol messages", report.messages),
            ("protocol bytes", report.bytes),
            ("msgs per site per unit",
             round(report.messages
                   / (len(detector.sites) * args.horizon), 4)),
        ]))
    print(f"# seed {args.seed!r} replays this run exactly")
    if args.assert_detects is not None and detected_ratio < args.assert_detects:
        print(f"DETECTION REGRESSION: detected ratio {detected_ratio:.3f} "
              f"< required {args.assert_detects:.3f}", file=sys.stderr)
        return 1
    return 0


def _serve_spec(args: argparse.Namespace):
    """Validate serve flags into an (EngineSpec, cleanup_paths) pair.

    ``--compile-table`` compiles once, in this process, and saves the
    table to a temp file that every worker mmap-loads — the kernel page
    cache is the only copy.
    """
    import tempfile

    from repro.service.engine import EngineSpec

    if args.table and args.compile_table:
        raise SystemExit2("--table and --compile-table are mutually exclusive")
    if args.workers < 1:
        raise SystemExit2(f"--workers must be >= 1, got {args.workers}")
    cleanup: List[str] = []
    table_path = args.table
    if args.compile_table:
        from repro.core.tables import CompiledRouteTable

        table = CompiledRouteTable.compile(args.d, args.k)
        handle = tempfile.NamedTemporaryFile(
            prefix="repro-table-", suffix=".bin", delete=False)
        handle.close()
        table.save(handle.name)
        table_path = handle.name
        cleanup.append(handle.name)
    return EngineSpec(args.d, args.k, table_path=table_path), cleanup


class SystemExit2(Exception):
    """A serve-flag validation error (exit code 2)."""


def _cmd_serve(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.service.server import ServerConfig

    try:
        spec, cleanup = _serve_spec(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    server_config = ServerConfig(
        host=args.host, port=args.port, max_pending=args.max_pending,
        batch_size=args.batch_size, batch_deadline=args.batch_deadline,
        request_timeout=args.request_timeout, slo_ms=args.slo_ms,
        read_timeout=args.read_timeout,
        max_connections=args.max_connections)

    tier = "table" if spec.table_path else "planner"

    try:
        snapshot = _serve_fleet(args, spec, server_config, tier)
    finally:
        for path in cleanup:
            try:
                os.unlink(path)
            except OSError:
                pass
    if args.stats_json:
        with open(args.stats_json, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.stats_json}")
    counters = snapshot.get("counters", {})
    print(format_kv_block(
        "route-query server final stats",
        [(name, counters[name]) for name in sorted(counters)
         if name.startswith(("server.", "fleet."))]))
    return 0


def _serve_fleet(args, spec, server_config, tier: str) -> dict:
    import asyncio
    import signal

    from repro.service.supervisor import ServiceSupervisor, SupervisorConfig

    supervisor = ServiceSupervisor(
        engine_spec=spec,
        config=SupervisorConfig(
            workers=args.workers,
            host=args.host,
            port=args.port,
            listener=args.listener,
            max_restarts=args.max_restarts,
            server=server_config,
        ),
    )

    async def _serve() -> None:
        port = await supervisor.start()
        pids = ",".join(str(pid) for pid in supervisor.worker_pids())
        print(f"serving DG({args.d},{args.k}) on {args.host}:{port} "
              f"({tier} tier, {args.workers} workers via "
              f"{supervisor.listener_mode}, pids {pids})", flush=True)
        stop = asyncio.Event()
        term_count = 0

        def _on_term() -> None:
            # First SIGTERM: graceful drain.  A second one while the
            # drain is still in flight means "now" — hard-kill the
            # stragglers instead of letting a wedged worker hold the
            # shutdown hostage for the whole drain timeout.
            nonlocal term_count
            term_count += 1
            if term_count == 1:
                stop.set()
            else:
                print("second SIGTERM: escalating to SIGKILL",
                      file=sys.stderr, flush=True)
                supervisor.escalate()

        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, _on_term)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
        try:
            if args.duration is not None:
                try:
                    await asyncio.wait_for(stop.wait(), args.duration)
                except asyncio.TimeoutError:
                    pass
            else:
                await stop.wait()
        finally:
            await supervisor.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return supervisor.final_snapshot or {}


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json

    from repro.service.client import fetch_stats
    from repro.service.loadgen import (
        LoadScenario,
        measure_soak,
        measure_step,
        measure_sweep,
    )
    from repro.service.metrics import MetricsRegistry

    scenario = LoadScenario(
        d=args.d, k=args.k, directed=args.directed,
        want_path=args.want_path, seed=args.seed)
    policy, breaker = _resilience_from_args(args)
    client_registry = MetricsRegistry() if policy is not None else None
    resilience = dict(policy=policy, breaker=breaker,
                      client_registry=client_registry)
    report: dict = {"host": args.host, "port": args.port,
                    "d": args.d, "k": args.k}
    client_answered = 0
    lost = 0
    failed = False

    if args.rates:
        rates = [float(r) for r in args.rates.split(",") if r.strip()]
        sweep = measure_sweep(
            args.host, args.port, scenario, rates,
            slo_ms=args.slo_ms, step_duration=args.step_duration,
            connections=args.connections, batch=args.batch,
            **resilience)
        report["sweep"] = sweep.to_row()
        client_answered += sum(step.queries for step in sweep.steps)
        lost += sum(step.failures for step in sweep.steps)
        entries = [("steps", len(sweep.steps)),
                   ("slo p99 ms", args.slo_ms),
                   ("sustained qps at SLO", round(sweep.sustained_qps, 1))]
        if sweep.knee is not None:
            entries.append(("knee offered qps", sweep.knee.offered_qps))
            entries.append(("knee p99 ms", round(sweep.knee.p99_ms, 3)))
        else:
            failed = True
            entries.append(("knee", "NOT FOUND (every step over SLO)"))
        print(format_kv_block("capacity sweep", entries))
    elif args.queries > 0:
        duration = max(0.2, args.step_duration)
        step = measure_step(
            args.host, args.port, scenario, duration=duration,
            connections=args.connections, slo_ms=args.slo_ms,
            batch=args.batch, **resilience)
        # Size the run to ~N queries: extend once if the first step
        # undershot badly (slow hosts), keeping the smoke bounded.
        while step.queries < args.queries and duration < 60.0:
            duration *= 2.0
            step = measure_step(
                args.host, args.port, scenario, duration=duration,
                connections=args.connections, slo_ms=args.slo_ms,
                batch=args.batch, **resilience)
        report["step"] = step.to_row()
        client_answered += step.queries
        lost += step.failures
        print(format_kv_block("closed-loop step", [
            ("queries answered", step.queries),
            ("ok", step.ok),
            ("errors", step.errors),
            ("lost", step.failures),
            ("achieved qps", round(step.achieved_qps, 1)),
            ("p50 ms", round(step.p50_ms, 3)),
            ("p99 ms", round(step.p99_ms, 3)),
        ]))

    if args.soak > 0:
        rss_pids = []
        if args.rss_pids:
            rss_pids = [int(p) for p in args.rss_pids.split(",") if p.strip()]
        soak = measure_soak(
            args.host, args.port, scenario, duration=args.soak,
            connections=args.connections, offered_qps=args.rate,
            rss_pids=rss_pids, batch=args.batch)
        report["soak"] = soak.to_row()
        client_answered += soak.queries
        lost += soak.failures
        drift = soak.rss_drift
        degradation = soak.p99_degradation
        print(format_kv_block("soak", [
            ("duration s", round(soak.duration, 1)),
            ("queries answered", soak.queries),
            ("lost", soak.failures),
            ("reconnects", soak.reconnects),
            ("window-0 slams", soak.slams),
            ("quartile p99 ms", " ".join(
                f"{v:.3f}" for v in soak.quartile_p99_ms)),
            ("p99 degradation", "n/a" if degradation is None
             else round(degradation, 3)),
            ("rss drift", "n/a" if drift is None else f"{drift:+.2%}"),
        ]))

    if not (args.rates or args.queries > 0 or args.soak > 0):
        print("error: nothing to do (give --rates, --queries, or --soak)",
              file=sys.stderr)
        return 2

    if client_registry is not None:
        client_snapshot = client_registry.snapshot()
        report["client"] = client_snapshot
        counters = client_snapshot.get("counters", {})
        print(format_kv_block(
            "hardened-client counters",
            [(name, counters[name]) for name in sorted(counters)]))

    if args.assert_fleet_consistent:
        snapshot = fetch_stats(args.host, args.port)
        report["stats"] = snapshot
        counters = snapshot.get("counters", {})
        server_queries = int(counters.get("server.queries", 0))
        per_worker = snapshot.get("fleet", {}).get("per_worker", [])
        worker_sum = sum(int(row.get("queries", 0)) for row in per_worker)
        if per_worker and worker_sum != server_queries:
            print(f"FLEET INCONSISTENT: per-worker queries sum {worker_sum} "
                  f"!= aggregated server.queries {server_queries}",
                  file=sys.stderr)
            failed = True
        if server_queries != client_answered:
            print(f"FLEET INCONSISTENT: aggregated server.queries "
                  f"{server_queries} != client-observed answers "
                  f"{client_answered}", file=sys.stderr)
            failed = True
        if not failed:
            workers = len(per_worker) if per_worker else 1
            print(f"# fleet consistent: {client_answered} answers across "
                  f"{workers} worker(s), aggregated queries match exactly")
    elif args.stats_json:
        report["stats"] = fetch_stats(args.host, args.port)

    if args.assert_complete and lost > 0:
        print(f"LOADGEN INCOMPLETE: {lost} queries lost", file=sys.stderr)
        failed = True

    if args.stats_json:
        with open(args.stats_json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.stats_json}")
    return 1 if failed else 0


def _cmd_chaosproxy(args: argparse.Namespace) -> int:
    import asyncio
    import json
    import signal

    from repro.service.chaosproxy import ChaosProxy, FaultPlan

    try:
        plan = FaultPlan(
            seed=str(args.seed),
            latency_ms=args.latency_ms,
            jitter_ms=args.jitter_ms,
            bandwidth_kbps=args.bandwidth_kbps,
            reset_rate=args.reset_rate,
            corrupt_rate=args.corrupt_rate,
            truncate_rate=args.truncate_rate,
            trickle_rate=args.trickle_rate,
            trickle_interval=args.trickle_interval,
            partition_at=args.partition_at,
            partition_duration=args.partition_duration,
            directions=args.direction,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    proxy = ChaosProxy(args.upstream_host, args.upstream_port, plan,
                       host=args.host, port=args.port)

    async def _run() -> None:
        port = await proxy.start()
        print(f"chaos proxy on {args.host}:{port} -> "
              f"{args.upstream_host}:{args.upstream_port} "
              f"(seed {plan.seed!r})", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):
                pass
        try:
            if args.duration is not None:
                try:
                    await asyncio.wait_for(stop.wait(), args.duration)
                except asyncio.TimeoutError:
                    pass
            else:
                await stop.wait()
        finally:
            await proxy.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    snapshot = proxy.snapshot()
    counters = snapshot.get("counters", {})
    print(format_kv_block(
        "chaos proxy injected faults",
        [(name, counters[name]) for name in sorted(counters)]))
    if args.stats_json:
        with open(args.stats_json, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.stats_json}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    import json

    from repro.core.word import random_word
    from repro.service.client import (
        CLIENT_DEADLINE_MESSAGE,
        fetch_stats,
        query_once,
        run_burst,
        run_robust_burst,
    )

    policy, breaker = _resilience_from_args(args)
    client_stats: Optional[dict] = None
    did_something = False
    if args.source is not None or args.destination is not None:
        if args.source is None or args.destination is None:
            print("error: give both SOURCE and DESTINATION, or neither",
                  file=sys.stderr)
            return 2
        x = parse_word(args.source, args.d)
        y = parse_word(args.destination, args.d)
        reply = query_once(args.host, args.port, x, y, args.d,
                           directed=args.directed,
                           want_path=not args.distance_only, policy=policy)
        if not reply.ok:
            print(f"error reply: {reply.error_code.name} "
                  f"{reply.error_message}", file=sys.stderr)
            return 1
        print(f"distance: {reply.distance}")
        if reply.path is not None:
            print(f"path ({len(reply.path)} hops): "
                  f"{format_path(reply.path) or '(empty)'}")
            trace = path_words(x, reply.path, args.d)
            print("trace:", " -> ".join(format_word(w) for w in trace))
        did_something = True

    if args.burst > 0:
        rng = random.Random(args.seed)
        pairs = [(random_word(args.d, args.k, rng),
                  random_word(args.d, args.k, rng))
                 for _ in range(args.burst)]
        if policy is not None:
            outcome, client_stats = run_robust_burst(
                args.host, args.port, pairs, args.d,
                directed=args.directed,
                want_path=not args.distance_only,
                pool_size=args.pool, window=args.window,
                policy=policy, breaker=breaker)
        else:
            outcome = run_burst(args.host, args.port, pairs, args.d,
                                directed=args.directed,
                                want_path=not args.distance_only,
                                pool_size=args.pool, window=args.window)
        entries = [
            ("queries", len(outcome.replies)),
            ("replies ok", outcome.ok_count),
            ("elapsed seconds", round(outcome.elapsed, 4)),
            ("queries/sec", round(outcome.qps, 1)),
        ]
        for name, count in sorted(outcome.error_counts.items()):
            entries.append((f"errors {name}", count))
        if client_stats is not None:
            lost = sum(
                1 for reply in outcome.replies
                if reply.error_message == CLIENT_DEADLINE_MESSAGE)
            entries.append(("lost (client deadline)", lost))
            counters = client_stats.get("counters", {})
            entries.extend(
                (name, counters[name]) for name in sorted(counters))
        print(format_kv_block(
            f"pipelined burst against {args.host}:{args.port}", entries))
        did_something = True

    if args.stats or args.stats_json or args.assert_min_replies is not None:
        snapshot = fetch_stats(args.host, args.port)
        if client_stats is not None:
            snapshot["client"] = client_stats
        if args.stats:
            print(json.dumps(snapshot, indent=2, sort_keys=True))
        if args.stats_json:
            with open(args.stats_json, "w", encoding="utf-8") as handle:
                json.dump(snapshot, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote {args.stats_json}")
        if args.assert_min_replies is not None:
            replies = int(snapshot.get("counters", {})
                          .get("server.replies", 0))
            if replies < args.assert_min_replies:
                print(f"SERVICE REGRESSION: server.replies {replies} < "
                      f"required {args.assert_min_replies}", file=sys.stderr)
                return 1
            print(f"# stats check passed: server.replies {replies} >= "
                  f"{args.assert_min_replies}")
        did_something = True

    if not did_something:
        print("error: nothing to do (give a pair, --burst, or --stats)",
              file=sys.stderr)
        return 2
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    import json
    import signal
    import sys
    import tempfile
    import time

    from repro.cluster.harness import (ClusterHarness, ClusterSpec,
                                       run_kill_drill)
    from repro.exceptions import SimulationError

    workdir = args.workdir or tempfile.mkdtemp(prefix="repro-cluster-")
    use_proxies = bool(getattr(args, "proxies", False)
                       or getattr(args, "isolate", None) is not None)
    spec = ClusterSpec(
        d=args.d, k=args.k, nodes=args.nodes, host=args.host,
        probe_interval=args.probe_interval,
        probe_timeout=args.probe_timeout,
        suspicion_timeout=args.suspicion_timeout,
        indirect_probes=args.indirect_probes, seed=args.seed,
        repair_delay=args.repair_delay, use_proxies=use_proxies)

    if args.cluster_command == "drill":
        # The burst's connections to the SIGKILLed node die mid-write and
        # asyncio's transport layer logs one noisy line per socket; that
        # is the drill working as intended, so keep it off the console.
        import logging
        logging.getLogger("asyncio").setLevel(logging.CRITICAL)
        try:
            report = run_kill_drill(spec, workdir, victim=args.victim,
                                    queries=args.queries,
                                    burst_window=args.window)
        except SimulationError as exc:
            print(f"cluster drill FAILED: {exc}", file=sys.stderr)
            return 1
        burst = report["fault_burst"]
        detect = report["detection_s"]
        print(f"cluster drill: d={spec.d} k={spec.k} nodes={spec.nodes} "
              f"victim={report['victim']}")
        print(f"  detection: worst {max(detect.values()) * 1000:.0f} ms "
              f"over {len(detect)} survivors "
              f"(bound {report['detection_bound_s'] * 1000:.0f} ms)")
        print(f"  repair: worst {max(report['repair_s'].values()) * 1000:.0f}"
              f" ms, digests byte-identical to a fresh compile")
        print(f"  delivery: {burst['ok']}/{burst['queries']} ok, "
              f"{burst['lost']} lost, {burst['failovers']} failovers, "
              f"{report['detoured_queries']} detoured")
        for name, phase in burst["per_phase"].items():
            print(f"    {name:>6}: {phase['ok']}/{phase['queries']}")
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
            print(f"  report -> {args.json}")
        if args.assert_complete:
            problems = []
            if burst["lost"]:
                problems.append(f"{burst['lost']} queries lost")
            if burst["per_phase"]["fault"]["queries"] == 0:
                problems.append("no queries crossed the fault window")
            if burst["per_phase"]["healed"]["queries"] == 0:
                problems.append("no queries after the repair")
            if len(detect) != spec.nodes - 1:
                problems.append(
                    f"verdicts from {len(detect)} of {spec.nodes - 1} "
                    "survivors")
            if problems:
                print("cluster drill INCOMPLETE: " + "; ".join(problems),
                      file=sys.stderr)
                return 1
        return 0

    # "up": a foreground fleet with a scripted fault timeline.
    stop = False

    def _on_term(signum, frame):
        nonlocal stop
        stop = True

    try:
        signal.signal(signal.SIGTERM, _on_term)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass

    events: List[List] = []
    if args.kill is not None:
        events.append([args.kill_after, "kill", args.kill])
    if args.isolate is not None:
        events.append([args.isolate_after, "isolate", args.isolate])
        if args.heal_after is not None:
            events.append([args.heal_after, "heal", args.isolate])
    events.sort(key=lambda event: event[0])

    with ClusterHarness(spec, workdir) as harness:
        harness.up()
        print(f"cluster up: {spec.nodes} node processes over DG({spec.d},"
              f"{spec.k}), table at {harness.table_path}")
        for row in harness.status():
            print(f"  node {row['node']}: pid {row['pid']} "
                  f"tcp {row['tcp_port']} swim {row['swim_port']}")
        started = time.monotonic()
        next_status = started + args.status_interval
        try:
            while not stop:
                now = time.monotonic() - started
                if args.duration is not None and now >= args.duration:
                    break
                while events and events[0][0] <= now:
                    _, action, node = events.pop(0)
                    getattr(harness, action)(node)
                    print(f"[{now:7.2f}s] {action} node {node}")
                if time.monotonic() >= next_status:
                    parts = []
                    for row in harness.status():
                        state = "up" if row["alive"] else "DOWN"
                        mask = row.get("cluster.dead_mask", "?")
                        unrepaired = row.get("cluster.unrepaired", "?")
                        parts.append(f"{row['node']}:{state} mask={mask} "
                                     f"unrepaired={unrepaired}")
                    print(f"[{now:7.2f}s] " + "  ".join(parts))
                    next_status += args.status_interval
                time.sleep(0.05)
        except KeyboardInterrupt:
            pass
    print("cluster stopped")
    return 0


def _cmd_about(args: argparse.Namespace) -> int:
    from repro.inventory import render_inventory

    print(render_inventory())
    return 0


_COMMANDS = {
    "distance": _cmd_distance,
    "route": _cmd_route,
    "average-distance": _cmd_average,
    "structure": _cmd_structure,
    "simulate": _cmd_simulate,
    "sequence": _cmd_sequence,
    "disjoint-paths": _cmd_disjoint_paths,
    "broadcast": _cmd_broadcast,
    "topology": _cmd_topology,
    "experiments": _cmd_experiments,
    "congestion": _cmd_congestion,
    "robustness": _cmd_robustness,
    "sort": _cmd_sort,
    "render": _cmd_render,
    "compile-tables": _cmd_compile_tables,
    "chaos": _cmd_chaos,
    "detect": _cmd_detect,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "query": _cmd_query,
    "chaosproxy": _cmd_chaosproxy,
    "cluster": _cmd_cluster,
    "about": _cmd_about,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``debruijn-routing`` console script."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
