"""Discrete-event simulation of the de Bruijn network DN(d, k)."""

from repro.network.broadcast import (
    broadcast_lower_bound,
    broadcast_tree,
    simulate_tree_broadcast,
    simulate_unicast_broadcast,
    tree_depth,
)
from repro.network.deflection import (
    DeflectionNetwork,
    DeflectionStats,
    preferred_port,
    uniform_deflection_workload,
)
from repro.network.chaos import (
    ChaosConfig,
    ChaosSchedule,
    FaultEvent,
    generate_schedule,
    install_link_loss,
    run_campaign,
)
from repro.network.gossip import GossipResult, mean_rounds_to_cover, push_gossip
from repro.network.membership import (
    DetectionReport,
    MembershipView,
    OracleMembership,
    SiteView,
    SwimConfig,
    SwimDetector,
)
from repro.network.faults import (
    FaultAwareRouter,
    is_connected_after_failures,
    survives_failures,
    vertex_disjoint_paths,
)
from repro.network.message import ControlCode, Message, decode_message, encode_message
from repro.network.node import Node
from repro.network.link import Link
from repro.network.router import (
    AdaptiveGreedyRouter,
    BidirectionalOptimalRouter,
    RandomMinimalRouter,
    Router,
    StatelessRouter,
    TableDrivenRouter,
    TrivialRouter,
    UnidirectionalOptimalRouter,
    ValiantRouter,
)
from repro.network.reliable import ReliableTransport, Transfer, TransportStats
from repro.network.resilience import (
    LocalDetourPolicy,
    SelfHealingRouteTable,
    compile_with_failures,
    repair_route_table,
)
from repro.network.simulator import Simulator, run_workload
from repro.network.sorting import odd_even_transposition_sort, sort_trace
from repro.network.tracing import TraceRecorder
from repro.network.stats import SimulationStats, jain_fairness, percentile
from repro.network.traffic import (
    all_pairs_once,
    all_to_all,
    bit_reversal,
    complement_traffic,
    hotspot,
    permutation_traffic,
    random_pairs,
    uniform_random,
)

__all__ = [
    "AdaptiveGreedyRouter",
    "BidirectionalOptimalRouter",
    "ChaosConfig",
    "ChaosSchedule",
    "ControlCode",
    "FaultEvent",
    "LocalDetourPolicy",
    "SelfHealingRouteTable",
    "compile_with_failures",
    "generate_schedule",
    "install_link_loss",
    "repair_route_table",
    "run_campaign",
    "DeflectionNetwork",
    "DeflectionStats",
    "DetectionReport",
    "MembershipView",
    "OracleMembership",
    "SiteView",
    "SwimConfig",
    "SwimDetector",
    "GossipResult",
    "mean_rounds_to_cover",
    "push_gossip",
    "preferred_port",
    "uniform_deflection_workload",
    "FaultAwareRouter",
    "Link",
    "Message",
    "Node",
    "RandomMinimalRouter",
    "ReliableTransport",
    "Transfer",
    "TransportStats",
    "odd_even_transposition_sort",
    "sort_trace",
    "Router",
    "SimulationStats",
    "Simulator",
    "StatelessRouter",
    "TableDrivenRouter",
    "TraceRecorder",
    "TrivialRouter",
    "UnidirectionalOptimalRouter",
    "ValiantRouter",
    "all_pairs_once",
    "all_to_all",
    "bit_reversal",
    "broadcast_lower_bound",
    "broadcast_tree",
    "simulate_tree_broadcast",
    "simulate_unicast_broadcast",
    "tree_depth",
    "complement_traffic",
    "decode_message",
    "encode_message",
    "hotspot",
    "is_connected_after_failures",
    "jain_fairness",
    "percentile",
    "permutation_traffic",
    "random_pairs",
    "run_workload",
    "survives_failures",
    "uniform_random",
    "vertex_disjoint_paths",
]
