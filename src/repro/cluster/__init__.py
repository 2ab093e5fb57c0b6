"""Real-process de Bruijn cluster runtime (E25).

Each prefix-shard group of DG(d, k) runs as its own OS process serving
route queries over the E21 TCP protocol, while the SWIM layer from
:mod:`repro.network.membership` — the very same :class:`SwimMember`
state machine the simulator drives — runs over wall-clock asyncio UDP
datagrams.  A DEAD verdict triggers detection-driven self-healing in
every surviving process: the node fills a fresh route table for the
surviving topology between event-loop passes and swaps it in whole,
with distance-ranked local detours answering queries whose next hop
died until the repair lands.

Layout:

* :mod:`repro.cluster.codec` — the SWIM datagram wire format.
* :mod:`repro.cluster.swim` — wall-clock :class:`Clock`/``Transport``
  bindings and the per-process :class:`SwimAgent`.
* :mod:`repro.cluster.node` — the node process: engine + server +
  agent + repair loop.
* :mod:`repro.cluster.harness` — spawn/kill/isolate N node processes
  and run measured fault drills (the ``repro cluster`` CLI's engine).
"""

from repro.cluster.codec import decode_packet, encode_packet
from repro.cluster.node import ClusterNodeSpec, ClusterQueryEngine
from repro.cluster.harness import (ClusterHarness, ClusterSpec,
                                   run_kill_drill)
from repro.cluster.swim import SwimAgent

__all__ = [
    "ClusterHarness",
    "ClusterNodeSpec",
    "ClusterQueryEngine",
    "ClusterSpec",
    "SwimAgent",
    "decode_packet",
    "encode_packet",
    "run_kill_drill",
]
