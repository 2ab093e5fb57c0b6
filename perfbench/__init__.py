"""End-to-end and per-layer benchmark of the route service and cluster.

Run it from the repository root::

    python3 perfbench/run.py --workload table-distance --seed 1 --seconds 10 --trace 0

``BENCHMARK.json`` at the root lists the workloads and metrics;
``perfbench/interactions.json`` records which end-to-end metric each
per-layer metric should move, on which workload, and the predicted
no-change pairs.
"""
