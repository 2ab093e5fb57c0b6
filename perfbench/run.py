"""Run one benchmark workload and print its result.

Usage, from the repository root::

    python3 perfbench/run.py --workload table-distance --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off; ``--trace 1`` is the separate traced run that reports the
per-layer metrics.  Standard output ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it is a JSON report with the run's provenance (commit
or source digest, Python, nproc, the CPU each process last ran on, host
steal), every answer tally, and the metrics the workload measures but
the result line does not carry.  Exit status is non-zero, with no
result line, when the run cannot be made.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
#: The end-to-end metrics of the benchmark's definition, by their names
#: there: (name, key in the measured values, unit).  The result line
#: carries the gated ones of BENCHMARK.json; the report line all of
#: them that the workload measures.
END_TO_END = (
    ("setup_s", "setup_s", "s"),
    ("peak_qps", "peak_qps", "queries/s"),
    ("p50_ms", "p50_ms", "ms"),
    ("p99_ms", "lone.p99_ms", "ms"),
    ("rss_mb", "rss_mb", "MB"),
    ("detection_s", "cluster.detection_s", "s"),
    ("repair_s", "cluster.repair_s", "s"),
    ("failover_qps", "cluster.failover_qps", "queries/s"),
)
#: Longest temp-dir path that still leaves room in a 108-byte unix socket
#: address for ``repro-fleet-XXXXXXXX/control.sock``.
UNIX_PATH_ROOM = 70


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # Import the measured program from this checkout, never from an
    # installed copy; the script's own directory is not a package root.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import processes

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in bench["workloads"]}
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(names)}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    processes.adopt_orphans()
    try:
        return _measure(args, bench)
    finally:
        processes.end_children()


def _measure(args: argparse.Namespace, bench: dict) -> int:
    """Run the workload and print the report and result lines."""
    from perfbench import cluster, host, processes, service

    # The generator gets one CPU and the serving processes the other,
    # so neither loop is scheduled behind the other.
    placement = host.Placement.split()
    placement.pin(0, placement.generator)
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="r", dir=scratch)
    # Temporary files of the measured program (the supervisor's control
    # socket) go inside the checkout too, unless that path would not fit
    # a unix socket address.
    if len(workdir) <= UNIX_PATH_ROOM:
        tempfile.tempdir = workdir
    try:
        if args.workload in service.WORKLOADS:
            result = service.run(args.workload, args.seed, args.seconds,
                                 bool(args.trace), workdir, placement)
        else:
            result = cluster.run(args.seed, args.seconds, bool(args.trace),
                                 workdir, placement)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run still uses it
            pass
    # Every process the run started, and every orphan of the measured
    # program's, has ended before a result is printed.
    stragglers = processes.end_children()
    tally = result["tally"]
    self_test = result["checker"].self_test()
    values = result["metrics"]
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not args.trace:
        print(f"error: end-to-end metrics not measured: {missing}",
              file=sys.stderr)
        return 1
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": host.provenance(ROOT),
        "placement": placement.as_dict(),
        "tally": tally.as_dict(),
        "end_to_end": {
            name: {"value": values[key], "unit": unit}
            for name, key, unit in END_TO_END if key in values} | {
            "error_rate": {"value": tally.failed / tally.attempted,
                           "unit": "fraction"}},
        "checker_self_test": "passed" if self_test else "FAILED",
        "stopped_stragglers": stragglers,
        "not_measured_on_this_workload": missing,
        "measured": values,
        **result["report"],
    }
    print(json.dumps(report, sort_keys=True, default=str))
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": self_test and tally.wrong == 0 and tally.lost == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
