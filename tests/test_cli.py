"""Tests for the ``debruijn-routing`` command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def test_distance_command(capsys):
    assert main(["distance", "-d", "2", "0110", "1110"]) == 0
    out = capsys.readouterr().out
    assert "directed: 4" in out
    assert "undirected: 2" in out


def test_distance_command_rejects_length_mismatch(capsys):
    assert main(["distance", "-d", "2", "01", "111"]) == 2
    assert "equal length" in capsys.readouterr().err


def test_route_command_undirected(capsys):
    assert main(["route", "-d", "2", "0110", "1110"]) == 0
    out = capsys.readouterr().out
    assert "path (2 hops):" in out
    assert out.strip().endswith("1110")


def test_route_command_directed(capsys):
    assert main(["route", "-d", "2", "--directed", "0110", "1110"]) == 0
    out = capsys.readouterr().out
    assert "path (4 hops):" in out
    assert "R" not in out.split("trace:")[0].replace("routing", "")  # left shifts only


def test_route_command_no_wildcards(capsys):
    assert main(["route", "-d", "2", "--no-wildcards", "0110", "1110"]) == 0
    assert "*" not in capsys.readouterr().out


def test_route_command_method_selection(capsys):
    assert main(["route", "-d", "2", "--method", "suffix_tree", "0110", "1110"]) == 0
    assert "path (2 hops):" in capsys.readouterr().out


def test_route_same_vertex(capsys):
    assert main(["route", "-d", "2", "011", "011"]) == 0
    assert "(empty)" in capsys.readouterr().out


def test_average_distance_command(capsys):
    assert main(["average-distance", "-d", "2", "-k", "3"]) == 0
    out = capsys.readouterr().out
    assert "eq(5)" in out
    assert "2.1250" in out  # δ(2,3)
    assert "1.8438" in out  # exact directed mean


def test_average_distance_skips_large_graphs(capsys):
    assert main(["average-distance", "-d", "2", "-k", "4", "--max-pairs", "20"]) == 0
    assert "nan" in capsys.readouterr().out


def test_structure_command(capsys):
    assert main(["structure", "-d", "2", "-k", "3"]) == 0
    out = capsys.readouterr().out
    assert "order: 8" in out
    assert "diameter: 3" in out


def test_structure_command_directed(capsys):
    assert main(["structure", "-d", "2", "-k", "3", "--directed"]) == 0
    assert "simple_edges: 14" in capsys.readouterr().out


def test_simulate_command(capsys):
    assert main(["simulate", "-d", "2", "-k", "3", "--cycles", "20", "--rate", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "delivered:" in out
    assert "mean_hops:" in out


def test_simulate_trivial_router(capsys):
    assert main(["simulate", "-d", "2", "-k", "3", "--router", "trivial",
                 "--cycles", "10", "--rate", "0.2"]) == 0
    assert "trivial" in capsys.readouterr().out


def test_simulate_unidirectional_router(capsys):
    assert main(["simulate", "-d", "2", "-k", "3", "--router", "optimal-unidirectional",
                 "--cycles", "10", "--rate", "0.2"]) == 0
    assert "optimal-unidirectional" in capsys.readouterr().out


def test_simulate_table_router(capsys):
    assert main(["simulate", "-d", "2", "-k", "4", "--router", "table",
                 "--cycles", "20", "--rate", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "table-driven[bi]" in out
    assert "table_routed" in out


def test_compile_tables_command(tmp_path, capsys):
    output = str(tmp_path / "dg2-5.routes")
    assert main(["compile-tables", "-d", "2", "-k", "5", "--workers", "2",
                 "--verify", "50", "--output", output]) == 0
    out = capsys.readouterr().out
    assert "table bytes: 2048" in out
    assert "mismatches: 0" in out

    from repro.core.tables import CompiledRouteTable, table_path

    assert table_path(output) == (2, 5, False)
    loaded = CompiledRouteTable.load(output)
    try:
        assert loaded.distance((0, 0, 0, 0, 1), (1, 0, 0, 0, 0)) >= 1
    finally:
        loaded.close()


def test_compile_tables_directed(tmp_path, capsys):
    output = str(tmp_path / "dg2-4-uni.routes")
    assert main(["compile-tables", "-d", "2", "-k", "4", "--directed",
                 "--output", output]) == 0
    assert "orientation: directed" in capsys.readouterr().out


def test_missing_subcommand_exits():
    with pytest.raises(SystemExit):
        main([])


def test_unknown_subcommand_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_sequence_command_fkm(capsys):
    assert main(["sequence", "-d", "2", "-k", "3"]) == 0
    out = capsys.readouterr().out
    assert "00010111" in out


def test_sequence_command_euler(capsys):
    assert main(["sequence", "-d", "2", "-k", "3", "--method", "euler"]) == 0
    out = capsys.readouterr().out
    assert "length 8" in out


def test_disjoint_paths_command(capsys):
    assert main(["disjoint-paths", "-d", "2", "001", "110"]) == 0
    out = capsys.readouterr().out
    assert "vertex-disjoint routes" in out
    assert "001" in out and "110" in out


def test_disjoint_paths_rejects_mismatch(capsys):
    assert main(["disjoint-paths", "-d", "2", "001", "11"]) == 2


def test_broadcast_command(capsys):
    assert main(["broadcast", "-d", "2", "-k", "3"]) == 0
    out = capsys.readouterr().out
    assert "tree-relay makespan" in out
    assert "speedup" in out


def test_broadcast_command_custom_root(capsys):
    assert main(["broadcast", "-d", "2", "-k", "3", "--root", "010"]) == 0
    assert "010" in capsys.readouterr().out


def test_topology_command(capsys):
    assert main(["topology", "-d", "2", "-k", "4"]) == 0
    out = capsys.readouterr().out
    assert "Kautz" in out and "Moore" in out


def test_congestion_command(capsys):
    assert main(["congestion", "-d", "2", "-k", "4"]) == 0
    out = capsys.readouterr().out
    assert "bit-reversal" in out and "optimal" in out


def test_robustness_command(capsys):
    assert main(["robustness", "-d", "2", "-k", "4", "--fractions", "0,0.2"]) == 0
    out = capsys.readouterr().out
    assert "largest component" in out
    assert "0.2" in out


def test_sort_command(capsys):
    assert main(["sort", "-d", "2", "-k", "3"]) == 0
    out = capsys.readouterr().out
    assert "sorted correctly: yes" in out


def test_selfcheck_module(capsys):
    from repro.selfcheck import main as selfcheck_main

    assert selfcheck_main() == 0
    out = capsys.readouterr().out
    assert "all self-checks passed" in out
    assert out.count("[ ok ]") == 6


def test_render_command_svg_stdout(capsys):
    assert main(["render", "-d", "2", "-k", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("<svg")


def test_render_command_dot_with_route(capsys):
    assert main(["render", "-d", "2", "-k", "3", "--format", "dot",
                 "--route", "001", "111"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph")
    assert "penwidth=2" in out


def test_render_command_to_file(tmp_path, capsys):
    target = tmp_path / "g.svg"
    assert main(["render", "-d", "2", "-k", "2", "--output", str(target)]) == 0
    assert target.exists()
    assert target.read_text().startswith("<svg")


def test_topology_shootout_flag(capsys):
    assert main(["topology", "-d", "2", "-k", "6", "--shootout"]) == 0
    out = capsys.readouterr().out
    assert "hypercube" in out and "ring" in out and "degree growth" in out


def test_chaos_command_runs_and_asserts_improvement(capsys):
    assert main(["chaos", "-d", "2", "-k", "4", "--seed", "cli-test",
                 "--messages", "80", "--horizon", "800",
                 "--mtbf", "200", "--mttr", "60", "--loss-rate", "0.04",
                 "--intensities", "0,1.0", "--assert-improves"]) == 0
    out = capsys.readouterr().out
    assert "oblivious" in out and "repair" in out
    assert "resilience check passed" in out
    assert "seed 'cli-test' replays this campaign" in out


def test_chaos_command_strategy_subset(capsys):
    assert main(["chaos", "-d", "2", "-k", "4", "--seed", "cli-sub",
                 "--messages", "40", "--horizon", "400",
                 "--intensities", "0.5", "--strategies",
                 "oblivious,detour"]) == 0
    out = capsys.readouterr().out
    assert "detour" in out and "reroute" not in out


def test_chaos_command_with_membership_legs(capsys):
    assert main(["chaos", "-d", "2", "-k", "4", "--seed", "cli-detect",
                 "--messages", "60", "--horizon", "600",
                 "--mtbf", "200", "--mttr", "60",
                 "--intensities", "0,1.0", "--membership"]) == 0
    out = capsys.readouterr().out
    assert "detour-detect" in out and "repair-detect" in out
    assert "mean det latency" in out  # the detection-stats table printed


_DETECT_ARGS = ["detect", "-d", "2", "-k", "3", "--seed", "cli-det",
                "--horizon", "600", "--mtbf", "200", "--mttr", "150",
                "--probe-interval", "5", "--suspicion", "10"]


def test_detect_command(capsys):
    assert main(list(_DETECT_ARGS)) == 0
    out = capsys.readouterr().out
    assert "outages" in out
    assert "detected" in out
    assert "replays this run exactly" in out


def test_detect_command_assert_detects_threshold(capsys):
    assert main(_DETECT_ARGS + ["--assert-detects", "0.5"]) == 0
    capsys.readouterr()
    # An impossible bar trips the check (non-zero exit).
    assert main(_DETECT_ARGS + ["--assert-detects", "1.01"]) == 1


# ----------------------------------------------------------------------
# Route-query service: serve / query subcommands
# ----------------------------------------------------------------------


class _BackgroundServer:
    """A live route-query server on an ephemeral port, for CLI tests."""

    def __init__(self, d=2, k=4, **config_kwargs):
        from repro.service.engine import RouteQueryEngine
        from repro.service.loop import LoopThread
        from repro.service.server import RouteQueryServer, ServerConfig

        self._server = RouteQueryServer(
            RouteQueryEngine(d, k), ServerConfig(**config_kwargs))
        self._loop = LoopThread(name="cli-test-server")
        self.port = self._loop.call(self._server.start())

    def close(self):
        try:
            self._loop.call(self._server.stop())
        finally:
            self._loop.close()


@pytest.fixture
def live_server():
    server = _BackgroundServer(d=2, k=4)
    yield server
    server.close()


def test_serve_command_runs_for_duration(capsys):
    assert main(["serve", "-d", "2", "-k", "3", "--port", "0",
                 "--duration", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "serving DG(2,3)" in out
    assert "server.queue_peak: 0" in out
    assert "server.open_connections: 0" in out
    # One worker runs under the supervisor, like N > 1.
    assert "1 workers via" in out
    assert "fleet.workers: 1" in out
    assert "fleet.workers_lost: 0" in out


def test_serve_command_writes_stats_json(tmp_path, capsys):
    import json

    target = tmp_path / "stats.json"
    assert main(["serve", "-d", "2", "-k", "3", "--port", "0",
                 "--duration", "0.2", "--stats-json", str(target)]) == 0
    snapshot = json.loads(target.read_text())
    assert "counters" in snapshot and "histograms" in snapshot
    assert "wrote" in capsys.readouterr().out


def test_serve_command_rejects_conflicting_table_flags(capsys):
    assert main(["serve", "-d", "2", "-k", "3", "--table", "x.routes",
                 "--compile-table"]) == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_query_command_single_pair(live_server, capsys):
    assert main(["query", "-d", "2", "-k", "4", "--port",
                 str(live_server.port), "0110", "1110"]) == 0
    out = capsys.readouterr().out
    assert "distance: 2" in out
    assert "path (2 hops):" in out
    assert out.strip().endswith("1110")


def test_query_command_burst_and_stats_assert(live_server, capsys):
    assert main(["query", "-d", "2", "-k", "4", "--port",
                 str(live_server.port), "--burst", "120",
                 "--distance-only", "--assert-min-replies", "120"]) == 0
    out = capsys.readouterr().out
    assert "replies ok: 120" in out
    assert "queries/sec:" in out
    assert "stats check passed" in out


def test_query_command_stats_json(live_server, capsys):
    assert main(["query", "-d", "2", "-k", "4", "--port",
                 str(live_server.port), "--stats"]) == 0
    assert '"server.stats_requests"' in capsys.readouterr().out


def test_query_command_stats_json_file(live_server, tmp_path, capsys):
    import json

    target = tmp_path / "snapshot.json"
    assert main(["query", "-d", "2", "-k", "4", "--port",
                 str(live_server.port), "--burst", "20",
                 "--stats-json", str(target)]) == 0
    assert f"wrote {target}" in capsys.readouterr().out
    snapshot = json.loads(target.read_text())
    assert "counters" in snapshot
    assert snapshot["counters"]["server.replies"] >= 20


def test_query_command_assert_min_replies_trips(live_server, capsys):
    assert main(["query", "-d", "2", "-k", "4", "--port",
                 str(live_server.port), "--burst", "10",
                 "--assert-min-replies", "100000"]) == 1
    assert "SERVICE REGRESSION" in capsys.readouterr().err


def test_query_command_wrong_graph_is_an_error_reply(live_server, capsys):
    assert main(["query", "-d", "2", "-k", "6", "--port",
                 str(live_server.port), "011010", "111000"]) == 1
    assert "UNSUPPORTED" in capsys.readouterr().err


def test_query_command_requires_work(live_server, capsys):
    assert main(["query", "-d", "2", "-k", "4", "--port",
                 str(live_server.port)]) == 2
    assert "nothing to do" in capsys.readouterr().err
    assert main(["query", "-d", "2", "-k", "4", "--port",
                 str(live_server.port), "0110"]) == 2
    assert "both SOURCE and DESTINATION" in capsys.readouterr().err


def test_serve_command_multi_worker_fleet(capsys):
    assert main(["serve", "-d", "2", "-k", "4", "--port", "0",
                 "--workers", "2", "--duration", "0.4"]) == 0
    out = capsys.readouterr().out
    assert "2 workers via" in out
    assert "fleet.workers: 2" in out
    assert "fleet.workers_lost: 0" in out


def test_loadgen_command_step_and_assert_complete(live_server, capsys):
    assert main(["loadgen", "-d", "2", "-k", "4", "--port",
                 str(live_server.port), "--queries", "50",
                 "--step-duration", "0.3", "--assert-complete"]) == 0
    out = capsys.readouterr().out
    assert "closed-loop step" in out
    assert "queries answered" in out


def test_loadgen_command_fleet_consistency_on_fresh_server(
        live_server, tmp_path, capsys):
    import json

    target = tmp_path / "loadgen.json"
    assert main(["loadgen", "-d", "2", "-k", "4", "--port",
                 str(live_server.port), "--queries", "40",
                 "--step-duration", "0.3", "--assert-fleet-consistent",
                 "--stats-json", str(target)]) == 0
    out = capsys.readouterr().out
    assert "# fleet consistent:" in out
    report = json.loads(target.read_text())
    assert report["step"]["queries"] >= 40
    assert report["stats"]["counters"]["server.queries"] \
        == report["step"]["queries"]


def test_loadgen_command_requires_action(live_server, capsys):
    assert main(["loadgen", "-d", "2", "-k", "4", "--port",
                 str(live_server.port)]) == 2
    assert "nothing to do" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Chaos proxy + hardened-client flags (E24)
# ----------------------------------------------------------------------


def test_chaosproxy_command_runs_for_duration(live_server, tmp_path, capsys):
    import json

    target = tmp_path / "chaos.json"
    assert main(["chaosproxy", "--port", "0",
                 "--upstream-port", str(live_server.port),
                 "--latency-ms", "1", "--duration", "0.2",
                 "--stats-json", str(target)]) == 0
    out = capsys.readouterr().out
    assert "chaos proxy on" in out
    assert "chaos proxy injected faults" in out
    assert f"wrote {target}" in out
    snapshot = json.loads(target.read_text())
    assert "counters" in snapshot


def test_chaosproxy_command_rejects_bad_plan(capsys):
    assert main(["chaosproxy", "--upstream-port", "1",
                 "--reset-rate", "1.5", "--duration", "0.1"]) == 2
    assert "reset_rate" in capsys.readouterr().err


def test_resilience_from_args_defaults_to_off():
    import argparse

    from repro.cli import _resilience_from_args

    ns = argparse.Namespace(
        retries=None, deadline_ms=None,
        attempt_timeout_ms=None, breaker_failures=5,
        breaker_probe_ms=1000.0, seed=0)
    assert _resilience_from_args(ns) == (None, None)

    ns.retries = 3
    policy, breaker = _resilience_from_args(ns)
    assert policy.retries == 3
    assert policy.deadline == 30.0
    assert breaker.failure_threshold == 5
    assert breaker.probe_interval == 1.0

    ns.deadline_ms = 5000.0
    ns.attempt_timeout_ms = 500.0
    policy, _ = _resilience_from_args(ns)
    assert policy.deadline == 5.0
    assert policy.attempt_timeout == 0.5


def test_query_command_burst_with_retries(live_server, capsys):
    assert main(["query", "-d", "2", "-k", "4", "--port",
                 str(live_server.port), "--burst", "50",
                 "--retries", "2", "--distance-only"]) == 0
    out = capsys.readouterr().out
    assert "replies ok: 50" in out
    assert "lost (client deadline): 0" in out
    assert "client.attempts" in out


def test_loadgen_command_with_retries(live_server, tmp_path, capsys):
    import json

    target = tmp_path / "loadgen.json"
    assert main(["loadgen", "-d", "2", "-k", "4", "--port",
                 str(live_server.port), "--queries", "40",
                 "--step-duration", "0.3", "--retries", "2",
                 "--assert-complete", "--stats-json", str(target)]) == 0
    out = capsys.readouterr().out
    assert "hardened-client counters" in out
    report = json.loads(target.read_text())
    assert "client" in report
    assert report["client"]["counters"].get("client.attempts", 0) >= 1


def test_serve_command_read_timeout_and_max_connections(capsys):
    assert main(["serve", "-d", "2", "-k", "3", "--port", "0",
                 "--duration", "0.2", "--read-timeout", "1.0",
                 "--max-connections", "16"]) == 0
    assert "serving DG(2,3)" in capsys.readouterr().out


def test_cluster_drill_command(tmp_path, capsys):
    report_path = tmp_path / "drill.json"
    assert main(["cluster", "drill", "-d", "2", "-k", "5", "--nodes", "3",
                 "--queries", "300", "--window", "32",
                 "--probe-interval", "0.15", "--probe-timeout", "0.08",
                 "--suspicion-timeout", "0.4", "--repair-delay", "0.2",
                 "--workdir", str(tmp_path),
                 "--json", str(report_path), "--assert-complete"]) == 0
    out = capsys.readouterr().out
    assert "0 lost" in out
    assert "byte-identical" in out
    report = json.loads(report_path.read_text())
    assert report["fault_burst"]["lost"] == 0
    assert set(report["detection_s"]) == {"0", "1"}


def test_cluster_up_command_with_scripted_kill(tmp_path, capsys):
    assert main(["cluster", "up", "-d", "2", "-k", "5", "--nodes", "3",
                 "--probe-interval", "0.15", "--probe-timeout", "0.08",
                 "--suspicion-timeout", "0.4", "--workdir", str(tmp_path),
                 "--kill", "1", "--kill-after", "0.5",
                 "--duration", "3.0", "--status-interval", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "cluster up: 3 node processes" in out
    assert "kill node 1" in out
    assert "1:DOWN" in out
    # The survivors' final status lines show the verdict bit for node 1.
    assert "mask=2" in out
    assert "cluster stopped" in out
