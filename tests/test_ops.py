"""Tests for the operator control plane (:mod:`repro.ops`).

Three layers, cheapest first:

* the Prometheus exposition renderer (pure function, golden output);
* the heartbeat monitor's auto-fence policy knob (no processes);
* the HTTP API daemon over a real multi-process cluster — endpoint
  round-trips, the typed 404/409 error surface, concurrent mutation
  serialisation, and the full grey-failure fence drill driven
  exclusively through :class:`~repro.ops.client.OpsClient`.
"""

import http.client
import json
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.chaos.drills import fence_drill_gates, run_fence_drill
from repro.obs import MetricsRegistry
from repro.obs.exposition import CONTENT_TYPE, metric_name, prometheus_text
from repro.ops import OpsApiError, OpsApiServer, OpsClient, api as api_module
from repro.ops.__main__ import main as walkthrough_main
from repro.ops.manager import ClusterOps
from repro.runtime.liveness import HeartbeatMonitor, NodeState
from repro.runtime.replication import ReplicaGroup, ReplicaGuard, StaleTermError
from repro.runtime.session import (
    WALKTHROUGH_KILLED_NODE,
    Session,
    walkthrough_gates,
)
from tests.conftest import (
    GOLDEN_BACKEND,
    assert_each_breaker_fails_only_its_gate,
    depose_in_place,
    report_digest,
)

# ----------------------------------------------------------------------
# Prometheus exposition (pure)
# ----------------------------------------------------------------------


def walkthrough_reports():
    """What a healthy CI ops-smoke walkthrough leaves behind."""
    traffic = dict(
        frames=500, delivered=480, dropped=20, divergences=0,
        byte_identical=True,
    )
    return {
        "t1": dict(traffic),
        "t2": dict(traffic),
        "poll": {"fenced": [WALKTHROUGH_KILLED_NODE]},
        "audit": {"charging_identical": True, "gpt_replicas_identical": True},
        "shutdown": {"leaked_processes": 0},
        "metrics": "# TYPE repro_runtime_fences_total counter\n"
                   "repro_runtime_fences_total 1\n",
    }


def write_reports(directory, reports):
    for name, report in reports.items():
        if name == "metrics":
            (directory / "metrics.txt").write_text(report)
        else:
            (directory / f"{name}.json").write_text(json.dumps(report))


class TestWalkthroughGates:
    """The ops-smoke gate, on doctored reports rather than a live run."""

    def test_each_breaker_fails_only_its_gate(self):
        reports = walkthrough_reports()
        reports["gates"] = walkthrough_gates(reports)
        assert_each_breaker_fails_only_its_gate(reports, walkthrough_gates, {
            "no_divergence": (("t2", "divergences"), 3),
            "byte_identical": (("t1", "byte_identical"), False),
            "charging_identical": (("audit", "charging_identical"), False),
            "gpt_replicas_identical": (
                ("audit", "gpt_replicas_identical"), False,
            ),
            "no_leaked_processes": (("shutdown", "leaked_processes"), 1),
            "killed_node_fenced": (("poll", "fenced"), [1, 2]),
            "fence_counted": (
                ("metrics",), "repro_runtime_fences_total 10\n",
            ),
        })

    def test_entry_point_exits_1_naming_the_failed_gates(
        self, tmp_path, capsys
    ):
        reports = walkthrough_reports()
        write_reports(tmp_path, reports)
        assert walkthrough_main([str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["fence_counted"] is True
        reports["poll"]["fenced"] = []
        reports["shutdown"]["leaked_processes"] = 2
        write_reports(tmp_path, reports)
        assert walkthrough_main([str(tmp_path)]) == 1
        assert capsys.readouterr().err.strip() == (
            "FAIL: no_leaked_processes, killed_node_fenced"
        )

    def test_python_dash_m_runs_it_in_the_report_directory(self, tmp_path):
        reports = walkthrough_reports()
        reports["t1"]["divergences"] = 1
        write_reports(tmp_path, reports)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ))
        done = subprocess.run(
            [sys.executable, "-m", "repro.ops"], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 1
        assert done.stderr.strip() == "FAIL: no_divergence"


class TestExposition:
    def test_metric_name_mapping(self):
        assert metric_name("gateway.drops.acl") == "repro_gateway_drops_acl"
        assert metric_name("a-b.c d") == "repro_a_b_c_d"
        assert metric_name("runtime.fences", prefix="") == "runtime_fences"

    def test_golden_page(self):
        registry = MetricsRegistry()
        registry.counter("ops.requests", "requests served").inc(3)
        registry.gauge("ops.nodes", "live nodes").set(4)
        hist = registry.histogram(
            "ops.latency_us", buckets=(1.0, 10.0), description="latency"
        )
        hist.observe(0.5)
        hist.observe(5.0)
        hist.observe(50.0)
        expected = "\n".join([
            "# HELP repro_ops_requests_total requests served",
            "# TYPE repro_ops_requests_total counter",
            "repro_ops_requests_total 3",
            "# HELP repro_ops_nodes live nodes",
            "# TYPE repro_ops_nodes gauge",
            "repro_ops_nodes 4",
            "# HELP repro_ops_latency_us latency",
            "# TYPE repro_ops_latency_us histogram",
            'repro_ops_latency_us_bucket{le="1"} 1',
            'repro_ops_latency_us_bucket{le="10"} 2',
            'repro_ops_latency_us_bucket{le="+Inf"} 3',
            "repro_ops_latency_us_sum 55.5",
            "repro_ops_latency_us_count 3",
        ]) + "\n"
        assert prometheus_text(registry) == expected
        # Deterministic: rendering twice gives identical bytes.
        assert prometheus_text(registry) == expected

    def test_multi_registry_merge_sums_counters(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("shared.hits", "hits").inc(2)
        b.counter("shared.hits").inc(5)
        b.counter("only.b", "solo").inc(1)
        page = prometheus_text([a, b])
        assert "repro_shared_hits_total 7" in page
        assert "repro_only_b_total 1" in page

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""


# ----------------------------------------------------------------------
# Auto-fence policy knob (no processes)
# ----------------------------------------------------------------------


class TestFencePolicy:
    def test_fence_after_validation(self):
        with pytest.raises(ValueError):
            HeartbeatMonitor(2, miss_threshold=3, fence_after=0)
        with pytest.raises(ValueError):
            HeartbeatMonitor(2, miss_threshold=3, fence_after=4)

    def test_candidates_appear_at_threshold(self):
        monitor = HeartbeatMonitor(3, miss_threshold=3, fence_after=2)
        assert monitor.fence_candidates() == []
        monitor.record_miss(1)
        assert monitor.fence_candidates() == []
        monitor.record_miss(1)
        assert monitor.fence_candidates() == [1]
        assert monitor.state(1) is NodeState.SUSPECT

    def test_recovery_clears_candidacy(self):
        monitor = HeartbeatMonitor(2, miss_threshold=3, fence_after=1)
        monitor.record_miss(0)
        assert monitor.fence_candidates() == [0]
        monitor.record_success(0, 0.001)
        assert monitor.fence_candidates() == []
        assert monitor.state(0) is NodeState.ALIVE

    def test_force_dead_is_idempotent(self):
        monitor = HeartbeatMonitor(2, miss_threshold=3, fence_after=1)
        monitor.record_miss(0)
        monitor.force_dead(0)
        assert monitor.state(0) is NodeState.DEAD
        assert monitor.fence_candidates() == []
        deaths = monitor.registry.counter("runtime.heartbeat.deaths").value
        monitor.force_dead(0)
        assert (
            monitor.registry.counter("runtime.heartbeat.deaths").value
            == deaths
        )

    def test_disabled_policy_never_nominates(self):
        monitor = HeartbeatMonitor(2, miss_threshold=3)
        monitor.record_miss(0)
        monitor.record_miss(0)
        assert monitor.fence_candidates() == []


# ----------------------------------------------------------------------
# Live HTTP API over a real multi-process cluster
# ----------------------------------------------------------------------


@pytest.fixture(scope="class")
def api():
    """A 3-daemon cluster behind the HTTP API, shared by one class."""
    ops = ClusterOps.launch(
        num_nodes=3, seed=11, flows=300, fence_after=1, ping_timeout=0.5
    )
    server = OpsApiServer(ops).start_background()
    client = OpsClient(server.host, server.port)
    try:
        yield client
    finally:
        try:
            client.shutdown()
        except OSError:
            pass
        server.shutdown()


@pytest.mark.usefixtures("api")
class TestOpsApiLive:
    def test_cluster_document(self, api):
        doc = api.cluster()
        assert doc["nodes"] == 3
        assert doc["seed"] == 11
        assert doc["architecture"] == "scalebricks"
        assert doc["live_flows"] == 300
        assert doc["down"] == []

    def test_nodes_listing_and_single_node(self, api):
        listing = api.nodes()
        assert [n["node"] for n in listing] == [0, 1, 2]
        assert all(n["state"] == "alive" for n in listing)
        doc = api.node(0)
        assert doc["node"] == 0
        assert doc["status"] is not None
        assert doc["status"]["node_id"] == 0
        assert doc["status"]["fib_entries"] > 0

    def test_flow_lookup_and_404(self, api):
        doc = api.cluster()
        assert doc["live_flows"] > 0
        # TEIDs are dense from 1; flow 1 exists after populate().
        flow = api.flow(1)
        assert flow["teid"] == 1
        assert 0 <= flow["handling_node"] < 3
        # Past the controller's TEID columns, however far: 404, not 500.
        for teid in (0, 10_000_000, 10**19 + 7):
            with pytest.raises(OpsApiError) as err:
                api.flow(teid)
            assert err.value.status == 404

    def test_unknown_node_is_404(self, api):
        with pytest.raises(OpsApiError) as err:
            api.node(99)
        assert err.value.status == 404
        with pytest.raises(OpsApiError) as err:
            api.kill(99)
        assert err.value.status == 404

    def test_unknown_endpoint_and_verb_are_404(self, api):
        with pytest.raises(OpsApiError) as err:
            api._get("/v1/nope")
        assert err.value.status == 404
        with pytest.raises(OpsApiError) as err:
            api._post("/v1/nodes/0/explode")
        assert err.value.status == 404

    @pytest.mark.parametrize("method, path", [
        ("GET", "/v1/replication"),
        ("GET", "/v1/replication/ops"),
        ("POST", "/v1/replication/fail-leader"),
    ])
    def test_replication_routes_are_404(self, api, method, path):
        # One controller behind the API: no replica status, op log or
        # failover verb, and the cluster document names no replication.
        with pytest.raises(OpsApiError) as err:
            api._request(method, path)
        assert err.value.status == 404
        assert "replication" not in api.cluster()

    def test_fence_alive_node_is_409(self, api):
        with pytest.raises(OpsApiError) as err:
            api.fence(0)
        assert err.value.status == 409

    def test_join_with_wrong_id_is_409(self, api):
        with pytest.raises(OpsApiError) as err:
            api.join(99)
        assert err.value.status == 409

    def test_repair_of_live_node_is_409(self, api):
        with pytest.raises(OpsApiError) as err:
            api.repair(0)
        assert err.value.status == 409

    def test_bad_request_is_400(self, api):
        with pytest.raises(OpsApiError) as err:
            api.traffic(0)
        assert err.value.status == 400
        with pytest.raises(OpsApiError) as err:
            api.poll(0)
        assert err.value.status == 400

    @pytest.mark.parametrize("path, body", [
        ("/v1/traffic", {"packets": "abc"}),
        ("/v1/traffic", {"packets": None}),
        ("/v1/traffic", {"packets": True}),
        ("/v1/poll", {"rounds": [1]}),
        ("/v1/updates", {"connects": 1.5}),
        ("/v1/updates", {"connects": 1, "rehomes": "2"}),
    ])
    def test_a_field_that_is_not_an_integer_is_400(self, api, path, body):
        before = api.cluster()["live_flows"]
        with pytest.raises(OpsApiError) as err:
            api._post(path, body)
        assert err.value.status == 400
        assert "must be an integer" in str(err.value)
        assert api.cluster()["live_flows"] == before

    @pytest.mark.parametrize("length", [
        "abc", "-5", "1.5", str(api_module.MAX_BODY_BYTES + 1),
    ])
    def test_a_content_length_that_is_no_size_is_400(self, api, length):
        conn = http.client.HTTPConnection(api.host, api.port, timeout=30)
        try:
            conn.putrequest("POST", "/v1/traffic")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
            assert "Content-Length" in json.loads(response.read())["error"]
        finally:
            conn.close()
        assert api.traffic(10)["divergences"] == 0  # still serving

    def test_a_body_shorter_than_announced_is_400_not_a_parked_thread(
        self, api, monkeypatch
    ):
        monkeypatch.setattr(api_module._OpsHandler, "timeout", 0.3)
        sock = socket.create_connection((api.host, api.port), timeout=5)
        try:
            sock.sendall(
                b"POST /v1/traffic HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 50\r\n\r\n{\"pa"
            )
            started = time.monotonic()
            reply = sock.recv(65536)  # the socket stays open, silent
            assert time.monotonic() - started < 3
            assert reply.startswith(b"HTTP/1.1 400 ")
            # Head and body are two writes: they may arrive apart.
            while chunk := sock.recv(65536):
                reply += chunk
            assert b"shorter than its Content-Length" in reply
        finally:
            sock.close()

    def test_metrics_exposition(self, api):
        page = api.metrics()
        assert page.startswith("# ") or page.startswith("repro_")
        assert "repro_" in page
        # Controller and shadow registries are merged into one page.
        assert "repro_runtime_heartbeat_misses_total" in page
        assert "repro_gateway_downstream_packets_in_total" in page

    def test_metrics_content_type(self, api):
        import http.client

        conn = http.client.HTTPConnection(api.host, api.port, timeout=30)
        try:
            conn.request("GET", "/v1/metrics")
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == CONTENT_TYPE
            response.read()
        finally:
            conn.close()

    def test_traffic_differential_is_clean(self, api):
        summary = api.traffic(120)
        assert summary["frames"] == 120
        assert summary["divergences"] == 0
        assert summary["byte_identical"] is True

    def test_updates_batch(self, api):
        before = api.cluster()["live_flows"]
        totals = api.updates(connects=10, rehomes=20, disconnects=5)
        assert totals["connects"] == 10
        assert totals["live_flows"] == before + 10 - totals["disconnects"]

    def test_concurrent_mutations_serialize(self, api):
        errors = []
        results = []

        def worker(kind):
            try:
                if kind == "traffic":
                    results.append(api.traffic(40))
                elif kind == "poll":
                    results.append(api.poll(1))
                else:
                    results.append(api.updates(connects=2))
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(kind,))
            for kind in ["traffic", "poll", "updates"] * 3
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        assert len(results) == 9
        # Traffic rounds are serialised by the manager lock: every
        # round number is distinct.
        rounds = [r["round"] for r in results if "round" in r]
        assert len(rounds) == len(set(rounds))
        for summary in results:
            if "divergences" in summary:
                assert summary["divergences"] == 0

    def test_drain_then_join_bumps_epoch(self, api):
        before = api.cluster()["epoch"]
        drained = api.drain(2)
        assert drained["verb"] == "drain"
        assert drained["accepted"] is True
        assert drained["node"] == 2
        assert api.cluster()["nodes"] == 2
        joined = api.join(2)
        assert joined["verb"] == "join"
        assert joined["detail"]["new_nodes"] == 3
        assert api.cluster()["epoch"] == before + 2
        # The differential stays clean across the membership change.
        summary = api.traffic(80)
        assert summary["divergences"] == 0
        audit = api.audit()
        assert audit["charging_identical"] is True
        assert audit["gpt_replicas_identical"] is True


def test_deposed_leader_in_flight_fence_rejected_by_term():
    """Regression: a fence's acquire/validate straddles a depose.

    The controller is guarded by a replica group's leader core, as a
    replica server guards its own.  The fence captures its term, the
    leader is deposed before the irreversible SIGKILL, and the term
    re-check must reject the action — the victim stays unfenced until a
    controller guarded by the successor's core fences it.
    """
    group = ReplicaGroup(num=3, seed=13)
    old_leader = group.elect()
    guard = ReplicaGuard(group.replicas[old_leader])
    with Session(3, 13, guard=guard, ping_timeout=0.5) as session:
        session.bootstrap(120)
        session.suspend(1)
        session.poll(1)
        controller = session.controller
        assert controller.monitor.state(1) is NodeState.SUSPECT
        fences = controller.registry.counter("runtime.fences").value
        term = group.replicas[old_leader].term
        real_acquire = guard.acquire

        def racing_acquire(action):
            acquired = real_acquire(action)
            # Leadership changes between acquire and validate.
            depose_in_place(group)
            return acquired

        guard.acquire = racing_acquire
        with pytest.raises(StaleTermError, match="lost term"):
            session.fence(1)
        # The SIGKILL never happened: the victim is still merely
        # SUSPECT and the fence counter did not move.
        assert controller.monitor.state(1) is NodeState.SUSPECT
        assert controller.registry.counter("runtime.fences").value == fences
        # Under the successor's term the same fence goes through.
        successor = ReplicaGuard(group.replicas[group.leader()])
        assert successor.acquire("fence") > term
        controller.guard = successor
        result = session.fence(1)
        assert result["accepted"] is True
        assert controller.registry.counter("runtime.fences").value == fences + 1


#: One way to break each differential gate of the API fence drill.
DRILL_BREAKERS = {
    "no_divergence": (("phase2", "divergences"), 1),
    "byte_identical": (("phase1", "byte_identical"), False),
    "charging_identical": (("audit", "charging_identical"), False),
    "gpt_replicas_identical": (("audit", "gpt_replicas_identical"), False),
    "no_leaked_processes": (("leaked_processes",), 1),
}


def test_operator_walkthrough_is_the_hand_written_drivers():
    """The verbs of docs/operator.md through ``ClusterOps``: the same
    documents, byte for byte, the facade produced before it stood on the
    session."""
    with ClusterOps.launch(
        num_nodes=3, seed=11, flows=300, fence_after=1, ping_timeout=0.5
    ) as ops:
        walk = {
            "t1": ops.traffic(packets=200),
            "churn": ops.churn(connects=20, rehomes=40, disconnects=10),
            "drain": ops.drain(2),
            "join": ops.join(2),
            "kill": ops.kill(1),
            "poll": ops.poll(rounds=2),
            "t2": ops.traffic(packets=200),
            "audit": ops.audit(),
        }
    assert walk["poll"]["fenced"] == [1]
    assert walk["audit"]["live_nodes"] == [0, 2]
    assert walk["t2"]["divergences"] == 0
    if GOLDEN_BACKEND:
        assert report_digest(walk) == (
            "5893abd184e51c741f67e9f23330beae"
            "ccb7911667b44114a925db84f400fa0f"
        )


def _assert_report_unchanged_but_for_gates(report, digest):
    """``gates`` is the one key the drill gained; the rest is the report
    it produced when ``ok`` was spelled out inline."""
    if GOLDEN_BACKEND:
        without = {k: v for k, v in report.items() if k != "gates"}
        assert report_digest(without) == digest


def test_shutdown_reports_leaks_and_is_idempotent():
    ops = ClusterOps.launch(num_nodes=2, seed=3, flows=100)
    server = OpsApiServer(ops).start_background()
    client = OpsClient(server.host, server.port)
    try:
        first = client.shutdown()
        assert first["closed"] is True
        assert first["leaked_processes"] == 0
        second = client.shutdown()
        assert second["leaked_processes"] == 0
    finally:
        server.shutdown()


def test_fence_drill_end_to_end():
    report = run_fence_drill(
        num_nodes=3, seed=5, flows=200, packets=200, churn=40
    )
    assert report["fenced"] is True
    assert report["poll"]["fenced"] == [1]
    assert report["audit"]["charging_identical"] is True
    assert report["audit"]["gpt_replicas_identical"] is True
    assert report["leaked_processes"] == 0
    assert report["ok"] is True
    assert_each_breaker_fails_only_its_gate(report, fence_drill_gates, {
        **DRILL_BREAKERS,
        "fenced": (("fenced",), False),
        "metrics_nonempty": (("metrics_nonempty",), False),
    })
    _assert_report_unchanged_but_for_gates(
        report,
        "3937e0b95b6834cf657a36a1fbdcd5ce"
        "48264753665f4bcad5edf24c18661b5a",
    )
