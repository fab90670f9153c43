"""Operator-driven chaos drills, exercised through the REST API only.

The harness drills (:func:`repro.runtime.launcher.run_demo`) reach
straight into the controller.  The drills here are stricter: they drive
the cluster exclusively through :class:`~repro.ops.client.OpsClient`,
the same surface a human operator (or the CI smoke job) has — if a
drill passes, the API alone was sufficient to detect, fence and repair
a grey failure without breaking the differential.

:func:`run_failover_drill` is the control-plane §7 scenario: a
replicated (3-controller) cluster loses its leader mid-operation; the
drill proves the lease fails over, mutations on the old endpoint
redirect (307) to the new leader, the committed op log is readable from
every replica, and the data-plane differential never diverges.

:func:`run_fence_drill` is the §7 grey-failure scenario:

1. launch an API-managed cluster with the auto-fence policy armed
   (``fence_after=1``),
2. run differential traffic and §4.5 churn with everything healthy,
3. SIGSTOP one daemon — alive but unresponsive, the state fencing
   exists for,
4. one heartbeat poll marks it SUSPECT and the policy fences it
   (force-kill + §7 repair + membership broadcast),
5. more traffic over the survivors, then the global audit.

The report's ``ok`` is true only with zero divergences, byte-identical
frames, identical charging (minus the victim's fate-shared slice) and
CRC-identical GPT replicas — the exact gates the harness uses
(:func:`repro.runtime.session.differential_gates`), plus each drill's
own; ``gates`` names them and ``ok`` is their conjunction.
"""

from __future__ import annotations

from typing import Dict, Optional


def _differential_gates(report: Dict[str, object]) -> Dict[str, bool]:
    """The shared differential gates over a drill's two traffic phases,
    its audit and its shutdown's leak count."""
    # Imported here, not at module top: the runtime pulls this package
    # back in (daemon-side transport faults).
    from repro.runtime.session import differential_gates

    return differential_gates(
        [report["phase1"], report["phase2"]], report["audit"],
        report["leaked_processes"],
    )


def fence_drill_gates(report: Dict[str, object]) -> Dict[str, bool]:
    """Every hard gate on a :func:`run_fence_drill` report."""
    return {
        "fenced": bool(report["fenced"]),
        **_differential_gates(report),
        "metrics_nonempty": bool(report["metrics_nonempty"]),
    }


def failover_drill_gates(report: Dict[str, object]) -> Dict[str, bool]:
    """Every hard gate on a :func:`run_failover_drill` report."""
    return {
        "term_advanced": bool(report["term_advanced"]),
        "redirected": bool(report["redirected"]),
        "redirect_followed": report["churn2_redirects"] >= 1,
        "single_leader": bool(report["single_leader"]),
        "ops_visible_everywhere": bool(report["ops_visible_everywhere"]),
        **_differential_gates(report),
    }


def run_fence_drill(
    num_nodes: int = 4,
    seed: int = 7,
    flows: int = 800,
    packets: int = 800,
    churn: int = 120,
    victim: Optional[int] = None,
    fence_after: int = 1,
) -> Dict[str, object]:
    """The grey-failure fence drill, driven through the operator API.

    Args:
        num_nodes: daemons to spawn.
        seed: master seed (same seed ⇒ same drill).
        flows: initial bearer population.
        packets: differential frames, split across the two phases.
        churn: §4.5 update operations while everything is healthy.
        victim: daemon to freeze (default: ``num_nodes // 2``).
        fence_after: auto-fence threshold in consecutive misses.

    Returns:
        A JSON-ready report with the phase summaries, the fence
        outcome, the final audit, the ``gates``
        (:func:`fence_drill_gates`) and the overall ``ok`` verdict.
    """
    # Imported here, not at module top: repro.ops pulls in the runtime,
    # which pulls this package back in (daemon-side transport faults).
    from repro.ops.api import OpsApiServer
    from repro.ops.client import OpsClient
    from repro.ops.manager import ClusterOps

    if victim is None:
        victim = num_nodes // 2
    if not 0 <= victim < num_nodes:
        raise ValueError("victim out of range")
    ops = ClusterOps.launch(
        num_nodes=num_nodes, seed=seed, flows=flows,
        fence_after=fence_after, ping_timeout=0.5,
    )
    server = OpsApiServer(ops).start_background()
    client = OpsClient(server.host, server.port)
    report: Dict[str, object] = {
        "drill": "fence",
        "nodes": num_nodes,
        "seed": seed,
        "victim": victim,
        "fence_after": fence_after,
    }
    try:
        first = packets // 2
        report["phase1"] = client.traffic(first)
        report["churn"] = client.updates(
            connects=churn // 4, rehomes=churn // 2,
            disconnects=churn // 4,
        )
        client.suspend(victim)
        poll = client.poll()
        report["poll"] = poll
        report["fenced"] = victim in poll["fenced"]
        report["phase2"] = client.traffic(packets - first)
        report["audit"] = client.audit()
        report["cluster"] = {
            key: client.cluster()[key]
            for key in ("nodes", "epoch", "down", "states")
        }
        metrics = client.metrics()
        report["metrics_nonempty"] = bool(metrics.strip())
    finally:
        shutdown = client.shutdown()
        report["leaked_processes"] = shutdown["leaked_processes"]
        server.shutdown()
    report["gates"] = fence_drill_gates(report)
    report["ok"] = all(report["gates"].values())
    return report


def run_failover_drill(
    num_nodes: int = 4,
    seed: int = 7,
    flows: int = 800,
    packets: int = 800,
    churn: int = 120,
    replicas: int = 3,
) -> Dict[str, object]:
    """The control-plane failover drill, driven through the operator API.

    1. launch a replicated cluster (``replicas`` controller replicas,
       one API server bound per replica),
    2. differential traffic + §4.5 churn through the leader's endpoint,
    3. depose the leader (``POST /v1/replication/fail-leader``),
    4. issue churn against the *old leader's* endpoint and require the
       307 leader redirect to land it on the successor,
    5. more traffic, the global audit, and the replication invariants:
       exactly one leader, a higher term, and every committed op
       readable from every replica's endpoint.
    """
    # Imported here, not at module top: repro.ops pulls in the runtime,
    # which pulls this package back in (daemon-side transport faults).
    from repro.ops.api import OpsApiServer
    from repro.ops.client import OpsApiError, OpsClient
    from repro.ops.manager import ClusterOps

    if replicas < 3:
        raise ValueError("a failover drill needs at least 3 replicas")
    ops = ClusterOps.launch(
        num_nodes=num_nodes, seed=seed, flows=flows, replicas=replicas,
    )
    servers = [
        OpsApiServer(ops, replica=r).start_background()
        for r in range(replicas)
    ]
    clients = [OpsClient(s.host, s.port) for s in servers]
    report: Dict[str, object] = {
        "drill": "failover",
        "nodes": num_nodes,
        "seed": seed,
        "replicas": replicas,
    }
    try:
        assert ops.replication is not None
        old_leader = ops.replication.group.leader()
        assert old_leader is not None
        leader_client = clients[old_leader]
        first = packets // 2
        report["phase1"] = leader_client.traffic(first)
        report["churn1"] = leader_client.updates(
            connects=churn // 4, rehomes=churn // 2,
            disconnects=churn // 4,
        )
        report["failover"] = leader_client.fail_leader()
        new_leader = report["failover"]["new_leader"]
        report["term_advanced"] = bool(
            report["failover"]["new_term"] > report["failover"]["old_term"]
        )
        # The old leader's endpoint must now answer mutations with a
        # 307 naming the successor...
        raw = OpsClient(
            servers[old_leader].host, servers[old_leader].port,
            follow_redirects=False,
        )
        try:
            raw.updates(connects=1)
            report["redirected"] = False
        except OpsApiError as exc:
            report["redirected"] = bool(
                exc.status == 307 and exc.location is not None
                and f":{servers[new_leader].port}" in exc.location
            )
        # ...and a redirect-following client lands the same mutation.
        report["churn2"] = clients[old_leader].updates(
            connects=churn // 8, rehomes=churn // 8,
        )
        report["churn2_redirects"] = clients[old_leader].last_redirects
        report["phase2"] = clients[new_leader].traffic(packets - first)
        report["audit"] = clients[new_leader].audit()
        status = clients[new_leader].replication()
        report["replication"] = {
            "leader": status["leader"],
            "term": status["term"],
        }
        leaders = [
            m["node"] for m in status["members"] if m["role"] == "leader"
        ]
        committed_views = [c.committed_ops() for c in clients]
        verbs = [[o["verb"] for o in view] for view in committed_views]
        report["single_leader"] = leaders == [status["leader"]]
        report["ops_visible_everywhere"] = bool(
            all(v == verbs[0] for v in verbs[1:]) and len(verbs[0]) >= 4
        )
    finally:
        shutdown = clients[0].shutdown()
        report["leaked_processes"] = shutdown["leaked_processes"]
        for server in servers:
            server.shutdown()
    report["gates"] = failover_drill_gates(report)
    report["ok"] = all(report["gates"].values())
    return report
