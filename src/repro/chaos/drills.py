"""The operator-driven chaos drill, exercised through the REST API only.

The harness drills (:func:`repro.runtime.launcher.run_demo`) reach
straight into the controller.  The drill here is stricter: it drives
the cluster exclusively through :class:`~repro.ops.client.OpsClient`,
the same surface a human operator (or the CI smoke job) has — if the
drill passes, the API alone was sufficient to detect, fence and repair
a grey failure without breaking the differential.

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
(:func:`repro.runtime.session.differential_gates`), plus the drill's
own; ``gates`` names them and ``ok`` is their conjunction.
"""

from __future__ import annotations

from typing import Dict, Optional


def fence_drill_gates(report: Dict[str, object]) -> Dict[str, bool]:
    """Every hard gate on a :func:`run_fence_drill` report: the shared
    differential gates over its two traffic phases, its audit and its
    shutdown's leak count, plus the fence and the metrics page."""
    # Imported here, not at module top: the runtime pulls this package
    # back in (daemon-side transport faults).
    from repro.runtime.session import differential_gates

    return {
        "fenced": bool(report["fenced"]),
        **differential_gates(
            [report["phase1"], report["phase2"]], report["audit"],
            report["leaked_processes"],
        ),
        "metrics_nonempty": bool(report["metrics_nonempty"]),
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
