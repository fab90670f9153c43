"""Spawn, drive and audit a local multi-process ScaleBricks cluster.

Two layers live here:

* :class:`LocalRuntime` — a context manager that spawns N
  :class:`~repro.runtime.daemon.NodeDaemon` processes (a
  :class:`~repro.runtime.transport.ProcessGroup`), each bound to an
  ephemeral local TCP port announced back through a pipe, with ``kill()``
  (SIGKILL, for failure drills), graceful ``stop()`` and leak accounting;
* :func:`run_workload` / :func:`run_demo` — the differential harness,
  as a phase list over a :class:`~repro.runtime.session.Session`: the
  same seeded workload is played against the socket cluster *and* the
  in-process :class:`~repro.runtime.shadow.Shadow`, frame by frame and
  update by update, and the report asserts byte-identical GTP-U output,
  identical per-TEID charging and CRC-identical GPT replicas.
  Everything is pinned (per-frame ingress, update mix, flow
  population), so the same seed produces the same JSON report, byte for
  byte — the determinism the chaos and CI harnesses gate on.
  :func:`demo_gates` is the one definition of what the report must show.
"""

from __future__ import annotations

import json
import os
import signal
from typing import Dict, List, Optional, Sequence, Tuple

from repro.runtime.daemon import serve
from repro.runtime.liveness import NodeState
from repro.runtime.session import Session, differential_gates, run_drill
from repro.runtime.shadow import merge_comparisons
from repro.runtime.transport import ProcessGroup

#: How long a daemon child gets to bind and announce its port.
DAEMON_READY_WAIT = 30.0


class LocalRuntime(ProcessGroup):
    """A cluster of daemon child processes on loopback."""

    def __init__(self, num_nodes: int, host: str = "127.0.0.1") -> None:
        if num_nodes < 1:
            raise ValueError("num_nodes must be positive")
        super().__init__()
        self.num_nodes = num_nodes
        self.host = host
        self.addresses: List[Tuple[str, int]] = []

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "LocalRuntime":
        """Spawn every daemon and wait for its bound port."""
        for _ in range(self.num_nodes):
            self._spawn()
        return self

    def _spawn(self, node_id: Optional[int] = None) -> Tuple[str, int]:
        port = self.spawn(
            serve, (self.host, 0), DAEMON_READY_WAIT, slot=node_id
        )
        address = (self.host, port)
        if node_id is None:
            self.addresses.append(address)
        else:
            self.addresses[node_id] = address
        return address

    def add_node(self) -> Tuple[str, int]:
        """Spawn one more daemon (for join drills); returns its address."""
        self.num_nodes += 1
        return self._spawn()

    def respawn(self, node_id: int) -> Tuple[str, int]:
        """Spawn a fresh daemon in a killed node's slot (rejoin drills).

        The replacement binds a new ephemeral port; pair with
        :meth:`RuntimeController.rejoin_node`, which re-announces the
        topology to every peer.
        """
        if self.processes[node_id].is_alive():
            raise ValueError(f"node {node_id} is still alive")
        return self._spawn(node_id)

    def suspend(self, node_id: int) -> None:
        """SIGSTOP a daemon: alive but unresponsive — a SUSPECT maker.

        The process keeps its sockets open but answers nothing, which is
        exactly the grey failure fencing exists for.  Pair with
        :meth:`resume` or :meth:`kill`.
        """
        process = self.processes[node_id]
        assert process.pid is not None
        os.kill(process.pid, signal.SIGSTOP)

    def resume(self, node_id: int) -> None:
        """SIGCONT a suspended daemon (the grey failure clears)."""
        process = self.processes[node_id]
        assert process.pid is not None
        os.kill(process.pid, signal.SIGCONT)


# ----------------------------------------------------------------------
# Differential workload
# ----------------------------------------------------------------------


def run_workload(
    addresses: Optional[Sequence[Tuple[str, int]]],
    num_nodes: int,
    seed: int = 7,
    flows: int = 2000,
    packets: int = 4000,
    updates: int = 1000,
    kill_node: Optional[int] = None,
    fence_node: Optional[int] = None,
    miss_threshold: int = 3,
    heartbeat_interval: float = 0.05,
    ping_timeout: Optional[float] = None,
    use_shm: bool = False,
) -> Dict[str, object]:
    """Drive the full differential workload against a live cluster.

    Phases: bootstrap from a seeded shadow gateway, routed traffic
    (half the packets), one liveness sweep, a seeded §4.5 update storm
    (connect/rehome/disconnect mix), an optional failure drill (SIGKILL
    with §7 repair, or a SIGSTOP-then-fence grey-failure drill), the
    remaining traffic, then the global audit.

    Args:
        addresses: daemon addresses, index = node id; ``None`` spawns
            ``num_nodes`` daemons and accounts for them in the report
            (``leaked_processes``, ``leaked_shm_segments``, ``gates``).
        num_nodes: cluster size (must match ``addresses``).
        seed: master seed; same seed ⇒ same report, byte for byte.
        flows: initial bearer population.
        packets: routed frames, split across the two traffic phases.
        updates: RIB operations in the update storm.
        kill_node: daemon to SIGKILL between the phases (None: no drill).
        fence_node: daemon to SIGSTOP between the phases, then fence
            (force-kill + immediate repair) once SUSPECT.  Mutually
            exclusive with ``kill_node``; both need spawned daemons.
        miss_threshold: consecutive heartbeat misses declaring death.
        heartbeat_interval: nominal probe period, recorded in the report
            (pacing is poll-driven, so this does not gate determinism).
        ping_timeout: heartbeat probe timeout in seconds; by default
            2 s, and 0.5 s in a fence drill (a suspended daemon costs one
            timeout per poll).
        use_shm: publish GPT snapshots as shared-memory segments and
            bootstrap daemons by ``MSG_STATE_REF`` (scale tier); falls
            back to wire snapshots per daemon where unavailable.
    """
    if addresses is not None and len(addresses) != num_nodes:
        raise ValueError("addresses and num_nodes disagree")
    if kill_node is not None and fence_node is not None:
        raise ValueError("kill_node and fence_node are mutually exclusive")
    victim = kill_node if kill_node is not None else fence_node
    if victim is not None and not 0 <= victim < num_nodes:
        raise ValueError("kill_node / fence_node out of range")
    if ping_timeout is None:
        ping_timeout = 0.5 if fence_node is not None else 2.0

    # One ingress stream runs across both traffic phases; the second
    # phase carries a few never-connected flows.
    first = packets // 2
    phases: List[Tuple[str, Dict[str, object]]] = [
        ("bootstrap", {"flows": flows}),
        ("traffic", {"packets": first, "stream": 11}),
        ("poll", {}),
        ("storm", {"stream": 13, "count": updates}),
    ]
    if kill_node is not None:
        phases += [
            ("kill", {"node": kill_node}),
            ("await_dead", {"node": kill_node}),
            ("repair", {"node": kill_node}),
        ]
    elif fence_node is not None:
        # Grey failure: the daemon freezes (SIGSTOP) but its sockets
        # stay open, so it never goes DEAD on its own — exactly the
        # limbo fencing exists for.  One poll records the miss
        # (ALIVE → SUSPECT), then the fence force-kills and repairs
        # without waiting out the remaining miss_threshold.
        phases += [
            ("suspend", {"node": fence_node}),
            ("poll", {}),
            ("fence", {"node": fence_node}),
        ]
    phases += [
        ("traffic", {"packets": packets - first, "stream": 11, "extra": 8}),
        ("audit", {}),
    ]

    session = Session(
        num_nodes, seed, addresses, miss_threshold=miss_threshold,
        ping_timeout=ping_timeout, use_shm=use_shm,
    )
    with session:
        results = run_drill(session, phases)
    bootstrap, = results["bootstrap"]
    audit, = results["audit"]

    update_totals = results["storm"][0]
    update_totals["mean_delta_bits"] = round(
        update_totals["delta_bits"]
        / max(1, update_totals["delta_broadcasts"]),
        2,
    )
    update_totals["snapshot_bytes_shipped"] = bootstrap["total_shipped_bytes"]
    liveness: Dict[str, object] = {
        "interval_s": heartbeat_interval,
        "miss_threshold": miss_threshold,
        "pre_kill_dead": [
            int(node) for node, state in results["poll"][0]["states"].items()
            if state == NodeState.DEAD.value
        ],
        "killed_node": kill_node,
        "fenced_node": fence_node,
        "detection_polls": None,
        "recovered_flows": 0,
    }
    drill = None
    if kill_node is not None:
        liveness["detection_polls"], = results["await_dead"]
        drill, = results["repair"]
    elif fence_node is not None:
        liveness["detection_polls"] = 1
        drill, = results["fence"]
        liveness["state_before_fence"] = drill["detail"]["state_before"]
    if drill is not None:
        liveness["recovered_flows"] = drill["affected_flows"]
        liveness["adopted_rib_entries"] = (
            drill["detail"]["adopted_rib_entries"]
        )
    report: Dict[str, object] = {
        "architecture": "scalebricks",
        "nodes": num_nodes,
        "seed": seed,
        "shm": {
            "enabled": session.controller.use_shm,
            "bootstrap_attached": int(bootstrap.get("shm_attached", 0)),
            "segment": bootstrap.get("segment"),
        },
        "differential": {
            **merge_comparisons(results["traffic"]),
            "charging_identical": audit["charging_identical"],
            "charged_teids": audit["charged_teids"],
            "gpt_replicas_identical": audit["gpt_replicas_identical"],
        },
        "update_protocol": update_totals,
        "liveness": liveness,
        # The drill's victim kept its counters only in its own memory:
        # it reports no status.
        "daemons": {
            str(node_id): {
                "fib_entries": status["fib_entries"],
                "rib_entries": status["rib_entries"],
                "gpt_bytes": status["gpt_bytes"],
                "frames_local": status["counters"].get(
                    "runtime.frames.local", 0
                ),
                "frames_forwarded": status["counters"].get(
                    "runtime.frames.forwarded", 0
                ),
                "frames_received": status["counters"].get(
                    "runtime.frames.received", 0
                ),
                "deltas_applied": status["counters"].get(
                    "runtime.deltas.applied", 0
                ),
            }
            for node_id, status in sorted(session.statuses.items())
        },
    }
    if addresses is None:
        report["leaked_processes"] = session.leaks["leaked_processes"]
        report["leaked_shm_segments"] = session.leaks["leaked_shm_segments"]
    gates = demo_gates(report)
    if addresses is None:
        report["gates"] = gates
    report["ok"] = all(gates.values())
    return report


def demo_gates(report: Dict[str, object]) -> Dict[str, bool]:
    """Every hard gate on a workload report; ``ok`` is their conjunction.

    This is the one definition CI's ``runtime-smoke`` job enforces (the
    CLI's exit code follows ``ok``): the shared
    :func:`~repro.runtime.session.differential_gates` (routing
    divergence, non-identical GTP-U bytes / charging / replicas, a leaked
    child process or shm segment), failure detection off the configured
    threshold, or a drill that recovered nothing each fail the run.
    Drill gates pass when no drill ran; leak gates pass on a report of
    daemons somebody else started.
    """
    differential = report["differential"]
    liveness = report["liveness"]
    killed = liveness["killed_node"] is not None
    drilled = killed or liveness["fenced_node"] is not None
    return {
        **differential_gates(
            [differential], differential,
            report.get("leaked_processes", 0),
            report.get("leaked_shm_segments", 0),
        ),
        "detection_on_threshold": (
            not killed
            or liveness["detection_polls"] == liveness["miss_threshold"]
        ),
        "drill_recovered_flows": (
            not drilled or liveness["recovered_flows"] > 0
        ),
    }


def run_demo(num_nodes: int = 4, **workload: object) -> Dict[str, object]:
    """Spawn a local cluster, run the workload, account for every child
    (:func:`run_workload` without ``addresses``, same keywords)."""
    return run_workload(None, num_nodes, **workload)


def report_json(report: Dict[str, object]) -> str:
    """Canonical JSON for a workload report (sorted keys, stable)."""
    return json.dumps(report, sort_keys=True, indent=2)
