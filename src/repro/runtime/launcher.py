"""Spawn, drive and audit a local multi-process ScaleBricks cluster.

Two layers live here:

* :class:`LocalRuntime` — a context manager that spawns N
  :class:`~repro.runtime.daemon.NodeDaemon` processes (a
  :class:`~repro.runtime.transport.ProcessGroup`), each bound to an
  ephemeral local TCP port announced back through a pipe, with ``kill()``
  (SIGKILL, for failure drills), graceful ``stop()`` and leak accounting;
* :func:`run_workload` / :func:`run_demo` — the differential harness:
  the same seeded workload is played against the socket cluster *and*
  the in-process :class:`~repro.runtime.shadow.Shadow`, frame by frame
  and update by update, and the report asserts byte-identical GTP-U
  output, identical per-TEID charging and CRC-identical GPT replicas.
  Everything is pinned (per-frame ingress, update mix, flow
  population), so the same seed produces the same JSON report, byte for
  byte — the determinism the chaos and CI harnesses gate on.
  :func:`demo_gates` is the one definition of what the report must show.
"""

from __future__ import annotations

import json
import os
import signal
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import shm
from repro.runtime.controller import RuntimeController
from repro.runtime.daemon import serve
from repro.runtime.shadow import Shadow, compare_frames, merge_comparisons
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
    addresses: Sequence[Tuple[str, int]],
    num_nodes: int,
    seed: int = 7,
    flows: int = 2000,
    packets: int = 4000,
    updates: int = 1000,
    kill_node: Optional[int] = None,
    killer: Optional[Callable[[int], None]] = None,
    fence_node: Optional[int] = None,
    suspender: Optional[Callable[[int], None]] = None,
    miss_threshold: int = 3,
    heartbeat_interval: float = 0.05,
    ping_timeout: float = 2.0,
    use_shm: bool = False,
) -> Dict[str, object]:
    """Drive the full differential workload against a live cluster.

    Phases: bootstrap from a seeded shadow gateway, routed traffic
    (half the packets), one liveness sweep, a seeded §4.5 update storm
    (connect/rehome/disconnect mix), an optional failure drill (SIGKILL
    with §7 repair, or a SIGSTOP-then-fence grey-failure drill), the
    remaining traffic, then the global audit.

    Args:
        addresses: daemon addresses, index = node id.
        num_nodes: cluster size (must match ``addresses``).
        seed: master seed; same seed ⇒ same report, byte for byte.
        flows: initial bearer population.
        packets: routed frames, split across the two traffic phases.
        updates: RIB operations in the update storm.
        kill_node: daemon to SIGKILL between the phases (None: no drill).
        killer: callback actually delivering the kill (from
            :meth:`LocalRuntime.kill`); required when ``kill_node`` or
            ``fence_node`` is set.
        fence_node: daemon to SIGSTOP between the phases, then fence
            (force-kill + immediate repair) once SUSPECT.  Mutually
            exclusive with ``kill_node``.
        suspender: callback delivering the SIGSTOP (from
            :meth:`LocalRuntime.suspend`); required with ``fence_node``.
        miss_threshold: consecutive heartbeat misses declaring death.
        heartbeat_interval: nominal probe period, recorded in the report
            (pacing is poll-driven, so this does not gate determinism).
        ping_timeout: heartbeat probe timeout in seconds (a suspended
            daemon costs one timeout per poll, so fence drills want this
            small).
        use_shm: publish GPT snapshots as shared-memory segments and
            bootstrap daemons by ``MSG_STATE_REF`` (scale tier); falls
            back to wire snapshots per daemon where unavailable.
    """
    if len(addresses) != num_nodes:
        raise ValueError("addresses and num_nodes disagree")
    if kill_node is not None and fence_node is not None:
        raise ValueError("kill_node and fence_node are mutually exclusive")
    if kill_node is not None:
        if killer is None:
            raise ValueError("kill_node requires a killer callback")
        if not 0 <= kill_node < num_nodes:
            raise ValueError("kill_node out of range")
    if fence_node is not None:
        if killer is None or suspender is None:
            raise ValueError(
                "fence_node requires killer and suspender callbacks"
            )
        if not 0 <= fence_node < num_nodes:
            raise ValueError("fence_node out of range")

    # The shadow lives the exact same life as the socket cluster.
    shadow = Shadow(num_nodes, seed)
    shadow.populate(flows)
    gateway, generator = shadow.gateway, shadow.generator

    controller = RuntimeController(
        addresses, miss_threshold=miss_threshold, ping_timeout=ping_timeout,
        use_shm=use_shm,
    )
    controller.killer = killer
    controller.connect()
    bootstrap = controller.bootstrap_from_gateway(gateway)

    ingress_rng = np.random.default_rng(seed * 65537 + 11)
    report: Dict[str, object] = {
        "architecture": "scalebricks",
        "nodes": num_nodes,
        "seed": seed,
    }
    try:
        # -- traffic, phase 1 (everything alive) -----------------------
        first = packets // 2
        frames = generator.packet_stream(shadow.live_flows, first)
        ingress = ingress_rng.integers(num_nodes, size=first)
        mirrored = shadow.route(frames, ingress)
        wire = controller.route_frames(frames, [int(n) for n in ingress])
        phase1 = compare_frames(mirrored, wire)

        # -- liveness sweep (all alive) --------------------------------
        controller.poll_liveness()
        pre_kill_dead = controller.monitor.dead_nodes()

        # -- §4.5 update storm -----------------------------------------
        update_rng = np.random.default_rng(seed * 65537 + 13)
        draws = [shadow.storm_op(update_rng) for _ in range(updates)]
        update_totals = controller.push_updates(
            [op for op in draws if op is not None]
        )
        update_totals.update(shadow.counts)
        update_totals["mean_delta_bits"] = round(
            update_totals["delta_bits"]
            / max(1, update_totals["delta_broadcasts"]),
            2,
        )

        # -- optional failure drill (§7) -------------------------------
        liveness: Dict[str, object] = {
            "interval_s": heartbeat_interval,
            "miss_threshold": miss_threshold,
            "pre_kill_dead": pre_kill_dead,
            "killed_node": kill_node,
            "fenced_node": fence_node,
            "detection_polls": None,
            "recovered_flows": 0,
        }
        drill = None
        if kill_node is not None:
            controller.kill_node(kill_node)
            liveness["detection_polls"] = controller.await_detection(
                kill_node
            )
            drill = controller.handle_node_failure(kill_node, gateway)
        elif fence_node is not None:
            # Grey failure: the daemon freezes (SIGSTOP) but its sockets
            # stay open, so it never goes DEAD on its own — exactly the
            # limbo fencing exists for.  One poll records the miss
            # (ALIVE → SUSPECT), then the fence force-kills and repairs
            # without waiting out the remaining miss_threshold.
            assert suspender is not None
            suspender(fence_node)
            controller.poll_liveness()
            liveness["detection_polls"] = 1
            drill = controller.fence_node(fence_node, gateway)
            liveness["state_before_fence"] = drill.detail["state_before"]
        if drill is not None:
            liveness["recovered_flows"] = drill.affected_flows
            liveness["adopted_rib_entries"] = (
                drill.detail["adopted_rib_entries"]
            )

        # -- traffic, phase 2 (post-update, maybe post-failure) --------
        # A few never-connected flows ride along: the GPT still maps them
        # somewhere (one-sided error, §3.3) and the exact FIB refuses
        # them — on both sides of the differential.
        second = packets - first
        frames = generator.packet_stream(shadow.live_flows, second)
        frames.extend(
            generator.packet_stream(generator.flows(8), min(64, second))
        )
        ingress = ingress_rng.integers(num_nodes, size=len(frames))
        mirrored = shadow.route(frames, ingress)
        wire = controller.route_frames(frames, [int(n) for n in ingress])
        phase2 = compare_frames(mirrored, wire)

        # -- the global audit ------------------------------------------
        # The drill's victim kept its charging counters only in its own
        # memory: it reports no status, so its slice is not expected.
        statuses = controller.status_all()
        audit = shadow.audit(statuses)

        differential = {
            **merge_comparisons([phase1, phase2]),
            "charging_identical": audit["charging_identical"],
            "charged_teids": audit["charged_teids"],
            "gpt_replicas_identical": audit["gpt_replicas_identical"],
        }
        update_totals["snapshot_bytes_shipped"] = (
            bootstrap["total_shipped_bytes"]
        )
        report["shm"] = {
            "enabled": controller.use_shm,
            "bootstrap_attached": int(bootstrap.get("shm_attached", 0)),
            "segment": bootstrap.get("segment"),
        }
        report["differential"] = differential
        report["update_protocol"] = update_totals
        report["liveness"] = liveness
        report["daemons"] = {
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
            for node_id, status in sorted(statuses.items())
        }
        report["ok"] = all(demo_gates(report).values())
    finally:
        controller.shutdown_all()
    return report


def demo_gates(report: Dict[str, object]) -> Dict[str, bool]:
    """Every hard gate on a workload report; ``ok`` is their conjunction.

    This is the one definition CI's ``runtime-smoke`` job enforces (the
    CLI's exit code follows ``ok``): routing divergence, non-identical
    GTP-U bytes / charging / replicas, failure detection off the
    configured threshold, a drill that recovered nothing, or a leaked
    child process or shm segment each fail the run.  Drill gates pass
    when no drill ran; leak gates pass on a report from
    :func:`run_workload`, which owns neither processes nor segments.
    """
    differential = report["differential"]
    liveness = report["liveness"]
    killed = liveness["killed_node"] is not None
    drilled = killed or liveness["fenced_node"] is not None
    return {
        "no_divergence": differential["divergences"] == 0,
        **{
            name: bool(differential[name]) for name in (
                "byte_identical", "charging_identical",
                "gpt_replicas_identical",
            )
        },
        "detection_on_threshold": (
            not killed
            or liveness["detection_polls"] == liveness["miss_threshold"]
        ),
        "drill_recovered_flows": (
            not drilled or liveness["recovered_flows"] > 0
        ),
        "no_leaked_processes": report.get("leaked_processes", 0) == 0,
        "no_leaked_segments": report.get("leaked_shm_segments", 0) == 0,
    }


def run_demo(
    num_nodes: int = 4,
    seed: int = 7,
    flows: int = 2000,
    packets: int = 4000,
    updates: int = 1000,
    kill_node: Optional[int] = None,
    fence_node: Optional[int] = None,
    miss_threshold: int = 3,
    heartbeat_interval: float = 0.05,
    use_shm: bool = False,
) -> Dict[str, object]:
    """Spawn a local cluster, run the workload, account for every child."""
    runtime = LocalRuntime(num_nodes)
    with runtime:
        report = run_workload(
            runtime.addresses,
            num_nodes,
            seed=seed,
            flows=flows,
            packets=packets,
            updates=updates,
            kill_node=kill_node,
            killer=runtime.kill,
            fence_node=fence_node,
            suspender=runtime.suspend,
            miss_threshold=miss_threshold,
            heartbeat_interval=heartbeat_interval,
            ping_timeout=0.5 if fence_node is not None else 2.0,
            use_shm=use_shm,
        )
        runtime.stop()
        report["leaked_processes"] = len(runtime.leaked())
        # This process published any segments (SegmentPublisher names
        # embed its pid); all must be unlinked by controller shutdown.
        report["leaked_shm_segments"] = len(
            shm.list_segments(f"{shm.SEGMENT_PREFIX}{os.getpid():x}-")
        )
    report["gates"] = demo_gates(report)
    report["ok"] = all(report["gates"].values())
    return report


def report_json(report: Dict[str, object]) -> str:
    """Canonical JSON for a workload report (sorted keys, stable)."""
    return json.dumps(report, sort_keys=True, indent=2)
