"""Seeded fault plans and the injector that applies them.

A :class:`FaultPlan` is a deterministic schedule of discrete fault events
drawn from a seed; the :class:`FaultInjector` applies one event per step
to a live gateway through the hooks the production objects expose —
``Fabric.fault_hook`` (transit drop/duplication/reorder and
partitions), the fabric's link-fault surface (``pick_fault_link``,
``fail_link``, ``degrade_link``, ``heal_links``: severed and slow links
on either topology of :mod:`repro.fabric`),
``UpdateEngine.delta_interceptor`` (lost/duplicated/delayed
GPT deltas), ``EpcGateway.down_nodes`` plus
:class:`~repro.cluster.failover.FailoverManager` (crash & rejoin), and
the packet codecs (malformed/truncated frames).

Between events the injector drives a burst of differential traffic; the
:class:`~repro.chaos.oracle.DifferentialOracle` asserts the cluster-
visible invariants after every one.

Modelling assumptions (see ``docs/chaos.md``): the control plane
(RIB updates and delta broadcasts) is carried out-of-band and is only
lossy when a delta fault says so; a crash is a liveness event (state
survives in memory); a partition severs only data-plane transits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import fabric as fabric_mod
from repro.chaos.oracle import DifferentialOracle
from repro.cluster.architectures import Architecture
from repro.cluster.failover import FailoverManager
from repro.epc.gateway import EpcGateway
from repro.epc.packets import (
    EthernetHeader,
    Ipv4Header,
    UdpHeader,
    build_downstream_frame,
)
from repro.epc.traffic import FlowGenerator
from repro.epc.tunnels import GtpTunnelEndpoint


class FaultKind(enum.Enum):
    """The fault model: every adversarial event the harness can inject."""

    #: Mark a node dead (liveness only); its flows stop forwarding unless
    #: the event also re-homes them onto survivors (§7 recovery).
    NODE_CRASH = "node_crash"
    #: Bring a crashed node back, state intact.
    NODE_REJOIN = "node_rejoin"
    #: Sever a node's switch-fabric links: transits to/from it are lost
    #: in flight (data plane only).
    PARTITION = "partition"
    #: Reconnect a partitioned node.
    PARTITION_HEAL = "partition_heal"
    #: Drop the next k fabric transits.
    FABRIC_DROP = "fabric_drop"
    #: Duplicate the next k fabric transits (at-least-once delivery).
    FABRIC_DUPLICATE = "fabric_duplicate"
    #: Reorder (delay) the next k fabric transits.
    FABRIC_REORDER = "fabric_reorder"
    #: Lose one peer's copy of a GPT delta during a re-home: that replica
    #: serves stale one-sided answers until the repair rebroadcast.
    DELTA_LOST = "delta_lost"
    #: Hold every peer's delta back; flush after the traffic burst.
    DELTA_DELAYED = "delta_delayed"
    #: Apply each peer's delta twice (idempotence under at-least-once).
    DELTA_DUPLICATED = "delta_duplicated"
    #: Replay an identical FIB update end to end (duplicate message).
    UPDATE_REPLAY = "update_replay"
    #: Offer truncated/corrupted downstream frames.
    PACKET_MALFORMED = "packet_malformed"
    #: Offer truncated/corrupted upstream GTP-U packets.
    TUNNEL_CORRUPT = "tunnel_corrupt"
    #: Bearer churn: connect new flows, disconnect existing ones.
    FLOW_CHURN = "flow_churn"
    #: Move a live bearer to another handling node (§7 mobility).
    FLOW_REHOME = "flow_rehome"
    #: SIGKILL-analogue on the controller leader: crash it mid-term,
    #: require a majority successor, restart the corpse as an observer.
    LEADER_CRASH = "leader_crash"
    #: Partition one controller follower; the leaseholder must keep
    #: serving on the remaining majority, and the healed follower must
    #: converge on the same committed log.
    FOLLOWER_PARTITION = "follower_partition"
    #: Isolate the leader so its lease expires: it must step down on
    #: its own clock while a new leader rises on the majority side —
    #: never two leaseholders at once.
    LEASE_STALL = "lease_stall"
    #: Sever one fabric link (the fabric picks its own victim: a spine
    #: trunk on the fat-tree, which must reroute; a node pair on the
    #: crossbar, which loses that direction until healed).
    LINK_DOWN = "link_down"
    #: Slow one fabric link down (lossless; latency only).
    LINK_DEGRADED = "link_degraded"
    #: Restore every failed and degraded link.
    LINK_HEAL = "link_heal"


#: Kinds a default plan draws from (paired heal/rejoin events are
#: scheduled automatically and never drawn directly).
DEFAULT_FAULT_KINDS: Tuple[FaultKind, ...] = (
    FaultKind.NODE_CRASH,
    FaultKind.PARTITION,
    FaultKind.FABRIC_DROP,
    FaultKind.FABRIC_DUPLICATE,
    FaultKind.FABRIC_REORDER,
    FaultKind.DELTA_LOST,
    FaultKind.DELTA_DELAYED,
    FaultKind.DELTA_DUPLICATED,
    FaultKind.UPDATE_REPLAY,
    FaultKind.PACKET_MALFORMED,
    FaultKind.TUNNEL_CORRUPT,
    FaultKind.FLOW_CHURN,
    FaultKind.FLOW_REHOME,
)

#: Control-plane faults: only applicable when the injector is given a
#: replicated controller group.  Kept out of DEFAULT_FAULT_KINDS so
#: existing plans (and their byte-compared reports) are untouched; pass
#: ``kinds=DEFAULT_FAULT_KINDS + CONTROLLER_FAULT_KINDS`` to mix them in.
CONTROLLER_FAULT_KINDS: Tuple[FaultKind, ...] = (
    FaultKind.LEADER_CRASH,
    FaultKind.FOLLOWER_PARTITION,
    FaultKind.LEASE_STALL,
)

#: Link-level faults against the fabric topology itself.  Kept out of
#: DEFAULT_FAULT_KINDS for the same reason as the controller kinds; pass
#: ``kinds=DEFAULT_FAULT_KINDS + LINK_FAULT_KINDS`` (the CLI's
#: ``--link-faults``) to mix them in.  ``LINK_HEAL`` is scheduled
#: automatically as the paired heal, never drawn directly.
LINK_FAULT_KINDS: Tuple[FaultKind, ...] = (
    FaultKind.LINK_DOWN,
    FaultKind.LINK_DEGRADED,
)

#: Kinds that only make sense with a GPT to desynchronise.
_GPT_ONLY = {
    FaultKind.DELTA_LOST,
    FaultKind.DELTA_DELAYED,
    FaultKind.DELTA_DUPLICATED,
}


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault."""

    step: int
    kind: FaultKind
    params: Dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of fault events for one episode."""

    seed: int
    events: Tuple[FaultEvent, ...]

    @property
    def steps(self) -> int:
        """Number of plan steps (one event per step)."""
        return len(self.events)

    def kinds_used(self) -> List[str]:
        """Sorted distinct fault kinds this plan schedules."""
        return sorted({event.kind.value for event in self.events})

    @classmethod
    def generate(
        cls,
        seed: int,
        steps: int,
        architecture: Architecture = Architecture.SCALEBRICKS,
        kinds: Optional[Sequence[FaultKind]] = None,
    ) -> "FaultPlan":
        """Draw a schedule of ``steps`` events, deterministic in ``seed``.

        Crash and partition events automatically get their paired
        rejoin/heal two steps later (or at plan end), and down windows
        never overlap, so a default plan always returns to a fully
        healthy cluster — which is what lets the soak runner demand
        *zero* violations at its strict final audit.
        """
        if steps < 1:
            raise ValueError("a plan needs at least one step")
        pool = list(kinds if kinds is not None else DEFAULT_FAULT_KINDS)
        if not architecture.uses_gpt:
            pool = [k for k in pool if k not in _GPT_ONLY]
        if not pool:
            raise ValueError("no applicable fault kinds")
        rng = np.random.default_rng(seed)
        schedule: List[Optional[FaultEvent]] = [None] * steps
        window_until = -1
        for step in range(steps):
            if schedule[step] is not None:
                continue
            kind = pool[int(rng.integers(len(pool)))]
            if kind in (FaultKind.NODE_CRASH, FaultKind.PARTITION,
                        FaultKind.LINK_DOWN, FaultKind.LINK_DEGRADED):
                heal_step = step + 2
                if step <= window_until or heal_step >= steps \
                        or schedule[heal_step] is not None:
                    kind = FaultKind.FLOW_REHOME
                else:
                    window_until = heal_step
                    if kind is FaultKind.NODE_CRASH:
                        heal = FaultKind.NODE_REJOIN
                    elif kind is FaultKind.PARTITION:
                        heal = FaultKind.PARTITION_HEAL
                    else:
                        heal = FaultKind.LINK_HEAL
                    schedule[heal_step] = FaultEvent(step=heal_step, kind=heal)
            params: Dict[str, int] = {}
            if kind in (FaultKind.FABRIC_DROP, FaultKind.FABRIC_DUPLICATE,
                        FaultKind.FABRIC_REORDER):
                params["count"] = int(rng.integers(1, 4))
            if kind is FaultKind.NODE_CRASH:
                params["recover"] = int(rng.integers(2))
            if kind is FaultKind.LINK_DEGRADED:
                params["factor"] = int(rng.integers(2, 6))
            if kind is FaultKind.FLOW_CHURN:
                params["connects"] = int(rng.integers(2, 5))
                params["disconnects"] = int(rng.integers(1, 3))
            if kind is FaultKind.PACKET_MALFORMED \
                    or kind is FaultKind.TUNNEL_CORRUPT:
                params["count"] = int(rng.integers(2, 5))
            schedule[step] = FaultEvent(step=step, kind=kind, params=params)
        return cls(seed=seed, events=tuple(schedule))


class FaultInjector:
    """Applies a :class:`FaultPlan` to a live gateway, step by step.

    Args:
        gateway: a started :class:`~repro.epc.gateway.EpcGateway`.
        oracle: the differential oracle mirroring this gateway.
        flowgen: the generator that populated the gateway — reused so
            churn-created flows stay unique.
        seed: drives every random choice the injector makes (victims,
            ingress nodes, corruption offsets); independent of the plan
            seed so the same plan can be replayed over different traffic.
        replicas: an optional replicated controller group
            (:class:`~repro.runtime.replication.ReplicaGroup`); enables
            the ``CONTROLLER_FAULT_KINDS`` handlers, which drive crash /
            partition / lease-stall scenarios through it and record any
            leadership-invariant breach (zero or two leaders, diverged
            committed logs) as an oracle violation.
    """

    def __init__(
        self,
        gateway: EpcGateway,
        oracle: DifferentialOracle,
        flowgen: FlowGenerator,
        seed: int,
        replicas=None,
    ) -> None:
        if gateway.cluster is None or gateway.updates is None:
            raise RuntimeError("gateway must be started before injection")
        self.gateway = gateway
        self.oracle = oracle
        self.flowgen = flowgen
        self.cluster = gateway.cluster
        self.engine = gateway.updates
        self.failover = FailoverManager(self.cluster)
        self.replicas = replicas
        self.rng = np.random.default_rng(seed)
        self.applied: Dict[str, int] = {}
        self.outcomes: Dict[str, int] = {}
        self.partitioned: Set[int] = set()
        self._drop_budget = 0
        self._dup_budget = 0
        self._delay_budget = 0
        self._pending_repairs: List[int] = []  # keys awaiting rebroadcast
        self._flush_pending = False
        self.cluster.fabric.fault_hook = self._fabric_hook
        self._m_faults = gateway.registry.counter(
            "chaos.faults_injected", "fault events applied to the cluster"
        )

    # ------------------------------------------------------------------
    # Fabric hook
    # ------------------------------------------------------------------

    def _fabric_hook(self, src: int, dst: int, size: int) -> str:
        if src in self.partitioned or dst in self.partitioned:
            return fabric_mod.DROP
        if self._drop_budget > 0:
            self._drop_budget -= 1
            return fabric_mod.DROP
        if self._dup_budget > 0:
            self._dup_budget -= 1
            return fabric_mod.DUPLICATE
        if self._delay_budget > 0:
            self._delay_budget -= 1
            return fabric_mod.DELAY
        return fabric_mod.DELIVER

    def disarm_fabric_budgets(self) -> None:
        """Clear per-transit budgets (partitions persist until healed)."""
        self._drop_budget = 0
        self._dup_budget = 0
        self._delay_budget = 0

    # ------------------------------------------------------------------
    # Victim / topology selection
    # ------------------------------------------------------------------

    def live_nodes(self) -> List[int]:
        """Nodes that are neither crashed nor partitioned."""
        return [
            n for n in range(len(self.cluster.nodes))
            if self.failover.is_up(n) and n not in self.partitioned
        ]

    def pick_ingress(self) -> int:
        """A seeded ingress among fully reachable nodes."""
        live = self.live_nodes()
        return int(live[int(self.rng.integers(len(live)))])

    def _pick_flow(self, on_live_node: bool = True):
        """A seeded victim bearer (optionally restricted to live owners)."""
        flows = self.oracle.reference.flows
        keys = sorted(
            key for key, ref in flows.items()
            if not on_live_node
            or (ref.node not in self.oracle.down
                and ref.node not in self.partitioned)
        )
        if not keys:
            return None
        return flows[keys[int(self.rng.integers(len(keys)))]]

    def _pick_target(self, exclude: int) -> Optional[int]:
        candidates = [n for n in self.live_nodes() if n != exclude]
        if not candidates:
            return None
        return int(candidates[int(self.rng.integers(len(candidates)))])

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------

    def apply(self, event: FaultEvent) -> None:
        """Repair any previous staleness window, then inject one event."""
        self.repair()
        handler = getattr(self, f"_apply_{event.kind.value}")
        handler(event)
        self.applied[event.kind.value] = (
            self.applied.get(event.kind.value, 0) + 1
        )
        self._m_faults.inc()

    def repair(self) -> None:
        """Close open staleness windows (delayed flush + rebroadcasts)."""
        if self._flush_pending:
            self.engine.flush_delayed_deltas()
            self._flush_pending = False
        for key in self._pending_repairs:
            ref = self.oracle.reference.flows.get(key)
            if ref is not None:
                # Identity re-insert: same mapping, fresh group
                # rebroadcast — exactly the §4.5 repair path.
                self.engine.insert_flow(key, ref.node, ref.teid)
        self._pending_repairs = []
        for key in sorted(self.oracle.stale_keys):
            self.oracle.note_repaired(key)

    def finish(self) -> None:
        """Return the cluster to full health for the strict final audit."""
        self.repair()
        for node in sorted(self.partitioned):
            self._heal(node)
        for node in sorted(set(self.failover.down)):
            self._rejoin(node)
        self._heal_links()
        self.disarm_fabric_budgets()

    # -- individual fault handlers -------------------------------------

    def _apply_node_crash(self, event: FaultEvent) -> None:
        live = self.live_nodes()
        if len(live) < 2:
            return
        victim = int(live[int(self.rng.integers(len(live)))])
        self.failover.fail_node(victim)
        self.gateway.down_nodes.add(victim)
        self.oracle.note_fail(victim)
        if event.params.get("recover"):
            # §7 recovery: re-home the dead node's bearers onto the
            # survivors; controller record, FIB entry (+ GPT delta) and
            # DPE context move together.
            victims = sorted(
                key for key, ref in self.oracle.reference.flows.items()
                if ref.node == victim
            )
            survivors = [n for n in self.live_nodes() if n != victim]
            for i, key in enumerate(victims):
                target = survivors[i % len(survivors)]
                ref = self.oracle.reference.flows[key]
                self.gateway.rehome_flow(ref.flow, target)
                self.oracle.note_rehome(key, target)

    def _apply_node_rejoin(self, event: FaultEvent) -> None:
        for node in sorted(set(self.failover.down)):
            self._rejoin(node)

    def _rejoin(self, node: int) -> None:
        self.failover.restore_node(node)
        self.gateway.down_nodes.discard(node)
        self.oracle.note_restore(node)

    def _apply_partition(self, event: FaultEvent) -> None:
        live = self.live_nodes()
        if len(live) < 2:
            return
        victim = int(live[int(self.rng.integers(len(live)))])
        self.partitioned.add(victim)
        self.oracle.note_partition(victim)

    def _apply_partition_heal(self, event: FaultEvent) -> None:
        for node in sorted(self.partitioned):
            self._heal(node)

    def _heal(self, node: int) -> None:
        self.partitioned.discard(node)
        self.oracle.note_heal(node)

    def _apply_link_down(self, event: FaultEvent) -> None:
        link = self.cluster.fabric.pick_fault_link(self.rng)
        if link is None:
            return
        self.cluster.fabric.fail_link(link)
        self.oracle.note_link_down(link)

    def _apply_link_degraded(self, event: FaultEvent) -> None:
        # Lossless: latency only, so the oracle's delivery invariants
        # are unchanged and no note is needed.
        link = self.cluster.fabric.pick_fault_link(self.rng)
        if link is None:
            return
        self.cluster.fabric.degrade_link(
            link, factor=float(event.params.get("factor", 4))
        )

    def _apply_link_heal(self, event: FaultEvent) -> None:
        self._heal_links()

    def _heal_links(self) -> None:
        self.cluster.fabric.heal_links()
        self.oracle.note_links_healed()

    def _apply_fabric_drop(self, event: FaultEvent) -> None:
        self._drop_budget += event.params.get("count", 1)

    def _apply_fabric_duplicate(self, event: FaultEvent) -> None:
        self._dup_budget += event.params.get("count", 1)

    def _apply_fabric_reorder(self, event: FaultEvent) -> None:
        self._delay_budget += event.params.get("count", 1)

    def _rehome_with_interceptor(self, interceptor, stale: bool) -> None:
        ref = self._pick_flow()
        if ref is None:
            return
        target = self._pick_target(ref.node)
        if target is None:
            return
        self.engine.delta_interceptor = interceptor
        try:
            self.gateway.rehome_flow(ref.flow, target)
        finally:
            self.engine.delta_interceptor = None
        self.oracle.note_rehome(ref.key, target)
        if stale:
            self.oracle.note_stale(ref.key)
            self._pending_repairs.append(ref.key)

    def _apply_delta_lost(self, event: FaultEvent) -> None:
        peers = [n for n in self.live_nodes()]
        if len(peers) < 2:
            return
        stale_peer = int(peers[int(self.rng.integers(len(peers)))])

        def interceptor(owner: int, peer: int) -> str:
            if peer == stale_peer:
                return fabric_mod.DROP
            return fabric_mod.DELIVER

        self._rehome_with_interceptor(interceptor, stale=True)

    def _apply_delta_delayed(self, event: FaultEvent) -> None:
        def interceptor(owner: int, peer: int) -> str:
            return fabric_mod.DELAY

        self._rehome_with_interceptor(interceptor, stale=True)
        self._flush_pending = True

    def _apply_delta_duplicated(self, event: FaultEvent) -> None:
        def interceptor(owner: int, peer: int) -> str:
            return fabric_mod.DUPLICATE

        self._rehome_with_interceptor(interceptor, stale=False)

    def _apply_update_replay(self, event: FaultEvent) -> None:
        ref = self._pick_flow()
        if ref is None:
            return
        # The same update arrives twice (at-least-once control channel):
        # the second application must be a no-op at every layer.
        self.engine.insert_flow(ref.key, ref.node, ref.teid)
        self.engine.insert_flow(ref.key, ref.node, ref.teid)

    def _apply_packet_malformed(self, event: FaultEvent) -> None:
        for _ in range(event.params.get("count", 2)):
            frame = self._corrupt_downstream_frame()
            self._note_outcome(
                self.oracle.offer_downstream(event.step, frame,
                                             self.pick_ingress())
            )

    def _apply_tunnel_corrupt(self, event: FaultEvent) -> None:
        for _ in range(event.params.get("count", 2)):
            packet = self._corrupt_upstream_packet()
            if packet is not None:
                self._note_outcome(
                    self.oracle.offer_upstream(event.step, packet)
                )

    def _apply_flow_churn(self, event: FaultEvent) -> None:
        for _ in range(event.params.get("connects", 2)):
            flow = self.flowgen.flows(1)[0]
            record = self.gateway.connect(
                flow,
                self.flowgen.base_station_for(flow),
                self.flowgen.region_for(flow),
            )
            self.oracle.note_connect(record)
        for _ in range(event.params.get("disconnects", 1)):
            ref = self._pick_flow()
            if ref is None:
                break
            self.gateway.disconnect(ref.flow)
            self.oracle.note_disconnect(ref.key)

    def _apply_flow_rehome(self, event: FaultEvent) -> None:
        ref = self._pick_flow()
        if ref is None:
            return
        target = self._pick_target(ref.node)
        if target is None:
            return
        self.gateway.rehome_flow(ref.flow, target)
        self.oracle.note_rehome(ref.key, target)

    # -- controller (replicated control plane) faults ------------------

    def _leadership_violation(self, step: int, detail: str) -> None:
        from repro.chaos.oracle import OracleViolation

        self.oracle.violations.append(OracleViolation(
            step=step, invariant="leadership", key=-1, detail=detail,
        ))

    def _check_leadership(self, step: int, floor_term: int = 0) -> None:
        """Assert exactly one live leader and agreeing committed logs."""
        group = self.replicas
        assert group is not None
        leaders = group.leaders()
        if len(leaders) != 1:
            self._leadership_violation(
                step, f"expected exactly one leader, saw {leaders}"
            )
            return
        term = group.replicas[leaders[0]].term
        if term < floor_term:
            self._leadership_violation(
                step,
                f"leader term {term} did not advance past {floor_term}",
            )
        if not group.logs_identical():
            self._leadership_violation(
                step, "live replicas disagree on the committed prefix"
            )

    def _apply_leader_crash(self, event: FaultEvent) -> None:
        """SIGKILL the leader mid-term; a successor must win and the
        restarted corpse must converge on the successor's log."""
        group = self.replicas
        if group is None:
            return
        old = group.leader()
        if old is None:
            old = group.elect()
        old_term = group.replicas[old].term
        info = group.depose()
        self._check_leadership(event.step, floor_term=old_term + 1)
        if info["new_leader"] == old:
            self._leadership_violation(
                event.step,
                f"crashed leader {old} won again without a grace period",
            )

    def _apply_follower_partition(self, event: FaultEvent) -> None:
        """Isolate one follower; the lease must survive on the majority
        and the healed follower must catch up to the same log."""
        group = self.replicas
        if group is None:
            return
        leader = group.leader()
        if leader is None:
            leader = group.elect()
        followers = [i for i in group.live() if i != leader]
        if not followers:
            return
        victim = int(followers[int(self.rng.integers(len(followers)))])
        term_before = group.replicas[leader].term
        group.partition(victim)
        if len(group.live()) < group.replicas[leader].quorum:
            # Partitioning this follower broke the majority; the lease
            # is *supposed* to lapse then, so there is nothing to hold.
            group.heal(victim)
            return
        group.advance(group.lease_duration * 2)
        if group.leader() != leader or (
            group.replicas[leader].term != term_before
        ):
            self._leadership_violation(
                event.step,
                f"leader {leader} lost its lease to a single follower "
                "partition despite holding a majority",
            )
        group.heal(victim)
        group.run_until(
            lambda: group.replicas[victim].commit_index
            >= group.replicas[leader].commit_index
        )
        self._check_leadership(event.step, floor_term=term_before)

    def _apply_lease_stall(self, event: FaultEvent) -> None:
        """Cut the leader off: its lease must lapse (step-down on its
        own clock) while the majority elects a successor — the two-
        leaseholder window the lease arithmetic forbids."""
        from repro.runtime.replication import Role

        group = self.replicas
        if group is None:
            return
        old = group.leader()
        if old is None:
            old = group.elect()
        old_term = group.replicas[old].term
        group.partition(old)
        new = group.elect()
        group.run_until(
            lambda: group.replicas[old].role is not Role.LEADER
        )
        if new == old:
            self._leadership_violation(
                event.step, f"partitioned leader {old} re-elected itself"
            )
        group.heal(old)
        group.run_until(
            lambda: group.replicas[old].leader_id == new
            and group.replicas[old].commit_index
            >= group.replicas[new].commit_index
        )
        self._check_leadership(event.step, floor_term=old_term + 1)

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------

    def _payload(self, step: int, index: int) -> bytes:
        return f"ep-s{step:02d}-p{index:03d}".encode().ljust(18, b".")

    def _valid_frame(self, ref, step: int, index: int) -> bytes:
        return build_downstream_frame(
            src_mac=b"\x02\x00\x00\x00\x00\x01",
            dst_mac=b"\x02\x00\x00\x00\x00\x02",
            flow=ref.flow,
            payload=self._payload(step, index),
        )

    def _corrupt_downstream_frame(self) -> bytes:
        """A deterministic malformed frame (several corruption modes)."""
        ref = self._pick_flow(on_live_node=False) or self._pick_flow()
        base = self._valid_frame(ref, 0, 0) if ref is not None else b"\x00" * 40
        mode = int(self.rng.integers(4))
        if mode == 0:
            # Truncated inside the Ethernet/IP/L4 headers.
            cut = int(self.rng.integers(0, EthernetHeader.SIZE
                                        + Ipv4Header.SIZE + 4))
            return base[:cut]
        if mode == 1:
            # Flip one IP-header byte: the checksum must catch it.
            raw = bytearray(base)
            offset = EthernetHeader.SIZE + int(self.rng.integers(0, 10))
            raw[offset] ^= 0xFF
            return bytes(raw)
        if mode == 2:
            # Wrong IP version nibble.
            raw = bytearray(base)
            raw[EthernetHeader.SIZE] = (5 << 4) | 5
            return bytes(raw)
        # Garbage tail only — too short for any parse.
        return bytes(self.rng.integers(0, 256, size=7, dtype=np.uint8))

    def _valid_upstream_packet(self, ref, step: int, index: int) -> bytes:
        payload = self._payload(step, index)
        udp = UdpHeader(
            sport=ref.flow.dport, dport=ref.flow.sport,
            length=UdpHeader.SIZE + len(payload),
        )
        inner_ip = Ipv4Header(
            src=ref.flow.dst_ip,  # the UE answers
            dst=ref.flow.src_ip,
            protocol=ref.flow.protocol,
            total_length=Ipv4Header.SIZE + UdpHeader.SIZE + len(payload),
        )
        inner = inner_ip.pack() + udp.pack() + payload
        endpoint = GtpTunnelEndpoint(
            local_ip=ref.base_station_ip, peer_ip=self.gateway.gateway_ip
        )
        return endpoint.encapsulate(ref.teid, inner)

    def _corrupt_upstream_packet(self) -> Optional[bytes]:
        ref = self._pick_flow(on_live_node=False)
        if ref is None:
            return None
        base = self._valid_upstream_packet(ref, 0, 0)
        mode = int(self.rng.integers(3))
        if mode == 0:
            # Truncated mid-GTP-U header.
            cut = int(self.rng.integers(
                Ipv4Header.SIZE, Ipv4Header.SIZE + UdpHeader.SIZE + 8
            ))
            return base[:cut]
        if mode == 1:
            # Unknown TEID (far outside the allocator's range).
            endpoint = GtpTunnelEndpoint(
                local_ip=ref.base_station_ip,
                peer_ip=self.gateway.gateway_ip,
            )
            inner = base[Ipv4Header.SIZE + UdpHeader.SIZE + 8:]
            return endpoint.encapsulate(0x7FFF_FFF0, inner)
        # Corrupted inner IP header (checksum mismatch -> malformed).
        raw = bytearray(base)
        raw[Ipv4Header.SIZE + UdpHeader.SIZE + 8 + 4] ^= 0xFF
        return bytes(raw)

    def _note_outcome(self, kind: str) -> None:
        self.outcomes[kind] = self.outcomes.get(kind, 0) + 1

    def burst(self, step: int, packets: int,
              upstream_every: int = 4, unknown_every: int = 7) -> None:
        """Offer a differential traffic burst: mostly valid downstream,
        with periodic upstream packets and unknown-flow frames mixed in.
        """
        for index in range(packets):
            if unknown_every and index % unknown_every == unknown_every - 1:
                flow = self.flowgen.flows(1)[0]  # never connected
                frame = build_downstream_frame(
                    src_mac=b"\x02\x00\x00\x00\x00\x01",
                    dst_mac=b"\x02\x00\x00\x00\x00\x02",
                    flow=flow,
                    payload=self._payload(step, index),
                )
                self._note_outcome(
                    self.oracle.offer_downstream(step, frame,
                                                 self.pick_ingress())
                )
                continue
            ref = self._pick_flow(on_live_node=False)
            if ref is None:
                return
            if upstream_every and index % upstream_every == upstream_every - 1:
                self._note_outcome(
                    self.oracle.offer_upstream(
                        step, self._valid_upstream_packet(ref, step, index)
                    )
                )
            else:
                self._note_outcome(
                    self.oracle.offer_downstream(
                        step, self._valid_frame(ref, step, index),
                        self.pick_ingress(),
                    )
                )
