"""Differential oracle: a reference model the chaos cluster must match.

The oracle keeps the simplest data structures that can answer "what
should the cluster have done?": a plain ``dict`` reference FIB and a
single-node reference gateway (:class:`ReferenceGateway`) that parses,
policies and re-encapsulates packets with the same codecs but none of the
distributed machinery.  After every injected fault the oracle routes
probes and replays traffic through both sides and records any divergence
as an :class:`OracleViolation`.

Invariants checked (paper §3.4, §4.5, §7):

* **ownership** — a known key delivered anywhere is delivered at its
  authoritative handling node with its authoritative value;
* **one-sided error** — while a replica is declared stale a known key
  may be *dropped* (misrouted to a node whose exact FIB rejects it) but
  never delivered with the wrong value;
* **rejection** — keys absent from the reference FIB are never accepted;
* **handoff bound** — internal fabric transits per packet never exceed
  the architecture's bound (1 for ScaleBricks/full duplication, 2 for
  hash partitioning/VLB);
* **byte fidelity** — the GTP-U encapsulated output (and upstream
  decapsulated output) is byte-identical to the reference gateway's;
* **charging** — the per-TEID byte accounting matches the reference
  exactly at episode end;
* **bookkeeping** — the RIB holds exactly the reference FIB's mappings.

Determinism contract: the oracle draws nothing from wall clock or global
randomness; all probe selection is done by its caller's seeded generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.cluster.architectures import Architecture
from repro.epc.fastpath import MAX_INNER
from repro.epc.gateway import EpcGateway
from repro.epc.packets import extract_forwardable, parse_frame
from repro.epc.tunnels import GtpTunnelEndpoint

#: Expected-outcome kinds a reference evaluation can produce.
DELIVERED = "delivered"
MALFORMED = "malformed"
BAD_TUNNEL = "bad_tunnel"
UNKNOWN = "unknown"
NODE_DOWN = "node_down"
TRANSIT_LOSS = "transit_loss"
STALE = "stale"

#: Architecture -> maximum internal fabric transits per packet.
MAX_INTERNAL_HOPS: Dict[Architecture, int] = {
    Architecture.SCALEBRICKS: 1,
    Architecture.FULL_DUPLICATION: 1,
    Architecture.HASH_PARTITION: 2,
    Architecture.ROUTEBRICKS_VLB: 2,
}


@dataclass(frozen=True)
class ReferenceFlow:
    """The oracle's authoritative record of one bearer."""

    key: int
    teid: int
    node: int
    base_station_ip: int
    flow: object  # FlowTuple (kept opaque to avoid import cycles)


@dataclass(frozen=True)
class Expectation:
    """What the reference model says must happen to one packet."""

    kind: str
    node: int = -1
    teid: int = 0
    payload: Optional[bytes] = None
    charge: int = 0


@dataclass(frozen=True)
class OracleViolation:
    """One observed divergence between cluster and reference."""

    step: int
    invariant: str
    key: int
    detail: str

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (deterministic field order)."""
        return {
            "step": self.step,
            "invariant": self.invariant,
            "key": self.key,
            "detail": self.detail,
        }


class ReferenceGateway:
    """A single-node reference gateway: dict FIB, no fabric, no cluster.

    It shares the byte-level codecs with the real data plane (the point:
    encapsulation must be *byte-identical*) but routes by direct dict
    lookup, so any disagreement is attributable to the distributed side.
    """

    def __init__(self, gateway_ip: int) -> None:
        self.gateway_ip = gateway_ip
        self.flows: Dict[int, ReferenceFlow] = {}
        self.acl_blocked_sources: Set[int] = set()

    # -- reference FIB mutations (mirrored from the cluster) -----------

    def insert(self, flow: ReferenceFlow) -> None:
        """Add or overwrite the authoritative record for a bearer."""
        self.flows[flow.key] = flow

    def remove(self, key: int) -> Optional[ReferenceFlow]:
        """Drop a bearer's record; returns it if present."""
        return self.flows.pop(key, None)

    def rehome(self, key: int, node: int) -> ReferenceFlow:
        """Re-pin a bearer to another handling node."""
        old = self.flows[key]
        moved = ReferenceFlow(
            key=old.key,
            teid=old.teid,
            node=node,
            base_station_ip=old.base_station_ip,
            flow=old.flow,
        )
        self.flows[key] = moved
        return moved

    def __len__(self) -> int:
        return len(self.flows)

    # -- packet evaluation ---------------------------------------------

    def expect_downstream(self, frame: bytes) -> Expectation:
        """Reference verdict for one downstream frame (topology-blind)."""
        try:
            _eth, l3 = parse_frame(frame)
            flow, ip_header, _l4 = extract_forwardable(l3, MAX_INNER)
        except ValueError:
            return Expectation(kind=MALFORMED)
        if flow.src_ip in self.acl_blocked_sources:
            return Expectation(kind="acl")
        record = self.flows.get(flow.key())
        if record is None:
            return Expectation(kind=UNKNOWN)
        inner = ip_header.decrement_ttl().pack() + l3[ip_header.SIZE:]
        endpoint = GtpTunnelEndpoint(
            local_ip=self.gateway_ip, peer_ip=record.base_station_ip
        )
        return Expectation(
            kind=DELIVERED,
            node=record.node,
            teid=record.teid,
            payload=endpoint.encapsulate(record.teid, inner),
            charge=len(l3),
        )

    def expect_upstream(self, outer_packet: bytes) -> Expectation:
        """Reference verdict for one upstream GTP-U packet."""
        try:
            teid, inner, _outer = GtpTunnelEndpoint.decapsulate(outer_packet)
        except ValueError:
            return Expectation(kind=BAD_TUNNEL)
        record = None
        for candidate in self.flows.values():
            if candidate.teid == teid:
                record = candidate
                break
        if record is None:
            return Expectation(kind=BAD_TUNNEL)
        try:
            flow, ip_header, _rest = extract_forwardable(inner)
        except ValueError:
            return Expectation(kind=MALFORMED)
        if flow.src_ip in self.acl_blocked_sources:
            return Expectation(kind="acl")
        return Expectation(
            kind=DELIVERED,
            node=record.node,
            teid=teid,
            payload=ip_header.decrement_ttl().pack() + inner[ip_header.SIZE:],
            charge=len(inner),
        )


class DifferentialOracle:
    """Cross-checks a chaos-driven gateway against the reference model.

    Args:
        gateway: the (started) cluster gateway under test.

    The injector reports every mutation (``note_*``) and every topology
    change (``note_fail`` / ``note_partition`` / ...) so the oracle knows
    which divergences are *expected consequences of the injected fault*
    and which are real bugs.  Keys listed in :attr:`stale_keys` are in a
    declared staleness window (a GPT delta was dropped or delayed): for
    those the one-sided-error contract applies instead of strict
    delivery.
    """

    def __init__(self, gateway: EpcGateway) -> None:
        if gateway.cluster is None:
            raise RuntimeError("gateway must be started before the oracle")
        self.gateway = gateway
        self.cluster = gateway.cluster
        self.reference = ReferenceGateway(gateway.gateway_ip)
        self.down: Set[int] = set()
        self.partitioned: Set[int] = set()
        self.broken_links: Set[Tuple] = set()
        self.stale_keys: Set[int] = set()
        self.violations: List[OracleViolation] = []
        self.checks = 0
        self.transit_losses = 0
        self.ref_bytes: Dict[int, int] = {}
        self.max_hops = MAX_INTERNAL_HOPS[gateway.architecture]
        registry = gateway.registry
        self._m_checks = registry.counter(
            "chaos.oracle.checks", "differential assertions evaluated"
        )
        self._m_violations = registry.counter(
            "chaos.oracle.violations", "differential assertions that failed"
        )
        self._m_transit_losses = registry.counter(
            "chaos.transit_losses", "packets lost to injected fabric faults"
        )

    # ------------------------------------------------------------------
    # Mutation mirror
    # ------------------------------------------------------------------

    def note_connect(self, record) -> None:
        """Mirror a bearer establishment into the reference FIB."""
        self.reference.insert(
            ReferenceFlow(
                key=record.key,
                teid=record.teid,
                node=record.handling_node,
                base_station_ip=record.base_station_ip,
                flow=record.flow,
            )
        )

    def note_disconnect(self, key: int) -> None:
        """Mirror a bearer teardown."""
        self.reference.remove(key)
        self.stale_keys.discard(key)

    def note_rehome(self, key: int, node: int) -> None:
        """Mirror a bearer moving to another handling node."""
        self.reference.rehome(key, node)

    def note_fail(self, node: int) -> None:
        """A node crashed (liveness lost, state retained)."""
        self.down.add(node)

    def note_restore(self, node: int) -> None:
        """A crashed node rejoined."""
        self.down.discard(node)

    def note_partition(self, node: int) -> None:
        """A node was cut off from the switch fabric."""
        self.partitioned.add(node)

    def note_heal(self, node: int) -> None:
        """A fabric partition healed."""
        self.partitioned.discard(node)

    def note_link_down(self, link) -> None:
        """A fabric link was severed (transits over it may be lost)."""
        self.broken_links.add(tuple(link))

    def note_links_healed(self) -> None:
        """Every severed fabric link was restored."""
        self.broken_links.clear()

    def note_stale(self, key: int) -> None:
        """A key entered a declared replica-staleness window."""
        self.stale_keys.add(key)

    def note_repaired(self, key: int) -> None:
        """A key's staleness window closed (delta rebroadcast)."""
        self.stale_keys.discard(key)

    # ------------------------------------------------------------------
    # Differential traffic
    # ------------------------------------------------------------------

    def _fault_topology_active(self) -> bool:
        return bool(self.down or self.partitioned or self.broken_links)

    def _violate(self, step: int, invariant: str, key: int, detail: str) -> None:
        self.violations.append(
            OracleViolation(step=step, invariant=invariant, key=key,
                            detail=detail)
        )
        self._m_violations.inc()

    def _check(self) -> None:
        self.checks += 1
        self._m_checks.inc()

    def _lost(self, result) -> bool:
        """Whether ``result`` is a transit lost in the fabric (counted).

        Transits are only lossy under an injected fault (a partition, an
        armed drop budget or a severed link), so a loss is attributable
        to the plan; the reference charges nothing for it.
        """
        if result.reason != "fabric_loss":
            return False
        self.transit_losses += 1
        self._m_transit_losses.inc()
        return True

    def _expected_touch(self, key: int, ingress: int, owner: int) -> Set[int]:
        """Nodes a delivered packet's path must visit (deterministic archs)."""
        touch = {ingress, owner}
        if self.gateway.architecture is Architecture.HASH_PARTITION:
            touch.add(self.cluster.lookup_node_of(key))
        return touch

    def offer_downstream(
        self, step: int, frame: bytes, ingress: int
    ) -> str:
        """Run one downstream frame through both sides and compare.

        Returns the observed outcome kind (for the caller's accounting).
        """
        expected = self.reference.expect_downstream(frame)
        result, out = self.gateway.process_downstream(frame, ingress)
        self._check()
        if self._lost(result):
            return TRANSIT_LOSS
        kind = expected.kind

        if kind == MALFORMED:
            if not (result.dropped and result.reason == "malformed"):
                self._violate(step, "rejection", 0,
                              f"malformed frame not rejected: {result.reason}")
            return MALFORMED

        if kind == "acl":
            if not (result.dropped and result.reason == "acl"):
                self._violate(step, "rejection", result.key,
                              f"ACL-blocked frame not rejected: {result.reason}")
            return kind

        key = result.key
        if kind == UNKNOWN:
            if not result.dropped:
                self._violate(step, "rejection", key,
                              "unknown key was delivered")
            return UNKNOWN

        # Known key: overlay the fault topology on the service expectation.
        assert kind == DELIVERED
        touch = self._expected_touch(key, ingress, expected.node)
        uncertain_path = (
            self.gateway.architecture is Architecture.ROUTEBRICKS_VLB
            and self._fault_topology_active()
        )
        if touch & self.down and not uncertain_path:
            if not (result.dropped and result.reason == "node_down"):
                self._violate(
                    step, "liveness", key,
                    f"path through dead node not reported: {result.reason}",
                )
            return NODE_DOWN

        if result.internal_hops > self.max_hops:
            self._violate(
                step, "handoff_bound", key,
                f"{result.internal_hops} hops > bound {self.max_hops}",
            )
        if result.dropped:
            ok = (
                key in self.stale_keys
                or uncertain_path
                or result.reason == "node_down"  # VLB detour / collateral
            )
            if not ok:
                self._violate(step, "ownership", key,
                              f"known key dropped: {result.reason}")
            return STALE if key in self.stale_keys else result.reason

        # Delivered: must match the reference byte for byte.
        if result.handled_by != expected.node:
            self._violate(
                step, "ownership", key,
                f"delivered at node {result.handled_by}, "
                f"owner is {expected.node}",
            )
        if result.value != expected.teid:
            self._violate(step, "ownership", key,
                          f"value {result.value} != TEID {expected.teid}")
        if out != expected.payload:
            self._violate(step, "byte_fidelity", key,
                          "GTP-U encapsulation differs from reference")
        self.ref_bytes[expected.teid] = (
            self.ref_bytes.get(expected.teid, 0) + expected.charge
        )
        return DELIVERED

    def offer_upstream(self, step: int, outer_packet: bytes) -> str:
        """Run one upstream GTP-U packet through both sides and compare."""
        expected = self.reference.expect_upstream(outer_packet)
        out = self.gateway.process_upstream(outer_packet)
        self._check()
        if expected.kind != DELIVERED:
            if out is not None:
                self._violate(step, "rejection", 0,
                              f"bad upstream packet accepted ({expected.kind})")
            return expected.kind
        if expected.node in self.down:
            if out is not None:
                self._violate(step, "liveness", expected.teid,
                              "upstream served by a dead node")
            return NODE_DOWN
        if out is None:
            self._violate(step, "ownership", expected.teid,
                          "valid upstream packet rejected")
            return "dropped"
        if out != expected.payload:
            self._violate(step, "byte_fidelity", expected.teid,
                          "upstream decapsulation differs from reference")
        self.ref_bytes[expected.teid] = (
            self.ref_bytes.get(expected.teid, 0) + expected.charge
        )
        return DELIVERED

    # ------------------------------------------------------------------
    # Probing / audits
    # ------------------------------------------------------------------

    def _probe(self, step: int, key: int, ingress: int,
               record: ReferenceFlow) -> None:
        """Route one known key and assert the routing invariants."""
        result = self.cluster.route(key, ingress)
        self._check()
        if self._lost(result):
            if not self.partitioned and not self.broken_links:
                self._violate(step, "liveness", key,
                              "transit lost with no partition or broken "
                              "link declared")
            return
        touch = self._expected_touch(key, ingress, record.node)
        uncertain_path = (
            self.gateway.architecture is Architecture.ROUTEBRICKS_VLB
            and self._fault_topology_active()
        )
        if result.internal_hops > self.max_hops:
            self._violate(
                step, "handoff_bound", key,
                f"{result.internal_hops} hops > bound {self.max_hops}",
            )
        downed = any(node in self.down for node in result.path)
        if downed or (touch & self.down and not uncertain_path):
            # The raw cluster is liveness-unaware; the gateway layer
            # would have dropped this path.  Nothing more to assert.
            return
        if result.dropped:
            if key not in self.stale_keys and not uncertain_path:
                self._violate(step, "ownership", key,
                              f"known key dropped: {result.reason}")
            return
        if result.handled_by != record.node or result.value != record.teid:
            self._violate(
                step, "ownership", key,
                f"routed to ({result.handled_by}, {result.value}), "
                f"expected ({record.node}, {record.teid})",
            )

    def audit(self, step: int, rng, sample: int = 32,
              unknown_probes: int = 8) -> None:
        """Probe a seeded sample of the key space plus structural checks.

        Args:
            step: plan step (for violation attribution).
            rng: the caller's seeded ``numpy`` generator.
            sample: known keys to probe.
            unknown_probes: absent keys that must be rejected.
        """
        keys = sorted(self.reference.flows)
        live_ingress = [
            n for n in range(len(self.cluster.nodes))
            if n not in self.down and n not in self.partitioned
        ]
        if not live_ingress:
            return
        if keys:
            picks = rng.choice(
                len(keys), size=min(sample, len(keys)), replace=False
            )
            for index in sorted(int(i) for i in picks):
                key = keys[index]
                ingress = int(live_ingress[
                    int(rng.integers(len(live_ingress)))
                ])
                self._probe(step, key, ingress, self.reference.flows[key])

        for _ in range(unknown_probes):
            key = int(rng.integers(1, 2**62))
            if key in self.reference.flows:
                continue
            ingress = int(live_ingress[int(rng.integers(len(live_ingress)))])
            result = self.cluster.route(key, ingress)
            if self._lost(result):
                continue
            self._check()
            if not result.dropped:
                self._violate(step, "rejection", key,
                              "unknown key was delivered")

        # Structural: the RIB is exactly the reference FIB.
        self._check()
        if len(self.cluster.rib) != len(self.reference.flows):
            self._violate(
                step, "bookkeeping", 0,
                f"RIB holds {len(self.cluster.rib)} entries, "
                f"reference holds {len(self.reference.flows)}",
            )

    def final_audit(self, step: int) -> None:
        """Strict end-of-episode check: every key, every byte.

        The caller must have repaired all staleness, healed partitions
        and rejoined crashed nodes first.
        """
        if (self.stale_keys or self.down or self.partitioned
                or self.broken_links):
            raise RuntimeError("final_audit requires a repaired cluster")
        num_nodes = len(self.cluster.nodes)
        for key in sorted(self.reference.flows):
            record = self.reference.flows[key]
            # Ingress away from the owner so the probe exercises the GPT
            # (or lookup-node detour) rather than a local FIB hit.
            self._probe(step, key, ingress=(record.node + 1) % num_nodes,
                        record=record)
        self._check()
        charged = self.gateway.stats.bytes_charged
        if charged != self.ref_bytes:
            diff = {
                teid: (charged.get(teid, 0), self.ref_bytes.get(teid, 0))
                for teid in sorted(set(charged) | set(self.ref_bytes))
                if charged.get(teid, 0) != self.ref_bytes.get(teid, 0)
            }
            self._violate(step, "charging", 0,
                          f"per-TEID byte accounting diverged: {diff}")
