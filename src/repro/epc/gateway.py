"""The LTE-to-Internet gateway: PFE + DPE over a cluster (paper §2, §6.2).

The gateway is the red box of Figure 1: downstream Internet frames enter at
any cluster node (ECMP), the Packet Forwarding Engine delivers them to
their flow's handling node, and the Data Plane Engine there charges the
flow, enforces access control, and re-encapsulates the packet into its
GTP-U tunnel toward the right base station.  Upstream packets are
decapsulated and forwarded to the peering routers.

ScaleBricks changes only the PFE (the ``architecture`` argument); the DPE
here is functional — real byte counters, a real ACL, real encapsulation —
so the PFE swap is exercised end to end at byte level.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cluster import membership
from repro.cluster.architectures import Architecture
from repro.cluster.cluster import Cluster, FibFactory, RouteResult, kept_runs
from repro.cluster.update import UpdateEngine
from repro.core.params import SetSepParams
from repro.epc import fastpath
from repro.epc.controller import (
    AssignmentPolicy,
    EpcController,
    FlowRecord,
    check_node_id,
)
from repro.epc.dpe import ChargingLedger, DataPlaneEngine
from repro.epc.packets import FlowTuple, extract_forwardable
from repro.epc.tunnels import GtpTunnelEndpoint
from repro.obs.metrics import LATENCY_BUCKETS_US, MetricsRegistry


class EpcGateway:
    """A clustered LTE-to-Internet gateway.

    Args:
        architecture: the PFE's FIB architecture (the paper's variable).
        num_nodes: cluster size.
        gateway_ip: the gateway's tunnel-endpoint IPv4 address.
        policy: controller flow-assignment policy.
        gpt_params: SetSep configuration (ScaleBricks only).
        fib_factory: FIB table constructor (defaults to extended cuckoo).
        registry: metrics registry for packet/byte/drop counters and
            per-stage latency spans.  Unlike the pure lookup hot paths,
            the gateway defaults to a *live* private registry — the
            :class:`ChargingLedger` totals must keep counting — and
            shares it with the cluster and update engine it builds; pass
            :data:`repro.obs.NULL_REGISTRY` to disable instrumentation.

    The gateway keeps a simple logical clock (``now``, seconds) advanced
    by ``tick`` per processed packet; its reader is the CDR, whose
    ``opened_at`` and ``closed_at`` it stamps, so charging records are
    deterministic.  Tests may set ``now`` directly.
    """

    def __init__(
        self,
        architecture: Architecture,
        num_nodes: int,
        gateway_ip: int,
        policy: AssignmentPolicy = AssignmentPolicy.ROUND_ROBIN,
        gpt_params: Optional[SetSepParams] = None,
        fib_factory: Optional[FibFactory] = None,
        registry: Optional[MetricsRegistry] = None,
        fabric_backend: Optional[str] = None,
        ingress_policy: str = "random",
    ) -> None:
        self.architecture = architecture
        self.num_nodes = num_nodes
        self.gateway_ip = gateway_ip
        self.controller = EpcController(num_nodes, policy)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.stats = ChargingLedger(self.registry)
        r = self.registry
        self._c_down_in = r.counter("gateway.downstream.packets_in")
        self._c_down_tunnelled = r.counter("gateway.downstream.tunnelled")
        self._c_down_bytes = r.counter(
            "gateway.downstream.bytes", "L3 bytes accepted downstream"
        )
        self._c_up_in = r.counter("gateway.upstream.packets_in")
        self._c_up_forwarded = r.counter("gateway.upstream.forwarded")
        self._c_up_bytes = r.counter(
            "gateway.upstream.bytes", "inner L3 bytes forwarded upstream"
        )
        self._c_drop_unknown = r.counter("gateway.drops.unknown_flow")
        self._c_drop_tunnel = r.counter("gateway.drops.bad_tunnel")
        self._c_drop_acl = r.counter("gateway.drops.acl")
        self._c_drop_malformed = r.counter("gateway.drops.malformed")
        self._h_fabric_hop = r.histogram(
            "gateway.fabric_hop_us", buckets=LATENCY_BUCKETS_US,
            description="modelled switch-fabric latency per routed packet",
        )
        self._c_fp_batches = r.counter(
            "gateway.fastpath.batches",
            "downstream batches routed through the vectorised fast path",
        )
        self._c_fp_frames = r.counter(
            "gateway.fastpath.frames",
            "frames processed by the vectorised fast path",
        )
        self._c_fp_spilled = r.counter(
            "gateway.fastpath.spilled_frames",
            "frames that fell back to the scalar codec (IPv4 options)",
        )
        # The downstream stages' spans, made once like the counters.
        (
            self._s_downstream, self._s_ingress, self._s_pfe, self._s_dpe,
            self._s_egress,
        ) = map(r.span, ("downstream", "ingress", "pfe_lookup", "dpe", "egress"))
        # One Data Plane Engine per node: bearer state lives where the
        # flow is handled (the pinning the whole paper exists to serve).
        self.dpes = [DataPlaneEngine() for _ in range(num_nodes)]
        self.acl_blocked_sources: Set[int] = set()
        #: Nodes currently considered dead (liveness, not state loss):
        #: packets whose path touches one are dropped with reason
        #: ``node_down`` *before* any charging.  The one in-process down
        #: set, kept by the runtime's shadow and by chaos; empty in normal
        #: operation.
        self.down_nodes: Set[int] = set()
        self._c_drop_node_down = r.counter(
            "gateway.drops.node_down",
            "packets lost because their path crossed a dead node",
        )
        self._c_drop_fabric_loss = r.counter(
            "gateway.drops.fabric_loss",
            "packets whose fabric transit was lost in flight",
        )
        self.now = 0.0
        self.tick = 1e-5
        self._gpt_params = gpt_params
        self._fib_factory = fib_factory
        self._fabric_backend = fabric_backend
        self._ingress_policy = ingress_policy
        self.cluster: Optional[Cluster] = None
        self.updates: Optional[UpdateEngine] = None

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------

    def connect(
        self, flow: FlowTuple, base_station_ip: int, region: int = 0
    ) -> FlowRecord:
        """Establish a bearer; if the data plane is live, push the update."""
        record = self.controller.establish_bearer(flow, base_station_ip, region)
        self.dpes[record.handling_node].open_bearer(record.teid, now=self.now)
        if self.updates is not None:
            self.updates.insert_flow(
                record.key, record.handling_node, record.teid
            )
        return record

    def disconnect(self, flow: FlowTuple) -> bool:
        """Tear a bearer down (control + data plane); True if it was
        open.  Its DPE closes it and returns the CDR, which the gateway
        does not keep."""
        record = self.controller.teardown_bearer(flow)
        if record is None:
            return False
        self.dpes[record.handling_node].close_bearer(record.teid, now=self.now)
        if self.updates is not None:
            self.updates.remove_flow(record.key)
        return True

    def rehome_flow(self, flow: FlowTuple, new_node: int) -> FlowRecord:
        """Move a live bearer to another handling node (§7 mobility).

        The three pieces that pin a flow move together: the controller
        record, the FIB entry (+ GPT delta, via the §4.5 update path) and
        the DPE context with its charging counters — billing continues
        seamlessly on the new node.
        """
        new_node = check_node_id(new_node, self.num_nodes, "new_node")
        record = self.controller.record_for_key(flow.key())
        if record is None:
            raise KeyError(f"no bearer for flow {flow}")
        if record.handling_node == new_node:
            return record
        context = self.dpes[record.handling_node].export_context(record.teid)
        self.dpes[new_node].import_context(context)
        moved = self.controller.rehome(record, new_node)  # hashed once
        if self.updates is not None:
            self.updates.insert_flow(moved.key, new_node, moved.teid)
        return moved

    def evacuate(
        self, node: int, survivors: Sequence[int]
    ) -> List[FlowRecord]:
        """Re-home every flow ``node`` handles onto ``survivors`` (§7).

        The one repair verb: runtime repair and drain, and chaos crash
        recovery, all empty a node through it.  Flows move in RIB order,
        round-robin over ``survivors``, each through :meth:`rehome_flow`
        (controller record, DPE context and §4.5 update together), so no
        other flow is touched.  An empty ``survivors``, or a survivor that
        is ``node`` itself, is down or is not a node id, is a
        ``ValueError`` before anything moves.  Returns the moved records.
        """
        cluster = self._require_cluster()
        node = check_node_id(node, self.num_nodes, "node")
        if not survivors:
            raise ValueError(f"no survivors to evacuate node {node} onto")
        for j, target in enumerate(survivors):
            target = check_node_id(target, self.num_nodes, f"survivors[{j}]")
            if target == node or target in self.down_nodes:
                raise ValueError(
                    f"survivors[{j}] = {target} is the evacuated or a down "
                    "node"
                )
        keys, nodes, _ = cluster.rib.columns()
        victims = keys[nodes == node].tolist()
        moved: List[FlowRecord] = []
        for i, key in enumerate(victims):
            record = self.controller.record_for_key(key)
            assert record is not None, "RIB/controller disagree"
            moved.append(self.rehome_flow(
                record.flow, survivors[i % len(survivors)]
            ))
        return moved

    def resize(self, new_n: int) -> membership.ResizeReport:
        """Grow or shrink the forwarding plane to ``new_n`` nodes (§6.3).

        The cluster is rebuilt by :func:`repro.cluster.membership.resize`,
        with the settings it was started with (FIB factory, fabric
        backend, ingress policy, this gateway's registry), and the
        gateway, its controller and a fresh update engine follow it; a
        grown cluster gets an empty DPE per new node.  A shrink repins
        what the leavers still handle in the RIB only, so drain a node
        with :meth:`evacuate` first.
        """
        cluster, report = membership.resize(self._require_cluster(), new_n)
        self.cluster = cluster
        self.updates = UpdateEngine(cluster)
        self.num_nodes = new_n
        self.controller.num_nodes = new_n
        while len(self.dpes) < new_n:
            self.dpes.append(DataPlaneEngine())
        return report

    def start(self) -> None:
        """Build the forwarding plane from the controller's flow table."""
        keys, teids, nodes, _ = self.controller.bearers()
        self.cluster = Cluster.build(
            self.architecture, self.num_nodes,
            np.array(keys, dtype=np.uint64), nodes, teids,
            fib_factory=self._fib_factory,
            gpt_params=self._gpt_params,
            registry=self.registry,
            fabric_backend=self._fabric_backend,
            ingress_policy=self._ingress_policy,
        )
        self.updates = UpdateEngine(self.cluster)

    def _require_cluster(self) -> Cluster:
        if self.cluster is None:
            raise RuntimeError("gateway not started; call start() first")
        return self.cluster

    # ------------------------------------------------------------------
    # Data plane: downstream (Internet -> mobile)
    # ------------------------------------------------------------------

    def process_downstream(
        self, frame: bytes, ingress: Optional[int] = None
    ) -> Tuple[RouteResult, Optional[bytes]]:
        """Forward one downstream frame: a batch of one.

        Returns the PFE routing outcome and, when the packet was accepted,
        the GTP-U-encapsulated packet headed for the base station.
        """
        return self.process_downstream_batch(
            [frame], None if ingress is None else [ingress]
        )[0]

    def process_downstream_batch(
        self,
        frames: Sequence[bytes],
        ingress: Optional[Sequence[Optional[int]]] = None,
    ) -> List[Tuple[RouteResult, Optional[bytes]]]:
        """Forward many downstream frames: the one downstream path (§4.3).

        The batch flows through the vectorised codec
        (:mod:`repro.epc.fastpath`), one batched cluster lookup, and
        per-node grouped DPE charging.  Splitting frames into batches of
        any size, down to the batch of one that :meth:`process_downstream`
        is, changes no output byte, charge or counter (but
        ``gateway.fastpath.batches``) and neither the RNG nor the clock
        trajectory — except which transits a fabric fault hook drops on
        the two-leg architectures, where a batch takes its verdicts leg
        by leg.  A frame whose transit is lost is a ``fabric_loss`` drop,
        never charged.  The optional ``ingress`` sequence pins per-frame
        ingress nodes; an entry that is neither ``None`` nor a node id is
        a ``ValueError`` before any counter or random draw.
        """
        cluster = self._require_cluster()
        if ingress is not None and len(ingress) != len(frames):
            raise ValueError("frames and ingress lengths differ")
        for j, node in enumerate(() if ingress is None else ingress):
            if node is not None:
                check_node_id(node, len(cluster.nodes), f"ingress[{j}]")
        n = len(frames)
        if n == 0:
            return []
        parsed = fastpath.parse_frames(frames)
        self._c_fp_batches.inc()
        self._c_fp_frames.inc(n)
        if parsed.scalar_spills:
            self._c_fp_spilled.inc(parsed.scalar_spills)

        self._c_down_in.inc(n)
        results: List[Optional[Tuple[RouteResult, Optional[bytes]]]] = (
            [None] * n
        )

        def early_ingress(i: int) -> int:
            if ingress is None or ingress[i] is None:
                return -1
            return int(ingress[i])  # type: ignore[arg-type]

        with self._s_downstream:
            with self._s_ingress:
                malformed_idx = parsed.malformed.nonzero()[0]
                if malformed_idx.size:
                    self._c_drop_malformed.inc(int(malformed_idx.size))
                    for i in malformed_idx.tolist():
                        results[i] = (
                            RouteResult.drop(0, early_ingress(i), "malformed"),
                            None,
                        )

                routed = ~parsed.malformed
                blocked = self.acl_blocked_sources
                if blocked:
                    acl = np.fromiter(
                        map(blocked.__contains__, parsed.src_ip.tolist()),
                        dtype=bool, count=n,
                    )
                    acl &= routed
                    routed &= ~acl
                    acl_idx = acl.nonzero()[0]
                    if acl_idx.size:
                        self._c_drop_acl.inc(int(acl_idx.size))
                        for i, key in zip(
                            acl_idx.tolist(), parsed.keys[acl_idx].tolist()
                        ):
                            results[i] = (
                                RouteResult.drop(key, early_ingress(i), "acl"),
                                None,
                            )

            routed_idx = routed.nonzero()[0]
            with self._s_pfe:
                if ingress is None:
                    ing_routed = cluster.pick_ingress_batch(routed_idx.size)
                else:
                    ing_routed = np.array(
                        [
                            cluster.pick_ingress() if ingress[i] is None
                            else int(ingress[i])
                            for i in routed_idx.tolist()
                        ],
                        dtype=np.int64,
                    )
                routed_keys = parsed.keys[routed_idx]
                batch = cluster.route_batch(routed_keys, ing_routed)

            # A lost transit and a path through a dead node are counted,
            # never charged; the loss is reported first.
            refused = batch.lost
            lost_j = refused.nonzero()[0]
            if lost_j.size:
                self._c_drop_fabric_loss.inc(int(lost_j.size))
            node_down = None
            if self.down_nodes:
                node_down = batch.touches(self.down_nodes) & ~refused
                down_j = node_down.nonzero()[0]
                if down_j.size:
                    self._c_drop_node_down.inc(int(down_j.size))
                    for i, j in zip(
                        routed_idx[down_j].tolist(), down_j.tolist()
                    ):
                        results[i] = (
                            batch.results[j].dropped_as("node_down"), None
                        )
                    refused = refused | node_down

            unknown_j = (batch.dropped & ~refused).nonzero()[0]
            if unknown_j.size:
                self._c_drop_unknown.inc(int(unknown_j.size))
            for i, j in zip(
                routed_idx[lost_j].tolist() + routed_idx[unknown_j].tolist(),
                lost_j.tolist() + unknown_j.tolist(),
            ):
                results[i] = (batch.results[j], None)

            accepted = ~batch.dropped
            accepted &= ~refused
            self._h_fabric_hop.observe_many(batch.latencies_us[accepted])

            with self._s_dpe:
                # The route's split of its accepted frames by handler, less
                # those a dead node on their path refuses: the DPE stage
                # runs on the frames in that order, each handler's rows a
                # contiguous slice.
                order, runs = batch.handler_split
                if node_down is not None:
                    order, runs = kept_runs(order, runs, ~node_down[order])
                # The FIB answered each accepted frame with its bearer's
                # TEID: the controller's columns at those TEIDs give the
                # tunnel's far end, once it has checked that the bearer is
                # that frame's and handled where its FIB answered.
                teids = batch.values[order]
                frames = routed_idx[order]
                base_stations = self.controller.egress(
                    routed_keys[order], teids, frames,
                    batch.handler_nodes[order],
                )
                # One ``now += tick`` per accepted frame: a running sum,
                # so the clock ends where batches of one would leave it.
                # (Array methods and ufuncs here, not their ``np.``
                # wrappers: each wrapper is Python calls per batch.)
                clock = np.empty(order.size + 1)
                clock[0] = self.now
                clock[1:] = self.tick
                self.now = float(np.add.accumulate(clock)[-1])
                # Egress has proved each bearer open at its handler, so
                # every one of these frames is charged.
                sizes = parsed.l3_len[frames]
                for node_id, start, stop in runs:
                    self.dpes[node_id].process_batch(
                        teids[start:stop], sizes[start:stop], downlink=True
                    )
                # The ledger charges the same frames in batch order (its
                # TEIDs keep the order they were first charged in).
                charged_j = accepted.nonzero()[0]
                charged_sizes = parsed.l3_len[routed_idx[charged_j]]
                self.stats.charge_many(batch.values[charged_j], charged_sizes)
                self._c_down_bytes.inc(int(np.add.reduce(charged_sizes)))

            with self._s_egress:
                tunnelled = fastpath.encapsulate_batch(
                    parsed, frames, teids, base_stations, self.gateway_ip,
                )
            self._c_down_tunnelled.inc(int(order.size))
            for i, j, packet in zip(frames.tolist(), order.tolist(), tunnelled):
                results[i] = (batch.results[j], packet)

        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Data plane: upstream (mobile -> Internet)
    # ------------------------------------------------------------------

    def process_upstream(self, outer_packet: bytes) -> Optional[bytes]:
        """Decapsulate one upstream GTP-U packet toward the Internet.

        Upstream packets arrive at the flow's handling node directly (the
        aggregation routers honour the assignment; §2), so no cluster
        routing is involved — only tunnel validation and DPE work.
        """
        self._c_up_in.inc()
        with self.registry.span("upstream"):
            try:
                teid, inner, _outer = GtpTunnelEndpoint.decapsulate(
                    outer_packet
                )
            except ValueError:
                self._c_drop_tunnel.inc()
                return None
            record = self.controller.record_for_teid(teid)
            if record is None:
                self._c_drop_tunnel.inc()
                return None
            try:
                flow, ip_header, _rest = extract_forwardable(inner)
            except ValueError:
                self._c_drop_malformed.inc()
                return None
            if flow.src_ip in self.acl_blocked_sources:
                self._c_drop_acl.inc()
                return None
            if record.handling_node in self.down_nodes:
                self._c_drop_node_down.inc()
                return None
            self.now += self.tick
            self.dpes[record.handling_node].process(
                teid, len(inner), downlink=False
            )
            self.stats.charge(teid, len(inner))
            self._c_up_bytes.inc(len(inner))
            self._c_up_forwarded.inc()
            return ip_header.decrement_ttl().pack() + inner[ip_header.SIZE:]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def memory_report(self) -> List[Dict[str, int]]:
        """Per-node forwarding-state footprint."""
        return self._require_cluster().memory_report()

    def __repr__(self) -> str:
        return (
            f"EpcGateway(arch={self.architecture.value}, "
            f"nodes={self.num_nodes}, bearers={len(self.controller)})"
        )
