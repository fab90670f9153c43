"""Failure impact and evacuation (paper §7) on every architecture.

:func:`repro.cluster.failover.impact_report` measures which flows a dead
node takes down; :meth:`EpcGateway.evacuate` is the one repair verb that
re-homes its flows onto survivors and touches nothing else.
"""

import numpy as np
import pytest

from repro.cluster import Architecture, Cluster
from repro.cluster.failover import FailureImpact, impact_report
from repro.epc.gateway import EpcGateway
from repro.epc.packets import build_downstream_frame, parse_ip
from repro.epc.traffic import GATEWAY_MAC, GENERATOR_MAC, FlowGenerator
from tests.conftest import unique_keys

NUM_NODES = 4
FAILED = 2
SURVIVORS = [0, 1, 3]
ARCHITECTURES = pytest.mark.parametrize(
    "arch", list(Architecture), ids=lambda arch: arch.value
)


def make(arch, n=1_200, seed=400):
    keys = unique_keys(n, seed=seed)
    handlers = (keys % NUM_NODES).astype(np.int64)
    values = np.arange(n) + 1
    cluster = Cluster.build(arch, NUM_NODES, keys, handlers, values)
    return cluster, keys, handlers, values


def frame_for(flow, payload=b"payload!"):
    return build_downstream_frame(GENERATOR_MAC, GATEWAY_MAC, flow, payload)


def live_gateway(arch, flows=600):
    """A started gateway whose bearers have all been charged once."""
    gen = FlowGenerator(seed=950)
    gateway = EpcGateway(arch, NUM_NODES, parse_ip("192.0.2.1"))
    population = gen.populate(gateway, flows)
    gateway.start()
    frames = [frame_for(flow) for flow in population]
    gateway.process_downstream_batch(frames, [0] * len(frames))
    return gateway, population


def flow_state(gateway, keys):
    """Everything evacuation may touch, for the flows ``keys``."""
    cluster = gateway.cluster
    records = {key: gateway.controller.record_for_key(key) for key in keys}
    return {
        "rib": {
            entry.key: (entry.node, entry.value)
            for entry in cluster.rib.entries() if entry.key in keys
        },
        "fib": [
            {key: node.fib.lookup(key) for key in keys}
            for node in cluster.nodes
        ],
        "records": records,
        "contexts": [
            {
                record.teid: dpe.context(record.teid)
                for record in records.values()
            }
            for dpe in gateway.dpes
        ],
    }


def handled_by(gateway, node):
    return [
        entry.key for entry in gateway.cluster.rib.entries()
        if entry.node == node
    ]


class TestNodeDown:
    def test_packets_toward_down_node_drop_with_reason(self):
        gateway, flows = live_gateway(Architecture.SCALEBRICKS)
        gateway.down_nodes.add(1)
        frames = [frame_for(flow) for flow in flows]
        for flow, (result, out) in zip(
            flows, gateway.process_downstream_batch(frames, [0] * len(frames))
        ):
            record = gateway.controller.record_for_key(flow.key())
            if record.handling_node == 1:
                assert result.reason == "node_down" and out is None
            else:
                assert result.delivered and result.value == record.teid


class TestImpactMatchesTheDataPath:
    """§7 isolation, checked against the data path: with each node down
    in turn, one frame of every live flow, entering at the live nodes in
    turn, loses exactly the flows ``impact_report`` names (its own plus
    its collateral ones) as ``node_down``, and delivers the rest.  Which
    ingress a dead node's share of frames would take is left out: the
    upstream routers stop spraying to a dead node (§2)."""

    @pytest.mark.parametrize("arch", [
        Architecture.SCALEBRICKS,
        Architecture.FULL_DUPLICATION,
        Architecture.HASH_PARTITION,
        pytest.param(Architecture.ROUTEBRICKS_VLB, marks=pytest.mark.xfail(
            strict=True,
            reason="ROADMAP item 17: a VLB transit still draws the down "
            "node as its intermediate, which impact_report does not count",
        )),
    ], ids=lambda arch: arch.value)
    def test_node_down_drops_are_the_reported_losses(self, arch):
        gateway, flows = live_gateway(arch)
        frames = [frame_for(flow) for flow in flows]
        for down in range(NUM_NODES):
            impact = impact_report(gateway.cluster, down)
            live = [node for node in range(NUM_NODES) if node != down]
            ingress = [live[i % len(live)] for i in range(len(frames))]
            gateway.down_nodes = {down}
            results = gateway.process_downstream_batch(frames, ingress)
            reasons = [result.reason for result, _ in results]
            assert reasons.count("node_down") == impact.lost_total, down
            assert all(
                result.delivered for result, _ in results
                if result.reason != "node_down"
            )


class TestImpactReport:
    def test_scalebricks_isolates_failures(self):
        cluster, keys, handlers, _ = make(Architecture.SCALEBRICKS)
        impact = impact_report(cluster, 2)
        own = int((handlers == 2).sum())
        assert impact.lost_own_flows == own
        assert impact.lost_collateral_flows == 0
        assert impact.isolation

    def test_full_duplication_isolates_failures(self):
        cluster, *_ = make(Architecture.FULL_DUPLICATION)
        assert impact_report(cluster, 0).isolation

    def test_hash_partition_has_collateral_damage(self):
        """§7: a failed lookup node breaks flows handled elsewhere."""
        cluster, *_ = make(Architecture.HASH_PARTITION)
        impact = impact_report(cluster, 3)
        assert impact.lost_collateral_flows > 0
        assert not impact.isolation

    @ARCHITECTURES
    def test_totals_consistent(self, arch):
        cluster, keys, _, _ = make(arch)
        impact = impact_report(cluster, 1)
        assert impact.total_flows == len(keys)
        assert impact.lost_total <= impact.total_flows
        # The report, flow by flow: own losses are the failed handler's,
        # collateral ones (hash partitioning only) the failed lookup
        # node's.
        entries = list(cluster.rib.entries())
        own = sum(entry.node == 1 for entry in entries)
        collateral = sum(
            entry.node != 1
            and arch is Architecture.HASH_PARTITION
            and cluster.lookup_node_of(entry.key) == 1
            for entry in entries
        )
        assert impact == FailureImpact(1, len(entries), own, collateral)


@ARCHITECTURES
class TestEvacuate:
    def test_moves_exactly_the_nodes_flows_round_robin(self, arch):
        gateway, _ = live_gateway(arch)
        victims = handled_by(gateway, FAILED)
        assert len(victims) > 100
        gateway.down_nodes.add(FAILED)
        moved = gateway.evacuate(FAILED, SURVIVORS)
        # RIB order, round-robin over the survivors as given.
        assert [record.key for record in moved] == victims
        assert [record.handling_node for record in moved] == [
            SURVIVORS[i % len(SURVIVORS)] for i in range(len(victims))
        ]
        assert handled_by(gateway, FAILED) == []
        assert len(gateway.dpes[FAILED]) == 0
        for record in moved:
            assert gateway.controller.record_for_key(record.key) == record
            assert gateway.dpes[record.handling_node].context(
                record.teid
            ) is not None
        # The failed node owns nothing any more (§7 fate sharing).
        assert impact_report(gateway.cluster, FAILED).lost_own_flows == 0

    def test_every_other_flow_is_untouched(self, arch):
        gateway, flows = live_gateway(arch)
        victims = set(handled_by(gateway, FAILED))
        others = {flow.key() for flow in flows} - victims
        before = flow_state(gateway, others)
        charged = dict(gateway.stats.bytes_charged)
        gateway.down_nodes.add(FAILED)
        gateway.evacuate(FAILED, SURVIVORS)
        assert flow_state(gateway, others) == before
        # A move charges nothing: the ledger is the same, moved flows'
        # counters included.
        assert dict(gateway.stats.bytes_charged) == charged

    def test_moved_flows_deliver_on_their_new_node(self, arch):
        gateway, _ = live_gateway(arch)
        gateway.down_nodes.add(FAILED)
        moved = gateway.evacuate(FAILED, SURVIVORS)
        frames = [frame_for(record.flow) for record in moved]
        isolated = arch in (
            Architecture.SCALEBRICKS, Architecture.FULL_DUPLICATION
        )
        for record, (result, out) in zip(
            moved, gateway.process_downstream_batch(frames, [0] * len(frames))
        ):
            if out is None:
                # Collateral: a path through the dead node (the lookup
                # node under hash partitioning, a VLB bounce).
                assert not isolated
                assert result.reason == "node_down"
                assert FAILED in result.path
                continue
            assert result.handled_by == record.handling_node
            assert result.value == record.teid
        # With the node back, every moved flow delivers where it now
        # lives, charged on that node's DPE.
        gateway.down_nodes.discard(FAILED)
        for record, (result, out) in zip(
            moved, gateway.process_downstream_batch(frames, [0] * len(frames))
        ):
            assert out is not None
            assert result.handled_by == record.handling_node
            context = gateway.dpes[record.handling_node].context(record.teid)
            assert context.downlink_packets >= 2


class TestEvacuateRefusesBeforeMoving:
    """A bad survivor list is refused before any flow moves."""

    @pytest.mark.parametrize("survivors, down", [
        ([], set()),
        ([0, FAILED], set()),  # the evacuated node itself
        ([0, 1], {1}),  # a dead node
        ([0, NUM_NODES], set()),  # not a node id
        ([0, -1], set()),
    ], ids=["empty", "self", "down", "out-of-range", "negative"])
    def test_bad_survivors(self, survivors, down):
        gateway, flows = live_gateway(Architecture.SCALEBRICKS)
        gateway.down_nodes |= {FAILED} | down
        keys = {flow.key() for flow in flows}
        before = flow_state(gateway, keys)
        with pytest.raises(ValueError):
            gateway.evacuate(FAILED, survivors)
        assert flow_state(gateway, keys) == before

    def test_bad_node(self):
        gateway, _ = live_gateway(Architecture.SCALEBRICKS)
        with pytest.raises(ValueError):
            gateway.evacuate(NUM_NODES, SURVIVORS)

    def test_unstarted_gateway(self):
        gateway = EpcGateway(
            Architecture.SCALEBRICKS, NUM_NODES, parse_ip("192.0.2.1")
        )
        with pytest.raises(RuntimeError):
            gateway.evacuate(FAILED, SURVIVORS)
