"""Membership resize × failover recovery, composed (§6.3 × §7).

Both go through the gateway: :meth:`EpcGateway.evacuate` re-homes a
node's flows and :meth:`EpcGateway.resize` rebuilds the plane from the
RIB, so they must compose: a gateway that failed a node and evacuated it
can shrink away the dead slot without repinning anything (a drain is
exactly that pair), and a freshly resized gateway can lose a node and
recover as the original would.  Both the GPT architecture and a non-GPT
baseline are exercised — the recovery contract is
architecture-independent even though the forwarding consequences differ.
"""

import pytest

from repro.cluster import Architecture
from repro.epc.gateway import EpcGateway
from repro.epc.packets import build_downstream_frame, parse_ip
from repro.epc.traffic import GATEWAY_MAC, GENERATOR_MAC, FlowGenerator
from repro.hashtables.rtehash import RteHashTable
from repro.obs.metrics import MetricsRegistry

ARCHITECTURES = [Architecture.SCALEBRICKS, Architecture.HASH_PARTITION]


def build_gateway(arch, num_nodes=4, flows=600, seed=640):
    gen = FlowGenerator(seed=seed)
    gateway = EpcGateway(arch, num_nodes, parse_ip("192.0.2.1"))
    population = gen.populate(gateway, flows)
    gateway.start()
    return gateway, population


def rib_index(gateway):
    return {entry.key: (entry.node, entry.value)
            for entry in gateway.cluster.rib.entries()}


def fail_and_evacuate(gateway, node):
    gateway.down_nodes.add(node)
    return gateway.evacuate(node, [
        n for n in range(gateway.num_nodes)
        if n not in gateway.down_nodes
    ])


def drain_top(gateway):
    """The runtime's graceful drain: evacuate the top node, then shrink."""
    leaving = gateway.num_nodes - 1
    gateway.evacuate(leaving, list(range(leaving)))
    return gateway.resize(leaving)


def route_all(gateway, flows, ingress=0):
    frames = [
        build_downstream_frame(GENERATOR_MAC, GATEWAY_MAC, flow, b"payload!")
        for flow in flows
    ]
    return gateway.process_downstream_batch(frames, [ingress] * len(frames))


@pytest.mark.parametrize("arch", ARCHITECTURES, ids=lambda a: a.value)
class TestRecoverThenShrink:
    def test_recovery_empties_the_node_so_shrink_repins_nothing(self, arch):
        gateway, flows = build_gateway(arch)
        victims = [key for key, (node, _) in rib_index(gateway).items()
                   if node == 3]
        moved = fail_and_evacuate(gateway, 3)
        assert len(moved) == len(victims) > 0
        assert all(node != 3 for node, _ in rib_index(gateway).values())

        before = rib_index(gateway)
        report = gateway.resize(3)
        # Recovery already drained node 3: the shrink finds nothing left
        # to repin, and every flow keeps its post-recovery placement.
        assert report.repinned_flows == 0
        assert report.new_nodes == 3
        assert gateway.num_nodes == gateway.controller.num_nodes == 3
        assert len(gateway.cluster.nodes) == 3
        assert rib_index(gateway) == before

    def test_shrunk_gateway_still_delivers_recovered_flows(self, arch):
        gateway, flows = build_gateway(arch)
        fail_and_evacuate(gateway, 3)
        gateway.resize(3)
        placed = rib_index(gateway)
        for flow, (result, out) in zip(flows, route_all(gateway, flows)):
            assert out is not None
            assert result.handled_by == placed[flow.key()][0]
            assert result.value == placed[flow.key()][1]


@pytest.mark.parametrize("arch", ARCHITECTURES, ids=lambda a: a.value)
class TestResizeThenFailover:
    def test_failure_after_shrink_recovers_onto_survivors(self, arch):
        gateway, _ = build_gateway(arch)
        drain_top(gateway)
        victims = {key for key, (node, _) in rib_index(gateway).items()
                   if node == 2}
        assert victims  # the scenario must be non-trivial
        untouched = {key: slot for key, slot in rib_index(gateway).items()
                     if key not in victims}
        moved = fail_and_evacuate(gateway, 2)
        assert len(moved) == len(victims)
        placed = rib_index(gateway)
        for key in victims:
            assert placed[key][0] in (0, 1)
        # Survivor flows are untouched by the recovery (§7 isolation at
        # the RIB level, regardless of architecture).
        for key, slot in untouched.items():
            assert placed[key] == slot

    def test_failure_after_grow_can_recover_onto_new_nodes(self, arch):
        gateway, _ = build_gateway(arch)
        report = gateway.resize(6)
        assert report.repinned_flows == 0
        assert len(gateway.dpes) == 6
        victims = {key for key, (node, _) in rib_index(gateway).items()
                   if node == 0}
        moved = fail_and_evacuate(gateway, 0)
        assert {record.key for record in moved} == victims
        placed = rib_index(gateway)
        landing = {placed[key][0] for key in victims}
        # Round-robin recovery spreads across all five survivors,
        # including the two freshly added nodes.
        assert landing == {1, 2, 3, 4, 5}
        for record in moved:
            assert gateway.dpes[record.handling_node].context(
                record.teid
            ) is not None

    def test_recovered_flows_route_where_the_rib_says(self, arch):
        gateway, flows = build_gateway(arch)
        drain_top(gateway)
        fail_and_evacuate(gateway, 2)
        placed = rib_index(gateway)
        for flow, (result, out) in zip(flows, route_all(gateway, flows)):
            node, teid = placed[flow.key()]
            if arch is Architecture.HASH_PARTITION and out is None:
                # Hash partitioning has collateral damage (§7): flows
                # whose *lookup* node is the dead node stop forwarding
                # even after their state was re-homed.
                assert result.reason == "node_down"
                assert gateway.cluster.lookup_node_of(flow.key()) == 2
                continue
            assert out is not None
            assert result.handled_by == node
            assert result.value == teid

    def test_scalebricks_has_no_collateral_after_recovery(self, arch):
        if arch is not Architecture.SCALEBRICKS:
            pytest.skip("collateral-free recovery is the GPT property")
        gateway, flows = build_gateway(arch)
        drain_top(gateway)
        fail_and_evacuate(gateway, 2)
        # Every flow — including every recovered one — forwards again.
        assert all(out is not None for _, out in route_all(gateway, flows))


@pytest.mark.parametrize("fabric", ["crossbar", "fattree"])
def test_a_resized_gateway_keeps_its_cluster_settings(fabric):
    """A resize rebuilds the plane with the settings the gateway started
    with: its FIB class, fabric backend, ingress policy and registry, so
    traffic after it is still counted where the gateway counts."""
    registry = MetricsRegistry()
    gen = FlowGenerator(seed=641)
    gateway = EpcGateway(
        Architecture.SCALEBRICKS, 4, parse_ip("192.0.2.1"),
        fib_factory=RteHashTable, registry=registry, fabric_backend=fabric,
        ingress_policy="roundrobin",
    )
    flows = gen.populate(gateway, 300)
    gateway.start()
    for new_n in (5, 4):
        if new_n < gateway.num_nodes:
            drain_top(gateway)
        else:
            gateway.resize(new_n)
        cluster = gateway.cluster
        assert cluster.fabric.backend == fabric
        assert cluster.ingress_policy == "roundrobin"
        assert {type(node.fib) for node in cluster.nodes} == {RteHashTable}
        assert cluster.registry is registry
        assert gateway.updates.registry is registry
        routed = registry.counters()["cluster.scalebricks.routed"]
        results = gateway.process_downstream_batch(
            gen.packet_stream(flows, 32)
        )
        assert all(out is not None for _, out in results)
        assert registry.counters()["cluster.scalebricks.routed"] == (
            routed + 32
        )
