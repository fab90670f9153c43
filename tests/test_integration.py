"""Cross-module integration scenarios exercising the whole stack."""

import numpy as np
import pytest

from repro.cluster import Architecture, Cluster, UpdateEngine
from repro.epc.gateway import EpcGateway
from repro.epc.controller import AssignmentPolicy
from repro.epc.packets import parse_ip
from repro.epc.traffic import FlowGenerator, run_downstream_trial
from repro.epc.tunnels import GtpTunnelEndpoint
from tests.conftest import unique_keys

GW_IP = parse_ip("192.0.2.1")


class TestArchitecturesAgreeOnTraffic:
    """All four designs must forward identical traffic identically —
    only their cost profile differs."""

    @pytest.fixture(scope="class")
    def gateways(self):
        out = {}
        for arch in Architecture:
            gen = FlowGenerator(seed=200)
            gateway = EpcGateway(arch, 4, GW_IP)
            flows = gen.populate(gateway, 900)
            gateway.start()
            out[arch] = (gateway, gen, flows)
        return out

    def test_same_teid_everywhere(self, gateways):
        reference = None
        for arch, (gateway, gen, flows) in gateways.items():
            frames = gen.packet_stream(flows[:100], 100)
            teids = []
            for frame in frames:
                _, tunnelled = gateway.process_downstream(frame)
                assert tunnelled is not None, arch
                teid, _, _ = GtpTunnelEndpoint.decapsulate(tunnelled)
                teids.append(teid)
            if reference is None:
                reference = teids
            else:
                assert teids == reference, arch

    def test_loss_free_for_known_flows(self, gateways):
        for arch, (gateway, gen, flows) in gateways.items():
            frames = gen.packet_stream(flows, 400)
            stats = run_downstream_trial(gateway, frames)
            assert stats.loss_rate == 0.0, arch

    def test_hop_budgets_respected(self, gateways):
        for arch, (gateway, gen, flows) in gateways.items():
            frames = gen.packet_stream(flows, 300)
            stats = run_downstream_trial(gateway, frames)
            assert max(stats.hop_histogram) <= arch.internal_hops, arch


class TestChurnScenario:
    """Bearers come and go while traffic keeps flowing (the EPC reality)."""

    def test_connect_route_disconnect_cycles(self):
        gen = FlowGenerator(seed=201)
        gateway = EpcGateway(Architecture.SCALEBRICKS, 4, GW_IP)
        base = gen.populate(gateway, 1_200)
        gateway.start()

        churn = gen.flows(150)
        for flow in churn:
            gateway.connect(flow, gen.base_station_for(flow))
        frames = gen.packet_stream(churn, 150)
        stats = run_downstream_trial(gateway, frames)
        assert stats.loss_rate == 0.0

        for flow in churn[:75]:
            assert gateway.disconnect(flow)
        kept = churn[75:]
        gone = churn[:75]
        kept_stats = run_downstream_trial(
            gateway, gen.packet_stream(kept, 75)
        )
        gone_stats = run_downstream_trial(
            gateway, gen.packet_stream(gone, 75)
        )
        assert kept_stats.loss_rate == 0.0
        assert gone_stats.loss_rate == 1.0

        # Background flows are unaffected throughout the churn.
        background = run_downstream_trial(
            gateway, gen.packet_stream(base, 200)
        )
        assert background.loss_rate == 0.0

    def test_gpt_replicas_identical_after_churn(self):
        gen = FlowGenerator(seed=202)
        gateway = EpcGateway(Architecture.SCALEBRICKS, 4, GW_IP)
        gen.populate(gateway, 1_000)
        gateway.start()
        for flow in gen.flows(120):
            gateway.connect(flow, gen.base_station_for(flow))
        cluster = gateway.cluster
        probe = unique_keys(500, seed=203)
        reference = cluster.nodes[0].gpt.lookup_batch(probe)
        for node in cluster.nodes[1:]:
            assert np.array_equal(node.gpt.lookup_batch(probe), reference)


class TestSkewScenario:
    """§7: geographic assignment skews ScaleBricks' partial FIBs."""

    def test_geographic_policy_skews_fib_sizes(self):
        gen = FlowGenerator(seed=204, num_regions=2)
        gateway = EpcGateway(
            Architecture.SCALEBRICKS, 4, GW_IP,
            policy=AssignmentPolicy.GEOGRAPHIC,
        )
        flows = gen.populate(gateway, 800)
        gateway.start()
        sizes = sorted(len(n.fib) for n in gateway.cluster.nodes)
        assert sizes[0] == 0 and sizes[1] == 0  # two empty nodes
        assert sizes[2] + sizes[3] == 800
        # Traffic still forwards correctly despite the skew.
        stats = run_downstream_trial(
            gateway, gen.packet_stream(flows, 200)
        )
        assert stats.loss_rate == 0.0


class TestFailureIsolation:
    """§7: a ScaleBricks node failure only affects its own flows."""

    def test_scalebricks_survivors_unaffected(self):
        keys = unique_keys(1_000, seed=205)
        handlers = (keys % 4).astype(np.int64)
        values = np.arange(1_000)
        cluster = Cluster.build(
            Architecture.SCALEBRICKS, 4, keys, handlers, values
        )
        # "Fail" node 3 by clearing its partial FIB: its flows die, every
        # other flow still forwards (their state is elsewhere).
        failed = 3
        for key, handler in zip(keys, handlers):
            if handler == failed:
                cluster.nodes[failed].remove_route(int(key))
        for key, handler, value in zip(keys[:300], handlers[:300], values[:300]):
            result = cluster.route(int(key), ingress=0)
            if handler == failed:
                assert result.dropped
            else:
                assert result.value == value

    def test_hash_partition_failure_hits_other_nodes_flows(self):
        """The contrast: a failed lookup node breaks flows it doesn't own."""
        keys = unique_keys(1_000, seed=206)
        handlers = (keys % 4).astype(np.int64)
        values = np.arange(1_000)
        cluster = Cluster.build(
            Architecture.HASH_PARTITION, 4, keys, handlers, values
        )
        failed = 3
        for key in keys:
            cluster.nodes[failed].remove_route(int(key))
        collateral = 0
        for key, handler in zip(keys[:300], handlers[:300]):
            is_lookup_here = cluster.lookup_node_of(int(key)) == failed
            result = cluster.route(int(key), ingress=0)
            if is_lookup_here and handler != failed and result.dropped:
                collateral += 1
        assert collateral > 0
