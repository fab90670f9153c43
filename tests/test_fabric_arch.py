"""Tests for the crossbar fabric (VLB over its pairs included) and the
architecture taxonomy; what every topology promises is in
``tests/test_fabric_contract.py``."""

import numpy as np
import pytest

from repro.cluster import Architecture, Cluster
from repro.fabric import FabricLoss
from repro.fabric.crossbar import SwitchFabric


class TestArchitecture:
    def test_internal_hops(self):
        assert Architecture.FULL_DUPLICATION.internal_hops == 1
        assert Architecture.SCALEBRICKS.internal_hops == 1
        assert Architecture.HASH_PARTITION.internal_hops == 2
        assert Architecture.ROUTEBRICKS_VLB.internal_hops == 2

    def test_full_fib_replication(self):
        assert Architecture.FULL_DUPLICATION.replicates_full_fib
        assert Architecture.ROUTEBRICKS_VLB.replicates_full_fib
        assert not Architecture.SCALEBRICKS.replicates_full_fib
        assert not Architecture.HASH_PARTITION.replicates_full_fib

    def test_only_scalebricks_uses_gpt(self):
        assert Architecture.SCALEBRICKS.uses_gpt
        for arch in Architecture:
            if arch is not Architecture.SCALEBRICKS:
                assert not arch.uses_gpt

    def test_vlb_needs_double_internal_bandwidth(self):
        assert Architecture.ROUTEBRICKS_VLB.internal_bandwidth_factor == 2.0
        assert Architecture.SCALEBRICKS.internal_bandwidth_factor == 1.0


class TestSwitchFabric:
    def test_delivery_records_stats(self):
        fabric = SwitchFabric(4)
        latency = fabric.deliver(0, 2, size=100)
        assert latency == fabric.transit_latency_us
        assert fabric.stats.packets == 1
        assert fabric.stats.bytes == 100
        assert fabric.stats.per_link_packets[(0, 2)] == 1

    def test_max_link_packets(self):
        fabric = SwitchFabric(3)
        fabric.deliver(0, 1)
        fabric.deliver(0, 1)
        fabric.deliver(1, 2)
        assert fabric.stats.max_link_packets() == 2

    def test_links_are_every_ordered_pair(self):
        links = SwitchFabric(4).links()
        assert len(links) == 4 * 3  # n*(n-1) directed links
        assert set(links) == {
            (a, b) for a in range(4) for b in range(4) if a != b
        }


def vlb(fabric, src, dst, size=64):
    """Valiant load balancing as the cluster routes it: ``src`` -> a
    random indirect node -> ``dst`` (with two nodes, straight to ``dst``)."""
    mid = fabric.pick_indirect(src, dst)
    return mid, fabric.deliver(src, mid, size) + fabric.deliver(mid, dst, size)


class TestCrossbarVlb:
    """§3.1 / Figure 2a: the RouteBricks mesh is the crossbar's own pairs."""

    def test_vlb_takes_two_links(self):
        fabric = SwitchFabric(4)
        mid, latency = vlb(fabric, 0, 1)
        assert mid not in (0, 1)
        assert latency == 2 * fabric.transit_latency_us
        assert fabric.stats.bytes == 128  # the 2R effect

    def test_vlb_doubles_internal_bytes_vs_direct(self):
        rng = np.random.default_rng(0)
        direct = SwitchFabric(6, seed=1)
        valiant = SwitchFabric(6, seed=1)
        for _ in range(500):
            src, dst = rng.choice(6, size=2, replace=False)
            direct.deliver(int(src), int(dst), 64)
            vlb(valiant, int(src), int(dst), 64)
        assert valiant.stats.bytes == 2 * direct.stats.bytes

    def test_vlb_spreads_load_evenly(self):
        fabric = SwitchFabric(6, seed=2)
        rng = np.random.default_rng(3)
        for _ in range(4_000):
            src, dst = rng.choice(6, size=2, replace=False)
            vlb(fabric, int(src), int(dst))
        per_link = [fabric.stats.per_link_packets.get(link, 0)
                    for link in fabric.links()]
        assert max(per_link) / np.mean(per_link) < 1.5

    def test_two_node_vlb_is_direct(self):
        fabric = SwitchFabric(2)
        mid, latency = vlb(fabric, 0, 1)
        assert mid == 1
        assert latency == fabric.transit_latency_us
        assert fabric.stats.packets == 1


class TestSwitchFabricLinkFaults:
    def test_fail_link_severs_one_direction_only(self):
        fabric = SwitchFabric(4)
        fabric.fail_link((0, 2))
        with pytest.raises(FabricLoss):
            fabric.deliver(0, 2)
        assert fabric.stats.dropped == 1
        # The reverse direction still works.
        assert fabric.deliver(2, 0) == fabric.transit_latency_us
        assert fabric.down_links() == ((0, 2),)

    def test_degrade_link_is_lossless_but_slow(self):
        fabric = SwitchFabric(4)
        fabric.degrade_link((1, 3), factor=5.0)
        assert fabric.deliver(1, 3) == fabric.transit_latency_us * 5.0
        assert fabric.deliver(3, 1) == fabric.transit_latency_us
        assert fabric.stats.degraded == 1
        assert fabric.stats.dropped == 0

    def test_batch_path_honours_link_faults(self):
        fabric = SwitchFabric(3)
        fabric.fail_link((0, 1))
        with pytest.raises(FabricLoss):
            fabric.deliver_batch(np.array([2, 0]), np.array([0, 1]))

    def test_pick_fault_link_is_seeded_and_valid(self):
        for seed in range(20):
            src, dst = SwitchFabric(5).pick_fault_link(
                np.random.default_rng(seed)
            )
            assert (src, dst) == SwitchFabric(5).pick_fault_link(
                np.random.default_rng(seed)
            )
            assert src != dst
            assert 0 <= src < 5 and 0 <= dst < 5
        assert SwitchFabric(1).pick_fault_link(
            np.random.default_rng(0)
        ) is None

    def test_busiest_link_deterministic_tie_break(self):
        fabric = SwitchFabric(4)
        fabric.deliver(3, 1)
        fabric.deliver(0, 2)
        assert fabric.stats.busiest_link() == ((0, 2), 1)


class TestCrossbarIngressCosts:
    def test_partly_severed_node_costs_more(self):
        fabric = SwitchFabric(4)
        fabric.fail_link((0, 1))
        assert fabric.ingress_costs().tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_node_that_reaches_no_peer_is_never_picked(self):
        keys = np.arange(1, 65, dtype=np.uint64)
        cluster = Cluster.build(
            Architecture.SCALEBRICKS, 4, keys, [int(k) % 4 for k in keys],
            [1] * 64, ingress_policy="utilization",
        )
        for dst in (1, 2, 3):
            cluster.fabric.fail_link((0, dst))
        assert cluster.fabric.ingress_costs()[0] == np.inf
        picks = cluster.pick_ingress_batch(64)
        assert 0 not in picks.tolist()
        assert np.bincount(picks, minlength=4)[1:].min() >= 21
