"""Tests for cluster membership changes (the VLB mesh claims are the
crossbar's, in ``tests/test_fabric_arch.py``)."""

import numpy as np
import pytest

from repro.cluster import Architecture, Cluster
from repro.cluster.membership import capacity_after_resize, resize
from repro.hashtables.rtehash import RteHashTable
from repro.obs.metrics import MetricsRegistry
from tests.conftest import unique_keys


class TestResize:
    @pytest.fixture()
    def base_cluster(self):
        keys = unique_keys(2_000, seed=1000)
        handlers = (keys % 4).astype(np.int64)
        values = np.arange(2_000) + 1
        cluster = Cluster.build(
            Architecture.SCALEBRICKS, 4, keys, handlers, values
        )
        return cluster, keys, handlers, values

    def test_grow_preserves_surviving_flows(self, base_cluster):
        cluster, keys, handlers, values = base_cluster
        grown, report = resize(cluster, 8)
        assert report.old_nodes == 4 and report.new_nodes == 8
        assert report.repinned_flows == 0  # all handlers still exist
        for k, h, v in zip(keys[:300], handlers[:300], values[:300]):
            result = grown.route(int(k), ingress=0)
            assert result.handled_by == h
            assert result.value == v

    def test_grow_widens_gpt(self, base_cluster):
        cluster, *_ = base_cluster
        grown, report = resize(cluster, 8)
        assert report.gpt_rebuilt_wider
        assert grown.nodes[0].gpt.setsep.params.value_bits == 3

    def test_shrink_repins_orphans(self, base_cluster):
        cluster, keys, handlers, values = base_cluster
        shrunk, report = resize(cluster, 2)
        orphans = int((handlers >= 2).sum())
        assert report.repinned_flows == orphans
        # Every flow still forwards, somewhere valid.
        for k, v in zip(keys[:300], values[:300]):
            result = shrunk.route(int(k), ingress=0)
            assert result.delivered
            assert result.value == v
            assert 0 <= result.handled_by < 2

    def test_shrink_repins_by_key_hash(self, base_cluster):
        cluster, keys, handlers, _ = base_cluster
        shrunk, _ = resize(cluster, 3)
        orphans = [int(k) for k, h in zip(keys, handlers) if h == 3]
        assert orphans
        for key in orphans:
            assert shrunk.route(key, ingress=1).handled_by == key % 3

    @pytest.mark.parametrize("fabric", ["crossbar", "fattree"])
    def test_resize_keeps_the_cluster_settings(self, fabric):
        keys = unique_keys(500, seed=1001)
        registry = MetricsRegistry()
        cluster = Cluster.build(
            Architecture.SCALEBRICKS, 4, keys, (keys % 4).astype(np.int64),
            np.arange(500) + 1, fib_factory=RteHashTable, registry=registry,
            fabric_backend=fabric, ingress_policy="roundrobin",
        )
        for new_n in (5, 3):
            resized, _ = resize(cluster, new_n)
            assert resized.fabric.backend == fabric
            assert resized.ingress_policy == "roundrobin"
            assert resized.fib_factory is RteHashTable
            assert {type(node.fib) for node in resized.nodes} == {
                RteHashTable
            }
            assert resized.registry is registry
            routed = registry.counters()["cluster.scalebricks.routed"]
            resized.route_batch(keys[:32], [0] * 32)
            assert registry.counters()["cluster.scalebricks.routed"] == (
                routed + 32
            )

    @pytest.mark.parametrize(
        "arch", list(Architecture), ids=lambda arch: arch.value
    )
    def test_resize_keeps_every_flow_on_every_architecture(self, arch):
        """Grow, then shrink past the old size: each cluster keeps the
        architecture, and every key routes to its RIB node with its value
        (a leaver's flows at ``key % n``)."""
        keys = unique_keys(600, seed=1002)
        handlers = (keys % 4).astype(np.int64)
        values = np.arange(600) + 1
        cluster = Cluster.build(arch, 4, keys, handlers, values)
        for new_n in (6, 3):
            cluster, report = resize(cluster, new_n)
            assert cluster.architecture is arch
            assert len(cluster.nodes) == new_n
            assert report.total_flows == 600
            expected = np.where(handlers < new_n, handlers, keys % new_n)
            handlers = expected.astype(np.int64)
            for k, h, v in zip(keys[:200], handlers[:200], values[:200]):
                result = cluster.route(int(k), ingress=0)
                assert result.delivered
                assert (result.handled_by, result.value) == (h, v)

    def test_invalid_size(self, base_cluster):
        cluster, *_ = base_cluster
        with pytest.raises(ValueError):
            resize(cluster, 0)

    def test_capacity_delta_helper(self):
        m = 16 * 1024 * 1024 * 8
        old, new = capacity_after_resize(m, 4, 8)
        assert new > old  # growing 4 -> 8 helps
        old, new = capacity_after_resize(m, 16, 17)
        assert new < old  # crossing a power-of-two boundary hurts (§6.3)
