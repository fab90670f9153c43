"""Tests for failure handling and recovery (repro.cluster.failover, §7)."""

import numpy as np
import pytest

from repro.cluster import Architecture, Cluster
from repro.cluster.failover import FailoverManager, FailureImpact
from tests.conftest import unique_keys

NUM_NODES = 4


def make(arch, n=1_200, seed=400):
    keys = unique_keys(n, seed=seed)
    handlers = (keys % NUM_NODES).astype(np.int64)
    values = np.arange(n) + 1
    cluster = Cluster.build(arch, NUM_NODES, keys, handlers, values)
    return FailoverManager(cluster), keys, handlers, values


class TestLiveness:
    def test_fail_and_restore(self):
        manager, *_ = make(Architecture.SCALEBRICKS)
        manager.fail_node(2)
        assert not manager.is_up(2)
        manager.restore_node(2)
        assert manager.is_up(2)

    def test_invalid_node(self):
        manager, *_ = make(Architecture.SCALEBRICKS)
        with pytest.raises(ValueError):
            manager.fail_node(9)

    def test_packets_toward_down_node_drop_with_reason(self):
        manager, keys, handlers, _ = make(Architecture.SCALEBRICKS)
        manager.fail_node(1)
        victim = next(
            int(k) for k, h in zip(keys, handlers) if h == 1
        )
        result = manager.route(victim, ingress=0)
        assert result.dropped
        assert result.reason == "node_down"

    def test_survivor_flows_unaffected(self):
        manager, keys, handlers, values = make(Architecture.SCALEBRICKS)
        manager.fail_node(1)
        for k, h, v in zip(keys[:200], handlers[:200], values[:200]):
            if h != 1:
                result = manager.route(int(k), ingress=0)
                assert result.value == v

    def test_unpinned_ingress_is_a_function_of_the_cluster(self):
        """Two managers over equal clusters pick the same ingress
        sequence (the draw used to be seeded from the wall clock), and
        never a down node."""
        picks = []
        for _ in range(2):
            manager, keys, *_ = make(Architecture.SCALEBRICKS)
            manager.fail_node(3)
            picks.append(
                [manager.route(int(key)).ingress for key in keys[:64]]
            )
        assert picks[0] == picks[1]
        assert set(picks[0]) == {0, 1, 2}


class TestImpactReport:
    def test_scalebricks_isolates_failures(self):
        manager, keys, handlers, _ = make(Architecture.SCALEBRICKS)
        impact = manager.impact_report(2)
        own = int((handlers == 2).sum())
        assert impact.lost_own_flows == own
        assert impact.lost_collateral_flows == 0
        assert impact.isolation

    def test_full_duplication_isolates_failures(self):
        manager, _, handlers, _ = make(Architecture.FULL_DUPLICATION)
        impact = manager.impact_report(0)
        assert impact.isolation

    def test_hash_partition_has_collateral_damage(self):
        """§7: a failed lookup node breaks flows handled elsewhere."""
        manager, _, _, _ = make(Architecture.HASH_PARTITION)
        impact = manager.impact_report(3)
        assert impact.lost_collateral_flows > 0
        assert not impact.isolation

    @pytest.mark.parametrize(
        "arch", list(Architecture), ids=lambda arch: arch.value
    )
    def test_totals_consistent(self, arch):
        manager, keys, _, _ = make(arch)
        impact = manager.impact_report(1)
        assert impact.total_flows == len(keys)
        assert impact.lost_total <= impact.total_flows
        # The report, flow by flow: own losses are the failed handler's,
        # collateral ones (hash partitioning only) the failed lookup
        # node's.
        cluster = manager.cluster
        entries = list(cluster.rib.entries())
        own = sum(entry.node == 1 for entry in entries)
        collateral = sum(
            entry.node != 1
            and arch is Architecture.HASH_PARTITION
            and cluster.lookup_node_of(entry.key) == 1
            for entry in entries
        )
        assert impact == FailureImpact(1, len(entries), own, collateral)


class TestRecovery:
    def test_recovery_restores_service(self):
        manager, keys, handlers, values = make(Architecture.SCALEBRICKS)
        manager.fail_node(3)
        moved = manager.recover_flows(3)
        assert moved == int((handlers == 3).sum())
        # Every previously-lost flow forwards again, on a survivor.
        for k, h, v in zip(keys[:300], handlers[:300], values[:300]):
            result = manager.route(int(k), ingress=0)
            assert result.delivered
            assert result.handled_by != 3
            assert result.value == v

    def test_recovery_spreads_over_survivors(self):
        manager, keys, handlers, _ = make(Architecture.SCALEBRICKS)
        manager.fail_node(0)
        manager.recover_flows(0)
        loads = manager.cluster.rib.load_per_node()  # ownership unchanged
        fib_sizes = [len(n.fib) for n in manager.cluster.nodes]
        assert fib_sizes[0] == 0
        spread = max(fib_sizes[1:]) - min(fib_sizes[1:])
        assert spread < len(keys) * 0.2

    def test_explicit_reassignment(self):
        manager, keys, handlers, values = make(Architecture.SCALEBRICKS)
        victims = [
            int(k) for k, h in zip(keys, handlers) if h == 2
        ]
        manager.fail_node(2)
        plan = {victims[0]: 1}
        manager.recover_flows(2, reassign=plan)
        result = manager.route(victims[0], ingress=0)
        assert result.handled_by == 1

    def test_cannot_recover_onto_down_node(self):
        manager, keys, handlers, _ = make(Architecture.SCALEBRICKS)
        victims = [int(k) for k, h in zip(keys, handlers) if h == 2]
        manager.fail_node(2)
        manager.fail_node(1)
        with pytest.raises(ValueError):
            manager.recover_flows(2, reassign={victims[0]: 1})

    def test_no_survivors(self):
        manager, *_ = make(Architecture.SCALEBRICKS)
        for node in range(NUM_NODES):
            manager.fail_node(node)
        with pytest.raises(RuntimeError):
            manager.recover_flows(0)
