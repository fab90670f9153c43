"""Tests for the cluster update protocol (paper §4.5, §6.2)."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import Architecture, Cluster, UpdateEngine
from repro.cluster import update as update_mod
from repro.core import SetSepParams, serialize
from repro.core.delta import GroupDelta
from repro.obs.metrics import MetricsRegistry
from tests.conftest import unique_keys

NUM_NODES = 4


def make_cluster(arch, n=1_200, seed=110):
    keys = unique_keys(n, seed=seed)
    handlers = (keys % NUM_NODES).astype(np.int64)
    values = np.arange(n) + 1
    cluster = Cluster.build(arch, NUM_NODES, keys, handlers, values)
    return cluster, keys, handlers, values


class TestScaleBricksUpdates:
    @pytest.fixture()
    def setup(self):
        cluster, keys, handlers, values = make_cluster(Architecture.SCALEBRICKS)
        return cluster, UpdateEngine(cluster), keys, handlers, values

    def test_insert_new_flow_becomes_routable(self, setup):
        cluster, engine, *_ = setup
        new_key = int(unique_keys(1, seed=111, low=2**62, high=2**63)[0])
        engine.insert_flow(new_key, 2, 777)
        result = cluster.route(new_key)
        assert result.handled_by == 2
        assert result.value == 777

    def test_move_flow_between_nodes(self, setup):
        cluster, engine, keys, handlers, _ = setup
        key = int(keys[0])
        new_node = (int(handlers[0]) + 1) % NUM_NODES
        engine.insert_flow(key, new_node, 555)
        result = cluster.route(key)
        assert result.handled_by == new_node
        assert result.value == 555
        # The old handler no longer has the entry.
        assert cluster.nodes[int(handlers[0])].fib.lookup(key) is None

    def test_remove_flow(self, setup):
        cluster, engine, keys, *_ = setup
        assert engine.remove_flow(int(keys[1]))
        assert cluster.route(int(keys[1])).dropped
        assert not engine.remove_flow(int(keys[1]))

    def test_all_gpt_replicas_converge(self, setup):
        cluster, engine, keys, handlers, _ = setup
        for i in range(10):
            key = int(keys[i])
            engine.insert_flow(key, (int(handlers[i]) + 1) % NUM_NODES, i)
        probe = keys[:50]
        reference = cluster.nodes[0].gpt.lookup_batch(probe)
        for node in cluster.nodes[1:]:
            assert np.array_equal(node.gpt.lookup_batch(probe), reference)

    def test_delta_size_tens_of_bits(self, setup):
        _, engine, keys, handlers, _ = setup
        engine.insert_flow(int(keys[2]), (int(handlers[2]) + 1) % NUM_NODES, 9)
        assert 0 < engine.stats.mean_delta_bits < 300

    def test_ownership_spreads_across_nodes(self):
        # Needs at least NUM_NODES blocks (1 block ~ 1024 keys) so the
        # round-robin block ownership reaches every node.
        cluster, keys, handlers, _ = make_cluster(
            Architecture.SCALEBRICKS, n=4_500, seed=114
        )
        engine = UpdateEngine(cluster)
        for i in range(160):
            engine.insert_flow(
                int(keys[i]), (int(handlers[i]) + 1) % NUM_NODES, i
            )
        assert len(engine.stats.per_owner_updates) == NUM_NODES

    def test_fib_messages_constant_per_update(self, setup):
        _, engine, keys, handlers, _ = setup
        for i in range(20):
            engine.insert_flow(int(keys[i]), int(handlers[i]), i)
        # Same handler: exactly one FIB message per update.
        assert engine.stats.fib_messages == 20


    def test_broadcast_is_encoded_and_parsed_once_for_all_peers(
        self, setup, monkeypatch
    ):
        from repro.core.delta import GroupDelta

        calls = {"wire_bytes": 0, "from_wire_bytes": 0}
        for name in calls:
            real = getattr(GroupDelta, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(GroupDelta, name, counted)
        cluster, engine, keys, handlers, _ = setup
        for i in range(10):
            engine.insert_flow(int(keys[i]), (int(handlers[i]) + 1) % 4, i)
        assert calls == {"wire_bytes": 10, "from_wire_bytes": 10}
        assert engine.stats.delta_broadcasts == 10 * (NUM_NODES - 1)
        assert len({
            serialize.fingerprint(node.gpt.setsep) for node in cluster.nodes
        }) == 1


class TestChurnRegression:
    """A seeded churn through the owner recompute leaves every replica at
    a pinned fingerprint: any change to what the search returns (first-fit
    index, array, which groups spill) or to what the owner keeps moves it.
    """

    #: ``serialize.fingerprint`` of every node's replica after the churn.
    FINGERPRINTS = [3460646974] * NUM_NODES

    def test_seeded_churn_pins_every_replica(self):
        # 10-bit indices, so some groups spill to the fallback.
        keys = unique_keys(2_500, seed=120)
        cluster = Cluster.build(
            Architecture.SCALEBRICKS, NUM_NODES, keys,
            (keys % NUM_NODES).astype(np.int64), np.arange(len(keys)) + 1,
            gpt_params=SetSepParams(index_bits=10, value_bits=2),
            registry=MetricsRegistry(),
        )
        engine = UpdateEngine(cluster)
        rng = np.random.default_rng(121)
        fresh = iter(unique_keys(400, seed=122, low=2**62, high=2**63))
        live = [int(k) for k in keys]
        for step in range(600):
            kind = rng.integers(0, 3)
            if kind == 0:
                key = int(next(fresh))
                live.append(key)
                engine.insert_flow(key, int(rng.integers(NUM_NODES)), step)
            elif kind == 1:
                key = live[int(rng.integers(len(live)))]
                engine.insert_flow(key, int(rng.integers(NUM_NODES)), step)
            else:
                key = live.pop(int(rng.integers(len(live))))
                assert engine.remove_flow(key)
        prints = [serialize.fingerprint(node.gpt.setsep) for node in cluster.nodes]
        assert len(set(prints)) == 1
        counters = cluster.registry.counters()
        assert counters["setsep.bits_searched"] > 0
        assert counters["setsep.group_rebuild_failures"] > 0
        assert prints == self.FINGERPRINTS, (prints, counters)


class TestStormDigest:
    """A seeded storm of connects, disconnects and rehomes through the
    engine, pinned as one SHA-256 over every record's wire bytes and every
    replica's fingerprint: a record byte that moves, anywhere in the
    storm, moves the digest."""

    #: The digest of the storm below, computed before the record codec
    #: was rewritten around one integer per record.
    DIGEST = (
        "559a4815eee0d8a6f03503602c44ef124bf48c4d7acb7ee9626a82fd12fe9a7d"
    )

    def test_storm_pins_every_record_and_replica(self, monkeypatch):
        keys = unique_keys(2_000, seed=130)
        # 7-bit indices: groups spill to the fallback and come back out.
        cluster = Cluster.build(
            Architecture.SCALEBRICKS, NUM_NODES, keys,
            (keys % NUM_NODES).astype(np.int64), np.arange(len(keys)) + 1,
            gpt_params=SetSepParams(index_bits=7, value_bits=2),
        )
        engine = UpdateEngine(cluster)
        framed = []
        wire_bytes = GroupDelta.wire_bytes

        def recording(delta, params):
            wire = wire_bytes(delta, params)
            framed.append((delta, wire))
            return wire

        monkeypatch.setattr(GroupDelta, "wire_bytes", recording)
        rng = np.random.default_rng(131)
        fresh = iter(unique_keys(1_000, seed=132, low=2**62, high=2**63))
        live = [int(k) for k in keys]
        for step in range(2_000):
            kind = rng.integers(0, 3)
            if kind == 0:
                key = int(next(fresh))
                live.append(key)
                engine.insert_flow(key, int(rng.integers(NUM_NODES)), step)
            elif kind == 1:
                key = live[int(rng.integers(len(live)))]
                node = cluster.rib.get(key).node
                engine.insert_flow(key, (node + 1) % NUM_NODES, step)
            else:
                key = live.pop(int(rng.integers(len(live))))
                assert engine.remove_flow(key)
        assert len(framed) == 2_000
        # Some group went into the fallback and later came back out.
        spilled, returned = set(), set()
        for delta, _ in framed:
            if delta.failed:
                spilled.add(delta.group_id)
            elif delta.group_id in spilled:
                returned.add(delta.group_id)
        assert returned
        digest = hashlib.sha256()
        for _, wire in framed:
            digest.update(wire)
        prints = [
            serialize.fingerprint(node.gpt.setsep) for node in cluster.nodes
        ]
        assert len(set(prints)) == 1
        for value in prints:
            digest.update(value.to_bytes(4, "big"))
        assert digest.hexdigest() == self.DIGEST


class TestFullDuplicationUpdates:
    def test_every_node_touched_per_update(self):
        """The §3.2 contrast: full duplication applies updates N times."""
        cluster, keys, handlers, _ = make_cluster(Architecture.FULL_DUPLICATION)
        engine = UpdateEngine(cluster)
        for i in range(10):
            engine.insert_flow(int(keys[i]), int(handlers[i]), i)
        assert engine.stats.fib_messages == 10 * NUM_NODES

    def test_update_visible_on_all_nodes(self):
        cluster, keys, _, _ = make_cluster(Architecture.FULL_DUPLICATION)
        engine = UpdateEngine(cluster)
        new_key = int(unique_keys(1, seed=112, low=2**62, high=2**63)[0])
        engine.insert_flow(new_key, 1, 42)
        for node in cluster.nodes:
            assert [a.tolist() for a in node.locate_batch([new_key])] == [
                [True], [1]
            ]
            assert [a.tolist() for a in node.handle_batch([new_key])] == [
                [True], [42]
            ]

    def test_remove_clears_all_replicas(self):
        cluster, keys, _, _ = make_cluster(Architecture.FULL_DUPLICATION)
        engine = UpdateEngine(cluster)
        engine.remove_flow(int(keys[0]))
        for node in cluster.nodes:
            assert node.fib.lookup(int(keys[0])) is None


class TestHashPartitionUpdates:
    def test_insert_places_entry_at_lookup_and_handler(self):
        cluster, _, _, _ = make_cluster(Architecture.HASH_PARTITION)
        engine = UpdateEngine(cluster)
        new_key = int(unique_keys(1, seed=113, low=2**62, high=2**63)[0])
        engine.insert_flow(new_key, 3, 99)
        lookup_node = cluster.lookup_node_of(new_key)
        assert cluster.nodes[lookup_node].fib.lookup(new_key) is not None
        assert cluster.nodes[3].fib.lookup(new_key) is not None
        assert cluster.route(new_key).value == 99

    def test_remove(self):
        cluster, keys, _, _ = make_cluster(Architecture.HASH_PARTITION)
        engine = UpdateEngine(cluster)
        assert engine.remove_flow(int(keys[0]))
        assert cluster.route(int(keys[0])).dropped


@pytest.mark.parametrize("arch", list(Architecture))
class TestRemoveFlowAcrossArchitectures:
    """remove_flow must make the key unroutable from *every* ingress."""

    def test_delete_then_lookup_from_all_ingresses(self, arch):
        cluster, keys, _, _ = make_cluster(arch, seed=120)
        engine = UpdateEngine(cluster)
        key = int(keys[3])
        assert engine.remove_flow(key)
        for ingress in range(NUM_NODES):
            assert cluster.route(key, ingress).dropped
        # Gone everywhere, not merely unroutable.
        for node in cluster.nodes:
            assert node.fib.lookup(key) is None
        assert cluster.rib.get(key) is None

    def test_remove_then_reinsert_roundtrip(self, arch):
        cluster, keys, _, _ = make_cluster(arch, seed=121)
        engine = UpdateEngine(cluster)
        key = int(keys[5])
        assert engine.remove_flow(key)
        engine.insert_flow(key, 1, 4242)
        for ingress in range(NUM_NODES):
            result = cluster.route(key, ingress)
            assert result.handled_by == 1
            assert result.value == 4242

    def test_rejected_insert_changes_and_counts_nothing(self, arch):
        # The range check used to come after the update was counted.
        registry = MetricsRegistry()
        cluster, keys, _, _ = make_cluster(arch, seed=124)
        engine = UpdateEngine(cluster, registry=registry)
        engine.insert_flow(int(keys[0]), 1, 5)  # non-zero stats to keep
        fresh = int(unique_keys(1, seed=125, low=2**62, high=2**63)[0])
        probe = np.append(keys, np.uint64(fresh))

        def state():
            return (
                replace(engine.stats), registry.counters(),
                list(cluster.rib.entries()),
                [node.fib.lookup_batch(probe) for node in cluster.nodes],
                [
                    serialize.fingerprint(node.gpt.setsep)
                    for node in cluster.nodes if node.gpt is not None
                ],
            )

        before = state()
        for key in (fresh, int(keys[1])):  # a new key and a move
            with pytest.raises(ValueError, match="out of range"):
                engine.insert_flow(key, NUM_NODES + 3, 9)
        assert state() == before

    def test_remove_missing_key_is_a_noop(self, arch):
        cluster, _, _, _ = make_cluster(arch, seed=122)
        engine = UpdateEngine(cluster)
        ghost = int(unique_keys(1, seed=123, low=2**62, high=2**63)[0])
        updates_before = engine.stats.updates
        assert not engine.remove_flow(ghost)
        assert engine.stats.updates == updates_before


class TestDeltaInterceptor:
    """The §4.5 broadcast under an at-least-once / lossy control channel."""

    @pytest.fixture()
    def setup(self):
        cluster, keys, handlers, values = make_cluster(
            Architecture.SCALEBRICKS, seed=130
        )
        return cluster, UpdateEngine(cluster), keys, handlers

    def test_duplicate_delta_is_idempotent(self, setup):
        cluster, engine, keys, handlers = setup
        engine.delta_interceptor = lambda owner, peer: update_mod.DUPLICATE
        for i in range(8):
            engine.insert_flow(
                int(keys[i]), (int(handlers[i]) + 1) % NUM_NODES, i
            )
        engine.delta_interceptor = None
        assert engine.stats.deltas_duplicated > 0
        probe = keys[:50]
        reference = cluster.nodes[0].gpt.lookup_batch(probe)
        for node in cluster.nodes[1:]:
            assert np.array_equal(node.gpt.lookup_batch(probe), reference)

    def test_update_replay_is_idempotent(self, setup):
        cluster, engine, keys, handlers = setup
        key = int(keys[0])
        target = (int(handlers[0]) + 1) % NUM_NODES
        engine.insert_flow(key, target, 777)
        fib_messages = engine.stats.fib_messages
        engine.insert_flow(key, target, 777)  # identical update replayed
        result = cluster.route(key)
        assert result.handled_by == target
        assert result.value == 777
        # The replay re-installs at the same node: one message, no move.
        assert engine.stats.fib_messages == fib_messages + 1

    def test_dropped_delta_leaves_one_stale_replica(self, setup):
        cluster, engine, keys, handlers = setup
        stale_peer = None
        key = int(keys[1])
        owner = cluster.rib.owner_of_key(key)
        stale_peer = (owner + 1) % NUM_NODES

        engine.delta_interceptor = (
            lambda o, peer: update_mod.DROP if peer == stale_peer
            else update_mod.DELIVER
        )
        target = (int(handlers[1]) + 1) % NUM_NODES
        engine.insert_flow(key, target, 888)
        engine.delta_interceptor = None
        assert engine.stats.deltas_dropped == 1

        fresh = [
            n.node_id for n in cluster.nodes
            if n.node_id not in (owner, stale_peer)
        ]
        for node_id in fresh:
            assert cluster.nodes[node_id].gpt.lookup(key) == target
        # Repair: an identity rebroadcast reconverges the stale replica.
        engine.insert_flow(key, target, 888)
        assert cluster.nodes[stale_peer].gpt.lookup(key) == target

    def test_delayed_deltas_apply_on_flush_in_fifo_order(self, setup):
        cluster, engine, keys, handlers = setup
        engine.delta_interceptor = lambda owner, peer: update_mod.DELAY
        for i in range(4):
            engine.insert_flow(
                int(keys[i]), (int(handlers[i]) + 1) % NUM_NODES, 100 + i
            )
        engine.delta_interceptor = None
        assert engine.stats.deltas_delayed == 4 * (NUM_NODES - 1)

        flushed = engine.flush_delayed_deltas()
        assert flushed == 4 * (NUM_NODES - 1)
        assert engine.flush_delayed_deltas() == 0  # queue drained
        probe = keys[:50]
        reference = cluster.nodes[0].gpt.lookup_batch(probe)
        for node in cluster.nodes[1:]:
            assert np.array_equal(node.gpt.lookup_batch(probe), reference)

    def test_delayed_deltas_are_sized_on_delivery(self, setup):
        # A flushed delta used to count as a broadcast of 0 bits, so the
        # mean read low after any DELAY verdict.
        cluster, _, keys, handlers = setup
        registry = MetricsRegistry()
        engine = UpdateEngine(cluster, registry=registry)
        histogram = registry.histogram("update.delta_bits")
        engine.insert_flow(int(keys[0]), (int(handlers[0]) + 1) % NUM_NODES, 1)
        undelayed_mean = engine.stats.mean_delta_bits
        assert undelayed_mean > 0

        engine.delta_interceptor = lambda owner, peer: update_mod.DELAY
        engine.insert_flow(int(keys[1]), (int(handlers[1]) + 1) % NUM_NODES, 2)
        engine.delta_interceptor = None
        # Held back: not broadcast yet, so not counted yet.
        assert engine.stats.delta_broadcasts == NUM_NODES - 1
        assert engine.stats.mean_delta_bits == undelayed_mean

        engine.flush_delayed_deltas()
        assert engine.stats.delta_broadcasts == 2 * (NUM_NODES - 1)
        # Neither group failed, so both deltas have the same fixed size.
        assert engine.stats.mean_delta_bits == undelayed_mean
        assert histogram.count == engine.stats.delta_broadcasts
        assert histogram.sum == engine.stats.broadcast_bits

    def test_remove_flow_rebroadcasts_group(self, setup):
        cluster, engine, keys, _ = setup
        key = int(keys[2])
        broadcasts_before = engine.stats.delta_broadcasts
        assert engine.remove_flow(key)
        # The removal's group rebuild reaches every peer replica.
        assert (
            engine.stats.delta_broadcasts
            == broadcasts_before + NUM_NODES - 1
        )
        for node in cluster.nodes:
            if node.gpt is not None:
                assert cluster.route(key, node.node_id).dropped
