"""Bulk construction: ``insert_many`` leaves what a loop of ``insert`` does.

``CuckooHashTable.insert_many`` and ``RoutingInformationBase.insert_many``
fill a whole column per call; ``Cluster.build`` sends every table through
them.  Each is held here to the loop of single inserts it replaces, down
to slot arrays, bucket order, counters and relocation counts, and each
refuses a bad batch before it changes anything.
"""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.architectures import Architecture
from repro.cluster.cluster import Cluster
from repro.cluster.rib import RoutingInformationBase
from repro.core import serialize
from repro.core import twolevel as TL
from repro.core.params import BUCKETS_PER_BLOCK, GROUPS_PER_BLOCK
from repro.hashtables import CuckooHashTable, TableFullError
from repro.obs.metrics import MetricsRegistry
from tests.conftest import unique_keys


def cuckoo_state(table):
    """Everything an insert can move in a cuckoo table."""
    values = table._values
    return (
        table._keys.tobytes(),
        table._occupied.tobytes(),
        values._data.tobytes() if table.value_store == "packed"
        else list(values),
        table._int_values.tobytes(),
        table._int_ok.tobytes(),
        len(table),
        table.relocations,
    )


def insert_loop(table, keys, values):
    for key, value in zip(keys, values):
        table.insert(key, value)


def both_ways(make, prior, deleted, keys, values):
    """``(loop table, bulk table, loop error, bulk error)`` after the same
    prior inserts and deletes, then the batch by each route."""
    tables = []
    errors = []
    for bulk in (False, True):
        table = make()
        try:
            for key in prior:
                table.insert(key, key & 0xFF)
        except TableFullError:
            pass  # the same prefix lands on both
        for key in deleted:
            table.delete(key)
        try:
            if bulk:
                table.insert_many(keys, values)
            else:
                insert_loop(table, keys, values)
            errors.append(None)
        except TableFullError:
            errors.append(TableFullError)
        tables.append(table)
    return tables[0], tables[1], errors[0], errors[1]


VALUES = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.booleans(),
    st.text(max_size=3),
    st.tuples(st.integers(0, 3), st.integers(0, 9)),
)


class TestCuckooInsertMany:
    @settings(max_examples=150, deadline=None)
    @given(
        capacity=st.sampled_from([1, 4, 16, 60]),
        pool=st.lists(
            st.integers(0, 2**64 - 1), min_size=1, max_size=70, unique=True
        ),
        data=st.data(),
    )
    def test_equals_a_loop_of_insert(self, capacity, pool, data):
        key = st.sampled_from(pool)
        prior = data.draw(st.lists(key, max_size=30))
        deleted = data.draw(st.lists(key, max_size=10))
        keys = data.draw(st.lists(key, max_size=80))
        values = data.draw(st.lists(VALUES, min_size=len(keys),
                                    max_size=len(keys)))
        loop, bulk, loop_error, bulk_error = both_ways(
            lambda: CuckooHashTable(capacity), prior, deleted, keys, values
        )
        assert bulk_error is loop_error
        assert cuckoo_state(bulk) == cuckoo_state(loop)

    @pytest.mark.parametrize("keys_as", [np.asarray, list])
    def test_a_full_table_relocates_the_same_way(self, keys_as):
        # ~92% full with holes: many keys find both buckets taken and go
        # through the BFS in order.
        keys = unique_keys(3_700, seed=50)
        values = [i if i % 3 else np.int32(i) for i in range(len(keys))]
        loop, bulk, loop_error, bulk_error = both_ways(
            lambda: CuckooHashTable(3_700), keys[:200:3].tolist(),
            keys[:200:6].tolist(), keys_as(keys), values,
        )
        assert loop_error is bulk_error is None
        assert bulk.relocations > 100
        assert cuckoo_state(bulk) == cuckoo_state(loop)
        assert bulk.lookup_batch(keys) == [int(v) for v in values]

    def test_packed_store_and_text_keys(self):
        keys = ["flow", b"flow", 7, "flow", 2**64 - 1]
        values = [1, 2, 3, 4, 5]
        loop, bulk, _, _ = both_ways(
            lambda: CuckooHashTable(8, value_size=4, value_store="packed"),
            [7], [], keys, values,
        )
        assert cuckoo_state(bulk) == cuckoo_state(loop)
        assert bulk.lookup("flow") == (4).to_bytes(4, "little")

    @pytest.mark.parametrize("keys, values, error, match", [
        ([1, 2, 3, -5], [1, 2, 3, 4], ValueError, "row 3: key -5"),
        ([1, 2, 2**64], [1, 2, 3], ValueError, "row 2: key"),
        ([1, 2, 3], [1, 2, 2**63], OverflowError, "int"),
        ([1, 2, 3], [1, 2], ValueError, "lengths differ"),
    ])
    def test_a_bad_batch_changes_nothing(self, keys, values, error, match):
        table = CuckooHashTable(16)
        table.insert(9, 9)
        before = cuckoo_state(table)
        with pytest.raises(error, match=match):
            table.insert_many(keys, values)
        assert cuckoo_state(table) == before

    def test_the_interface_default_refuses_before_change(self):
        from repro.hashtables import ChainingHashTable

        table = ChainingHashTable(16)
        with pytest.raises(ValueError, match="row 1: key -1"):
            table.insert_many([4, -1], [1, 2])
        assert len(table) == 0
        table.insert_many(np.array([4, 5], dtype=np.uint64), [1, 2])
        assert table.lookup_batch([4, 5]) == [1, 2]


def rib_state(rib, registry):
    return (
        [astuple(entry) for entry in rib.entries()],
        len(rib),
        registry.snapshot()["counters"],
        registry.snapshot()["gauges"],
    )


class TestRibInsertMany:
    @settings(max_examples=100, deadline=None)
    @given(
        num_blocks=st.sampled_from([1, 3]),
        pool=st.lists(
            st.integers(0, 2**64 - 1), min_size=1, max_size=40, unique=True
        ),
        data=st.data(),
    )
    def test_equals_a_loop_of_insert(self, num_blocks, pool, data):
        key = st.sampled_from(pool)
        prior = data.draw(st.lists(key, max_size=20))
        removed = data.draw(st.lists(key, max_size=8))
        keys = data.draw(st.lists(key, max_size=60))
        nodes = data.draw(st.lists(st.integers(0, 2), min_size=len(keys),
                                   max_size=len(keys)))
        values = data.draw(st.lists(st.integers(0, 2**40),
                                    min_size=len(keys), max_size=len(keys)))
        states = []
        for bulk in (False, True):
            registry = MetricsRegistry()
            rib = RoutingInformationBase(3, num_blocks, registry)
            for k in prior:
                rib.insert(k, k % 3, k)
            for k in removed:
                rib.remove(k)
            if bulk:
                rib.insert_many(np.array(keys, dtype=np.uint64), nodes, values)
            else:
                for k, n, v in zip(keys, nodes, values):
                    rib.insert(k, n, v)
            states.append(rib_state(rib, registry))
        assert states[1] == states[0]

    @pytest.mark.parametrize("keys, nodes, match", [
        ([1, 2, 3], [0, 1, 7], "handling node 7"),
        ([1, 2, 3], [-1, 1, 1], "handling node -1"),
        ([1, -5, 3], [0, 1, 1], "row 1: key -5"),
        ([1, 2, 3], [0, 1], "lengths differ"),
    ])
    def test_a_bad_batch_changes_nothing(self, keys, nodes, match):
        registry = MetricsRegistry()
        rib = RoutingInformationBase(2, 1, registry)
        rib.insert(11, 1, 5)
        before = rib_state(rib, registry)
        with pytest.raises(ValueError, match=match):
            rib.insert_many(keys, nodes, [1, 2, 3])
        assert rib_state(rib, registry) == before


def install_per_key(self, keys, nodes, values):
    """The build's FIB placement, one flow at a time through
    ``ClusterNode.install_route`` (the reference for the bulk placement)."""
    arch = self.architecture
    for key, node, value in zip(keys.tolist(), nodes.tolist(), values):
        if arch.replicates_full_fib:
            for cluster_node in self.nodes:
                cluster_node.install_route(key, node, value)
        elif arch is Architecture.HASH_PARTITION:
            lookup = self.lookup_node_of(key)
            self.nodes[lookup].install_route(key, node, value)
            if lookup != node:
                self.nodes[node].install_route(key, node, value)
        else:
            self.nodes[node].install_route(key, node, value)


def rib_insert_per_key(self, keys, nodes, values):
    for key, node, value in zip(keys, nodes, values):
        self.insert(int(key), int(node), int(value))


def cluster_state(cluster):
    return (
        [cuckoo_state(node.fib) for node in cluster.nodes],
        [serialize.fingerprint(node.gpt.setsep)
         for node in cluster.nodes if node.gpt is not None],
        [astuple(entry) for entry in cluster.rib.entries()],
        cluster.registry.snapshot()["counters"],
        cluster.registry.snapshot()["gauges"],
    )


class TestClusterBuild:
    @pytest.mark.parametrize("architecture", list(Architecture))
    @pytest.mark.parametrize("flows, num_nodes, seed", [
        (3_000, 4, 1), (700, 3, 2), (1, 2, 3), (0, 2, 4),
    ])
    def test_matches_the_per_key_build(
        self, architecture, flows, num_nodes, seed
    ):
        rng = np.random.default_rng(seed)
        keys = unique_keys(flows, seed=seed) if flows else np.zeros(
            0, dtype=np.uint64
        )
        # A repeated flow overwrites (the GPT refuses repeats).
        if flows > 10 and not architecture.uses_gpt:
            keys[-5:] = keys[:5]
        nodes = rng.integers(0, num_nodes, flows).tolist()
        values = rng.integers(0, 2**32, flows).tolist()

        def build():
            return Cluster.build(
                architecture, num_nodes, keys, nodes, values,
                registry=MetricsRegistry(),
            )

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Cluster, "_install_all", install_per_key)
            patch.setattr(
                RoutingInformationBase, "insert_many", rib_insert_per_key
            )
            reference = cluster_state(build())
        assert cluster_state(build()) == reference


def assign_block_reference(bucket_sizes, rng, trials=1, target_max=18):
    """The greedy pass over NumPy arrays with ``rng.choice``, as it was."""
    order = np.argsort(bucket_sizes, kind="stable")[::-1]
    best_choices = np.zeros(BUCKETS_PER_BLOCK, dtype=np.uint8)
    best_max = np.iinfo(np.int64).max
    for _ in range(trials):
        loads = np.zeros(GROUPS_PER_BLOCK, dtype=np.int64)
        choices = np.zeros(BUCKETS_PER_BLOCK, dtype=np.uint8)
        for bucket in order:
            candidates = TL.CANDIDATE_TABLE[bucket]
            candidate_loads = loads[candidates]
            tied = np.nonzero(candidate_loads == candidate_loads.min())[0]
            pick = int(tied[0]) if len(tied) == 1 else int(rng.choice(tied))
            choices[bucket] = pick
            loads[candidates[pick]] += int(bucket_sizes[bucket])
        TL._refine(bucket_sizes, choices, loads, target_max=target_max)
        if int(loads.max()) < best_max:
            best_max = int(loads.max())
            best_choices = choices
        if best_max <= target_max:
            break
    return best_choices, best_max


class TestAssignBlockGreedy:
    @pytest.mark.parametrize("seed", range(12))
    def test_same_choices_as_the_array_greedy(self, seed):
        sizes = np.random.default_rng(seed).poisson(
            [4.0, 6.0, 1.0][seed % 3], size=BUCKETS_PER_BLOCK
        )
        trials, target = [(1, 18), (3, 0), (2, 18)][seed % 3]
        got = TL.assign_block(sizes, np.random.default_rng(seed), trials,
                              target)
        want = assign_block_reference(sizes, np.random.default_rng(seed),
                                      trials, target)
        assert got[1] == want[1]
        assert got[0].dtype == np.uint8
        np.testing.assert_array_equal(got[0], want[0])
