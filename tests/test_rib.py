"""Tests for the partitioned RIB (repro.cluster.rib)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cluster.rib import RibEntry, RoutingInformationBase, block_owner
from repro.core import SetSepParams, build
from repro.core import separator as separator_registry
from repro.core.hashfamily import base_hashes, bucket_hash_int
from repro.obs.metrics import MetricsRegistry
from tests.conftest import brute_force_contents, unique_keys


@pytest.fixture()
def rib():
    return RoutingInformationBase(num_nodes=4, num_blocks=8)


class TestPartitioning:
    def test_block_in_range(self, rib):
        for key in unique_keys(500, seed=90):
            assert 0 <= rib.block_of(int(key)) < rib.num_blocks

    def test_owner_is_block_round_robin(self, rib):
        for block in range(8):
            assert rib.owner_of_block(block) == block % 4

    def test_owner_of_key_consistent(self, rib):
        key = 12345
        assert rib.owner_of_key(key) == rib.owner_of_block(rib.block_of(key))

    def test_same_block_same_owner(self, rib):
        keys = unique_keys(2_000, seed=91)
        owners = {}
        for key in keys:
            block = rib.block_of(int(key))
            owner = rib.owner_of_key(int(key))
            assert owners.setdefault(block, owner) == owner

    def test_invalid_block_rejected(self, rib):
        with pytest.raises(ValueError):
            rib.owner_of_block(8)

    def test_a_down_owners_blocks_pass_to_the_next_live_node(self):
        assert [block_owner(block, 4) for block in range(6)] == [
            0, 1, 2, 3, 0, 1,
        ]
        assert block_owner(5, 4, down={1}) == 2
        assert block_owner(5, 4, down={1, 2}) == 3
        assert block_owner(7, 4, down={3}) == 0  # wraps
        with pytest.raises(RuntimeError, match="no live nodes"):
            block_owner(1, 2, down={0, 1})

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            RoutingInformationBase(0, 1)
        with pytest.raises(ValueError):
            RoutingInformationBase(1, 0)


class TestMutation:
    def test_insert_get(self, rib):
        entry = rib.insert(7, 2, 999)
        assert entry == RibEntry(key=7, node=2, value=999)
        assert rib.get(7) == entry
        assert len(rib) == 1

    def test_overwrite(self, rib):
        rib.insert(7, 2, 999)
        rib.insert(7, 3, 111)
        assert rib.get(7).node == 3
        assert len(rib) == 1

    def test_remove(self, rib):
        rib.insert(7, 2, 999)
        removed = rib.remove(7)
        assert removed.value == 999
        assert rib.get(7) is None
        assert rib.remove(7) is None

    def test_node_validation(self, rib):
        with pytest.raises(ValueError):
            rib.insert(1, 4, 0)


class TestViews:
    def test_entries_iteration(self, rib):
        keys = unique_keys(100, seed=92)
        for i, key in enumerate(keys):
            rib.insert(int(key), i % 4, i)
        assert len(list(rib.entries())) == 100

    def test_entries_on_node_partition_everything(self, rib):
        keys = unique_keys(200, seed=93)
        for i, key in enumerate(keys):
            rib.insert(int(key), i % 4, i)
        total = sum(rib.columns(n).shape[1] for n in range(4))
        assert total == 200

    def test_load_per_node_sums(self, rib):
        keys = unique_keys(300, seed=94)
        for i, key in enumerate(keys):
            rib.insert(int(key), i % 4, i)
        loads = rib.load_per_node()
        assert sum(loads) == 300

    def test_group_contents_matches_setsep(self):
        keys = unique_keys(2_000, seed=95)
        nodes = (keys % 4).astype(np.uint32)
        setsep, _ = build(keys, nodes, SetSepParams(value_bits=2))
        rib = RoutingInformationBase(4, setsep.num_blocks)
        for key, node in zip(keys, nodes):
            rib.insert(int(key), int(node), 0)
        group = setsep.group_of(int(keys[0]))
        members, member_nodes = rib.group_contents(group, setsep)
        expected = set(
            int(k) for k in keys[setsep.groups_of(keys) == group]
        )
        assert set(members.keys.tolist()) == expected
        assert len(member_nodes) == len(members)

    def test_group_contents_empty_block(self, rib):
        keys = unique_keys(64, seed=96)
        setsep, _ = build(keys, (keys % 2).astype(np.uint32))
        empty_rib = RoutingInformationBase(4, setsep.num_blocks)
        members, member_nodes = empty_rib.group_contents(0, setsep)
        assert members.keys.dtype == np.uint64
        assert members.separator.shape == (3, 0)
        assert member_nodes.dtype == np.uint32
        assert len(members) == member_nodes.size == 0


#: 300 keys over two blocks: buckets hold several keys, so overwrites,
#: removals and re-inserts reorder them.
POOL = unique_keys(300, seed=97)

#: (insert?, index into POOL, node) — ``insert`` on a present key overwrites.
rib_ops = st.lists(
    st.tuples(st.booleans(), st.integers(0, len(POOL) - 1), st.integers(0, 3)),
    max_size=120,
)


@pytest.fixture(scope="module", params=separator_registry.BACKENDS)
def two_block_separator(request):
    params = separator_registry.params_for_cluster(4, request.param)
    separator, _ = separator_registry.build(
        POOL, (POOL % 4).astype(np.uint32), params, backend=request.param,
        num_blocks=2,
    )
    return separator


class TestGroupContentsProperty:
    @given(ops=rib_ops)
    @settings(max_examples=60, deadline=None)
    def test_equals_brute_force_enumeration(self, two_block_separator, ops):
        separator = two_block_separator
        rib = RoutingInformationBase(4, separator.num_blocks)
        model = {}
        for insert, index, node in ops:
            key = int(POOL[index])
            if insert:
                rib.insert(key, node, index)
                model[key] = node
            else:
                removed = rib.remove(key)
                assert (removed is not None) == (key in model)
                model.pop(key, None)
        assert len(rib) == len(model)
        assert {e.key: e.node for e in rib.entries()} == model
        for group in range(separator.num_groups):
            keys, nodes = rib.group_contents(group, separator)
            assert (keys.keys.tolist(), nodes.tolist()) == (
                brute_force_contents(model, separator, group)
            )

    def test_reads_the_group_not_the_block(self):
        keys = unique_keys(2_000, seed=98)
        setsep, _ = build(keys, (keys % 4).astype(np.uint32),
                          SetSepParams(value_bits=2))
        registry = MetricsRegistry()
        rib = RoutingInformationBase(4, setsep.num_blocks, registry=registry)
        for key in keys:
            rib.insert(int(key), int(key % 4), 0)
        scanned = registry.counter("rib.group_scan_keys")
        members, _ = rib.group_contents(setsep.group_of(int(keys[0])), setsep)
        assert scanned.value == len(members) < 30


# -- the columns RIB against a dict of dicts -----------------------------

#: Keys crowded into six buckets of each of two blocks, so buckets hold
#: several records and overwrites, removals and re-inserts reorder them.
MODEL_BLOCKS = 2


def _crowded_keys():
    rib = RoutingInformationBase(4, MODEL_BLOCKS)
    candidates = unique_keys(20_000, seed=99).tolist()
    crowded = [b for block in range(MODEL_BLOCKS)
               for b in range(block * 256 + 7, block * 256 + 256, 43)]
    return [k for k in candidates if rib.bucket_of(k) in crowded][:60]


MODEL_POOL = _crowded_keys()

#: One separator per backend over the pool's two blocks.
MODEL_SEPARATORS = {
    backend: separator_registry.build(
        np.array(MODEL_POOL, dtype=np.uint64),
        (np.array(MODEL_POOL, dtype=np.uint64) % 4).astype(np.uint32),
        separator_registry.params_for_cluster(4, backend), backend=backend,
        num_blocks=MODEL_BLOCKS,
    )[0]
    for backend in separator_registry.BACKENDS
}


class RibAgainstDicts(RuleBasedStateMachine):
    """Inserts, overwrites, removals, re-inserts and bulk inserts on the
    columns RIB and on the dict of buckets it replaced; after every step
    both give the same records in the same orders."""

    separator = MODEL_SEPARATORS["setsep"]

    def __init__(self):
        super().__init__()
        self.registry = MetricsRegistry()
        self.rib = RoutingInformationBase(4, MODEL_BLOCKS, self.registry)
        #: bucket -> {key: (node, value)}, each in insertion order; a
        #: bucket stays once it first held a record.
        self.buckets = {}
        self.scanned = 0

    def _model_insert(self, key, node, value):
        bucket = self.rib.bucket_of(key)
        self.buckets.setdefault(bucket, {})[key] = (node, value)

    def _model_get(self, key):
        return self.buckets.get(self.rib.bucket_of(key), {}).get(key)

    @rule(key=st.sampled_from(MODEL_POOL), node=st.integers(0, 3),
          value=st.integers(0, 2**64 - 1))
    def insert(self, key, node, value):
        entry = self.rib.insert(key, node, value)
        assert entry == RibEntry(key, node, value)
        self._model_insert(key, node, value)

    @rule(key=st.sampled_from(MODEL_POOL), node=st.integers(0, 3))
    def overwrite(self, key, node):
        if self._model_get(key) is not None:
            self.insert(key, node, node + 1)

    @rule(key=st.sampled_from(MODEL_POOL))
    def remove(self, key):
        held = self._model_get(key)
        removed = self.rib.remove(key)
        if held is None:
            assert removed is None
        else:
            assert removed == RibEntry(key, *held)
            del self.buckets[self.rib.bucket_of(key)][key]

    @rule(key=st.sampled_from(MODEL_POOL), node=st.integers(0, 3))
    def remove_then_reinsert(self, key, node):
        self.remove(key)
        self.insert(key, node, 7)

    @rule(rows=st.lists(
        st.tuples(st.sampled_from(MODEL_POOL), st.integers(0, 3),
                  st.integers(0, 2**40)),
        max_size=20,
    ), as_array=st.booleans())
    def insert_many(self, rows, as_array):
        rows += rows[: len(rows) // 3]  # keys named twice in one batch
        keys = [key for key, _, _ in rows]
        self.rib.insert_many(
            np.array(keys, dtype=np.uint64) if as_array else keys,
            [node for _, node, _ in rows], [value for _, _, value in rows],
        )
        for key, node, value in rows:
            self._model_insert(key, node, value)

    @rule(key=st.sampled_from(MODEL_POOL), bad=st.sampled_from([
        ("node", 4), ("node", -1), ("key", -1), ("key", 2**64),
        ("value", -1), ("value", 2**64),
    ]))
    def refused(self, key, bad):
        field, wrong = bad
        row = {"key": key, "node": 1, "value": 5, field: wrong}
        with pytest.raises(ValueError):
            self.rib.insert_many(
                [MODEL_POOL[0], row["key"]], [0, row["node"]],
                [0, row["value"]],
            )
        if field != "key":  # one int key is taken mod 2**64, as ever
            with pytest.raises(ValueError):
                self.rib.insert(row["key"], row["node"], row["value"])

    def _records(self, buckets):
        return [
            RibEntry(key, node, value)
            for bucket in buckets
            for key, (node, value) in self.buckets[bucket].items()
        ]

    @invariant()
    def same_records_in_the_same_orders(self):
        rib, separator = self.rib, self.separator
        assert list(rib.entries()) == self._records(self.buckets)
        for node in range(4):
            owned = [b for b in self.buckets
                     if rib.owner_of_block(b // 256) == node]
            assert [
                RibEntry(*row) for row in rib.columns(node).T.tolist()
            ] == self._records(owned)
        loads = [0] * 4
        for bucket, records in self.buckets.items():
            loads[rib.owner_of_block(bucket // 256)] += len(records)
        assert rib.load_per_node() == loads
        assert len(rib) == sum(loads)
        for group in sorted({separator.group_of(k) for k in MODEL_POOL}):
            members, nodes = rib.group_contents(group, separator)
            expected = [
                (key, node)
                for bucket in separator.buckets_of_group(group)
                for key, (node, _) in self.buckets.get(bucket, {}).items()
            ]
            assert list(zip(members.keys.tolist(), nodes.tolist())) == expected
            assert members.keys.dtype == np.uint64
            assert nodes.dtype == np.uint32
            g1, g2 = base_hashes(members.keys)
            assert members.separator[0].tolist() == [
                bucket_hash_int(key) for key, _ in expected
            ]
            assert np.array_equal(members.separator[1], g1)
            assert np.array_equal(members.separator[2], g2)
            self.scanned += len(expected)
        assert self.registry.counter("rib.group_scan_keys").value == (
            self.scanned
        )


class OthelloRibAgainstDicts(RibAgainstDicts):
    """The same, read through Othello's block-wide groups."""

    separator = MODEL_SEPARATORS["othello"]


for _machine in (RibAgainstDicts, OthelloRibAgainstDicts):
    _machine.TestCase.settings = settings(
        max_examples=40, stateful_step_count=30, derandomize=True,
        deadline=None, suppress_health_check=list(HealthCheck),
    )
TestRibAgainstDicts = RibAgainstDicts.TestCase
TestOthelloRibAgainstDicts = OthelloRibAgainstDicts.TestCase
