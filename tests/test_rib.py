"""Tests for the partitioned RIB (repro.cluster.rib)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.rib import RibEntry, RoutingInformationBase, block_owner
from repro.core import SetSepParams, build
from repro.core import separator as separator_registry
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
        total = sum(len(rib.entries_on_node(n)) for n in range(4))
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
        member_keys, member_nodes = rib.group_contents(group, setsep)
        expected = set(
            int(k) for k in keys[setsep.groups_of(keys) == group]
        )
        assert set(member_keys) == expected
        assert len(member_nodes) == len(member_keys)

    def test_group_contents_empty_block(self, rib):
        keys = unique_keys(64, seed=96)
        setsep, _ = build(keys, (keys % 2).astype(np.uint32))
        empty_rib = RoutingInformationBase(4, setsep.num_blocks)
        member_keys, member_nodes = empty_rib.group_contents(0, setsep)
        assert member_keys.dtype == np.uint64 and member_nodes.dtype == np.uint32
        assert member_keys.size == member_nodes.size == 0


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
            assert (keys.tolist(), nodes.tolist()) == (
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
