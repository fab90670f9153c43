"""Tests for the Global Partition Table (repro.gpt)."""

import numpy as np
import pytest

from repro.core import SetSepParams
from repro.core.hashfamily import HashedKeys
from repro.core.params import GROUPS_PER_BLOCK
from repro.gpt.gpt import GlobalPartitionTable, rib_view
from tests.conftest import unique_keys


@pytest.fixture(scope="module")
def gpt_setup():
    keys = unique_keys(2_500, seed=40)
    nodes = (keys % 4).astype(np.int64)
    gpt, stats = GlobalPartitionTable.build(keys, nodes.tolist(), num_nodes=4)
    return gpt, keys, nodes, stats


class TestBuild:
    def test_known_keys_map_to_their_nodes(self, gpt_setup):
        gpt, keys, nodes, _ = gpt_setup
        assert np.array_equal(gpt.lookup_batch(keys), nodes)

    def test_scalar_lookup(self, gpt_setup):
        gpt, keys, nodes, _ = gpt_setup
        assert gpt.lookup(int(keys[0])) == nodes[0]

    def test_value_bits_sized_for_cluster(self, gpt_setup):
        gpt, _, _, _ = gpt_setup
        assert gpt.setsep.params.value_bits == 2

    def test_node_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            GlobalPartitionTable.build([1, 2], [0, 4], num_nodes=4)

    def test_too_few_value_bits_rejected(self):
        keys = unique_keys(100, seed=41)
        from repro.core import build as build_setsep

        setsep, _ = build_setsep(
            keys, (keys % 2).astype(np.uint32), SetSepParams(value_bits=1)
        )
        with pytest.raises(ValueError):
            GlobalPartitionTable(num_nodes=4, setsep=setsep)

    def test_invalid_cluster_size(self, gpt_setup):
        gpt, _, _, _ = gpt_setup
        with pytest.raises(ValueError):
            GlobalPartitionTable(num_nodes=0, setsep=gpt.setsep)


class TestOneSidedError:
    def test_unknown_keys_name_a_real_node(self, gpt_setup):
        gpt, _, _, _ = gpt_setup
        unknown = unique_keys(1_000, seed=42, low=2**62, high=2**63)
        out = gpt.lookup_batch(unknown)
        assert out.min() >= 0
        assert out.max() < 4

    def test_non_power_of_two_cluster(self):
        keys = unique_keys(600, seed=43)
        nodes = (keys % 3).astype(np.int64)
        gpt, _ = GlobalPartitionTable.build(keys, nodes.tolist(), num_nodes=3)
        assert np.array_equal(gpt.lookup_batch(keys), nodes)
        unknown = unique_keys(500, seed=44, low=2**62, high=2**63)
        assert gpt.lookup_batch(unknown).max() < 3


class TestSizeAccounting:
    def test_size_bits_consistent(self, gpt_setup):
        gpt, keys, _, _ = gpt_setup
        assert gpt.size_bits() == gpt.setsep.size_bits()
        assert gpt.size_bytes() == gpt.setsep.size_bytes()
        # Block rounding (3 blocks for 2 500 keys) inflates small inputs.
        assert gpt.bits_per_key(len(keys)) == pytest.approx(3.5, rel=0.35)

    def test_gpt_much_smaller_than_explicit_table(self, gpt_setup):
        gpt, keys, _, _ = gpt_setup
        explicit_bits = len(keys) * (64 + 2)  # keys + values
        assert gpt.size_bits() < explicit_bits / 10


class TestUpdates:
    def test_copy_replicas_are_independent(self, gpt_setup):
        gpt, keys, nodes, _ = gpt_setup
        replica = gpt.copy()
        target = int(keys[3])
        group = gpt.group_of(target)
        members, owners = rib_view(keys, nodes.tolist(), gpt)[group]
        moved = members.keys == target
        owners[moved] = (int(nodes[3]) + 1) % 4
        delta = gpt.rebuild_group(group, members, owners)
        # Owner updated, replica not yet.
        assert gpt.lookup(target) == (int(nodes[3]) + 1) % 4
        assert replica.lookup(target) == nodes[3]
        replica.apply_delta(delta)
        assert replica.lookup(target) == (int(nodes[3]) + 1) % 4
        # Restore the original mapping for other tests sharing the fixture.
        owners[moved] = int(nodes[3])
        restore = gpt.rebuild_group(group, members, owners)
        replica.apply_delta(restore)

    def test_block_of_matches_setsep(self, gpt_setup):
        gpt, keys, _, _ = gpt_setup
        assert gpt.block_of(int(keys[0])) == gpt.setsep.block_of(int(keys[0]))


class TestRibView:
    def test_groups_cover_all_keys(self, gpt_setup):
        gpt, keys, nodes, _ = gpt_setup
        view = rib_view(keys, nodes.tolist(), gpt)
        total = sum(len(members) for members, _ in view.values())
        assert total == len(keys)

    def test_view_entries_match_input(self, gpt_setup):
        gpt, keys, nodes, _ = gpt_setup
        view = rib_view(keys, nodes.tolist(), gpt)
        group = gpt.group_of(int(keys[0]))
        members, owners = view[group]
        assert dict(zip(members.keys.tolist(), owners.tolist()))[
            int(keys[0])
        ] == nodes[0]
        # The columns are the keys' own separator hashes.
        assert np.array_equal(
            members.separator, HashedKeys(members.keys.copy()).separator
        )


class TestBatchAgainstScalar:
    """``lookup_batch`` against a per-key reference that shares none of
    its bucket, group or bit code: the bucket and group in plain ints
    (``SetSep.group_of``), each value bit by ``group.lookup_bit`` on the
    key's base hashes, and the fallback's exact answer for a key whose
    group failed.  The replica
    spills about half its groups, so the fallback overwrite runs under the
    batched bucket-to-group mapping at every size."""

    @pytest.fixture(scope="class")
    def spilled(self):
        keys = unique_keys(1_200, seed=42)
        nodes = (keys % 4).astype(np.int64)
        gpt, stats = GlobalPartitionTable.build(
            keys, nodes, num_nodes=4,
            params=SetSepParams(index_bits=4, array_bits=8, value_bits=2),
            backend="setsep",
        )
        assert 0 < stats.fallback_keys < len(keys)
        unknown = unique_keys(1_200, seed=43, low=2**62, high=2**63)
        rng = np.random.default_rng(44)
        probe = rng.permutation(np.concatenate([keys, unknown]))
        return gpt, probe

    @staticmethod
    def reference(gpt, key):
        from repro.core import hashfamily
        from repro.core.group import lookup_bit

        setsep = gpt.setsep
        group = setsep.group_of(key)
        if setsep.failed_groups[group]:
            exact = setsep.fallback.get(key)
            if exact is not None:
                return exact % gpt.num_nodes
        g1, g2 = (
            int(h[0])
            for h in hashfamily.base_hashes(np.array([key], dtype=np.uint64))
        )
        value = 0
        for bit in range(setsep.params.value_bits):
            value |= lookup_bit(
                g1, g2, int(setsep.indices[group, bit]),
                int(setsep.arrays[group, bit]), setsep.params.array_bits,
            ) << bit
        return value % gpt.num_nodes

    @pytest.mark.parametrize("n", [0, 1, 8, 64])
    @pytest.mark.parametrize("prehashed", [False, True])
    def test_batch_equals_per_key_reference(self, spilled, n, prehashed):
        from repro.core import hashfamily

        gpt, probe = spilled
        setsep = gpt.setsep
        failed = setsep.failed_groups[setsep.groups_of(probe)]
        # Start at a key whose group failed, so every non-empty batch
        # takes the fallback overwrite.
        start = int(np.argmax(failed))
        keys = probe[start:start + n]
        assert n == 0 or failed[start:start + n].any()
        if prehashed:
            batch = hashfamily.prehash(keys)
            batch.separator
        else:
            batch = keys
        got = gpt.lookup_batch(batch)
        assert got.dtype == np.uint32 and got.shape == (n,)
        assert got.tolist() == [
            self.reference(gpt, key) for key in keys.tolist()
        ]


class TestUpdatesOnEveryBackend:
    """Owner rebuilds and replica deltas, on both separators, for a cluster
    whose size is a power of two (node id by mask) and one whose size is
    not (node id by modulo)."""

    @pytest.fixture(
        scope="class",
        params=[(b, n) for b in ("setsep", "othello") for n in (3, 4)],
        ids=lambda p: f"{p[0]}-{p[1]}nodes",
    )
    def owner(self, request):
        backend, num_nodes = request.param
        keys = unique_keys(3_000, seed=45)
        nodes = (keys % num_nodes).astype(np.uint32)
        gpt, _ = GlobalPartitionTable.build(
            keys, nodes, num_nodes=num_nodes, backend=backend
        )
        assert gpt.backend == backend
        return gpt, keys, nodes

    @staticmethod
    def moved(gpt, keys, nodes, group):
        """The group's members and each one's next node."""
        members = gpt.setsep.groups_of(keys) == group
        return keys[members], (nodes[members] + 1) % np.uint32(gpt.num_nodes)

    @staticmethod
    def record_group(record):
        """The group a record rebuilt: SetSep names the group, Othello
        its block (whose first group stands for the whole block)."""
        if hasattr(record, "group_id"):
            return record.group_id
        return record.block_id * GROUPS_PER_BLOCK

    def test_scalar_lookup_equals_batch(self, owner):
        gpt, keys, nodes = owner
        unknown = unique_keys(200, seed=46, low=2**62, high=2**63)
        probe = np.concatenate([keys[:200], unknown])
        batch = gpt.lookup_batch(probe)
        assert batch.tolist()[:200] == nodes[:200].tolist()
        assert int(batch.max()) < gpt.num_nodes
        assert [gpt.lookup(k) for k in probe.tolist()] == batch.tolist()

    def test_rebuild_group_answers_the_new_assignment(self, owner):
        gpt, keys, nodes = owner
        gpt = gpt.copy()
        group = gpt.group_of(int(keys[0]))
        members, new_nodes = self.moved(gpt, keys, nodes, group)
        record = gpt.rebuild_group(group, members, new_nodes)
        assert self.record_group(record) == group
        assert gpt.lookup_batch(members).tolist() == new_nodes.tolist()
        assert gpt.lookup(int(members[0])) == new_nodes[0]
        others = gpt.setsep.groups_of(keys) != group
        assert np.array_equal(gpt.lookup_batch(keys[others]), nodes[others])

    def test_replica_converges_on_the_owners_record(self, owner):
        gpt, keys, nodes = owner
        owner_gpt, replica = gpt.copy(), gpt.copy()
        group = owner_gpt.group_of(int(keys[1]))
        members, new_nodes = self.moved(owner_gpt, keys, nodes, group)
        record = owner_gpt.rebuild_group(group, members, new_nodes)
        assert replica.lookup_batch(members).tolist() == (
            nodes[owner_gpt.setsep.groups_of(keys) == group].tolist()
        )
        replica.apply_delta(record)
        unknown = unique_keys(500, seed=47, low=2**62, high=2**63)
        for probe in (keys, unknown):
            assert np.array_equal(
                replica.lookup_batch(probe), owner_gpt.lookup_batch(probe)
            )

    def test_a_wave_answers_every_job_and_keeps_its_order(self, owner):
        gpt, keys, nodes = owner
        gpt = gpt.copy()
        wave = np.unique(gpt.setsep.groups_of(keys))[::-1][:3].tolist()
        assert len(wave) >= 2
        jobs = [
            (group, *self.moved(gpt, keys, nodes, group), ())
            for group in wave
        ]
        records = gpt.rebuild_groups(jobs)
        assert [self.record_group(r) for r in records] == wave
        for _, members, new_nodes, _ in jobs:
            assert gpt.lookup_batch(members).tolist() == new_nodes.tolist()
