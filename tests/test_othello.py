"""Unit tests for the Othello separator backend (repro.othello).

Covers the structure (build/lookup/update/rehash), the wire record, the
"OTHL" snapshot codec behind ``repro.core.serialize``, the backend
registry in ``repro.core.separator``, and the GPT/cluster integration —
including the differential guarantee that a GPT over Othello routes a
known key set identically to a GPT over SetSep.
"""

import numpy as np
import pytest

from repro.cluster import Architecture, Cluster, UpdateEngine, owner
from repro.cluster.rib import RoutingInformationBase
from repro.core import separator as separator_registry
from repro.core import serialize
from repro.core.builder import DuplicateKeyError
from repro.core.delta import DeltaWireError, GroupDelta
from repro.core.params import GROUPS_PER_BLOCK, SetSepParams
from repro.core.serialize import SnapshotError
from repro.gpt.gpt import GlobalPartitionTable
from repro.obs import MetricsRegistry
from repro.othello import (
    OthelloParams,
    OthelloRehashError,
    OthelloSeparator,
    OthelloUpdate,
    build,
)
from repro.othello.structure import vertex_hashes
from repro.othello.update import WIRE_HEADER
from tests.conftest import unique_keys


@pytest.fixture
def small_othello():
    keys = unique_keys(600, seed=410)
    values = (keys % 4).astype(np.uint32)
    sep, stats = build(keys, values, OthelloParams(value_bits=2))
    return sep, keys, values, stats


def block_contents(keys, values, sep, block):
    member = sep.blocks_of(keys) == block
    return keys[member], values[member]


# ----------------------------------------------------------------------
# Parameters
# ----------------------------------------------------------------------

class TestParams:
    def test_defaults_and_properties(self):
        params = OthelloParams(value_bits=2)
        assert params.vertex_bits == 11
        assert params.value_mask == 0b11
        assert params.name == "othello/2048x2"
        # 2 sides * 2048 cells * 2 bits + 32-bit seed over 1024 keys.
        assert params.bits_per_key() == pytest.approx((2 * 2048 * 2 + 32) / 1024)

    @pytest.mark.parametrize("kwargs", [
        {"value_bits": 0},
        {"value_bits": 17},
        {"vertices_per_side": 3},
        {"vertices_per_side": 2},
        {"vertices_per_side": 65536},
        {"seed": -1},
        {"seed": 1 << 32},
        {"max_rehash": 0},
        {"max_rehash": 256},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            OthelloParams(**kwargs)

    def test_for_cluster_sizes_value_bits(self):
        assert OthelloParams.for_cluster(1).value_bits == 1
        assert OthelloParams.for_cluster(4).value_bits == 2
        assert OthelloParams.for_cluster(5).value_bits == 3
        assert OthelloParams.for_cluster(
            4, vertices_per_side=256
        ).vertices_per_side == 256
        with pytest.raises(ValueError):
            OthelloParams.for_cluster(0)


# ----------------------------------------------------------------------
# Build + lookup
# ----------------------------------------------------------------------

class TestBuild:
    def test_every_key_maps_correctly(self, small_othello):
        sep, keys, values, stats = small_othello
        assert np.array_equal(sep.lookup_batch(keys), values)
        assert sep.lookup(int(keys[0])) == int(values[0])
        assert stats.num_keys == len(keys)
        assert stats.num_groups == stats.num_blocks == sep.num_blocks
        assert stats.failed_groups == 0
        assert stats.fallback_keys == 0
        assert stats.total_iterations >= sep.num_blocks

    def test_empty_build(self):
        sep, stats = build([], [], OthelloParams())
        assert stats.num_keys == 0
        assert sep.lookup_batch([]).shape == (0,)

    def test_duplicate_keys_rejected(self):
        with pytest.raises(DuplicateKeyError):
            build([5, 5], [0, 1], OthelloParams(value_bits=1))

    def test_oversized_values_rejected(self):
        with pytest.raises(ValueError):
            build([1, 2], [0, 2], OthelloParams(value_bits=1))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build([1, 2], [0], OthelloParams(value_bits=1))

    def test_size_accounting(self, small_othello):
        sep, keys, _values, _stats = small_othello
        vps = sep.params.vertices_per_side
        expected = sep.num_blocks * (2 * vps * 2 + 32)
        assert sep.size_bits() == expected
        assert sep.size_bits(include_fallback=False) == expected
        assert sep.size_bytes() == (expected + 7) // 8
        assert sep.bits_per_key(len(keys)) == expected / len(keys)
        with pytest.raises(ValueError):
            sep.bits_per_key(0)

    def test_repr_names_config(self, small_othello):
        sep = small_othello[0]
        assert "othello/2048x2" in repr(sep)


class TestShapeSurface:
    def test_group_is_block_aligned(self, small_othello):
        sep, keys, _values, _stats = small_othello
        groups = sep.groups_of(keys)
        assert np.array_equal(groups, sep.blocks_of(keys) * GROUPS_PER_BLOCK)
        key = int(keys[0])
        assert sep.group_of(key) == int(groups[0])
        assert sep.block_of(key) == int(groups[0]) // GROUPS_PER_BLOCK
        assert sep.num_groups == sep.num_blocks * GROUPS_PER_BLOCK

    def test_a_block_group_lists_the_whole_block(self, small_othello):
        sep = small_othello[0]
        for block in range(sep.num_blocks):
            group = block * GROUPS_PER_BLOCK
            buckets = sep.buckets_of_group(group)
            assert list(buckets) == list(range(256 * block, 256 * block + 256))
            assert {sep.group_of_bucket(b) for b in buckets} == {group}
            assert not sep.buckets_of_group(group + 1)

    def test_block_partitioning_matches_setsep(self, small_othello):
        """Both backends share the two-level bucket -> block mapping."""
        sep, keys, values, _stats = small_othello
        setsep, _ = separator_registry.build(
            keys, values, SetSepParams(value_bits=2), backend="setsep",
            num_blocks=sep.num_blocks,
        )
        assert np.array_equal(
            sep.blocks_of(keys), setsep.groups_of(keys) // GROUPS_PER_BLOCK
        )
        assert np.array_equal(sep.buckets_of(keys), setsep.buckets_of(keys))


# ----------------------------------------------------------------------
# Updates
# ----------------------------------------------------------------------

class TestUpdates:
    def test_insert_change_remove_converge_replicas(self, small_othello):
        sep, keys, values, _stats = small_othello
        replica = sep.copy()
        live = {int(k): int(v) for k, v in zip(keys, values)}

        new_key = int(unique_keys(1, seed=999)[0])
        assert new_key not in live
        ops = [
            ("insert", new_key, 3),
            ("change", int(keys[7]), (int(values[7]) + 1) % 4),
            ("remove", int(keys[11]), None),
        ]
        for op, key, value in ops:
            removed = ()
            if op == "remove":
                live.pop(key)
                removed = (key,)
            else:
                live[key] = value
            block = sep.block_of(key)
            ckeys = np.array(sorted(live), dtype=np.uint64)
            cvals = np.array([live[k] for k in sorted(live)], dtype=np.uint32)
            bkeys, bvals = block_contents(ckeys, cvals, sep, block)
            record = sep.rebuild_group(
                block * GROUPS_PER_BLOCK, bkeys, bvals, removed_keys=removed
            )
            replica.apply_delta(record)

        survivors = np.array(sorted(live), dtype=np.uint64)
        expect = np.array([live[k] for k in sorted(live)], dtype=np.uint32)
        assert np.array_equal(sep.lookup_batch(survivors), expect)
        assert serialize.dump_bytes(replica) == serialize.dump_bytes(sep)

    def test_sparse_record_keeps_seed(self, small_othello):
        sep, keys, values, _stats = small_othello
        key = int(keys[3])
        block = sep.block_of(key)
        bkeys, bvals = block_contents(keys, values, sep, block)
        bvals = bvals.copy()
        bvals[bkeys == np.uint64(key)] = (int(values[3]) + 2) % 4
        record = sep.rebuild_group(block * GROUPS_PER_BLOCK, bkeys, bvals)
        assert not record.full
        assert record.seed == int(sep.seeds[block])
        assert record.block_id == block

    def test_needs_full_contents_tracks_graph_warmth(self, small_othello):
        sep, keys, values, _stats = small_othello
        block = sep.block_of(int(keys[0]))
        group = block * GROUPS_PER_BLOCK
        assert sep.needs_full_contents(group)
        bkeys, bvals = block_contents(keys, values, sep, block)
        sep.rebuild_group(group, bkeys, bvals)
        assert not sep.needs_full_contents(group)
        # A foreign record displaces the owner: cold again.
        sep.apply_delta(OthelloUpdate(block_id=block,
                                      seed=int(sep.seeds[block])))
        assert sep.needs_full_contents(group)

    def test_warm_partial_call_equals_cold_full_call(self, small_othello):
        """The engine's fast path: identical record, either invocation."""
        sep, keys, values, _stats = small_othello
        cold = sep.copy()
        key = int(keys[5])
        block = sep.block_of(key)
        group = block * GROUPS_PER_BLOCK
        new_value = (int(values[5]) + 1) % 4

        bkeys, bvals = block_contents(keys, values, sep, block)
        sep.rebuild_group(group, bkeys, bvals)  # warm the graph
        assert not sep.needs_full_contents(group)
        warm_record = sep.rebuild_group(group, [key], [new_value])

        changed = bvals.copy()
        changed[bkeys == np.uint64(key)] = new_value
        cold_record = cold.rebuild_group(group, bkeys, changed)
        params = sep.params
        assert warm_record.wire_bytes(params) == cold_record.wire_bytes(params)
        assert serialize.dump_bytes(cold) == serialize.dump_bytes(sep)

    def test_apply_delta_is_idempotent(self, small_othello):
        sep, keys, values, _stats = small_othello
        key = int(keys[9])
        block = sep.block_of(key)
        bkeys, bvals = block_contents(keys, values, sep, block)
        bvals = bvals.copy()
        bvals[bkeys == np.uint64(key)] = (int(values[9]) + 3) % 4
        record = sep.rebuild_group(block * GROUPS_PER_BLOCK, bkeys, bvals)
        replica = sep.copy()
        replica.apply_delta(record)
        once = serialize.dump_bytes(replica)
        replica.apply_delta(record)
        assert serialize.dump_bytes(replica) == once

    def test_apply_delta_validates_ranges(self, small_othello):
        sep = small_othello[0]
        with pytest.raises(ValueError):
            sep.apply_delta(OthelloUpdate(block_id=sep.num_blocks, seed=0))
        vps = sep.params.vertices_per_side
        with pytest.raises(ValueError):
            sep.apply_delta(OthelloUpdate(
                block_id=0, seed=0, cells=((2 * vps, 1),)
            ))

    def test_rebuild_group_validates_inputs(self, small_othello):
        sep, keys, values, _stats = small_othello
        with pytest.raises(ValueError):
            sep.rebuild_group(sep.num_groups, [], [])
        with pytest.raises(ValueError):
            sep.rebuild_group(0, [1, 2], [0])
        with pytest.raises(ValueError):
            sep.rebuild_group(0, [1], [4])  # above value_mask

    def test_counters(self):
        registry = MetricsRegistry()
        keys = unique_keys(64, seed=411)
        values = (keys % 2).astype(np.uint32)
        sep, _ = build(keys, values, OthelloParams(value_bits=1))
        sep.bind_registry(registry)
        sep.lookup_batch(keys)
        block = sep.block_of(int(keys[0]))
        bkeys, bvals = block_contents(keys, values, sep, block)
        bvals = bvals.copy()
        bvals[0] ^= 1
        record = sep.rebuild_group(block * GROUPS_PER_BLOCK, bkeys, bvals)
        replica = sep.copy()
        replica.apply_delta(record)
        assert registry.counter("othello.lookups").value == len(keys)
        assert registry.counter("othello.group_rebuilds").value == 1
        # rebuild_group self-applies, the replica applies once more.
        assert registry.counter("othello.deltas_applied").value == 2

    def test_copy_is_independent(self, small_othello):
        sep, keys, values, _stats = small_othello
        clone = sep.copy()
        clone.array_a[0, 0] ^= np.uint32(1)
        clone.seeds[0] += np.uint32(1)
        assert np.array_equal(sep.lookup_batch(keys), values)


class TestRehash:
    def tiny(self):
        """One-block structure with so few vertices cycles are routine."""
        params = OthelloParams(value_bits=2, vertices_per_side=8)
        keys = unique_keys(6, seed=420)
        values = (keys % 4).astype(np.uint32)
        sep, _ = build(keys, values, params, num_blocks=1)
        return sep, {int(k): int(v) for k, v in zip(keys, values)}

    def drive_until_rehash(self, sep, live, seed):
        """Insert fresh keys until a cycle forces a full record."""
        fresh = unique_keys(64, seed=seed)
        records = []
        for raw in fresh:
            key = int(raw)
            if key in live:
                continue
            live[key] = key % 4
            ckeys = np.array(sorted(live), dtype=np.uint64)
            cvals = np.array([live[k] for k in sorted(live)], dtype=np.uint32)
            records.append(sep.rebuild_group(0, ckeys, cvals))
            if records[-1].full:
                return records
        raise AssertionError("no rehash within 64 inserts at vps=8")

    def test_forced_rehash_emits_full_record(self):
        registry = MetricsRegistry()
        sep, live = self.tiny()
        sep.bind_registry(registry)
        records = self.drive_until_rehash(sep, live, seed=421)
        assert records[-1].full
        assert records[-1].seed != 0 or len(records[-1].cells) > 0
        assert registry.counter("othello.rehashes").value == 1
        ckeys = np.array(sorted(live), dtype=np.uint64)
        cvals = np.array([live[k] for k in sorted(live)], dtype=np.uint32)
        assert np.array_equal(sep.lookup_batch(ckeys), cvals)

    def test_rehash_record_converges_replica(self):
        sep, live = self.tiny()
        replica = sep.copy()
        for record in self.drive_until_rehash(sep, live, seed=422):
            replica.apply_delta(record)
        assert serialize.dump_bytes(replica) == serialize.dump_bytes(sep)

    def test_rehash_budget_exhaustion_raises(self):
        # 24 keys on 8+8 vertices cannot be acyclic (edges > vertices - 1).
        params = OthelloParams(value_bits=1, vertices_per_side=8, max_rehash=8)
        keys = unique_keys(24, seed=423)
        with pytest.raises(OthelloRehashError):
            build(keys, (keys % 2).astype(np.uint32), params, num_blocks=1)

    def test_constructor_validates_shapes(self):
        params = OthelloParams(value_bits=1, vertices_per_side=8)
        good = dict(
            seeds=np.zeros(2, dtype=np.uint32),
            array_a=np.zeros((2, 8), dtype=np.uint32),
            array_b=np.zeros((2, 8), dtype=np.uint32),
        )
        OthelloSeparator(params=params, num_blocks=2, **good)
        for field, shape in [
            ("seeds", (3,)), ("array_a", (2, 4)), ("array_b", (3, 8)),
        ]:
            bad = dict(good)
            bad[field] = np.zeros(shape, dtype=np.uint32)
            with pytest.raises(ValueError):
                OthelloSeparator(params=params, num_blocks=2, **bad)


# ----------------------------------------------------------------------
# Wire records
# ----------------------------------------------------------------------

class TestWireRecord:
    PARAMS = OthelloParams(value_bits=2, vertices_per_side=8)

    def test_sparse_roundtrip(self):
        record = OthelloUpdate(block_id=3, seed=17, cells=((1, 2), (9, 3)))
        wire = record.wire_bytes(self.PARAMS)
        parsed, params, offset = OthelloUpdate.from_wire_bytes(wire)
        assert parsed == record
        assert params == OthelloParams(value_bits=2, vertices_per_side=8)
        assert offset == len(wire)
        assert record.size_bits(self.PARAMS) == 8 * len(wire)

    def test_full_roundtrip(self):
        cells = tuple((vertex, vertex % 4) for vertex in range(16))
        record = OthelloUpdate(block_id=1, seed=5, cells=cells, full=True)
        wire = record.wire_bytes(self.PARAMS)
        parsed, _params, offset = OthelloUpdate.from_wire_bytes(wire)
        assert parsed == record
        assert offset == len(wire)

    def test_concatenated_stream_frames_out(self):
        one = OthelloUpdate(block_id=0, seed=1, cells=((0, 1),))
        two = OthelloUpdate(
            block_id=1, seed=2,
            cells=tuple((vertex, 0) for vertex in range(16)), full=True,
        )
        payload = one.wire_bytes(self.PARAMS) + two.wire_bytes(self.PARAMS)
        parsed = [
            record for record, _params in
            separator_registry.parse_update_stream(payload, "othello")
        ]
        assert parsed == [one, two]

    def test_encode_rejects_bad_records(self):
        with pytest.raises(ValueError):
            OthelloUpdate(block_id=0, seed=0, cells=((99, 1),)).encode(
                self.PARAMS
            )
        with pytest.raises(ValueError):
            OthelloUpdate(
                block_id=0, seed=0, cells=((0, 1),), full=True
            ).encode(self.PARAMS)

    def test_truncation_and_bad_kind_raise_wire_error(self):
        record = OthelloUpdate(block_id=0, seed=1, cells=((1, 2),))
        wire = record.wire_bytes(self.PARAMS)
        for cut in (1, WIRE_HEADER.size - 1, len(wire) - 1):
            with pytest.raises(DeltaWireError):
                OthelloUpdate.from_wire_bytes(wire[:cut])
        bad_kind = bytearray(wire)
        bad_kind[4] = 7
        with pytest.raises(DeltaWireError):
            OthelloUpdate.from_wire_bytes(bytes(bad_kind))

    def test_decode_rejects_inconsistent_bodies(self):
        record = OthelloUpdate(block_id=0, seed=1, cells=((1, 2),))
        body = record.encode(self.PARAMS)
        with pytest.raises(DeltaWireError):
            OthelloUpdate.decode(body + b"\0", self.PARAMS)
        with pytest.raises(DeltaWireError):
            OthelloUpdate.decode(body, self.PARAMS, full=True)
        with pytest.raises(DeltaWireError):
            OthelloUpdate.decode(b"\1", self.PARAMS)


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------

class TestSnapshot:
    def test_serialize_front_door_dispatches(self, small_othello):
        sep, keys, values, _stats = small_othello
        blob = serialize.dump_bytes(sep)
        assert blob[:4] == b"OTHL"
        restored = serialize.load_bytes(blob)
        assert isinstance(restored, OthelloSeparator)
        assert np.array_equal(restored.lookup_batch(keys), values)
        assert serialize.dump_bytes(restored) == blob

    def test_fingerprint_distinguishes_states(self, small_othello):
        sep = small_othello[0]
        before = serialize.fingerprint(sep)
        other = sep.copy()
        other.array_a[0, 0] ^= np.uint32(1)
        assert serialize.fingerprint(other) != before

    def test_truncation_rejected(self, small_othello):
        blob = serialize.dump_bytes(small_othello[0])
        for cut in (0, 3, 11, len(blob) // 2, len(blob) - 1):
            with pytest.raises(SnapshotError):
                serialize.load_bytes(blob[:cut])

    def test_corruption_rejected(self, small_othello):
        blob = bytearray(serialize.dump_bytes(small_othello[0]))
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(SnapshotError):
            serialize.load_bytes(bytes(blob))

    def test_trailing_bytes_rejected(self, small_othello):
        import struct
        import zlib
        blob = serialize.dump_bytes(small_othello[0])
        body = blob[:-4] + b"\0\0"
        forged = body + struct.pack("<I", zlib.crc32(body))
        with pytest.raises(SnapshotError):
            serialize.load_bytes(forged)

    def test_bad_version_rejected(self, small_othello):
        import struct
        import zlib
        blob = serialize.dump_bytes(small_othello[0])
        body = bytearray(blob[:-4])
        struct.pack_into("<H", body, 4, 9)
        forged = bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)))
        with pytest.raises(SnapshotError):
            serialize.load_bytes(forged)


# ----------------------------------------------------------------------
# Backend registry
# ----------------------------------------------------------------------

@pytest.fixture
def default_backend_guard():
    previous = separator_registry.default_backend()
    yield
    separator_registry.set_default_backend(previous)


class TestRegistry:
    def test_default_backend_roundtrip(self, default_backend_guard):
        separator_registry.set_default_backend("othello")
        assert separator_registry.default_backend() == "othello"
        assert separator_registry.resolve_backend(None) == "othello"
        assert separator_registry.resolve_backend("setsep") == "setsep"
        with pytest.raises(ValueError):
            separator_registry.set_default_backend("bloom")
        with pytest.raises(ValueError):
            separator_registry.resolve_backend("nope")

    def test_params_for_cluster(self):
        assert isinstance(
            separator_registry.params_for_cluster(4, "setsep"), SetSepParams
        )
        othello = separator_registry.params_for_cluster(4, "othello")
        assert isinstance(othello, OthelloParams)
        assert othello.value_bits == 2

    def test_coerce_params_preserves_value_bits(self):
        setsep_params = SetSepParams(value_bits=3)
        coerced = separator_registry.coerce_params(setsep_params, "othello")
        assert isinstance(coerced, OthelloParams)
        assert coerced.value_bits == 3
        back = separator_registry.coerce_params(coerced, "setsep")
        assert isinstance(back, SetSepParams)
        assert back.value_bits == 3
        assert separator_registry.coerce_params(
            setsep_params, "setsep"
        ) is setsep_params
        assert separator_registry.coerce_params(None, "othello") is None

    def test_build_front_door(self):
        keys = unique_keys(128, seed=430)
        values = (keys % 4).astype(np.uint32)
        for backend, expect in [("setsep", "setsep"), ("othello", "othello")]:
            sep, _ = separator_registry.build(
                keys, values,
                separator_registry.params_for_cluster(4, backend),
                backend=backend,
            )
            assert separator_registry.backend_of(sep) == expect
            assert isinstance(sep, separator_registry.Separator)
            assert np.array_equal(sep.lookup_batch(keys), values)

    def test_update_record_type(self):
        assert separator_registry.update_record_type("setsep") is GroupDelta
        assert (
            separator_registry.update_record_type("othello") is OthelloUpdate
        )


# ----------------------------------------------------------------------
# GPT + cluster integration
# ----------------------------------------------------------------------

class TestIntegration:
    def test_gpt_differential_routing(self):
        """GPT-over-Othello routes the known key set exactly like
        GPT-over-SetSep: both resolve to the RIB's node assignment."""
        keys = unique_keys(2_000, seed=440)
        nodes = (keys % np.uint64(4)).astype(np.int64)
        gpts = {
            backend: GlobalPartitionTable.build(
                keys, nodes.tolist(), 4, backend=backend
            )[0]
            for backend in separator_registry.BACKENDS
        }
        assert gpts["setsep"].backend == "setsep"
        assert gpts["othello"].backend == "othello"
        othello_routes = gpts["othello"].lookup_batch(keys)
        assert np.array_equal(othello_routes, nodes)
        assert np.array_equal(
            gpts["setsep"].lookup_batch(keys), othello_routes
        )

    def test_cluster_update_engine_on_othello(self):
        keys = unique_keys(1_200, seed=441)
        handlers = (keys % np.uint64(4)).astype(np.int64)
        values = np.arange(len(keys))
        cluster = Cluster.build(
            Architecture.SCALEBRICKS, 4, keys, handlers, values,
            backend="othello",
        )
        assert cluster.nodes[0].gpt.backend == "othello"
        engine = UpdateEngine(cluster)
        for i in range(120):
            engine.insert_flow(
                int(keys[i]), (int(handlers[i]) + 1) % 4, int(values[i])
            )
        for i in range(120, 160):
            assert engine.remove_flow(int(keys[i]))
        # Every replica's GPT is byte-identical after the churn.
        blobs = {
            serialize.dump_bytes(node.gpt.setsep) for node in cluster.nodes
        }
        assert len(blobs) == 1
        # Routing matches the RIB for every surviving flow.
        survivors = np.concatenate([keys[:120], keys[160:]])
        expect = np.concatenate([
            (handlers[:120] + 1) % 4, handlers[160:]
        ])
        routes = cluster.nodes[0].gpt.lookup_batch(survivors)
        assert np.array_equal(routes, expect)


class TestLostRecord:
    """One lost sparse ``OthelloUpdate``, then the next record on its block.

    The owner rehomes key ``a`` (record ``r1``, lost on the way to the
    replica), then key ``b``, an edge of the component ``r1`` corrected
    (record ``r2``, applied).  ``r2`` removes ``b``'s edge, XOR-corrects
    the component on one side of it and ships those cells' absolute
    values; the cells on the other side are ones ``r1`` changed, which
    the replica does not hold.  §4.5's one-sided error allows the
    replica to answer wrongly for ``a`` alone, the key the lost record
    touched.  Here the replica answers wrongly for ``b``, whose record it
    applied, and for no key neither update touched: the kind of misroute
    ``repro chaos --seed 3 --episodes 3 --backend othello`` reports as
    "known key dropped: unknown_key" after a lost delta (ROADMAP item
    15).
    """

    NODES = 4

    def scenario(self):
        """``(keys, a, b, before, owner, replica)``: the replica's answers
        before ``r2``, then the owner's and the replica's after it."""
        keys = unique_keys(3_000, seed=15)
        handlers = np.random.default_rng(15).integers(self.NODES, size=3_000)
        params = OthelloParams.for_cluster(self.NODES)
        separator, _ = separator_registry.build(
            keys, handlers.tolist(), params, backend="othello"
        )
        rib = RoutingInformationBase(self.NODES, separator.num_blocks)
        rib.insert_many(keys, handlers, np.arange(keys.size))
        gpt = GlobalPartitionTable(self.NODES, separator)
        replica = GlobalPartitionTable(self.NODES, separator.copy())
        blocks = separator.blocks_of(keys)
        block = int(np.bincount(blocks).argmax())
        members = keys[blocks == block]
        vps = params.vertices_per_side

        def rehome(key):
            node = (gpt.lookup(key) + 1) % self.NODES
            return owner.owner_step(
                rib, gpt, owner.UpdateAccount(), key, rib.bucket_of(key),
                node, 7,
            ).wire

        # ``a``: the first key of the block whose record corrects a
        # component another key's edge touches (the earlier ones reach
        # the replica).
        seeds = np.full(members.size, int(separator.seeds[block]), np.uint64)
        side_a, side_b = vertex_hashes(members, seeds, params.vertex_bits)
        ends = list(zip(
            members.tolist(), side_a.tolist(), (side_b + vps).tolist()
        ))
        for a in members.tolist():
            lost = rehome(a)
            cells = {
                vertex
                for vertex, _ in OthelloUpdate.from_wire_bytes(lost)[0].cells
            }
            touching = [
                key for key, u, w in ends
                if key != a and (u in cells or w in cells)
            ]
            if touching:
                break
            owner.apply_records(replica, lost)
        b = touching[0]
        before = replica.lookup_batch(keys)
        owner.apply_records(replica, rehome(b))
        return (
            keys, a, b, before, gpt.lookup_batch(keys),
            replica.lookup_batch(keys),
        )

    def test_no_key_an_update_did_not_touch_changes_its_answer(self):
        keys, a, b, before, _owner, after = self.scenario()
        changed = {
            key for key, old, new in zip(keys.tolist(), before, after)
            if old != new
        }
        assert changed - {a, b} == set()

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 15: a sparse OthelloUpdate corrects cells "
        "against a base the replica that lost the previous record on its "
        "block does not hold",
    )
    def test_only_the_lost_records_key_is_answered_wrongly(self):
        keys, a, b, _before, truth, after = self.scenario()
        wrong = {
            key: (int(right), int(got))
            for key, right, got in zip(keys.tolist(), truth, after)
            if right != got
        }
        assert set(wrong) <= {a}, f"misrouted: {wrong} (b = {b})"
