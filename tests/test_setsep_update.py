"""Tests for SetSep group rebuilds and delta updates (paper §4.5)."""

import numpy as np
import pytest

from repro.core import SetSepParams, build
from repro.core.delta import WIRE_HEADER, DeltaWireError, GroupDelta
from tests.conftest import unique_keys


@pytest.fixture()
def setsep_pair():
    """A built SetSep, its key/value arrays, and an identical replica."""
    keys = unique_keys(1_500, seed=21)
    values = (keys % 4).astype(np.uint32)
    setsep, _ = build(keys, values, SetSepParams(value_bits=2))
    return setsep, setsep.copy(), keys, values


def group_members(setsep, keys, group_id):
    groups = setsep.groups_of(keys)
    return keys[groups == group_id]


class TestRebuildGroup:
    def test_value_change_visible_after_rebuild(self, setsep_pair):
        setsep, _, keys, values = setsep_pair
        target = int(keys[0])
        group = setsep.group_of(target)
        members = group_members(setsep, keys, group)
        new_values = [
            3 if int(k) == target else int(values[list(keys).index(k)])
            for k in members
        ]
        setsep.rebuild_group(group, members, new_values)
        assert setsep.lookup(target) == 3

    def test_rebuild_preserves_other_group_members(self, setsep_pair):
        setsep, _, keys, values = setsep_pair
        target = int(keys[5])
        group = setsep.group_of(target)
        members = group_members(setsep, keys, group)
        index = {int(k): int(v) for k, v in zip(keys, values)}
        new_values = [3 if int(k) == target else index[int(k)] for k in members]
        setsep.rebuild_group(group, members, new_values)
        for k in members:
            expected = 3 if int(k) == target else index[int(k)]
            assert setsep.lookup(int(k)) == expected

    def test_new_key_insertable_via_rebuild(self, setsep_pair):
        setsep, _, keys, values = setsep_pair
        new_key = int(unique_keys(1, seed=500, low=2**62, high=2**63)[0])
        group = setsep.group_of(new_key)
        members = list(group_members(setsep, keys, group))
        index = {int(k): int(v) for k, v in zip(keys, values)}
        all_keys = [int(k) for k in members] + [new_key]
        all_values = [index[int(k)] for k in members] + [2]
        setsep.rebuild_group(group, all_keys, all_values)
        assert setsep.lookup(new_key) == 2

    def test_mismatched_lengths_rejected(self, setsep_pair):
        setsep, _, keys, _ = setsep_pair
        with pytest.raises(ValueError):
            setsep.rebuild_group(0, [1, 2], [1])


class TestDeltaReplication:
    def test_replica_converges_after_delta(self, setsep_pair):
        setsep, replica, keys, values = setsep_pair
        target = int(keys[10])
        group = setsep.group_of(target)
        members = group_members(setsep, keys, group)
        index = {int(k): int(v) for k, v in zip(keys, values)}
        new_values = [1 if int(k) == target else index[int(k)] for k in members]
        delta = setsep.rebuild_group(group, members, new_values)
        replica.apply_delta(delta)
        assert replica.lookup(target) == 1
        assert np.array_equal(
            replica.lookup_batch(keys), setsep.lookup_batch(keys)
        )

    def test_delta_roundtrips_on_the_wire(self, setsep_pair):
        setsep, replica, keys, values = setsep_pair
        target = int(keys[11])
        group = setsep.group_of(target)
        members = group_members(setsep, keys, group)
        index = {int(k): int(v) for k, v in zip(keys, values)}
        new_values = [0 if int(k) == target else index[int(k)] for k in members]
        delta = setsep.rebuild_group(group, members, new_values)
        wire = delta.encode(setsep.params)
        replica.apply_delta(GroupDelta.decode(wire, setsep.params))
        assert replica.lookup(target) == 0

    def test_delta_is_tens_of_bits(self, setsep_pair):
        setsep, _, keys, values = setsep_pair
        target = int(keys[12])
        group = setsep.group_of(target)
        members = group_members(setsep, keys, group)
        index = {int(k): int(v) for k, v in zip(keys, values)}
        delta = setsep.rebuild_group(
            group, members, [index[int(k)] for k in members]
        )
        # Successful rebuild: header + per-bit state only (~100 bits).
        assert delta.size_bits(setsep.params) < 200

    def test_out_of_range_group_rejected(self, setsep_pair):
        setsep, _, _, _ = setsep_pair
        delta = GroupDelta(
            group_id=setsep.num_groups,
            failed=False,
            indices=(0, 0),
            arrays=(0, 0),
        )
        with pytest.raises(ValueError):
            setsep.apply_delta(delta)


class TestFallbackTransitions:
    @pytest.fixture()
    def tight_setsep(self):
        """A configuration that fails often (forces fallback activity)."""
        keys = unique_keys(900, seed=31)
        values = (keys % 2).astype(np.uint32)
        params = SetSepParams(index_bits=3, array_bits=2)
        setsep, stats = build(keys, values, params)
        assert stats.fallback_keys > 0
        return setsep, keys, values

    def test_failed_group_keys_served_from_fallback(self, tight_setsep):
        setsep, keys, values = tight_setsep
        assert np.array_equal(setsep.lookup_batch(keys), values)

    def test_rebuild_failed_group_emits_upserts(self, tight_setsep):
        setsep, keys, values = tight_setsep
        failed = np.nonzero(setsep.failed_groups)[0]
        group = int(failed[0])
        members = group_members(setsep, keys, group)
        assert len(members) > 0
        index = {int(k): int(v) for k, v in zip(keys, values)}
        delta = setsep.rebuild_group(
            group, members, [index[int(k)] for k in members]
        )
        if delta.failed:
            assert len(delta.fallback_upserts) == len(members)
        # Either way, lookups stay correct.
        for k in members:
            assert setsep.lookup(int(k)) == index[int(k)]

    def test_deletion_removes_fallback_entry(self, tight_setsep):
        setsep, keys, values = tight_setsep
        failed = np.nonzero(setsep.failed_groups)[0]
        group = int(failed[0])
        members = list(group_members(setsep, keys, group))
        victim = int(members[0])
        remaining = [int(k) for k in members[1:]]
        index = {int(k): int(v) for k, v in zip(keys, values)}
        setsep.rebuild_group(
            group,
            remaining,
            [index[k] for k in remaining],
            removed_keys=[victim],
        )
        assert setsep.fallback.get(victim) is None


class TestDeltaEncoding:
    def test_roundtrip_with_fallback_payload(self):
        params = SetSepParams(value_bits=2)
        delta = GroupDelta(
            group_id=123,
            failed=True,
            indices=(0, 0),
            arrays=(0, 0),
            fallback_upserts=((2**63 + 1, 3), (17, 0)),
            fallback_removals=(99,),
        )
        decoded = GroupDelta.decode(delta.encode(params), params)
        assert decoded == delta

    def test_size_bits_matches_encoding(self):
        params = SetSepParams(value_bits=2)
        delta = GroupDelta(
            group_id=5,
            failed=False,
            indices=(10, 20),
            arrays=(0xAB, 0xCD),
            fallback_removals=(1, 2),
        )
        encoded = delta.encode(params)
        assert len(encoded) == (delta.size_bits(params) + 7) // 8

    def test_wrong_value_bits_rejected(self):
        params = SetSepParams(value_bits=2)
        delta = GroupDelta(
            group_id=1, failed=False, indices=(1,), arrays=(2,)
        )
        with pytest.raises(ValueError):
            delta.encode(params)


class TestWireBytes:
    """Self-delimiting framed deltas (GroupDelta.wire_bytes, §4.5)."""

    PARAMS = SetSepParams(value_bits=2)

    def _delta(self, group_id=7, **overrides):
        fields = dict(
            group_id=group_id,
            failed=False,
            indices=(3, 9),
            arrays=(0xAB, 0xCD),
        )
        fields.update(overrides)
        return GroupDelta(**fields)

    def test_roundtrip_recovers_delta_and_params(self):
        delta = self._delta(
            failed=True, indices=(0, 0), arrays=(0, 0),
            fallback_upserts=((2**64 - 1, 65535),),
            fallback_removals=(42,),
        )
        framed = delta.wire_bytes(self.PARAMS)
        decoded, params, offset = GroupDelta.from_wire_bytes(framed)
        assert decoded == delta
        assert params == self.PARAMS
        assert offset == len(framed)

    def test_frame_wraps_exact_encode_body(self):
        delta = self._delta()
        framed = delta.wire_bytes(self.PARAMS)
        assert framed[WIRE_HEADER.size:] == delta.encode(self.PARAMS)

    def test_concatenated_stream_parses_in_order(self):
        deltas = [self._delta(group_id=g) for g in (1, 50, 2**20)]
        stream = b"".join(d.wire_bytes(self.PARAMS) for d in deltas)
        offset = 0
        seen = []
        while offset < len(stream):
            delta, params, offset = GroupDelta.from_wire_bytes(stream, offset)
            assert params == self.PARAMS
            seen.append(delta)
        assert seen == deltas
        assert offset == len(stream)

    def test_truncation_rejected_at_every_cut(self):
        framed = self._delta().wire_bytes(self.PARAMS)
        for cut in range(len(framed)):
            with pytest.raises(DeltaWireError):
                GroupDelta.from_wire_bytes(framed[:cut])

    def test_impossible_header_widths_rejected(self):
        framed = bytearray(self._delta().wire_bytes(self.PARAMS))
        framed[2] = 0  # index_bits = 0 is not a valid SetSepParams
        with pytest.raises(DeltaWireError):
            GroupDelta.from_wire_bytes(bytes(framed))

    def test_nonzero_padding_rejected(self):
        # 2 x (16 + 8) + 49 bits leave 7 padding bits in the last byte:
        # every one of them is part of the format, so one delta has one
        # byte string.
        framed = self._delta().wire_bytes(self.PARAMS)
        assert self._delta().size_bits(self.PARAMS) % 8 == 1
        for bit in range(7):
            forged = framed[:-1] + bytes([framed[-1] | (1 << bit)])
            with pytest.raises(DeltaWireError):
                GroupDelta.from_wire_bytes(forged)
        assert GroupDelta.from_wire_bytes(framed)[0] == self._delta()

    def test_short_arrays_rejected_on_encode(self):
        with pytest.raises(ValueError):
            self._delta(arrays=(0xAB,)).encode(self.PARAMS)
        with pytest.raises(ValueError):
            self._delta(arrays=(0xAB, 0xCD, 0xEF)).wire_bytes(self.PARAMS)

    def test_body_length_disagreement_rejected(self):
        import struct

        framed = self._delta().wire_bytes(self.PARAMS)
        # Grow the declared body length and pad: content no longer fills
        # the claimed length.
        body_len = struct.unpack_from("<H", framed, 0)[0]
        forged = struct.pack("<H", body_len + 1) + framed[2:] + b"\x00"
        with pytest.raises(DeltaWireError):
            GroupDelta.from_wire_bytes(forged)
