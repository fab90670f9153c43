"""Tests for SetSep group rebuilds and delta updates (paper §4.5)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SetSepParams, build
from repro.core import group as group_search
from repro.core.delta import WIRE_HEADER, DeltaWireError, GroupDelta
from repro.core.hashfamily import base_hashes
from repro.obs import MetricsRegistry
from tests.conftest import unique_keys
from tests.test_group import reference_evaluate, reference_search_bit


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

    @pytest.mark.parametrize(
        "group_id, values, message",
        [
            (-1, None, "group id -1 out of range"),
            ("num_groups", None, "out of range"),
            (None, {3: 5}, "position 3 holds 5"),
            (None, {0: 4, 2: 9}, "position 0 holds 4"),
            (None, {1: -1}, "position 1 holds -1"),
        ],
    )
    def test_bad_input_refused_before_anything_moves(
        self, setsep_pair, group_id, values, message
    ):
        """A value of 5 on a 4-node GPT is not stored as node 1, and a
        group id of -1 is not the last group: both are refused before a
        counter or a byte of state changes."""
        setsep, _, keys, nodes = setsep_pair
        registry = MetricsRegistry()
        setsep.bind_registry(registry)
        group = int(setsep.groups_of(keys[:1])[0])
        members = keys[setsep.groups_of(keys) == group]
        contents = [int(v) for v in nodes[setsep.groups_of(keys) == group]]
        for position, value in (values or {}).items():
            contents[position] = value
        if group_id == "num_groups":
            group_id = setsep.num_groups
        before = [a.copy() for a in setsep.state()], sorted(setsep.fallback.items())
        with pytest.raises(ValueError, match=message):
            setsep.rebuild_group(
                group if group_id is None else group_id, members, contents
            )
        assert all(
            np.array_equal(a, b) for a, b in zip(setsep.state(), before[0])
        )
        assert sorted(setsep.fallback.items()) == before[1]
        assert not any(registry.counters().values())


class TestIncumbentFirst:
    """The owner tests the indices a group has before it searches."""

    @given(
        widths=st.sampled_from([dict(index_bits=4, array_bits=6), {}]),
        seed=st.integers(1, 40),
        pick=st.integers(0, 10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_removal_and_same_value_reinsert_never_search(
        self, widths, seed, pick
    ):
        keys = unique_keys(400, seed=seed)
        values = (keys % 4).astype(np.uint32)
        setsep, _ = build(keys, values, SetSepParams(value_bits=2, **widths))
        registry = MetricsRegistry()
        setsep.bind_registry(registry)
        groups = setsep.groups_of(keys)
        separated = np.unique(groups[~setsep.failed_groups[groups]])
        group = int(separated[pick % len(separated)])
        members, nodes = keys[groups == group], values[groups == group]
        victim = pick % len(members)
        built = setsep.indices[group].tolist(), setsep.arrays[group].tolist()
        with mock.patch.object(
            group_search, "_search_targets", side_effect=AssertionError
        ):
            removal = setsep.rebuild_group(
                group, np.delete(members, victim), np.delete(nodes, victim),
                removed_keys=[int(members[victim])],
            )
            assert list(removal.indices) == built[0] and not removal.failed
            assert np.array_equal(
                setsep.lookup_batch(np.delete(members, victim)),
                np.delete(nodes, victim),
            )
            setsep.rebuild_group(group, members, nodes)
        # The key is back with its value: so is the group, bit for bit.
        assert (
            setsep.indices[group].tolist(), setsep.arrays[group].tolist()
        ) == built
        counters = registry.counters()
        assert counters["setsep.group_rebuilds"] == 2
        assert counters["setsep.incumbent_bits_kept"] == 4
        assert counters["setsep.bits_searched"] == 0

    def test_counters_split_every_rebuilt_bit(self, setsep_pair):
        setsep, _, keys, values = setsep_pair
        registry = MetricsRegistry()
        setsep.bind_registry(registry)
        groups = setsep.groups_of(keys)
        for group in np.unique(groups)[:30].tolist():
            members = keys[groups == group]
            setsep.rebuild_group(group, members, (members % 3) % 4)
            assert np.array_equal(
                setsep.lookup_batch(members), (members % 3) % 4
            )
        counters = registry.counters()
        kept = counters["setsep.incumbent_bits_kept"]
        searched = counters["setsep.bits_searched"]
        assert kept and searched and kept + searched == 2 * 30

    def test_a_sentinel_index_is_never_kept(self, setsep_pair):
        """An index only a forged record can leave in a live group: the
        search never tries it, so the rebuild does not keep it either."""
        setsep, _, keys, values = setsep_pair
        group = int(setsep.groups_of(keys[:1])[0])
        member = setsep.groups_of(keys) == group
        sentinel = setsep.params.max_index
        setsep.apply_delta(
            GroupDelta(group, False, (sentinel, sentinel), (0, 0))
        )
        delta = setsep.rebuild_group(group, keys[member], values[member])
        assert not delta.failed and max(delta.indices) < sentinel
        assert np.array_equal(
            setsep.lookup_batch(keys[member]), values[member]
        )

    def test_apply_rejects_a_record_of_another_width(self, setsep_pair):
        setsep, _, _, _ = setsep_pair
        before = setsep.indices.copy(), setsep.arrays.copy()
        for delta in (
            GroupDelta(3, False, (7,), (0xAA,)),
            GroupDelta(3, False, (7, 7, 7), (1, 1, 1)),
            GroupDelta(3, False, (7, 7), (1,)),
        ):
            with pytest.raises(ValueError):
                setsep.apply_delta(delta)
        assert np.array_equal(setsep.indices, before[0])
        assert np.array_equal(setsep.arrays, before[1])


def reference_rebuild(setsep, group_id, keys, values, removed_keys=()):
    """One group recomputed as ``rebuild_group`` did before groups were
    rebuilt in waves, the search replaced by the index-at-a-time
    reference of ``tests.test_group``: what every job of a wave must equal,
    delta, state and counters."""
    params = setsep.params
    keys = np.asarray(keys, dtype=np.uint64)
    values = [int(v) for v in values]
    was_failed = bool(setsep.failed_groups[group_id])
    incumbent = None if was_failed else setsep.indices[group_id].tolist()
    g1, g2 = base_hashes(keys)
    functions = []
    for bit in range(params.value_bits):
        bits = [(value >> bit) & 1 for value in values]
        array = None
        if incumbent is not None and len(keys) and (
            incumbent[bit] < params.max_index
        ):
            array = reference_evaluate(
                g1, g2, bits, incumbent[bit], params.array_bits
            )
        functions.append(
            group_search.GroupFunction(incumbent[bit], array, 1)
            if array is not None else reference_search_bit(
                g1, g2, bits, params.array_bits, params.max_index
            )
        )
    setsep._m_rebuilds.inc()
    kept = 0
    if None in functions:
        setsep._m_rebuild_failures.inc()
    elif incumbent is not None:
        kept = sum(f.index == i for f, i in zip(functions, incumbent))
    setsep._m_bits_kept.inc(kept)
    setsep._m_bits_searched.inc(params.value_bits - kept)
    removals = [int(k) for k in removed_keys]
    if None not in functions:
        if was_failed:
            removals += keys.tolist()
        delta = GroupDelta(
            group_id, False, tuple(f.index for f in functions),
            tuple(f.array for f in functions), (), tuple(removals),
        )
    else:
        delta = GroupDelta(
            group_id, True, (0,) * params.value_bits, (0,) * params.value_bits,
            tuple(zip(keys.tolist(), values)), tuple(removals),
        )
    setsep.apply_delta(delta)
    return delta


#: 700 keys over one block at 63 candidate indices: 13 of the 64 groups
#: start failed, and edits make groups keep, search, spill and separate.
TIGHT = SetSepParams(index_bits=6, array_bits=8, value_bits=2)


@pytest.fixture(scope="module")
def tight():
    """A tight SetSep, its contents, and spare keys by group."""
    keys = unique_keys(700, seed=41)
    values = (keys % 4).astype(np.uint32)
    setsep, _ = build(keys, values, TIGHT)
    spare = unique_keys(3_000, seed=42, low=2**62, high=2**63)
    by_group = {}
    for key, group in zip(spare.tolist(), setsep.groups_of(spare).tolist()):
        by_group.setdefault(group, []).append(key)
    return setsep, keys, values, by_group


def group_job(setsep, keys, values, group, edit, spare, value=1):
    """A ``(group, keys, values, removed)`` job: the group's contents as
    they are (``same``), without their last key (``drop``), with their
    first value changed (``revalue``), with a spare key (``add``), or
    none left (``empty``)."""
    member = setsep.groups_of(keys) == group
    members, nodes = keys[member], values[member].copy()
    removed = ()
    if edit == "drop" and len(members):
        removed = (int(members[-1]),)
        members, nodes = members[:-1], nodes[:-1]
    elif edit == "revalue" and len(members):
        nodes[0] = (nodes[0] + value) % 4
    elif edit == "add":
        members = np.append(members, np.uint64(spare[group][0]))
        nodes = np.append(nodes, np.uint32(value))
    elif edit == "empty":
        removed = tuple(members.tolist())
        members, nodes = members[:0], nodes[:0]
    return group, members, nodes, removed


def two_replicas(setsep):
    """Two copies of ``setsep``, each counting into its own registry."""
    pair = []
    for _ in range(2):
        replica, registry = setsep.copy(), MetricsRegistry()
        replica.bind_registry(registry)
        pair.append((replica, registry))
    return pair


def same_state(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a.state(), b.state())) and (
        sorted(a.fallback.items()) == sorted(b.fallback.items())
    )


class TestRebuildGroups:
    """A wave of groups recomputed in one pass equals one rebuild each."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_wave_equals_one_rebuild_per_job_in_order(self, tight, data):
        setsep, keys, values, spare = tight
        groups = data.draw(st.lists(
            st.integers(0, setsep.num_groups - 1),
            min_size=1, max_size=8, unique=True,
        ))
        jobs = [
            group_job(
                setsep, keys, values, group,
                data.draw(st.sampled_from(
                    ["same", "drop", "revalue", "add", "empty"]
                )),
                spare, data.draw(st.integers(1, 3)),
            )
            for group in groups
        ]
        (wave, counted), (single, expected) = two_replicas(setsep)
        deltas = wave.rebuild_groups(jobs)
        assert deltas == [reference_rebuild(single, *job) for job in jobs]
        assert same_state(wave, single)
        assert counted.counters() == expected.counters()

    def test_every_kind_of_group_in_one_wave(self, tight):
        """Kept, searched, spilled, separated again and empty, together."""
        setsep, keys, values, spare = tight
        failed = np.flatnonzero(setsep.failed_groups).tolist()
        separated = np.flatnonzero(~setsep.failed_groups).tolist()
        # A failed group that separates once a few of its keys are gone.
        member = setsep.groups_of(keys) == failed[0]
        members, nodes = keys[member], values[member]
        while group_search.search_group(
            *base_hashes(members), nodes, TIGHT
        ) is None:
            members, nodes = members[:-1], nodes[:-1]
        jobs = [
            group_job(setsep, keys, values, separated[0], "same", spare),
            group_job(setsep, keys, values, separated[1], "empty", spare),
            (failed[0], members, nodes, ()),
            group_job(setsep, keys, values, failed[1], "same", spare),
        ] + [
            group_job(setsep, keys, values, group, "revalue", spare)
            for group in separated[2:12]
        ]
        (wave, counted), (single, expected) = two_replicas(setsep)
        deltas = wave.rebuild_groups(jobs)
        assert deltas == [reference_rebuild(single, *job) for job in jobs]
        assert same_state(wave, single)
        counters = counted.counters()
        assert counters == expected.counters()
        assert counters["setsep.incumbent_bits_kept"] > 0
        assert counters["setsep.bits_searched"] > 2  # not only the spills
        assert counters["setsep.group_rebuild_failures"] == sum(
            delta.failed for delta in deltas
        )
        assert deltas[1].indices == (0, 0) and not deltas[1].fallback_upserts
        assert not deltas[2].failed and set(members.tolist()) <= set(
            deltas[2].fallback_removals
        )
        assert deltas[3].failed

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({0: -1}, "group id -1 out of range"),
            ({0: "num_groups"}, "out of range"),
            ({2: 4}, "position 2 holds 4"),
            ({0: "repeat"}, "named twice"),
        ],
    )
    def test_bad_input_refused_before_anything_moves(self, tight, bad, message):
        """The second job is bad: the first is not applied either."""
        setsep, keys, values, spare = tight
        (replica, registry), _ = two_replicas(setsep)
        groups = np.flatnonzero(~setsep.failed_groups)[:3].tolist()
        jobs = [
            group_job(setsep, keys, values, group, "revalue", spare)
            for group in groups
        ]
        (where, what), = bad.items()
        group, members, nodes, removed = jobs[1]
        if what == "repeat":
            group = groups[0]
        elif what == "num_groups":
            group = setsep.num_groups
        elif where == 0:
            group = what
        else:
            nodes = nodes.astype(np.int64)
            nodes[where] = what
        jobs[1] = (group, members, nodes, removed)
        before = [a.copy() for a in replica.state()]
        with pytest.raises(ValueError, match=message):
            replica.rebuild_groups(jobs)
        assert all(np.array_equal(a, b) for a, b in zip(replica.state(), before))
        assert sorted(replica.fallback.items()) == sorted(setsep.fallback.items())
        assert not any(registry.counters().values())


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
