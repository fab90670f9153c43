"""Tests for the extended cuckoo FIB (repro.hashtables.cuckoo)."""

from collections import deque

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import hashfamily
from repro.hashtables import CuckooHashTable, TableFullError
from tests.conftest import unique_keys


class TestBasicOperations:
    def test_insert_lookup(self):
        table = CuckooHashTable(capacity=100)
        table.insert(42, "value")
        assert table.lookup(42) == "value"
        assert len(table) == 1

    def test_missing_key(self):
        table = CuckooHashTable(capacity=100)
        assert table.lookup(42) is None
        assert 42 not in table

    def test_overwrite_keeps_length(self):
        table = CuckooHashTable(capacity=100)
        table.insert(1, "a")
        table.insert(1, "b")
        assert table.lookup(1) == "b"
        assert len(table) == 1

    def test_delete(self):
        table = CuckooHashTable(capacity=100)
        table.insert(1, "a")
        assert table.delete(1)
        assert table.lookup(1) is None
        assert len(table) == 0

    def test_delete_absent(self):
        assert not CuckooHashTable(capacity=10).delete(7)

    def test_string_and_bytes_keys(self):
        table = CuckooHashTable(capacity=10)
        table.insert("flow", 1)
        table.insert(b"flow2", 2)
        assert table.lookup("flow") == 1
        assert table.lookup(b"flow2") == 2

    def test_contains(self):
        table = CuckooHashTable(capacity=10)
        table.insert(6, 0)
        assert 6 in table
        assert 7 not in table

    def test_insert_many_and_batch_lookup(self):
        table = CuckooHashTable(capacity=100)
        table.insert_many(range(1, 50), [i * 10 for i in range(1, 50)])
        out = table.lookup_batch(list(range(1, 50)))
        assert out == [i * 10 for i in range(1, 50)]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            CuckooHashTable(capacity=0)

    def test_invalid_value_size(self):
        with pytest.raises(ValueError):
            CuckooHashTable(capacity=1, value_size=0)


class TestCuckooMechanics:
    def test_high_occupancy_inserts_succeed(self):
        # Capacity chosen so the power-of-two bucket rounding is tight and
        # the table genuinely runs at >90% occupancy.
        n = 3_700
        keys = unique_keys(n, seed=50)
        table = CuckooHashTable(capacity=n)
        for i, key in enumerate(keys):
            table.insert(int(key), i)
        assert len(table) == n
        assert table.load_factor() > 0.85

    def test_relocations_happen_under_load(self):
        n = 6_000
        keys = unique_keys(n, seed=51)
        table = CuckooHashTable(capacity=n)
        for i, key in enumerate(keys):
            table.insert(int(key), i)
        assert table.relocations > 0

    def test_values_follow_relocated_keys(self):
        """The §5.2 extension: moving a key moves its separated value."""
        n = 6_000
        keys = unique_keys(n, seed=52)
        table = CuckooHashTable(capacity=n)
        expected = {}
        for i, key in enumerate(keys):
            table.insert(int(key), ("payload", i))
            expected[int(key)] = ("payload", i)
        assert table.relocations > 0
        for key, value in expected.items():
            assert table.lookup(key) == value

    def test_table_full_raises(self):
        table = CuckooHashTable(capacity=4)
        keys = unique_keys(2_000, seed=53)
        with pytest.raises(TableFullError):
            for i, key in enumerate(keys):
                table.insert(int(key), i)

    def test_alt_bucket_is_involution(self):
        table = CuckooHashTable(capacity=1_000)
        for key in unique_keys(200, seed=54):
            b1 = table._find(int(key))[2] // 4
            b2 = table._alt_bucket(b1, int(key))
            assert table._alt_bucket(b2, int(key)) == b1

    @given(keys=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40,
                         unique=True))
    @settings(max_examples=60, deadline=None)
    def test_scalar_buckets_are_the_vectorised_ones(self, keys):
        # insert/delete hash one key in plain ints, lookup_slots hashes
        # the batch in NumPy: both must name the same two buckets.
        table = CuckooHashTable(capacity=64)
        for i, key in enumerate(keys):
            table.insert(key, i)
        slots = table.lookup_slots(np.asarray(keys, dtype=np.uint64))
        for key, slot in zip(keys, slots.tolist()):
            _, held, first, _ = table._find(key)
            assert slot == held
            b1 = first // 4
            assert slot // 4 in (b1, table._alt_bucket(b1, key))

    def test_num_buckets_power_of_two(self):
        for capacity in (10, 100, 1000, 5000):
            table = CuckooHashTable(capacity=capacity)
            assert table.num_buckets & (table.num_buckets - 1) == 0


class TestSizeAccounting:
    def test_size_scales_with_value_size(self):
        small = CuckooHashTable(capacity=1000, value_size=8)
        large = CuckooHashTable(capacity=1000, value_size=64)
        assert large.size_bytes() > small.size_bytes()

    def test_size_counts_key_and_value_regions(self):
        table = CuckooHashTable(capacity=100, value_size=8)
        slots = table.num_buckets * 4
        assert table.size_bytes() == slots * (8 + 2) + slots * 8


class ReferenceCuckoo:
    """The scalar algorithm as it was written first: NumPy scalar reads
    and writes, one helper per hash round and per bucket scan.  Kept to
    check the table's scalar ops slot for slot."""

    def __init__(self, capacity: int) -> None:
        buckets_needed = max(1, int(capacity / (4 * 0.95)) + 1)
        self.num_buckets = 1 << (buckets_needed - 1).bit_length()
        self.mask = self.num_buckets - 1
        slots = self.num_buckets * 4
        self.keys = np.zeros(slots, dtype=np.uint64)
        self.occupied = np.zeros(slots, dtype=bool)
        self.values = [None] * slots
        self.int_values = np.zeros(slots, dtype=np.int64)
        self.int_ok = np.zeros(slots, dtype=bool)
        self.held_non_int = False
        self.length = 0
        self.relocations = 0

    def _index_pair(self, key):
        primary = hashfamily.fib_hash_int(key) & self.mask
        return primary, self._alt_bucket(primary, self._tag(key))

    @staticmethod
    def _tag(key):
        return hashfamily.tag_hash_int(key) & ((1 << hashfamily.TAG_BITS) - 1) or 1

    def _alt_bucket(self, bucket, tag):
        return bucket ^ hashfamily.tag_hash_int(tag) & self.mask

    @staticmethod
    def _slots_of(bucket):
        return range(bucket * 4, bucket * 4 + 4)

    def _find_slot(self, ckey, b1, b2):
        for bucket in (b1, b2):
            for slot in self._slots_of(bucket):
                if self.occupied[slot] and int(self.keys[slot]) == ckey:
                    return slot
        return None

    def _empty_slot(self, bucket):
        for slot in self._slots_of(bucket):
            if not self.occupied[slot]:
                return slot
        return None

    def _set_int_value(self, slot, value):
        if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
            self.int_values[slot] = int(value)
            self.int_ok[slot] = True
        else:
            self.int_ok[slot] = False
            self.held_non_int = True

    def _place(self, slot, ckey, value):
        self.keys[slot] = ckey
        self.occupied[slot] = True
        self.values[slot] = value
        self._set_int_value(slot, value)
        self.length += 1

    def insert(self, ckey, value):
        b1, b2 = self._index_pair(ckey)
        slot = self._find_slot(ckey, b1, b2)
        if slot is not None:
            self.values[slot] = value
            self._set_int_value(slot, value)
            return
        for bucket in (b1, b2):
            slot = self._empty_slot(bucket)
            if slot is not None:
                self._place(slot, ckey, value)
                return
        path = self._bfs_path(b1, b2)
        if path is None:
            raise TableFullError("full")
        self._shift_along(path)
        self._place(path[0], ckey, value)

    def delete(self, ckey):
        slot = self._find_slot(ckey, *self._index_pair(ckey))
        if slot is None:
            return False
        self.occupied[slot] = False
        self.keys[slot] = 0
        self.values[slot] = None
        self.int_ok[slot] = False
        self.length -= 1
        return True

    def _bfs_path(self, b1, b2):
        queue = deque()
        visited = {b1, b2}
        for bucket in (b1, b2):
            for slot in self._slots_of(bucket):
                queue.append((slot, (slot,)))
        steps = 0
        while queue and steps < 4096:
            steps += 1
            slot, path = queue.popleft()
            if not self.occupied[slot]:
                return list(path)
            if len(path) > 4:
                continue
            alt = self._alt_bucket(slot // 4, self._tag(int(self.keys[slot])))
            if alt in visited:
                continue
            visited.add(alt)
            for nxt in self._slots_of(alt):
                queue.append((nxt, path + (nxt,)))
        return None

    def _shift_along(self, path):
        for i in range(len(path) - 1, 0, -1):
            src, dst = path[i - 1], path[i]
            self.keys[dst] = self.keys[src]
            self.values[dst] = self.values[src]
            self.int_values[dst] = self.int_values[src]
            self.int_ok[dst] = self.int_ok[src]
            self.occupied[dst] = True
            self.occupied[src] = False
            self.values[src] = None
            self.int_ok[src] = False
            self.relocations += 1


#: Keys a table must take: the ends of the key space, a NumPy ``uint64``
#: and ``int64`` twin of a small key, and byte / text keys (digested).
_EDGE_KEYS = [
    0, 2**64 - 1, 2**63, np.uint64(7), np.int64(7), np.uint64(2**64 - 1),
    b"flow", "flow",
]
#: Integer keys outside ``[0, 2**64)``: refused, never aliased.
_REFUSED_KEYS = [-1, 2**64, 2**64 + 5, np.int64(-3), -(2**64) + 5]

_keys = st.one_of(st.integers(0, 40), st.sampled_from(_EDGE_KEYS))
_values = st.one_of(
    st.integers(-(2**63), 2**63 - 1), st.sampled_from(["a", ("t", 1)]),
    st.booleans(), st.builds(np.int64, st.integers(-5, 5)),
)


class CuckooAgainstReference(RuleBasedStateMachine):
    """The scalar ops against a dict and against :class:`ReferenceCuckoo`:
    after every step the slot arrays, the value store, the relocation
    count and the length are identical."""

    def __init__(self):
        super().__init__()
        self.capacity = 8
        self.table = CuckooHashTable(self.capacity)
        self.reference = ReferenceCuckoo(self.capacity)
        self.model = {}

    @rule(capacity=st.sampled_from([1, 8, 20]))
    def fresh_table(self, capacity):
        self.table = CuckooHashTable(capacity)
        self.reference = ReferenceCuckoo(capacity)
        self.model = {}

    @rule(key=_keys, value=_values)
    def insert(self, key, value):
        ckey = hashfamily.canonical_key(key)
        try:
            self.reference.insert(ckey, value)
        except TableFullError:
            with pytest.raises(TableFullError):
                self.table.insert(key, value)
            return
        self.table.insert(key, value)
        self.model[ckey] = value

    @rule(key=_keys)
    def delete(self, key):
        ckey = hashfamily.canonical_key(key)
        expected = self.reference.delete(ckey)
        assert expected == (ckey in self.model)
        assert self.table.delete(key) is expected
        self.model.pop(ckey, None)

    @rule(key=_keys)
    def lookup(self, key):
        expected = self.model.get(hashfamily.canonical_key(key))
        found = self.table.lookup(key)
        assert type(found) is type(expected) and found == expected

    @rule(key=st.sampled_from(_REFUSED_KEYS), value=_values,
          op=st.sampled_from(["insert", "delete", "lookup", "contains"]))
    def refused_key(self, key, value, op):
        with pytest.raises(ValueError, match=r"outside \[0, 2\*\*64\)"):
            if op == "insert":
                self.table.insert(key, value)
            elif op == "delete":
                self.table.delete(key)
            elif op == "lookup":
                self.table.lookup(key)
            else:
                key in self.table  # noqa: B015 - the test is the raise

    @rule(rows=st.lists(st.tuples(_keys, _values), max_size=12))
    def insert_many(self, rows):
        keys = [key for key, _ in rows]
        values = [value for _, value in rows]
        try:
            for key, value in rows:
                ckey = hashfamily.canonical_key(key)
                self.reference.insert(ckey, value)
                self.model[ckey] = value
        except TableFullError:
            with pytest.raises(TableFullError):
                self.table.insert_many(keys, values)
            return
        self.table.insert_many(keys, values)

    @rule(rows=st.lists(st.tuples(_keys, _values), min_size=1, max_size=4),
          bad=st.sampled_from(_REFUSED_KEYS))
    def insert_many_refused(self, rows, bad):
        keys = [key for key, _ in rows] + [bad]
        with pytest.raises(ValueError):
            self.table.insert_many(keys, [value for _, value in rows] + [0])

    @invariant()
    def same_as_reference(self):
        table, ref = self.table, self.reference
        assert table._keys.tobytes() == ref.keys.tobytes()
        assert table._occupied.tobytes() == ref.occupied.tobytes()
        assert table._int_values.tobytes() == ref.int_values.tobytes()
        assert table._int_ok.tobytes() == ref.int_ok.tobytes()
        assert [(type(v), v) for v in table._values] == [
            (type(v), v) for v in ref.values
        ]
        assert table.relocations == ref.relocations
        assert len(table) == ref.length == len(self.model)


CuckooAgainstReference.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, derandomize=True,
    deadline=None, suppress_health_check=list(HealthCheck),
)
TestCuckooAgainstReference = CuckooAgainstReference.TestCase


class TestScalarValueRange:
    def test_value_beyond_int64_is_refused_before_any_change(self):
        table = CuckooHashTable(capacity=8)
        table.insert(5, 1)
        before = (table._keys.tobytes(), table._occupied.tobytes(),
                  list(table._values), len(table))
        for key in (5, 6):
            with pytest.raises(OverflowError):
                table.insert(key, 2**63)
        assert (table._keys.tobytes(), table._occupied.tobytes(),
                list(table._values), len(table)) == before
        assert table.lookup(5) == 1
