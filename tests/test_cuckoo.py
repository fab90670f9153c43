"""Tests for the extended cuckoo FIB (repro.hashtables.cuckoo)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
            tag = table._tag(int(key))
            b1, b2 = table._index_pair(int(key))
            assert table._alt_bucket(b2, tag) == b1

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
            assert slot == table._find_slot(key, *table._index_pair(key))
            assert slot // 4 in table._index_pair(key)

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
