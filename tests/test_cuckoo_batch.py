"""Tests for the vectorised cuckoo batch lookup."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import hashfamily
from repro.hashtables import (
    ChainingHashTable,
    CuckooHashTable,
    RteHashTable,
)
from tests.conftest import row_selections, unique_keys


@pytest.fixture(scope="module")
def loaded_table():
    n = 5_000
    keys = unique_keys(n, seed=1100)
    table = CuckooHashTable(capacity=n)
    for i, key in enumerate(keys):
        table.insert(int(key), i)
    return table, keys


class TestBatchLookup:
    def test_matches_scalar_lookup(self, loaded_table):
        table, keys = loaded_table
        out = table.lookup_batch(keys[:500])
        assert out == [table.lookup(int(k)) for k in keys[:500]]

    def test_all_present_correct(self, loaded_table):
        table, keys = loaded_table
        out = table.lookup_batch(keys)
        assert out == list(range(len(keys)))

    def test_absent_keys_are_none(self, loaded_table):
        table, _ = loaded_table
        absent = unique_keys(200, seed=1101, low=2**62, high=2**63)
        assert table.lookup_batch(absent) == [None] * 200

    def test_mixed_batch(self, loaded_table):
        table, keys = loaded_table
        absent = unique_keys(5, seed=1102, low=2**62, high=2**63)
        mixed = list(keys[:5]) + [int(a) for a in absent]
        out = table.lookup_batch(mixed)
        assert out[:5] == list(range(5))
        assert out[5:] == [None] * 5

    def test_empty_batch(self, loaded_table):
        table, _ = loaded_table
        assert table.lookup_batch([]) == []
        assert table.lookup_batch(np.zeros(0, dtype=np.uint64)) == []

    def test_batch_after_deletes(self, loaded_table):
        n = 600
        keys = unique_keys(n, seed=1103)
        table = CuckooHashTable(capacity=n)
        for i, key in enumerate(keys):
            table.insert(int(key), i)
        for key in keys[::2]:
            table.delete(int(key))
        out = table.lookup_batch(keys)
        for i, value in enumerate(out):
            assert value == (None if i % 2 == 0 else i)

    def test_batch_with_string_keys(self):
        table = CuckooHashTable(capacity=32)
        table.insert("alpha", 1)
        table.insert("beta", 2)
        assert table.lookup_batch(["alpha", "beta", "gamma"]) == [1, 2, None]

    def test_lookup_batch_accepts_numpy_arrays(self, loaded_table):
        table, keys = loaded_table
        assert table.lookup_batch(np.asarray(keys[:64], dtype=np.uint64)) == [
            table.lookup(int(k)) for k in keys[:64]
        ]

    def test_faster_than_scalar(self, loaded_table):
        import time

        table, keys = loaded_table
        started = time.perf_counter()
        table.lookup_batch(keys)
        batched = time.perf_counter() - started
        started = time.perf_counter()
        for key in keys[:500]:
            table.lookup(int(key))
        scalar = (time.perf_counter() - started) * (len(keys) / 500)
        assert batched < scalar  # the point of the fast path


class TestBatchLookupArray:
    """The array-native path: ``(found, values)`` NumPy pairs."""

    @pytest.mark.parametrize("table_cls", [CuckooHashTable, RteHashTable])
    def test_matches_list_batch(self, table_cls):
        n = 2_000
        keys = unique_keys(n, seed=1200)
        table = table_cls(capacity=n)
        for i, key in enumerate(keys):
            table.insert(int(key), i)
        probe = np.concatenate(
            [keys[: n // 2], unique_keys(300, seed=1201, low=2**62, high=2**63)]
        )
        found, values = table.lookup_batch_array(probe)
        assert found.dtype == np.bool_ and values.dtype == np.int64
        reference = table.lookup_batch(probe)
        for i, ref in enumerate(reference):
            if ref is None:
                assert not found[i] and values[i] == -1
            else:
                assert found[i] and values[i] == ref

    @pytest.mark.parametrize("table_cls", [CuckooHashTable, RteHashTable])
    def test_custom_missing_sentinel(self, table_cls):
        table = table_cls(capacity=64)
        table.insert(17, 5)
        found, values = table.lookup_batch_array(
            np.array([17, 404], dtype=np.uint64), missing=-7
        )
        assert found.tolist() == [True, False]
        assert values.tolist() == [5, -7]

    @pytest.mark.parametrize("table_cls", [CuckooHashTable, RteHashTable])
    def test_empty_batch(self, table_cls):
        table = table_cls(capacity=64)
        found, values = table.lookup_batch_array(np.zeros(0, dtype=np.uint64))
        assert found.size == 0 and values.size == 0

    @pytest.mark.parametrize("table_cls", [CuckooHashTable, RteHashTable])
    def test_non_integer_values_raise(self, table_cls):
        table = table_cls(capacity=64)
        table.insert(1, ("node", 3))
        with pytest.raises(TypeError, match="non-integer"):
            table.lookup_batch_array(np.array([1], dtype=np.uint64))

    @pytest.mark.parametrize(
        "table_cls", [CuckooHashTable, RteHashTable, ChainingHashTable]
    )
    @pytest.mark.parametrize(
        "make_batch, row, key",
        [
            (lambda: [-1], 0, -1),
            (lambda: [2**70], 0, 2**70),
            (lambda: [17, 2**64 - 1, 2**64, -1], 2, 2**64),
            (lambda: np.array([17, 3, -5], dtype=np.int64), 2, -5),
            (lambda: iter([17, -2]), 1, -2),
        ],
    )
    def test_out_of_range_keys_refused(self, table_cls, make_batch, row, key):
        """An integer key outside [0, 2**64) is refused, not a miss."""
        table = table_cls(64)  # capacity, or chaining's bucket count
        table.insert(17, 5)
        with pytest.raises(ValueError, match=rf"^row {row}: key {key} "):
            table.lookup_batch_array(make_batch())

    @pytest.mark.parametrize(
        "table_cls", [CuckooHashTable, RteHashTable, ChainingHashTable]
    )
    @pytest.mark.parametrize("op", ["insert", "delete", "lookup"])
    @pytest.mark.parametrize(
        "key", [2**64 + 5, -1, 2**70, -(2**64) + 5, np.int64(-3)],
        ids=["2**64+5", "-1", "2**70", "-(2**64)+5", "int64(-3)"],
    )
    def test_scalar_ops_refuse_out_of_range_keys(self, table_cls, op, key):
        """A scalar op refuses an integer key outside [0, 2**64) as the
        batch ops do: it used to alias key mod 2**64 (``insert(2**64 +
        5, 9)`` overwrote key 5, ``lookup(-1)`` read key 2**64 - 1)."""
        table = table_cls(64)  # capacity, or chaining's bucket count
        table.insert(5, 1)
        table.insert(2**64 - 1, 2)
        table.insert(2**64 - 3, 3)
        args = (key, 9) if op == "insert" else (key,)
        with pytest.raises(ValueError, match=r"outside \[0, 2\*\*64\)"):
            getattr(table, op)(*args)
        assert len(table) == 3
        assert [table.lookup(k) for k in (5, 2**64 - 1, 2**64 - 3)] == [
            1, 2, 3,
        ]

    @pytest.mark.parametrize(
        "table_cls", [CuckooHashTable, RteHashTable, ChainingHashTable]
    )
    def test_scalar_ops_take_in_range_numpy_and_digested_keys(
        self, table_cls
    ):
        table = table_cls(64)
        table.insert(np.uint64(2**64 - 1), 1)
        table.insert(np.int64(7), 2)
        table.insert(b"flow", 3)
        assert table.lookup(2**64 - 1) == 1
        assert table.lookup(np.uint64(7)) == 2
        assert table.lookup("flow") == 3
        assert table.delete(np.uint64(2**64 - 1))
        assert len(table) == 2

    @pytest.mark.parametrize("table_cls", [CuckooHashTable, RteHashTable])
    def test_in_range_edges_and_digested_keys_pass(self, table_cls):
        table = table_cls(capacity=64)
        table.insert(0, 1)
        table.insert(2**64 - 1, 2)
        table.insert("flow", 3)
        found, values = table.lookup_batch_array([0, 2**64 - 1, "flow", 9])
        assert found.tolist() == [True, True, True, False]
        assert values.tolist() == [1, 2, 3, -1]

    def test_chaining_uses_interface_fallback(self):
        table = ChainingHashTable(num_buckets=256)
        for i in range(100):
            table.insert(i + 1, i * 3)
        probe = np.arange(1, 151, dtype=np.uint64)
        found, values = table.lookup_batch_array(probe)
        assert found[:100].all() and not found[100:].any()
        assert values[:100].tolist() == [i * 3 for i in range(100)]
        assert (values[100:] == -1).all()

    def test_cuckoo_sidecar_survives_mutation(self):
        """Deletes, overwrites and cuckoo displacement keep the int sidecar
        consistent with the authoritative value list."""
        n = 1_500
        keys = unique_keys(n, seed=1202)
        table = CuckooHashTable(capacity=n)
        for i, key in enumerate(keys):
            table.insert(int(key), i)
        for key in keys[::3]:
            table.delete(int(key))
        for j, key in enumerate(keys[1::3]):
            table.insert(int(key), 10_000 + j)  # overwrite in place
        found, values = table.lookup_batch_array(keys)
        for i in range(n):
            expected = table.lookup(int(keys[i]))
            if expected is None:
                assert not found[i]
            else:
                assert found[i] and values[i] == expected


class TestPrehashedBatch:
    """One pre-hashed batch serves tables of any geometry and kind: the
    columns are the key's alone, each table masks them onto itself."""

    @pytest.fixture(scope="class")
    def tables(self):
        keys = unique_keys(600, seed=1300)
        built = {
            "cuckoo-small": CuckooHashTable(capacity=600),
            "cuckoo-large": CuckooHashTable(capacity=20_000),
            "rtehash": RteHashTable(capacity=600),
            "chaining": ChainingHashTable(num_buckets=128),
        }
        assert (
            built["cuckoo-small"].num_buckets
            != built["cuckoo-large"].num_buckets
        )
        for table in built.values():
            for i, key in enumerate(keys.tolist()):
                table.insert(key, i)
        absent = unique_keys(600, seed=1301, low=2**62, high=2**63)
        return built, np.concatenate([keys, absent])

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_selection_of_a_prehashed_batch_equals_raw_keys(
        self, tables, data
    ):
        built, probe = tables
        sample = probe[data.draw(row_selections(len(probe)))][:48]
        rows = data.draw(row_selections(len(sample)))
        hashed = hashfamily.prehash(sample)
        early = hashed[rows]             # hashes its own rows when asked
        hashed.fib
        for name, table in built.items():
            found, values = table.lookup_batch_array(sample[rows])
            listed = table.lookup_batch(sample[rows])
            for batch in (early, hashed[rows]):
                pre_found, pre_values = table.lookup_batch_array(batch)
                assert pre_found.tolist() == found.tolist(), name
                assert pre_values.tolist() == values.tolist(), name
                assert table.lookup_batch(batch) == listed, name
            assert listed == [
                table.lookup(key) for key in sample[rows].tolist()
            ], name

    @pytest.mark.parametrize("n", [1, 2, 300])
    def test_lookup_needs_no_silenced_overflow(self, tables, n):
        built, probe = tables
        keys = np.concatenate([probe[: n - n // 2], probe[600: 600 + n // 2]])
        for name, table in built.items():
            with np.errstate(all="raise"):
                found, values = table.lookup_batch_array(
                    hashfamily.prehash(keys)
                )
            assert found.tolist() == [True] * (n - n // 2) + [False] * (
                n // 2
            ), name


class TestSlotsWhereTheKernelBranches:
    """``lookup_slots`` against the scalar ``_find`` on a table that
    holds every case the batched probe tells apart: keys relocated to
    their alternate bucket, deleted slots, key 0 (an empty slot's key is
    0 too), absent keys, and a one-bucket table whose alternate bucket is
    its primary."""

    @pytest.fixture(scope="class")
    def churned(self):
        n = 3_000
        keys = unique_keys(n, seed=1400)
        table = CuckooHashTable(capacity=n)
        for i, key in enumerate(keys.tolist()):
            table.insert(key, i)
        table.insert(0, -5)
        for key in keys[::7].tolist():
            table.delete(key)
        absent = unique_keys(500, seed=1401, low=2**62, high=2**63)
        return table, np.concatenate([keys, [0], absent]).astype(np.uint64)

    def test_the_table_holds_every_branch(self, churned):
        table, probe = churned
        assert table.relocations > 0
        deleted = [
            key for key in probe[:3_000:7].tolist()
            if table.lookup(key) is None
        ]
        assert len(deleted) == len(probe[:3_000:7])
        in_alternate = 0
        for key in probe[:3_000].tolist():
            _, slot, first, _ = table._find(key)
            b1 = first // 4
            b2 = table._alt_bucket(b1, key)
            if slot >= 0 and b1 != b2 and slot // 4 == b2:
                in_alternate += 1
        assert in_alternate > 0
        assert table.lookup(0) == -5

    @pytest.mark.parametrize("prehashed", [False, True])
    def test_every_slot_equals_the_scalar_slot(self, churned, prehashed):
        table, probe = churned
        keys = hashfamily.prehash(probe) if prehashed else probe
        slots = table.lookup_slots(keys)
        expected = [table._find(key)[1] for key in probe.tolist()]
        assert slots.dtype == np.int64
        assert slots.tolist() == expected
        found, values = table.lookup_batch_array(keys)
        assert found.tolist() == [slot >= 0 for slot in expected]
        assert values.tolist() == [
            -1 if v is None else v
            for v in (table.lookup(key) for key in probe.tolist())
        ]

    def test_absent_key_zero_misses_the_empty_slots(self):
        table = CuckooHashTable(capacity=64)
        table.insert(5, 1)
        assert table.lookup_slots(np.array([0, 5], dtype=np.uint64))[0] == -1

    def test_one_bucket_table_probes_its_bucket_twice(self):
        table = CuckooHashTable(capacity=2)
        assert table.num_buckets == 1
        for key in (3, 0, 11):
            table.insert(key, key + 100)
        table.delete(3)
        probe = np.array([0, 3, 11, 12], dtype=np.uint64)
        assert table.lookup_slots(probe).tolist() == [
            table._find(k)[1] for k in probe.tolist()
        ]
        found, values = table.lookup_batch_array(probe)
        assert found.tolist() == [True, False, True, False]
        assert values.tolist() == [100, -1, 111, -1]
