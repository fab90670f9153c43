"""Tests for the SetSep hash family (repro.core.hashfamily)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import hashfamily as hf
from repro.core import twolevel
from tests.conftest import row_selections


class TestCanonicalKey:
    def test_int_passthrough(self):
        assert hf.canonical_key(42) == 42

    def test_int_wraps_mod_64(self):
        assert hf.canonical_key(2**64 + 5) == 5

    def test_negative_int_wraps(self):
        assert hf.canonical_key(-1) == 2**64 - 1

    def test_str_and_bytes_agree(self):
        assert hf.canonical_key("flow-1") == hf.canonical_key(b"flow-1")

    def test_distinct_strings_distinct_keys(self):
        assert hf.canonical_key("a") != hf.canonical_key("b")

    def test_deterministic(self):
        assert hf.canonical_key(b"\x01\x02") == hf.canonical_key(b"\x01\x02")

    def test_byte_inputs_are_blake2b_64_little_endian(self):
        blob = bytes(range(13))
        expected = int.from_bytes(
            hashlib.blake2b(blob, digest_size=8).digest(), "little"
        )
        assert hf.canonical_key(blob) == expected
        assert hf.canonical_key(bytearray(blob)) == expected
        assert hf.canonical_key(memoryview(blob)) == expected
        assert hf.canonical_key(memoryview(blob * 2)[13:]) == expected
        assert hf.canonical_key("flow") == int.from_bytes(
            hashlib.blake2b(b"flow", digest_size=8).digest(), "little"
        )

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            hf.canonical_key(3.14)

    def test_vector_matches_scalar(self):
        keys = [7, "x", b"y"]
        vec = hf.canonical_keys(keys)
        assert vec.dtype == np.uint64
        assert list(vec) == [hf.canonical_key(k) for k in keys]

    def test_uint64_array_passthrough(self):
        arr = np.array([1, 2, 3], dtype=np.uint64)
        assert hf.canonical_keys(arr) is arr


class TestSplitmix:
    def test_deterministic(self):
        x = np.arange(100, dtype=np.uint64)
        assert np.array_equal(hf.splitmix64(x), hf.splitmix64(x))

    def test_injective_on_sample(self):
        x = np.arange(100_000, dtype=np.uint64)
        assert len(np.unique(hf.splitmix64(x))) == len(x)

    def test_avalanche_bits_roughly_half(self):
        x = np.arange(10_000, dtype=np.uint64)
        mixed = hf.splitmix64(x)
        ones = sum(bin(int(v)).count("1") for v in mixed) / (64 * len(x))
        assert 0.45 < ones < 0.55

    def test_does_not_mutate_input(self):
        x = np.array([5], dtype=np.uint64)
        hf.splitmix64(x)
        assert x[0] == 5


class TestBaseHashes:
    def test_g2_always_odd(self):
        keys = np.arange(1, 5001, dtype=np.uint64)
        _, g2 = hf.base_hashes(keys)
        assert bool(np.all(g2 & np.uint64(1)))

    def test_g1_g2_differ(self):
        keys = np.arange(1, 1001, dtype=np.uint64)
        g1, g2 = hf.base_hashes(keys)
        assert not np.array_equal(g1, g2)

    def test_family_index_zero_is_g1(self):
        keys = np.arange(1, 100, dtype=np.uint64)
        g1, g2 = hf.base_hashes(keys)
        assert np.array_equal(hf.family_values(g1, g2, 0), g1)

    def test_family_iteration_is_linear(self):
        keys = np.arange(1, 100, dtype=np.uint64)
        g1, g2 = hf.base_hashes(keys)
        with np.errstate(over="ignore"):
            expected = g1 + np.uint64(7) * g2
        assert np.array_equal(hf.family_values(g1, g2, 7), expected)


class TestPositions:
    @pytest.mark.parametrize("m", [1, 2, 7, 8, 16, 30, 32])
    def test_range(self, m):
        hashes = hf.splitmix64(np.arange(10_000, dtype=np.uint64))
        pos = hf.positions(hashes, m)
        assert pos.min() >= 0
        assert pos.max() < m

    def test_roughly_uniform(self):
        hashes = hf.splitmix64(np.arange(80_000, dtype=np.uint64))
        counts = np.bincount(hf.positions(hashes, 8), minlength=8)
        assert counts.min() > 0.8 * counts.mean()

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            hf.positions(np.zeros(1, dtype=np.uint64), 0)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_keys=st.integers(0, 20),
        m=st.sampled_from([1, 5, 8, 12, 32, 64]),
        max_index=st.integers(1, 600),
        chunk=st.sampled_from([1, 7, 256, 1000]),
    )
    def test_chunk_slots_matches_scalar_path(
        self, seed, n_keys, m, max_index, chunk
    ):
        """Every index of every chunk, the short last one included, and
        the scan's narrow masks chunk for chunk."""
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, 2**64, size=n_keys, dtype=np.uint64)
        g1, g2 = hf.base_hashes(keys)
        narrow = {1: np.uint8, 5: np.uint8, 8: np.uint8, 12: np.uint16,
                  32: np.uint32, 64: np.uint64}[m]
        scan = list(hf.scan_masks(g1, g2, m, chunk, max_index))
        assert [start for start, _ in scan] == list(range(0, max_index, chunk))
        for start, masks in scan:
            count = min(chunk, max_index - start)
            slots = hf.chunk_slots(g1, g2, start, count, m)
            assert slots.shape == masks.shape == (n_keys, count)
            assert slots.dtype == np.uint64 and masks.dtype == narrow
            for col in range(count):
                expected = hf.positions(
                    hf.family_values(g1, g2, start + col), m
                )
                assert slots[:, col].tolist() == expected.tolist()
                assert masks[:, col].tolist() == [
                    1 << slot for slot in expected.tolist()
                ]

    @pytest.mark.parametrize("k", range(7))
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_keys=st.integers(0, 20),
        start=st.integers(0, 2**16),
        count=st.integers(1, 40),
    )
    def test_power_of_two_one_shift_equals_multiply_shift(
        self, k, seed, n_keys, start, count
    ):
        """``m = 2**k`` takes one shift; it must equal the three-step
        reduction in the chunk form and in the per-key-row (lookup) form,
        ``m = 1`` (a shift by 64) included."""
        m = 1 << k
        rng = np.random.default_rng(seed)
        g1, g2 = hf.base_hashes(
            rng.integers(0, 2**64, size=n_keys, dtype=np.uint64)
        )
        slots = hf.chunk_slots(g1, g2, start, count, m)
        rows = rng.integers(0, 2**16, size=(n_keys, count), dtype=np.uint16)
        lookup = hf.index_slots(g1, g2, rows, m)
        for col in range(count):
            expected = hf.positions(hf.family_values(g1, g2, start + col), m)
            assert slots[:, col].tolist() == expected.tolist()
        for j in range(n_keys):
            for col, index in enumerate(rows[j].tolist()):
                expected = hf.positions(
                    hf.family_values(g1[j : j + 1], g2[j : j + 1], index), m
                )
                assert int(lookup[j, col]) == int(expected[0])

    def test_scan_masks_invalid_m(self):
        g = np.ones(1, dtype=np.uint64)
        for m in (0, 65):
            with pytest.raises(ValueError):
                next(hf.scan_masks(g, g, m, 4, 8))

    def test_chunk_slots_invalid_m(self):
        g = np.ones(1, dtype=np.uint64)
        with pytest.raises(ValueError):
            hf.chunk_slots(g, g, 0, 4, 0)


class TestDerivedStreams:
    def test_streams_differ(self):
        keys = np.arange(1, 1001, dtype=np.uint64)
        assert not np.array_equal(hf.bucket_hash(keys), hf.fib_hash(keys))
        assert not np.array_equal(hf.fib_hash(keys), hf.tag_hash(keys))

    def test_reduce_range_bounds(self):
        hashes = hf.splitmix64(np.arange(10_000, dtype=np.uint64))
        reduced = hf.reduce_range(hashes, 13)
        assert reduced.min() >= 0
        assert reduced.max() < 13

    def test_reduce_range_invalid(self):
        with pytest.raises(ValueError):
            hf.reduce_range(np.zeros(1, dtype=np.uint64), 0)

    def test_derive_stream_deterministic_and_distinct(self):
        assert hf.derive_stream("a") == hf.derive_stream("a")
        assert hf.derive_stream("a") != hf.derive_stream("b")

    def test_keyed_hash_varies_with_stream(self):
        keys = np.arange(1, 101, dtype=np.uint64)
        a = hf.keyed_hash(keys, hf.derive_stream("s1"))
        b = hf.keyed_hash(keys, hf.derive_stream("s2"))
        assert not np.array_equal(a, b)


class TestScalarTwins:
    """The plain-int hashes of the single-key update path must be the
    vectorised ones, value for value."""

    @given(key=st.integers(0, 2**64 - 1), n=st.integers(1, 2**24))
    @settings(max_examples=200, deadline=None)
    def test_int_hashes_equal_vectorised(self, key, n):
        arr = np.asarray([key], dtype=np.uint64)
        assert hf.splitmix64_int(key) == int(hf.splitmix64(arr)[0])
        assert hf.bucket_hash_int(key) == int(hf.bucket_hash(arr)[0])
        assert hf.fib_hash_int(key) == int(hf.fib_hash(arr)[0])
        assert hf.tag_hash_int(key) == int(hf.tag_hash(arr)[0])
        hashed = hf.splitmix64(arr)
        assert hf.reduce_range_int(int(hashed[0]), n) == int(
            hf.reduce_range(hashed, n)[0]
        )

    @given(key=st.integers(0, 2**64 - 1), num_blocks=st.integers(1, 5000))
    @settings(max_examples=200, deadline=None)
    def test_bucket_id_equals_bucket_ids(self, key, num_blocks):
        arr = np.asarray([key], dtype=np.uint64)
        assert twolevel.bucket_id(key, num_blocks) == int(
            twolevel.bucket_ids(arr, num_blocks)[0]
        )


def parent_base_hashes(keys):
    """``base_hashes`` as it was before the stacked pass: two separate
    mixer calls over the G1 and G2 streams, the second forced odd."""
    keys = np.asarray(keys, dtype=np.uint64)
    g1 = hf.splitmix64(keys ^ np.uint64(0x9E3779B97F4A7C15))
    g2 = hf.splitmix64(keys ^ np.uint64(0xC2B2AE3D27D4EB4F)) | np.uint64(1)
    return g1, g2


mixed_keys = st.lists(
    st.one_of(
        st.integers(0, 2**64 - 1),
        st.binary(max_size=12),
        st.text(max_size=8),
    ),
    max_size=40,
)


class TestHashedKeys:
    """The pre-hashed batch: columns equal the scalar twins, whichever
    way the batch was built, sliced or ordered."""

    @given(keys=mixed_keys)
    @settings(max_examples=100, deadline=None)
    def test_columns_equal_the_scalar_twins(self, keys):
        batch = hf.prehash(keys)
        ckeys = [hf.canonical_key(k) for k in keys]
        assert hf.canonical_keys(batch) is batch.keys
        assert len(batch) == len(keys) and batch.keys.tolist() == ckeys
        bucket, g1, g2 = batch.separator.tolist()
        fib, alt = batch.fib.tolist()
        tag_mask = (1 << hf.TAG_BITS) - 1
        for j, key in enumerate(ckeys):
            assert bucket[j] == hf.bucket_hash_int(key)
            assert g1[j] == hf.splitmix64_int(key ^ 0x9E3779B97F4A7C15)
            assert g2[j] == hf.splitmix64_int(key ^ 0xC2B2AE3D27D4EB4F) | 1
            assert hf.separator_int(key) == [bucket[j], g1[j], g2[j]]
            assert fib[j] == hf.fib_hash_int(key)
            tag = hf.tag_hash_int(key) & tag_mask or 1
            assert alt[j] == hf.tag_hash_int(tag)
        assert hf.bucket_hash(batch).tolist() == bucket

    @given(keys=mixed_keys)
    @settings(max_examples=100, deadline=None)
    def test_base_hashes_are_the_parents_bit_for_bit(self, keys):
        ckeys = hf.canonical_keys(keys)
        for ours, theirs in zip(
            hf.base_hashes(ckeys), parent_base_hashes(ckeys)
        ):
            assert ours.dtype == theirs.dtype == np.uint64
            assert ours.tolist() == theirs.tolist()

    def test_a_zero_tag_becomes_one(self):
        # Keys whose tag stream ends in sixteen zero bits do exist; find
        # a few so the non-zero rule is exercised, not assumed.
        keys = np.arange(1, 400_000, dtype=np.uint64)
        zero = keys[(hf.tag_hash(keys) & np.uint64(0xFFFF)) == 0]
        assert zero.size
        assert hf.prehash(zero).fib[1].tolist() == [hf.tag_hash_int(1)] * len(
            zero
        )

    @given(
        keys=st.lists(st.integers(0, 2**64 - 1), max_size=30),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_selection_carries_or_recomputes_the_same_columns(
        self, keys, data
    ):
        n = len(keys)
        rows = data.draw(row_selections(n))
        arr = np.array(keys, dtype=np.uint64)
        fresh = hf.prehash(arr[rows])
        hashed = hf.prehash(arr)
        before = hashed[rows]            # taken before anything is hashed
        assert before._separator is None and before._fib is None
        hashed.separator, hashed.fib
        after = hashed[rows]             # carries the parent's columns
        assert after._separator is not None and after._fib is not None
        for batch in (before, after):
            assert len(batch) == len(fresh)
            assert batch.keys.tolist() == fresh.keys.tolist()
            assert batch.separator.tolist() == fresh.separator.tolist()
            assert batch.fib.tolist() == fresh.fib.tolist()
        # The parent never paid for a slice's own pass, nor the reverse.
        assert hashed.separator.shape == (3, n) and hashed.fib.shape == (2, n)

    def test_a_consumer_pays_for_its_own_set_only(self):
        batch = hf.prehash(np.arange(10, dtype=np.uint64))
        batch.separator
        assert batch._fib is None
        batch = hf.prehash(batch.keys)
        batch.fib
        assert batch._separator is None
        assert hf.prehash(batch) is batch

    @pytest.mark.parametrize("n", [1, 2, 300])
    def test_no_step_relies_on_a_silenced_overflow(self, n):
        keys = np.arange(2**64 - n, 2**64, dtype=np.uint64)
        with np.errstate(all="raise"):
            batch = hf.prehash(keys)
            batch.separator, batch.fib
            hf.base_hashes(keys)
            hf.index_slots(*batch.separator[1:], np.arange(9), 8)
            hf.reduce_range(hf.bucket_hash(batch), 1 << 20)
