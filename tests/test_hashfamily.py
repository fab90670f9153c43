"""Tests for the SetSep hash family (repro.core.hashfamily)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import hashfamily as hf
from repro.core import twolevel


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
        """Every index of every chunk, the short last one included."""
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, 2**64, size=n_keys, dtype=np.uint64)
        g1, g2 = hf.base_hashes(keys)
        for start in range(0, max_index, chunk):
            count = min(chunk, max_index - start)
            slots = hf.chunk_slots(g1, g2, start, count, m)
            masks = hf.chunk_masks(g1, g2, start, count, m)
            assert slots.shape == masks.shape == (n_keys, count)
            assert slots.dtype == masks.dtype == np.uint64
            for col in range(count):
                expected = hf.positions(
                    hf.family_values(g1, g2, start + col), m
                )
                assert slots[:, col].tolist() == expected.tolist()
                assert masks[:, col].tolist() == [
                    1 << slot for slot in expected.tolist()
                ]

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
