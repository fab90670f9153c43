"""Tests for SetSep lookup semantics (repro.core.setsep)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SetSepParams, build, hashfamily
from repro.core.params import GROUPS_PER_BLOCK
from tests.conftest import row_selections, unique_keys


class TestLookup:
    def test_scalar_matches_batch(self, built_setsep, small_keys):
        setsep, _ = built_setsep
        batch = setsep.lookup_batch(small_keys[:50])
        for key, expected in zip(small_keys[:50], batch):
            assert setsep.lookup(int(key)) == expected

    def test_unknown_keys_return_valid_values_without_raising(
        self, built_setsep
    ):
        setsep, _ = built_setsep
        unknown = unique_keys(500, seed=99, low=2**62, high=2**63)
        values = setsep.lookup_batch(unknown)
        assert values.min() >= 0
        assert values.max() < 1 << setsep.params.value_bits

    def test_empty_batch(self, built_setsep):
        setsep, _ = built_setsep
        out = setsep.lookup_batch(np.zeros(0, dtype=np.uint64))
        assert out.shape == (0,)

    def test_list_of_python_ints(self, built_setsep, small_keys, small_values):
        setsep, _ = built_setsep
        keys = [int(k) for k in small_keys[:20]]
        assert np.array_equal(
            setsep.lookup_batch(keys), small_values[:20]
        )

    def test_unknown_value_distribution_spreads(self, built_setsep):
        # One-sided errors should be roughly uniform over values, not
        # constant — otherwise misrouted packets would hot-spot one node.
        setsep, _ = built_setsep
        unknown = unique_keys(4_000, seed=77, low=2**62, high=2**63)
        counts = np.bincount(setsep.lookup_batch(unknown), minlength=4)
        assert (counts > 0.1 * counts.mean()).all()


class TestPrehashedLookup:
    """A pre-hashed batch is read, raw keys are hashed: same answers."""

    @pytest.fixture(scope="class")
    def spilled(self):
        """A separator small enough that about half its groups fail into
        the fallback, probed with its own keys and as many unknown ones."""
        keys = unique_keys(900, seed=802)
        values = (keys % 2).astype(np.uint32)
        setsep, stats = build(
            keys, values, SetSepParams(index_bits=8, array_bits=6)
        )
        assert 0 < stats.fallback_keys < len(keys)
        unknown = unique_keys(900, seed=803, low=2**62, high=2**63)
        probe = np.concatenate([keys, unknown])
        return setsep, probe

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_selection_of_a_prehashed_batch_equals_raw_keys(
        self, spilled, data
    ):
        setsep, probe = spilled
        sample = probe[data.draw(row_selections(len(probe)))][:64]
        rows = data.draw(row_selections(len(sample)))
        expected = setsep.lookup_batch(sample[rows])
        groups = setsep.groups_of(sample[rows])
        hashed = hashfamily.prehash(sample)
        early = hashed[rows]             # hashes its own rows when asked
        hashed.separator
        for batch in (early, hashed[rows]):
            values = setsep.lookup_batch(batch)
            assert values.dtype == expected.dtype
            assert values.tolist() == expected.tolist()
            assert setsep.groups_of(batch).tolist() == groups.tolist()

    def test_the_fallback_answers_inside_a_prehashed_batch(self, spilled):
        setsep, probe = spilled
        known = probe[:900]
        failed = setsep.failed_groups[setsep.groups_of(known)]
        assert failed.any() and not failed.all()
        values = setsep.lookup_batch(hashfamily.prehash(known))
        assert values.tolist() == (known % 2).tolist()

    @pytest.mark.parametrize("n", [1, 2, 300])
    def test_lookup_needs_no_silenced_overflow(self, spilled, n):
        setsep, probe = spilled
        with np.errstate(all="raise"):
            raw = setsep.lookup_batch(probe[:n])
            hashed = setsep.lookup_batch(hashfamily.prehash(probe[:n]))
        assert raw.tolist() == hashed.tolist()
        assert raw.tolist() == [setsep.lookup(int(k)) for k in probe[:n]]


class TestStructureProperties:
    def test_group_of_matches_groups_of(self, built_setsep, small_keys):
        setsep, _ = built_setsep
        groups = setsep.groups_of(small_keys[:20])
        for key, group in zip(small_keys[:20], groups):
            assert setsep.group_of(int(key)) == group

    def test_block_of_is_group_block(self, built_setsep, small_keys):
        setsep, _ = built_setsep
        key = int(small_keys[0])
        assert setsep.block_of(key) == setsep.group_of(key) // GROUPS_PER_BLOCK

    def test_size_accounting(self, built_setsep, small_keys):
        setsep, _ = built_setsep
        expected = (
            setsep.num_buckets * 2
            + setsep.num_groups * setsep.params.group_bits
            + setsep.fallback.size_bits()
        )
        assert setsep.size_bits() == expected
        assert setsep.size_bytes() == (expected + 7) // 8

    def test_bits_per_key_near_config(self, built_setsep, small_keys):
        setsep, _ = built_setsep
        measured = setsep.bits_per_key(len(small_keys))
        # Within 15% of the configured 3.5 (rounding of blocks adds slack).
        assert measured == pytest.approx(
            setsep.params.bits_per_key(), rel=0.15
        )

    def test_bits_per_key_invalid(self, built_setsep):
        setsep, _ = built_setsep
        with pytest.raises(ValueError):
            setsep.bits_per_key(0)

    def test_copy_is_independent(self, built_setsep, small_keys, small_values):
        setsep, _ = built_setsep
        clone = setsep.copy()
        clone.indices[0, 0] = 999
        assert setsep.indices[0, 0] != 999 or setsep.indices[0, 0] == 999
        # Mutating the clone never affects the original arrays.
        assert clone.indices is not setsep.indices
        assert np.array_equal(
            setsep.lookup_batch(small_keys), small_values
        )

    def test_repr_mentions_config(self, built_setsep):
        setsep, _ = built_setsep
        assert "16+8" in repr(setsep)


class TestGroupBuckets:
    """The bucket-to-group choices are fixed at construction, so each
    group's bucket list is worked out once and remembered."""

    def test_choices_are_read_only_and_the_source_stays_writable(self):
        keys = unique_keys(300, seed=41)
        setsep, _ = build(keys, keys % 2, SetSepParams(value_bits=1))
        with pytest.raises(ValueError):
            setsep.choices[0] = 1
        with pytest.raises(AttributeError):
            setsep.choices = setsep.choices.copy()
        clone = setsep.copy()
        with pytest.raises(ValueError):
            clone.choices[0] = 1
        source = setsep.choices.copy()
        from repro.core.setsep import SetSep

        SetSep(
            setsep.params, setsep.num_blocks, source, setsep.indices,
            setsep.arrays, setsep.failed_groups,
        )
        source[0] = 1  # the caller's array is not frozen with the view

    def test_bucket_lists_invert_the_choices_and_are_remembered(
        self, built_setsep
    ):
        setsep, _ = built_setsep
        members = {}
        for bucket in range(setsep.num_buckets):
            members.setdefault(setsep.group_of_bucket(bucket), []).append(
                bucket
            )
        for group in range(setsep.num_groups):
            buckets = setsep.buckets_of_group(group)
            assert buckets == tuple(members.get(group, ()))
            assert all(type(bucket) is int for bucket in buckets)
            assert setsep.buckets_of_group(group) is buckets
        with pytest.raises(ValueError):
            setsep.buckets_of_group(setsep.num_groups)


class TestConstructorValidation:
    def test_shape_mismatch_rejected(self, built_setsep):
        from repro.core.setsep import SetSep

        setsep, _ = built_setsep
        with pytest.raises(ValueError):
            SetSep(
                params=setsep.params,
                num_blocks=setsep.num_blocks + 1,
                choices=setsep.choices,
                indices=setsep.indices,
                arrays=setsep.arrays,
                failed_groups=setsep.failed_groups,
            )
