"""``SetSep.lookup_batch`` against Algorithm 1 (paper §5.1) run stage by stage.

The fused lookup folds the paper's three dependent stages into a few
vectorised passes: the group id comes from ``groups_from_choices`` and
every value bit from one ``index_slots`` broadcast.  The reference below
runs the stages as the paper writes them: bucket id (stage 1); the
bucket's 2-bit choice read, then the candidate table (stage 2); the
group's index and bit array read one value bit at a time through
``positions`` (stage 3); then the fallback's exact answer for a key whose
group failed.  It shares no group or slot arithmetic with the fused path.
"""

import numpy as np
import pytest

from repro.core import SetSepParams, build, hashfamily, twolevel
from repro.core.params import BUCKETS_PER_BLOCK, GROUPS_PER_BLOCK
from tests.conftest import unique_keys

#: Separators of one, two and four value bits, and a tight one whose
#: failed groups spill keys into the fallback.
CONFIGS = {
    "one_bit": SetSepParams(value_bits=1),
    "two_bits": SetSepParams(value_bits=2),
    "four_bits": SetSepParams(value_bits=4),
    "spilled": SetSepParams(index_bits=3, array_bits=2, value_bits=2),
}


def staged_lookup(setsep, keys):
    """Algorithm 1, one stage after another: ``(values, groups)``."""
    keys = hashfamily.canonical_keys(keys)
    # Stage 1: each key's global bucket.
    buckets = twolevel.bucket_ids(keys, setsep.num_blocks)
    # Stage 2: the bucket's choice picks one of its candidate groups.
    choices = setsep.choices[buckets]
    block, local_bucket = np.divmod(buckets, BUCKETS_PER_BLOCK)
    groups = (
        block * GROUPS_PER_BLOCK
        + twolevel.CANDIDATE_TABLE[local_bucket, choices]
    )
    # Stage 3: the group's (index, bit array) pair, one value bit at a time.
    g1, g2 = hashfamily.base_hashes(keys)
    values = np.zeros(len(keys), dtype=np.uint32)
    for bit in range(setsep.params.value_bits):
        index = setsep.indices[groups, bit].astype(np.uint64)
        array = setsep.arrays[groups, bit].astype(np.uint64)
        with np.errstate(over="ignore"):
            h = g1 + index * g2
        pos = hashfamily.positions(h, setsep.params.array_bits)
        found = (array >> pos.astype(np.uint64)) & np.uint64(1)
        values |= found.astype(np.uint32) << np.uint32(bit)
    for i in np.flatnonzero(setsep.failed_groups[groups]):
        exact = setsep.fallback.get(int(keys[i]))
        if exact is not None:
            values[i] = exact
    return values, groups


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def separator(request):
    """A separator of one config, its keys and their values."""
    params = CONFIGS[request.param]
    keys = unique_keys(2_000, seed=800)
    values = (keys % (1 << params.value_bits)).astype(np.uint32)
    setsep, stats = build(keys, values, params)
    if request.param == "spilled":
        assert stats.fallback_keys > 0
    return setsep, keys, values


class TestFusedEqualsStaged:
    def test_stored_keys(self, separator):
        setsep, keys, values = separator
        staged, _ = staged_lookup(setsep, keys)
        assert np.array_equal(staged, values)
        assert np.array_equal(setsep.lookup_batch(keys), staged)

    def test_unknown_keys(self, separator):
        setsep, _, _ = separator
        unknown = unique_keys(800, seed=801, low=2**62, high=2**63)
        staged, _ = staged_lookup(setsep, unknown)
        assert np.array_equal(setsep.lookup_batch(unknown), staged)

    def test_stage_two_lands_on_the_separators_group(self, separator):
        setsep, keys, _ = separator
        _, groups = staged_lookup(setsep, keys)
        assert np.array_equal(setsep.groups_of(keys), groups)
        assert [setsep.group_of(k) for k in keys[:64].tolist()] == (
            groups[:64].tolist()
        )

    def test_in_place_rebuilds_leave_both_paths_equal(self, separator):
        """Recompute a wave of groups (a failed one among them, when the
        separator has any) on a replica: both paths read the new rows."""
        setsep, keys, values = separator
        replica = setsep.copy()
        groups = replica.groups_of(keys)
        wave = np.unique(groups)[[0, 5, 11]].tolist()
        failed = np.flatnonzero(replica.failed_groups).tolist()
        if failed and failed[0] not in wave:
            wave.append(failed[0])
        expected = values.copy()
        mask = np.uint32((1 << replica.params.value_bits) - 1)
        jobs = []
        for group in wave:
            member = groups == group
            expected[member] = (values[member] + np.uint32(1)) & mask
            jobs.append((group, keys[member], expected[member], ()))
        replica.rebuild_groups(jobs)
        staged, _ = staged_lookup(replica, keys)
        assert np.array_equal(staged, expected)
        assert np.array_equal(replica.lookup_batch(keys), staged)
        assert np.array_equal(setsep.lookup_batch(keys), values)


@pytest.mark.parametrize("burst", [1, 7, 32, 64])
def test_any_burst_size_equals_one_batch(burst):
    """Bursts of any size, as a NIC hands them over, answer as one batch."""
    keys = unique_keys(1_000, seed=802)
    setsep, _ = build(
        keys, (keys % 4).astype(np.uint32), CONFIGS["two_bits"]
    )
    probe = np.concatenate(
        [keys[:300], unique_keys(100, seed=803, low=2**62, high=2**63)]
    )
    whole = setsep.lookup_batch(probe)
    bursts = [
        setsep.lookup_batch(probe[start:start + burst])
        for start in range(0, len(probe), burst)
    ]
    assert len(bursts) == -(-len(probe) // burst)
    assert np.array_equal(np.concatenate(bursts), whole)
    assert np.array_equal(whole, staged_lookup(setsep, probe)[0])


def test_keys_of_failed_groups_are_answered_after_stage_three():
    """A failed group's bit arrays hold no function: each of its keys is
    answered by the fallback, on both paths."""
    keys = unique_keys(900, seed=804)
    values = (keys % 2).astype(np.uint32)
    setsep, stats = build(
        keys, values, SetSepParams(index_bits=3, array_bits=2)
    )
    assert stats.fallback_keys > 0
    in_failed = setsep.failed_groups[setsep.groups_of(keys)]
    assert int(np.count_nonzero(in_failed)) == stats.fallback_keys
    for key, value in zip(keys[in_failed].tolist(), values[in_failed]):
        assert setsep.fallback.get(key) == value
    staged, _ = staged_lookup(setsep, keys)
    assert np.array_equal(staged, values)
    assert np.array_equal(setsep.lookup_batch(keys), values)
