"""Tests for the per-group brute-force search (repro.core.group)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import group as G
from repro.core import hashfamily as hf
from repro.core.params import SetSepParams


def make_group(n, seed=1, value_bits=1):
    rng = np.random.default_rng(seed)
    keys = rng.integers(1, 2**63, size=n, dtype=np.uint64)
    values = rng.integers(0, 1 << value_bits, size=n).astype(np.uint32)
    g1, g2 = hf.base_hashes(keys)
    return keys, values, g1, g2


def reference_search_bit(g1, g2, bits, m, max_index):
    """One index at a time with a "taken" array (paper §4.1), through the
    scalar hashing path: the reference the vectorised search must equal."""
    if len(g1) == 0:
        return G.GroupFunction(index=0, array=0, iterations=0)
    for index in range(max_index):
        slots = hf.positions(hf.family_values(g1, g2, index), m).tolist()
        taken = {}
        if all(taken.setdefault(s, int(b)) == b for s, b in zip(slots, bits)):
            array = sum(1 << slot for slot, bit in taken.items() if bit)
            return G.GroupFunction(index, array, index + 1)
    return None


@st.composite
def search_cases(draw):
    """(g1, g2, values, params): groups of up to 30 keys, tight
    ``index_bits`` so some fail, every mask width (power-of-two ``m`` and
    not), chunks that are tiny, ragged, the default and beyond the family."""
    value_bits = draw(st.integers(1, 4))
    index_bits = draw(st.integers(1, 8))
    params = SetSepParams(
        index_bits=index_bits,
        array_bits=draw(st.sampled_from([1, 2, 4, 5, 8, 12, 16, 32])),
        value_bits=value_bits,
        search_chunk=draw(st.sampled_from([1, 7, 512, (1 << index_bits) + 5])),
    )
    n_keys = draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keys = rng.integers(0, 2**64, size=n_keys, dtype=np.uint64)
    if draw(st.booleans()):
        values = rng.integers(0, 1 << value_bits, size=n_keys)
    else:
        values = np.full(n_keys, draw(st.integers(0, (1 << value_bits) - 1)))
    g1, g2 = hf.base_hashes(keys)
    return g1, g2, values.astype(np.uint32), params


class TestFusedSearch:
    """One candidate matrix for all value bits changes no per-bit result:
    the multi-target path (row gathers) and the one-target path (the
    value-0 keys reordered first, row slices) both meet the reference."""

    @settings(max_examples=150, deadline=None)
    @given(search_cases())
    def test_group_equals_per_bit_searches(self, case):
        g1, g2, values, params = case
        per_bit = [
            reference_search_bit(
                g1, g2, ((values >> bit) & 1).tolist(), params.array_bits,
                params.max_index,
            )
            for bit in range(params.value_bits)
        ]
        found = G.search_group(g1, g2, values, params)
        if any(function is None for function in per_bit):
            assert found is None
        else:
            assert found == per_bit
            assert [f.iterations for f in found] == [
                f.iterations for f in per_bit
            ]

    @settings(max_examples=150, deadline=None)
    @given(search_cases())
    def test_search_bit_equals_index_at_a_time_reference(self, case):
        g1, g2, values, params = case
        for bit in range(params.value_bits):
            bits = ((values >> bit) & 1).tolist()
            assert G.search_bit(
                g1, g2, bits, params.array_bits,
                params.max_index, params.search_chunk,
            ) == reference_search_bit(
                g1, g2, bits, params.array_bits, params.max_index
            )


class TestSearchBit:
    def test_found_function_separates_all_keys(self):
        _, values, g1, g2 = make_group(16)
        found = G.search_bit(g1, g2, values, m=8, max_index=65535)
        assert found is not None
        for j in range(len(values)):
            bit = G.lookup_bit(int(g1[j]), int(g2[j]), found.index, found.array, 8)
            assert bit == values[j]

    def test_empty_group_trivially_succeeds(self):
        found = G.search_bit(
            np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.uint64),
            np.zeros(0, dtype=np.int64), m=8, max_index=16,
        )
        assert found == G.GroupFunction(index=0, array=0, iterations=0)

    def test_single_key_succeeds_immediately(self):
        _, values, g1, g2 = make_group(1)
        found = G.search_bit(g1, g2, values, m=8, max_index=65535)
        assert found is not None
        assert found.iterations <= 4

    def test_iterations_counts_winner(self):
        _, values, g1, g2 = make_group(16, seed=3)
        found = G.search_bit(g1, g2, values, m=8, max_index=65535)
        assert found.iterations == found.index + 1

    def test_m1_with_conflicting_bits_fails(self):
        # With one slot, two keys with different bits can never separate.
        _, _, g1, g2 = make_group(2, seed=4)
        bits = np.array([0, 1])
        assert G.search_bit(g1, g2, bits, m=1, max_index=1024) is None

    def test_m1_with_agreeing_bits_succeeds(self):
        _, _, g1, g2 = make_group(4, seed=5)
        bits = np.ones(4, dtype=np.int64)
        found = G.search_bit(g1, g2, bits, m=1, max_index=16)
        assert found is not None
        assert found.array == 1

    def test_all_zero_bits_store_zero_array(self):
        _, _, g1, g2 = make_group(8, seed=6)
        bits = np.zeros(8, dtype=np.int64)
        found = G.search_bit(g1, g2, bits, m=8, max_index=256)
        assert found is not None
        assert found.array == 0

    def test_larger_m_needs_fewer_iterations(self):
        totals = {}
        for m in (4, 16):
            total = 0
            for seed in range(12):
                _, values, g1, g2 = make_group(16, seed=seed)
                found = G.search_bit(g1, g2, values, m=m, max_index=1 << 20)
                total += found.iterations
            totals[m] = total
        assert totals[16] < totals[4]

    def test_chunk_size_does_not_change_result(self):
        _, values, g1, g2 = make_group(16, seed=7)
        a = G.search_bit(g1, g2, values, m=8, max_index=65535, chunk=8)
        b = G.search_bit(g1, g2, values, m=8, max_index=65535, chunk=1024)
        assert a == b


class TestSearchGroup:
    def test_multi_bit_values_roundtrip(self):
        params = SetSepParams(value_bits=3)
        _, values, g1, g2 = make_group(12, seed=8, value_bits=3)
        functions = G.search_group(g1, g2, values, params)
        assert functions is not None
        assert len(functions) == 3
        for j in range(len(values)):
            got = 0
            for bit, fn in enumerate(functions):
                got |= G.lookup_bit(
                    int(g1[j]), int(g2[j]), fn.index, fn.array,
                    params.array_bits,
                ) << bit
            assert got == values[j]

    def test_failure_propagates_as_none(self):
        params = SetSepParams(index_bits=2, array_bits=1, value_bits=1)
        _, _, g1, g2 = make_group(8, seed=9)
        values = np.arange(8, dtype=np.uint32) % 2
        assert G.search_group(g1, g2, values, params) is None


def reference_evaluate(g1, g2, bits, index, m):
    """The array ``index`` gives over one bit's contents through the scalar
    hashing path, or ``None`` when two keys of unlike bits share a slot."""
    slots = hf.positions(hf.family_values(g1, g2, index), m).tolist()
    taken = {}
    if all(taken.setdefault(s, int(b)) == b for s, b in zip(slots, bits)):
        return sum(1 << slot for slot, bit in taken.items() if bit)
    return None


@st.composite
def incumbent_cases(draw):
    """A search case plus one incumbent index per value bit: the index a
    from-scratch search gives the group without its last key (what an
    insert meets), or any index up to and including the failure sentinel."""
    g1, g2, values, params = draw(search_cases())
    before = G.search_group(g1[:-1], g2[:-1], values[:-1], params)
    incumbent = [
        before[bit].index if before is not None and draw(st.booleans())
        else draw(st.integers(0, params.max_index))
        for bit in range(params.value_bits)
    ]
    return g1, g2, values, params, np.array(incumbent, dtype=np.uint16)


class TestIncumbentFirst:
    """Kept where it still separates, searched alone where it broke."""

    @settings(max_examples=200, deadline=None)
    @given(incumbent_cases())
    def test_kept_bits_are_evaluated_and_broken_bits_searched_alone(self, case):
        g1, g2, values, params, incumbent = case
        expected = []
        for bit, index in enumerate(incumbent.tolist()):
            bits = ((values >> bit) & 1).tolist()
            array = (
                reference_evaluate(g1, g2, bits, index, params.array_bits)
                if len(g1) and index < params.max_index else None
            )
            expected.append(
                G.GroupFunction(index, array, 1) if array is not None
                else reference_search_bit(
                    g1, g2, bits, params.array_bits, params.max_index
                )
            )
        found = G.search_group(g1, g2, values, params, incumbent)
        if None in expected:
            assert found is None
        else:
            assert found == expected
            assert [f.iterations for f in found] == [
                f.iterations for f in expected
            ]
        # Failure is a function of the contents: the incumbents move
        # indices, never whether the group spills.
        assert (found is None) == (
            G.search_group(g1, g2, values, params) is None
        )

    def test_all_kept_never_builds_a_candidate_matrix(self, monkeypatch):
        params = SetSepParams(value_bits=3)
        _, values, g1, g2 = make_group(14, seed=5, value_bits=3)
        scratch = G.search_group(g1, g2, values, params)
        incumbent = np.array([f.index for f in scratch], dtype=np.uint16)
        monkeypatch.setattr(G, "_search_targets", None)
        # A removal: every index still separates the keys that are left.
        kept = G.search_group(g1[1:], g2[1:], values[1:], params, incumbent)
        assert [f.index for f in kept] == incumbent.tolist()
        assert G.search_group(g1, g2, values, params, incumbent) == [
            G.GroupFunction(f.index, f.array, 1) for f in scratch
        ]


@st.composite
def wave_cases(draw):
    """Up to five groups under one set of parameters, some of them empty,
    each with an incumbent row of any index up to the failure sentinel."""
    g1, g2, values, params = draw(search_cases())
    cuts = sorted(draw(st.lists(st.integers(0, len(g1)), max_size=4)))
    bounds = [0] + cuts + [len(g1)]
    incumbents = [
        [
            draw(st.integers(0, params.max_index))
            for _ in range(params.value_bits)
        ]
        for _ in bounds[1:]
    ]
    return g1, g2, values, params, bounds, incumbents


class TestSearchGroups:
    """A wave of groups over one key array: one incumbent test, each
    group's result what searching it alone gives."""

    @settings(max_examples=200, deadline=None)
    @given(wave_cases())
    def test_each_group_equals_its_own_search(self, case):
        g1, g2, values, params, bounds, incumbents = case
        spans = list(zip(bounds, bounds[1:]))
        expected = [
            G.search_group(
                g1[start:end], g2[start:end], values[start:end], params,
                np.array(row, dtype=np.uint16),
            )
            for (start, end), row in zip(spans, incumbents)
        ]
        assert G.search_groups(
            g1, g2, values, bounds, params, incumbents
        ) == expected
        assert G.search_groups(g1, g2, values, bounds, params) == [
            G.search_group(g1[start:end], g2[start:end], values[start:end],
                           params)
            for start, end in spans
        ]


class TestSearchJoint:
    def test_joint_function_maps_all_values(self):
        value_bits = 2
        _, values, g1, g2 = make_group(6, seed=10, value_bits=value_bits)
        found = G.search_joint(
            g1, g2, values, value_bits, m=16, max_index=1 << 22
        )
        assert found is not None
        cell_mask = (1 << value_bits) - 1
        pos = hf.positions(hf.family_values(g1, g2, found.index), 16)
        for j, slot in enumerate(pos):
            got = (found.array >> (int(slot) * value_bits)) & cell_mask
            assert got == values[j]

    def test_joint_slower_than_split(self):
        # Figure 4's claim: one function to multi-bit values needs orders
        # of magnitude more iterations than one function per bit.
        params = SetSepParams(value_bits=2, array_bits=8)
        joint_total, split_total = 0, 0
        for seed in range(8):
            _, values, g1, g2 = make_group(10, seed=seed, value_bits=2)
            joint = G.search_joint(g1, g2, values, 2, m=8, max_index=1 << 22)
            split = G.search_group(g1, g2, values, params)
            assert joint is not None and split is not None
            joint_total += joint.iterations
            split_total += sum(f.iterations for f in split)
        assert joint_total > 2 * split_total

    def test_empty_group(self):
        empty = np.zeros(0, dtype=np.uint64)
        found = G.search_joint(empty, empty, empty, 2, m=8, max_index=4)
        assert found.iterations == 0

    #: ``(n, seed, value_bits, m, chunk) -> (index, array, iterations)`` as
    #: returned by the commit before the shared candidate-matrix helper.
    GOLDEN = [
        ((6, 10, 2, 16, 256), (2, 0xD040018, 3)),
        ((10, 0, 2, 8, 256), (715, 0x4BBE, 716)),
        ((10, 3, 2, 8, 7), (25, 0xD892, 26)),
        ((8, 21, 3, 12, 1024), (2, 0x45A00FB8, 3)),
        ((5, 4, 4, 32, 100), (0, 0x90C006000004000000000A000, 1)),
        ((12, 2, 2, 8, 256), (528, 0xDCA3, 529)),
    ]

    @pytest.mark.parametrize("case, expected", GOLDEN)
    def test_golden_results_unchanged(self, case, expected):
        n, seed, value_bits, m, chunk = case
        _, values, g1, g2 = make_group(n, seed=seed, value_bits=value_bits)
        found = G.search_joint(
            g1, g2, values, value_bits, m=m, max_index=1 << 22, chunk=chunk
        )
        assert (found.index, found.array, found.iterations) == expected


class TestHelpers:
    def test_expected_iterations_decreases_with_m(self):
        small = G.expected_iterations(12, m=4, trials=30, seed=2)
        large = G.expected_iterations(12, m=24, trials=30, seed=2)
        assert large < small

    def test_index_entropy_positive(self):
        assert G.index_entropy_bits(8, m=8, trials=20) > 0.0
