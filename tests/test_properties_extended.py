"""More property-based tests: snapshots, delta sequences, queueing."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SetSepParams, build
from repro.core.serialize import dump_bytes, load_bytes
from repro.model.queueing import md1_wait_us
from tests.conftest import unique_keys

slow = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestSnapshotProperty:
    @slow
    @given(
        n=st.integers(1, 300),
        seed=st.integers(0, 2**31),
        value_bits=st.integers(1, 3),
    )
    def test_roundtrip_any_structure(self, n, seed, value_bits):
        keys = unique_keys(n, seed=seed)
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 1 << value_bits, size=n).astype(np.uint32)
        setsep, _ = build(keys, values, SetSepParams(value_bits=value_bits))
        restored = load_bytes(dump_bytes(setsep))
        assert np.array_equal(restored.lookup_batch(keys), values)


class TestDeltaSequenceProperty:
    @slow
    @given(
        seed=st.integers(0, 2**31),
        updates=st.lists(
            st.tuples(st.integers(0, 399), st.integers(0, 3)),
            min_size=1,
            max_size=20,
        ),
    )
    def test_replicas_converge_under_any_update_sequence(self, seed, updates):
        """Any sequence of value changes, each applied as a group rebuild
        plus delta broadcast, leaves owner and replica identical."""
        keys = unique_keys(400, seed=seed)
        values = (keys % 4).astype(np.uint32)
        owner, _ = build(keys, values, SetSepParams(value_bits=2))
        replica = owner.copy()
        state = {int(k): int(v) for k, v in zip(keys, values)}

        for index, new_value in updates:
            target = int(keys[index])
            state[target] = new_value
            group = owner.group_of(target)
            groups = owner.groups_of(keys)
            members = keys[groups == group]
            member_values = [state[int(k)] for k in members]
            delta = owner.rebuild_group(group, members, member_values)
            replica.apply_delta(delta)

        expected = np.asarray(
            [state[int(k)] for k in keys], dtype=np.uint32
        )
        assert np.array_equal(owner.lookup_batch(keys), expected)
        assert np.array_equal(replica.lookup_batch(keys), expected)


class TestQueueingProperties:
    @given(
        service=st.floats(0.001, 10.0),
        rho=st.floats(0.0, 0.99),
    )
    @settings(max_examples=80, deadline=None)
    def test_wait_nonnegative_and_monotone(self, service, rho):
        wait = md1_wait_us(service, rho)
        assert wait >= 0.0
        if rho < 0.98:
            assert md1_wait_us(service, min(0.99, rho + 0.01)) >= wait

