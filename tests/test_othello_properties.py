"""Property-based tests for the Othello separator (hypothesis).

Four families, per the subsystem's correctness story:

* **Snapshot round-trip** — serialize then load reproduces every lookup
  and re-dumps byte-identically; truncation and corruption never load.
* **Churn** — any insert/change/remove sequence driven through
  ``rebuild_group`` leaves the structure answering the surviving key set
  exactly, with a record-fed replica byte-identical to the owner.
* **Rehash determinism** — under a fixed seed, two identical instances
  fed the same forced-cycle op sequence emit identical records
  (including the full rehash records) and end in identical states.
* **Differential routing** — a GPT over Othello routes any key -> node
  population exactly like a GPT over SetSep.
* **Pre-hashed batches** — any selection of a pre-hashed batch (whose
  bucket-hash column Othello reads) answers as the raw keys do.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import hashfamily, serialize
from repro.core.params import GROUPS_PER_BLOCK
from repro.core.serialize import SnapshotError
from repro.gpt.gpt import GlobalPartitionTable
from repro.othello import OthelloParams, build
from tests.conftest import row_selections, unique_keys

SLOW_BUILD = settings(
    max_examples=8, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
BYTE_LEVEL = settings(max_examples=80, deadline=None)


@pytest.fixture(scope="module")
def blob():
    keys = unique_keys(400, seed=510)
    values = (keys % 4).astype(np.uint32)
    sep, _ = build(keys, values, OthelloParams(value_bits=2))
    return serialize.dump_bytes(sep), keys, values


# ----------------------------------------------------------------------
# Snapshot round-trip
# ----------------------------------------------------------------------

@SLOW_BUILD
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    count=st.integers(min_value=0, max_value=400),
    value_bits=st.integers(min_value=1, max_value=4),
)
def test_roundtrip_reproduces_every_lookup(seed, count, value_bits):
    keys = unique_keys(count, seed=seed) if count else np.array([], np.uint64)
    values = (keys % np.uint64(1 << value_bits)).astype(np.uint32)
    sep, _ = build(keys, values, OthelloParams(value_bits=value_bits))
    blob_bytes = serialize.dump_bytes(sep)
    restored = serialize.load_bytes(blob_bytes)
    assert restored.params == sep.params
    assert np.array_equal(restored.lookup_batch(keys), values)
    assert serialize.dump_bytes(restored) == blob_bytes


@BYTE_LEVEL
@given(fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_truncation_never_loads(blob, fraction):
    data = blob[0]
    with pytest.raises(SnapshotError):
        serialize.load_bytes(data[: int(len(data) * fraction)])


@BYTE_LEVEL
@given(position=st.integers(min_value=0), flip=st.integers(1, 255))
def test_single_byte_corruption_never_loads(blob, position, flip):
    data = bytearray(blob[0])
    data[position % len(data)] ^= flip
    with pytest.raises(SnapshotError):
        serialize.load_bytes(bytes(data))


@BYTE_LEVEL
@given(garbage=st.binary(max_size=64))
def test_arbitrary_garbage_never_loads(garbage):
    with pytest.raises(SnapshotError):
        serialize.load_bytes(b"OTHL" + garbage)


# ----------------------------------------------------------------------
# Churn
# ----------------------------------------------------------------------

def churn(sep, live, ops, replicas=(), record_log=None, pool_size=64):
    """Drive (kind, index, value) ops through ``rebuild_group``.

    ``live`` maps key -> value and is mutated in place.  Each record is
    applied to every replica (and appended to ``record_log`` as wire
    bytes).  Op indices select from a stable ``pool_size``-key pool so
    hypothesis shrinks cleanly — and so a caller with a tiny structure
    can bound the live set below the acyclicity capacity.
    """
    pool = unique_keys(pool_size, seed=512)
    for kind, index, value in ops:
        key = int(pool[index % len(pool)])
        removed = ()
        if kind == "remove":
            if key not in live:
                continue
            live.pop(key)
            removed = (key,)
        else:
            live[key] = value
        block = sep.block_of(key)
        members = sorted(k for k in live if sep.block_of(k) == block)
        bkeys = np.array(members, dtype=np.uint64)
        bvals = np.array([live[k] for k in members], dtype=np.uint32)
        record = sep.rebuild_group(
            block * GROUPS_PER_BLOCK, bkeys, bvals, removed_keys=removed
        )
        if record_log is not None:
            record_log.append(record.wire_bytes(sep.params))
        for replica in replicas:
            replica.apply_delta(record)


op_strategy = st.lists(
    st.tuples(
        st.sampled_from(["insert", "change", "remove"]),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=40,
)


@SLOW_BUILD
@given(ops=op_strategy)
def test_churn_keeps_lookups_exact_and_replica_identical(ops):
    base = unique_keys(48, seed=511)
    values = (base % 4).astype(np.uint32)
    sep, _ = build(base, values, OthelloParams(value_bits=2))
    replica = sep.copy()
    live = {int(k): int(v) for k, v in zip(base, values)}
    churn(sep, live, ops, replicas=(replica,))
    survivors = np.array(sorted(live), dtype=np.uint64)
    expect = np.array([live[k] for k in sorted(live)], dtype=np.uint32)
    assert np.array_equal(sep.lookup_batch(survivors), expect)
    assert serialize.dump_bytes(replica) == serialize.dump_bytes(sep)


@SLOW_BUILD
@given(ops=op_strategy)
def test_forced_cycle_rehash_is_deterministic(ops):
    """Two identical instances replay one op stream: byte-identical
    records and final state, even across cycle-forced rehashes.

    ``vertices_per_side=8`` makes cycles routine, and the twin is
    cold-bootstrapped every call (graph cache cleared) while the
    original stays warm — proving the record is a pure function of the
    structure's state, not of the caller's invocation history.  The key
    pool is capped at 8 so the live set (5 base + 8 pool keys) stays
    below the 15-edge acyclicity capacity of an 8+8-vertex block.
    """
    params = OthelloParams(value_bits=2, vertices_per_side=8)
    base = unique_keys(5, seed=513)
    values = (base % 4).astype(np.uint32)
    warm, _ = build(base, values, params, num_blocks=1)
    cold, _ = build(base, values, params, num_blocks=1)
    assert serialize.dump_bytes(warm) == serialize.dump_bytes(cold)

    live_warm = {int(k): int(v) for k, v in zip(base, values)}
    live_cold = dict(live_warm)
    warm_log, cold_log = [], []
    churn(warm, live_warm, ops, record_log=warm_log, pool_size=8)
    original_rebuild = cold.rebuild_group

    def cold_rebuild(*args, **kwargs):
        cold._graphs.clear()  # force a fresh bootstrap on every call
        return original_rebuild(*args, **kwargs)

    cold.rebuild_group = cold_rebuild
    churn(cold, live_cold, ops, record_log=cold_log, pool_size=8)
    assert warm_log == cold_log
    assert serialize.dump_bytes(warm) == serialize.dump_bytes(cold)


# ----------------------------------------------------------------------
# Differential routing vs SetSep
# ----------------------------------------------------------------------

@SLOW_BUILD
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    count=st.integers(min_value=1, max_value=600),
    num_nodes=st.integers(min_value=1, max_value=8),
)
def test_gpt_routing_matches_setsep(seed, count, num_nodes):
    keys = unique_keys(count, seed=seed)
    nodes = (keys % np.uint64(num_nodes)).astype(np.int64)
    othello_gpt, _ = GlobalPartitionTable.build(
        keys, nodes.tolist(), num_nodes, backend="othello"
    )
    setsep_gpt, _ = GlobalPartitionTable.build(
        keys, nodes.tolist(), num_nodes, backend="setsep"
    )
    assert np.array_equal(othello_gpt.lookup_batch(keys), nodes)
    assert np.array_equal(
        setsep_gpt.lookup_batch(keys), othello_gpt.lookup_batch(keys)
    )


# ----------------------------------------------------------------------
# Pre-hashed batches
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def multi_block():
    keys = unique_keys(3_000, seed=520)
    sep, _ = build(
        keys, (keys % 4).astype(np.uint32), OthelloParams(value_bits=2)
    )
    assert sep.num_blocks > 1
    unknown = unique_keys(3_000, seed=521, low=2**62, high=2**63)
    return sep, np.concatenate([keys, unknown])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_selection_of_a_prehashed_batch_equals_raw_keys(multi_block, data):
    sep, probe = multi_block
    sample = probe[data.draw(row_selections(len(probe)))][:64]
    rows = data.draw(row_selections(len(sample)))
    expected = sep.lookup_batch(sample[rows])
    groups = sep.groups_of(sample[rows])
    hashed = hashfamily.prehash(sample)
    early = hashed[rows]                 # hashes its own rows when asked
    hashed.separator
    for batch in (early, hashed[rows]):
        assert sep.lookup_batch(batch).tolist() == expected.tolist()
        assert sep.groups_of(batch).tolist() == groups.tolist()


@pytest.mark.parametrize("n", [1, 2, 300])
def test_raw_keys_hash_the_bucket_stream_alone(multi_block, monkeypatch, n):
    """Othello shares one column with a pre-hashed batch; a raw-key
    caller must not pay a stacked pass for the other two."""
    sep, probe = multi_block
    keys = probe[:n]
    stacked = []
    original = hashfamily._stacked
    monkeypatch.setattr(
        hashfamily, "_stacked",
        lambda *args: stacked.append(args) or original(*args),
    )
    with np.errstate(all="raise"):
        assert sep.lookup_batch(keys).tolist() == (keys % 4).tolist()
        assert not stacked
        batch = hashfamily.prehash(keys)
        assert sep.lookup_batch(batch).tolist() == (keys % 4).tolist()
    assert len(stacked) == 1 and batch._fib is None
