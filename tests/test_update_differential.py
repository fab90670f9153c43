"""One churn, two owners: ``UpdateEngine`` against ``NodeDaemon`` (§4.5).

The in-process engine and the runtime daemons both play the owner role —
RIB slice, group contents, group search, delta — on the same code.  These
tests drive identical operations through both and require identical
results, down to the bytes of every delta, and pin the delta codec to the
bit stream it has always produced.

The daemons run in this process: the controller's and the daemons' socket
requests are replaced by direct dispatch, everything else is the real
protocol (HELLO, SNAPSHOT, UPDATE, FIB, DELTA).
"""

import os
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.transport import (
    DELAY, DROP, DUPLICATE, TransportFaultBudgets,
)
from repro.cluster.architectures import Architecture
from repro.cluster.owner import (
    ACCOUNT_FIELDS, UpdateAccount, apply_records, owner_batch, owner_step,
    parse_records,
)
from repro.cluster.rib import RoutingInformationBase
from repro.core import group as group_search
from repro.core import separator as separator_registry
from repro.core import serialize, shm
from repro.core.delta import WIRE_HEADER, DeltaWireError, GroupDelta
from repro.core.hashfamily import base_hashes, canonical_key
from repro.core.params import KEYS_PER_BLOCK, SetSepParams
from repro.epc.gateway import EpcGateway
from repro.epc.packets import parse_ip
from repro.epc.traffic import FlowGenerator
from repro.gpt.gpt import GlobalPartitionTable
from repro.hashtables.cuckoo import CuckooHashTable
from repro.obs.metrics import MetricsRegistry
from repro.othello.params import OthelloParams
from repro.othello.update import OthelloUpdate
from repro.runtime import daemon as daemon_module
from repro.runtime.deltalog import DeltaLog
from repro.runtime.protocol import (
    MSG_ADOPT, MSG_DELTA, MSG_DOWN, MSG_FLUSH, MSG_SNAPSHOT, MSG_STATE_REF,
    MSG_STATUS, MSG_UPDATE, OP_INSERT, OP_REMOVE, RSP_ERR, RSP_OK,
    MSG_SWAP, RSP_UPDATE, UpdateOp,
    decode_json, encode_json, encode_state, encode_updates, pack_records,
)
from repro.utils.bits import BitReader, BitWriter
from tests.conftest import brute_force_contents, unique_keys, wire_up
from tests.test_bits import reference_pack


def fib_entries(table):
    """A cuckoo FIB's entries, key -> value."""
    held = table._occupied
    return dict(zip(
        table._keys[held].tolist(), table._int_values[held].tolist()
    ))


def daemon_states(daemons):
    """Everything an update or a state can move on each daemon, transport
    counters aside."""
    return [
        (serialize.fingerprint(d.node.gpt.setsep), fib_entries(d.node.fib),
         dict(d.bs), list(d.slice.entries()), len(d._delayed_deltas), {
             name: count
             for name, count in d.registry.counters().items()
             if not name.startswith("runtime.rx.")
         })
        for d in daemons
    ]


def node_state(header, fib, rib, tail):
    """A node-state payload, as the controller ships one."""
    return encode_state(header, pack_records(fib) + pack_records(rib) + tail)


def started_gateway(nodes, bearers, seed, **gpt_overrides):
    gateway = EpcGateway(
        Architecture.SCALEBRICKS, nodes, parse_ip("192.0.2.1"),
        gpt_params=SetSepParams.for_cluster(nodes, **gpt_overrides),
    )
    generator = FlowGenerator(seed)
    flows = generator.populate(gateway, bearers)
    gateway.start()
    return gateway, generator, flows


def churn(gateway, generator, live, rng, count, before_op=None):
    """``count`` seeded connects, disconnects and rehomes on the gateway;
    returns the same operations as the runtime's wire ops.  Each is one
    update; ``before_op(index)`` runs ahead of it."""
    ops = []
    for index in range(count):
        if before_op is not None:
            before_op(index)
        kind = rng.integers(5)
        if kind < 2 or len(live) < 8:
            flow = generator.flows(1)[0]
            record = gateway.connect(
                flow, generator.base_station_for(flow),
                generator.region_for(flow),
            )
            live.append(flow)
        elif kind < 4:
            flow = live.pop(int(rng.integers(len(live))))
            assert gateway.disconnect(flow)
            ops.append(UpdateOp(OP_REMOVE, flow.key()))
            continue
        else:
            flow = live[int(rng.integers(len(live)))]
            current = gateway.controller.record_for_key(flow.key())
            record = gateway.rehome_flow(
                flow, (current.handling_node + 1) % gateway.num_nodes
            )
        ops.append(UpdateOp(
            OP_INSERT, record.key, record.handling_node, record.teid,
            record.base_station_ip,
        ))
    return ops


def reference_body(delta, params):
    """The delta's bit stream, field by field, packed one bit at a time."""
    fields = [(delta.group_id, 32), (int(delta.failed), 1)]
    for index, array in zip(delta.indices, delta.arrays):
        fields += [(index, params.index_bits), (array, params.array_bits)]
    fields += [
        (len(delta.fallback_upserts), 8), (len(delta.fallback_removals), 8)
    ]
    for key, value in delta.fallback_upserts:
        fields += [(key, 64), (value, 16)]
    fields += [(key, 64) for key in delta.fallback_removals]
    return reference_pack(fields)


#: ``wire_bytes`` of fixed deltas as the bit-by-bit codec of the commit
#: before this one framed them (hex).
GOLDEN = [
    (SetSepParams(value_bits=2),
     GroupDelta(7, False, (3, 9), (0xAB, 0xCD)),
     "0d00100802000000070001d58004e6800000"),
    (SetSepParams(value_bits=2),
     GroupDelta(2**32 - 1, True, (0, 0), (0, 0),
                ((2**64 - 1, 65535), (17, 0), (0x0123456789ABCDEF, 3)),
                (42, 2**63 + 1)),
     "3b00100802ffffffff80000000000001817fffffffffffffffffff8000000000000008"
     "80000091a2b3c4d5e6f780018000000000000015400000000000000080"),
    (SetSepParams(value_bits=1),
     GroupDelta(0, False, (65534,), (0xFF,), (), (5,)),
     "1200100801000000007fff7f8000800000000000000280"),
    (SetSepParams(index_bits=12, array_bits=13, value_bits=3),
     GroupDelta(1234567, False, (4094, 1, 2048), (0x1FFF, 0, 0x0AAA)),
     "10000c0d030012d6877ff7ffc004001000aaa00000"),
    (SetSepParams(index_bits=16, array_bits=32, value_bits=4),
     GroupDelta(99, False, (1, 2, 3, 65534),
                (2**32 - 1, 0, 0xDEADBEEF, 1), (), (1, 2, 3)),
     "3700102004000000630000ffffffff8001000000000001ef56df77ffff000000008001"
     "80000000000000008000000000000001000000000000000180"),
    # Framed by the BitWriter codec, before records became one integer:
    # a live record at one value bit, a failed one with upserts, and a
    # live one with removals only.
    (SetSepParams(value_bits=1),
     GroupDelta(5, False, (17,), (0x5A,)),
     "0a00100801000000050008ad000000"),
    (SetSepParams(value_bits=1),
     GroupDelta(9, True, (0,), (0,), ((123456789, 1), (2**63, 0))),
     "1e001008010000000980000001000000000003ade68a8000c000000000000000000000"),
    (SetSepParams(value_bits=2),
     GroupDelta(3, False, (40000, 2), (0x80, 0x01), (), (7, 2**64 - 2)),
     "1d00100802000000034e204000010080010000000000000003ffffffffffffffff00"),
]


def bitwriter_body(delta, params):
    """The body as the ``BitWriter`` codec wrote it, field by field."""
    writer = BitWriter()
    writer.write(delta.group_id, 32).write(int(delta.failed), 1)
    for index, array in zip(delta.indices, delta.arrays):
        writer.write(index, params.index_bits)
        writer.write(array, params.array_bits)
    writer.write(len(delta.fallback_upserts), 8)
    writer.write(len(delta.fallback_removals), 8)
    for key, value in delta.fallback_upserts:
        writer.write(key, 64).write(value, 16)
    for key in delta.fallback_removals:
        writer.write(key, 64)
    return writer.getvalue()


def bitreader_delta(body, params):
    """The body as the ``BitReader`` codec read it, field by field."""
    reader = BitReader(body)
    group_id, failed = reader.read(32), bool(reader.read(1))
    functions = [
        (reader.read(params.index_bits), reader.read(params.array_bits))
        for _ in range(params.value_bits)
    ]
    n_upserts, n_removals = reader.read(8), reader.read(8)
    upserts = tuple(
        (reader.read(64), reader.read(16)) for _ in range(n_upserts)
    )
    removals = tuple(reader.read(64) for _ in range(n_removals))
    assert not reader.read(reader.bits_remaining)
    return GroupDelta(
        group_id, failed, tuple(i for i, _ in functions),
        tuple(a for _, a in functions), upserts, removals,
    )


class TestCodec:
    @pytest.mark.parametrize("params, delta, framed", GOLDEN)
    def test_golden_vector(self, params, delta, framed):
        assert delta.wire_bytes(params).hex() == framed
        assert GroupDelta.from_wire_bytes(bytes.fromhex(framed)) == (
            delta, params, len(framed) // 2
        )

    @given(
        widths=st.tuples(
            st.integers(1, 16), st.integers(1, 32), st.integers(1, 16)
        ),
        group_id=st.integers(0, 2**32 - 1),
        failed=st.booleans(),
        counts=st.tuples(st.integers(0, 255), st.integers(0, 255)),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_body_is_the_field_by_field_stream_and_round_trips(
        self, widths, group_id, failed, counts, data
    ):
        """Every width, and fallback counts up to the 8-bit counters'
        limit, against the bit-by-bit packer and the ``BitWriter`` /
        ``BitReader`` codec the records were first written with."""
        index_bits, array_bits, value_bits = widths
        params = SetSepParams(
            index_bits=index_bits, array_bits=array_bits,
            value_bits=value_bits,
        )
        per_bit = st.lists(
            st.tuples(
                st.integers(0, 2**index_bits - 1),
                st.integers(0, 2**array_bits - 1),
            ),
            min_size=value_bits, max_size=value_bits,
        )
        functions = data.draw(per_bit)
        n_upserts, n_removals = counts
        key = st.integers(0, 2**64 - 1)
        upserts = data.draw(st.lists(
            st.tuples(key, st.integers(0, 65535)),
            min_size=n_upserts, max_size=n_upserts,
        ))
        removals = data.draw(
            st.lists(key, min_size=n_removals, max_size=n_removals)
        )
        delta = GroupDelta(
            group_id, failed,
            tuple(i for i, _ in functions), tuple(a for _, a in functions),
            tuple(upserts), tuple(removals),
        )
        body = delta.encode(params)
        assert body == reference_body(delta, params)
        assert body == bitwriter_body(delta, params)
        assert len(body) == (delta.size_bits(params) + 7) // 8
        assert GroupDelta.decode(body, params) == delta
        assert bitreader_delta(body, params) == delta
        framed = delta.wire_bytes(params)
        assert framed[WIRE_HEADER.size:] == body
        assert GroupDelta.from_wire_bytes(b"\0" + framed, 1) == (
            delta, params, len(framed) + 1
        )

    def test_oversized_field_rejected(self):
        params = SetSepParams(value_bits=1)
        with pytest.raises(ValueError):
            GroupDelta(1, False, (1 << 16,), (0,)).encode(params)
        with pytest.raises(ValueError):
            GroupDelta(1, False, (0,), (-1,)).encode(params)


class TestDaemonSlice:
    @given(ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, 199)), max_size=80,
    ))
    @settings(max_examples=25, deadline=None)
    def test_group_contents_equals_brute_force(self, ops):
        gateway, _, flows = started_gateway(1, 200, seed=3)
        controller, (daemon,) = wire_up(gateway)
        # The bootstrap ships records in the RIB's order: the model starts
        # from it too.
        model = {e.key: 0 for e in gateway.cluster.rib.entries()}
        for insert, index in ops:
            key = flows[index].key()
            if insert:
                controller.push_updates([UpdateOp(OP_INSERT, key, 0, index)])
                model[key] = 0
            else:
                controller.push_updates([UpdateOp(OP_REMOVE, key)])
                model.pop(key, None)
        separator = daemon.node.gpt.setsep
        assert len(daemon.slice) == len(model)
        for group in range(separator.num_groups):
            keys, nodes = daemon.slice.group_contents(group, separator)
            assert (keys.keys.tolist(), nodes.tolist()) == (
                brute_force_contents(model, separator, group)
            )

    @pytest.mark.parametrize("bad_alone", [False, True])
    def test_batch_with_a_bad_node_applies_none_of_its_ops(self, bad_alone):
        gateway, generator, flows = started_gateway(2, 300, seed=5)
        _, daemons = wire_up(gateway)
        owner = daemons[0]
        owned = [
            f.key() for f in flows
            if owner.slice.owner_of_key(f.key()) == 0
        ]
        fresh = next(
            f.key() for f in generator.flows(50)
            if owner.slice.owner_of_key(f.key()) == 0
        )
        before = daemon_states(daemons)
        batch = [
            UpdateOp(OP_INSERT, fresh, 1, 77),
            UpdateOp(OP_REMOVE, owned[0]),
            UpdateOp(OP_INSERT, owned[1], 2, 78),  # node 2 of 2
        ]
        rsp_type, rsp = owner._dispatch(
            MSG_UPDATE, encode_updates(batch[2:] if bad_alone else batch)
        )
        assert rsp_type == RSP_ERR
        assert "out of range" in decode_json(rsp)["error"]
        assert owner.slice.get(fresh) is None
        assert owner.slice.get(owned[0]) is not None
        assert before == daemon_states(daemons)

    @pytest.mark.parametrize("foreign_alone", [False, True])
    def test_an_update_for_another_nodes_block_is_refused(self, foreign_alone):
        """Node 0 rebuilding a group of node 1's block from its own slice,
        which holds none of the group's keys, would ship a record that
        misroutes them: the daemon refuses the batch before any of it
        applies, until node 1 is down and its blocks pass to node 0."""
        gateway, generator, flows = started_gateway(2, 2_000, seed=5)
        controller, daemons = wire_up(gateway)
        owners = {f.key(): daemons[0].slice.owner_of_key(f.key()) for f in flows}
        owned = next(key for key, node in owners.items() if node == 0)
        foreign = next(key for key, node in owners.items() if node == 1)
        batch = [
            UpdateOp(OP_REMOVE, owned),
            UpdateOp(OP_INSERT, foreign, 0, 77),
        ]
        before = daemon_states(daemons)
        rsp_type, rsp = daemons[0]._dispatch(
            MSG_UPDATE, encode_updates(batch[1:] if foreign_alone else batch)
        )
        assert rsp_type == RSP_ERR
        assert "which node 1 owns, not node 0" in decode_json(rsp)["error"]
        assert before == daemon_states(daemons)
        # The repair's order: the successor adopts the slice, then learns
        # the down set; from then on the block is its own.
        orphaned = controller._node_states(gateway, [1])[0][2]
        daemons[0]._dispatch(MSG_ADOPT, pack_records(orphaned))
        daemons[0]._dispatch(MSG_DOWN, encode_json({"down": [1]}))
        rsp_type, _ = daemons[0]._dispatch(MSG_UPDATE, encode_updates(batch))
        assert rsp_type == RSP_UPDATE
        assert daemons[0].node.gpt.lookup(foreign) == 0


class TestCore:
    """``repro.cluster.owner`` alone: no engine, no daemon, no cluster."""

    # Two candidate indices over four slots: a sixth of the groups start
    # failed, and updates move groups in and out of the fallback table.
    # Eight over four: groups fail now and then, and there are indices
    # for history to choose between.  The default: nothing fails.
    @given(
        widths=st.sampled_from([
            dict(index_bits=1, array_bits=2),
            dict(index_bits=3, array_bits=4),
            {},
        ]),
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(0, 119), st.integers(0, 2)),
            max_size=60,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_history_moves_indices_never_failure_or_lookups(self, widths, ops):
        keys = unique_keys(120, seed=9)
        model = {int(k): int(k) % 3 for k in keys[:80]}
        params = SetSepParams.for_cluster(3, **widths)
        gpt, _ = GlobalPartitionTable.build(
            list(model), list(model.values()), 3, params=params,
            backend="setsep",
        )
        peer = gpt.copy()
        rib = RoutingInformationBase(3, gpt.setsep.num_blocks)
        for key, node in model.items():
            rib.insert(key, node, 0)
        acc = UpdateAccount()
        for insert, index, node in ops:
            ckey = canonical_key(keys[index])
            step = owner_step(
                rib, gpt, acc, ckey, rib.bucket_of(ckey),
                node if insert else None,
            )
            if step is None:
                assert not insert and ckey not in model
                continue
            assert apply_records(peer, step.wire) == 1
            if insert:
                model[ckey] = node
            else:
                del model[ckey]
        assert acc.updates == acc.groups_rebuilt <= len(ops)
        assert {e.key: e.node for e in rib.entries()} == model
        state = serialize.fingerprint(gpt.setsep)
        assert serialize.fingerprint(peer.setsep) == state
        # Which groups spilled, and what the fallback table holds, is
        # what the builder's search — from index 0, no incumbent —
        # decides on the slice as it now stands, group by group.
        separator = peer.setsep
        spilled = {}
        for group in range(separator.num_groups):
            members, nodes = rib.group_contents(group, separator)
            scratch = group_search.search_group(
                *base_hashes(members.keys), nodes, params,
            )
            assert bool(separator.failed_groups[group]) == (scratch is None)
            if scratch is None:
                spilled.update(zip(members.keys.tolist(), nodes.tolist()))
        assert dict(separator.fallback.items()) == spilled
        # Rebuilding every group from what the slice now holds changes
        # nothing: the history of updates may have chosen the indices,
        # but a rebuild keeps what it finds.
        for group in range(separator.num_groups):
            peer.rebuild_group(group, *rib.group_contents(group, separator))
        assert serialize.fingerprint(separator) == state
        if model:
            live = np.fromiter(model, dtype=np.uint64, count=len(model))
            assert peer.lookup_batch(live).tolist() == list(model.values())

    def test_history_does_move_indices(self):
        """Remove a key and put it back: the index its absence let the
        group take stays, where a build of the same slice starts at 0."""
        keys = unique_keys(2_000, seed=9)
        model = {int(k): int(k) % 3 for k in keys}
        gpt, _ = GlobalPartitionTable.build(
            list(model), list(model.values()), 3, backend="setsep"
        )
        built = serialize.fingerprint(gpt.setsep)
        rib = RoutingInformationBase(3, gpt.setsep.num_blocks)
        for key, node in model.items():
            rib.insert(key, node, 0)
        acc = UpdateAccount()
        moved = 0
        for key in list(model)[:40]:
            group = gpt.setsep.group_of(key)
            before = gpt.setsep.indices[group].tolist()
            for node in ((model[key] + 1) % 3, model[key]):
                owner_step(rib, gpt, acc, key, rib.bucket_of(key), node)
            moved += gpt.setsep.indices[group].tolist() != before
        assert moved and serialize.fingerprint(gpt.setsep) != built
        live = np.fromiter(model, dtype=np.uint64, count=len(model))
        assert gpt.lookup_batch(live).tolist() == list(model.values())


#: Live keys of the owner-batch differential, and spare keys beyond them.
BATCH_POOL = unique_keys(3_000, seed=19)
BATCH_LIVE = 2_400


@pytest.fixture(scope="module", params=separator_registry.BACKENDS)
def batch_owner(request):
    """A 3-node GPT over ``BATCH_LIVE`` keys and the slice it was built
    from; SetSep at 127 candidate indices, so some groups spill."""
    backend = request.param
    live = BATCH_POOL[:BATCH_LIVE].tolist()
    overrides = {"index_bits": 7} if backend == "setsep" else {}
    params = separator_registry.params_for_cluster(3, backend, **overrides)
    gpt, _ = GlobalPartitionTable.build(
        live, [key % 3 for key in live], 3, params=params, backend=backend
    )
    return gpt, [(key, key % 3) for key in live]


def owner_replicas(built):
    """Two identical owners — slice, replica, one registry each."""
    gpt, entries = built
    owners = []
    for _ in range(2):
        registry = MetricsRegistry()
        replica = gpt.copy()
        replica.setsep.bind_registry(registry)
        rib = RoutingInformationBase(
            3, replica.setsep.num_blocks, registry=registry
        )
        for key, node in entries:
            rib.insert(key, node, 0)
        owners.append((rib, replica, registry))
    return owners


def batch_against_steps(built, ops):
    """Run ``ops`` — ``(key, node or None, value)`` — through
    ``owner_batch`` on one owner and ``owner_step`` per op on another,
    require equal results, and return the batch's steps, its waves (the
    group count of each ``rebuild_groups`` call) and its owner."""
    (rib, gpt, counted), (rib1, gpt1, counted1) = owner_replicas(built)
    peer, peer1 = gpt.copy(), gpt1.copy()
    updates = [(key, rib.bucket_of(key), node, value) for key, node, value in ops]
    waves = []
    rebuild_groups = gpt.rebuild_groups
    gpt.rebuild_groups = lambda jobs: (
        waves.append(len(jobs)) or rebuild_groups(jobs)
    )
    acc, acc1 = UpdateAccount(), UpdateAccount()
    batched = owner_batch(rib, gpt, acc, updates)
    one_at_a_time = [owner_step(rib1, gpt1, acc1, *update) for update in updates]
    # Every step — FIB messages, record bytes, size — in op order.
    assert batched == one_at_a_time
    assert acc == acc1
    assert sum(waves) == acc.groups_rebuilt
    # The same slice, key order included, and the same group contents.
    assert list(rib.entries()) == list(rib1.entries())
    separator = gpt.setsep
    for group in {separator.group_of_bucket(u[1]) for u in updates}:
        keys, nodes = rib.group_contents(group, separator)
        keys1, nodes1 = rib1.group_contents(group, gpt1.setsep)
        assert (keys.keys.tolist(), nodes.tolist()) == (
            keys1.keys.tolist(), nodes1.tolist()
        )
    # The same replica on both owners and on a peer of each.
    for steps, replica in ((batched, peer), (one_at_a_time, peer1)):
        apply_records(replica, b"".join(s.wire for s in steps if s))
    assert len({
        serialize.fingerprint(g.setsep) for g in (gpt, gpt1, peer, peer1)
    }) == 1
    assert counted.counters() == counted1.counters()
    return batched, waves, (rib, gpt)


class TestOwnerBatch:
    """``owner_batch`` equals ``owner_step`` per op, on both backends."""

    @given(ops=st.lists(
        st.tuples(
            st.booleans(),
            st.one_of(st.integers(0, len(BATCH_POOL) - 1), st.integers(0, 40)),
            st.integers(0, 2),
        ),
        max_size=40,
    ))
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_one_at_a_time(self, batch_owner, ops):
        batch_against_steps(batch_owner, [
            (int(BATCH_POOL[index]), node if insert else None, index)
            for insert, index, node in ops
        ])

    @staticmethod
    def by_group(built, live=True):
        """The live or the spare keys, by group, the fullest first."""
        gpt, _ = built
        pool = BATCH_POOL[:BATCH_LIVE] if live else BATCH_POOL[BATCH_LIVE:]
        groups = gpt.setsep.groups_of(pool)
        sizes = np.bincount(groups)
        return [
            pool[groups == group].tolist()
            for group in np.argsort(-sizes, kind="stable") if sizes[group]
        ]

    def test_a_group_touched_twice_flushes_a_wave(self, batch_owner):
        (first, second, *_), (other, *_), *_ = self.by_group(batch_owner)
        _, waves, _ = batch_against_steps(batch_owner, [
            (other, 1, 0), (first, 2, 0), (second, 2, 0), (first, None, 0),
        ])
        assert waves == [2, 1, 1]

    def test_insert_then_remove_of_one_key(self, batch_owner):
        (fresh, *_), *_ = self.by_group(batch_owner, live=False)
        steps, waves, _ = batch_against_steps(
            batch_owner, [(fresh, 1, 5), (fresh, None, 0)]
        )
        assert [s.fib_ops[0][1] is None for s in steps] == [False, True]
        assert waves == [1, 1]

    def test_removal_of_an_unknown_key_is_no_step(self, batch_owner):
        (unknown, *_), *_ = self.by_group(batch_owner, live=False)
        (live, *_), *_ = self.by_group(batch_owner)
        steps, waves, _ = batch_against_steps(
            batch_owner, [(unknown, None, 0), (live, 0, 3), (unknown, None, 0)]
        )
        assert steps[0] is None and steps[2] is None and waves == [1]

    def test_a_group_emptied_by_removals(self, batch_owner):
        *_, others, smallest = self.by_group(batch_owner)
        ops = []
        for index, key in enumerate(smallest):
            ops += [(key, None, 0), (others[index % len(others)], 1, index)]
        _, waves, (rib, gpt) = batch_against_steps(batch_owner, ops)
        group = gpt.setsep.group_of(smallest[0])
        assert len(rib.group_contents(group, gpt.setsep)[0]) == 0
        assert len(waves) < len(ops)

    @pytest.mark.parametrize("batch_owner", ["setsep"], indirect=True)
    def test_a_group_that_spills_then_separates_again(self, batch_owner):
        gpt, entries = batch_owner
        separator = gpt.setsep
        rib = RoutingInformationBase(3, separator.num_blocks)
        for key, node in entries:
            rib.insert(key, node, 0)
        # A spare key whose arrival leaves no index that separates its
        # group (failure is a function of the contents alone).
        for spill in BATCH_POOL[BATCH_LIVE:].tolist():
            group = separator.group_of(spill)
            keys, nodes = rib.group_contents(group, separator)
            if separator.failed_groups[group] or group_search.search_group(
                *base_hashes(np.append(keys.keys, np.uint64(spill))),
                np.append(nodes, np.uint32(2)), separator.params,
            ) is not None:
                continue
            steps, waves, _ = batch_against_steps(
                batch_owner, [(spill, 2, 0), (spill, None, 0)]
            )
            records = [GroupDelta.from_wire_bytes(s.wire)[0] for s in steps]
            assert [r.failed for r in records] == [True, False]
            assert waves == [1, 1]
            return
        pytest.fail("no spare key spills its group")

    def test_a_fault_plan_over_a_batched_ship(self):
        """The same DROP/DELAY plan, one ``MSG_UPDATE`` per owner against
        one per op (owner by owner, as the controller ships a batch):
        the same verdicts land on the same records."""
        worlds = []
        for _ in range(2):
            gateway, generator, flows = started_gateway(3, 600, seed=23)
            controller, daemons = wire_up(gateway)
            for node in range(3):
                controller.arm_faults(
                    node, {DROP: {"delta": 2}, DELAY: {"delta": 3}}
                )
            worlds.append((controller, daemons))
        fresh = [f.key() for f in generator.flows(8)]
        ops = [UpdateOp(OP_INSERT, key, i % 3, i, 7) for i, key in enumerate(fresh)]
        ops += [UpdateOp(OP_REMOVE, f.key()) for f in flows[:8]]
        ops += [UpdateOp(OP_INSERT, f.key(), 1, 9, 7) for f in flows[8:16]]
        ops += [UpdateOp(OP_REMOVE, key) for key in fresh[:3]]
        ops += [UpdateOp(OP_REMOVE, fresh[0])]  # unknown by now
        (batched, batched_daemons), (single, single_daemons) = worlds
        totals = batched.push_updates(ops)
        by_owner = {}
        for op in ops:
            by_owner.setdefault(single.owner_of_key(op.key), []).append(op)
        totals1 = dict.fromkeys(ACCOUNT_FIELDS, 0)
        for owner in sorted(by_owner):
            for op in by_owner[owner]:
                for name, value in single.push_updates([op]).items():
                    totals1[name] += value
        assert totals == totals1
        assert totals["deltas_dropped"] and totals["deltas_delayed"]
        assert batched.deltalog.records() == single.deltalog.records()
        assert [d._delayed_deltas for d in batched_daemons] == [
            d._delayed_deltas for d in single_daemons
        ]
        assert daemon_states(batched_daemons) == daemon_states(single_daemons)
        for controller in (batched, single):
            for node in range(3):
                controller.flush_node(node)
        assert daemon_states(batched_daemons) == daemon_states(single_daemons)


class TestNothingPartlyApplied:
    """A payload whose third record is bad applies none of its records."""

    @staticmethod
    def payloads(separator):
        """Two good records that change ``separator``, then a third record
        that is truncated, whole with a padding bit set, well framed for
        a table of other widths (one value bit more; 32-bit arrays), or
        well framed for this one but naming a group it does not have,
        keeping the all-ones failure index live, or spilling a value
        wider than its ``value_bits``."""
        params = separator.params
        records = [
            GroupDelta(group, False, (group + 1,), (1,)).wire_bytes(params)
            for group in range(3)
        ]
        good = records[0] + records[1]
        forged = records[2][:-1] + bytes([records[2][-1] | 1])
        wider = GroupDelta(2, False, (3, 3), (1, 1)).wire_bytes(
            replace(params, value_bits=2)
        )
        longer = GroupDelta(2, False, (3,), (0xAAAAAAAA,)).wire_bytes(
            replace(params, array_bits=32)
        )
        beyond = GroupDelta(
            separator.num_groups, False, (3,), (1,)
        ).wire_bytes(params)
        sentinel = GroupDelta(
            2, False, (params.max_index,), (1,)
        ).wire_bytes(params)
        unfit = GroupDelta(
            2, True, (0,), (0,), ((12345, 1 << params.value_bits),)
        ).wire_bytes(params)
        return good, [
            good + tail for tail in (
                records[2][:-2], forged, wider, longer, beyond, sentinel,
                unfit,
            )
        ]

    def test_records_this_table_cannot_hold_are_refused_at_parse(self):
        separator, _ = separator_registry.build(
            unique_keys(200, seed=4), [0] * 200, SetSepParams(value_bits=1)
        )
        params = separator.params
        for record, reason in (
            (GroupDelta(2, True, (0,), (0,), ((12345, 7),)), "fit"),
            (GroupDelta(2, False, (params.max_index,), (1,)), "failure index"),
            (GroupDelta(separator.num_groups, False, (3,), (1,)), "range"),
        ):
            with pytest.raises(DeltaWireError, match=reason):
                parse_records(record.wire_bytes(params), separator)
        # A failed record's indices are not read, and values that fit pass.
        record = GroupDelta(2, True, (params.max_index,), (0,), ((12345, 1),))
        assert parse_records(record.wire_bytes(params), separator) == [record]

    def test_bad_delta_batch_leaves_the_daemon_unchanged_and_serving(self):
        gateway, _, flows = started_gateway(2, 300, seed=5)
        controller, daemons = wire_up(gateway)
        peer = daemons[1]

        def status():
            rsp_type, rsp = peer._dispatch(MSG_STATUS, b"")
            doc = decode_json(rsp)
            return doc["gpt_crc"], doc["counters"]["runtime.deltas.applied"]

        before = status()
        good, bad = self.payloads(peer.node.gpt.setsep)
        for payload in bad:
            rsp_type, rsp = peer._dispatch(MSG_DELTA, payload)
            assert rsp_type == RSP_ERR
            assert "DeltaWireError" in decode_json(rsp)["error"]
            assert status() == before
        # Still serving: the good prefix alone applies, and so does churn.
        rsp_type, rsp = peer._dispatch(MSG_DELTA, good)
        assert (rsp_type, decode_json(rsp)) == (RSP_OK, {"applied": 2})
        assert status()[0] != before[0]
        controller.push_updates([UpdateOp(OP_REMOVE, flows[0].key())])

    def test_refused_adopt_lands_no_entry(self):
        gateway, _, _ = started_gateway(2, 2_000, seed=5)
        controller, daemons = wire_up(gateway)
        orphaned = controller._node_states(gateway, [1])[0][2]
        entries = orphaned[:3].copy()
        entries["node"][2] = 7
        before = daemon_states(daemons)
        rsp_type, rsp = daemons[0]._dispatch(MSG_ADOPT, pack_records(entries))
        assert rsp_type == RSP_ERR
        assert "handling node 7 out of range" in decode_json(rsp)["error"]
        assert daemon_states(daemons) == before
        rsp_type, rsp = daemons[0]._dispatch(
            MSG_ADOPT, pack_records(orphaned[:2])
        )
        assert (rsp_type, decode_json(rsp)) == (RSP_OK, {"adopted": 2})

    def test_bad_log_leaves_the_floor_uncompacted(self):
        separator, _ = separator_registry.build(
            unique_keys(200, seed=4), [0] * 200, SetSepParams(value_bits=1)
        )
        floor = serialize.dumps(separator)
        good, bad = self.payloads(separator)
        for payload in bad:
            log = DeltaLog(floor)
            log.append(payload, records=3)
            with pytest.raises(ValueError):
                log.compact()
            assert (log.floor, log.records()) == (floor, payload)
            assert log.compactions == 0
            # What a caller holding a live replica would see applied.
            with pytest.raises(ValueError):
                apply_records(separator, payload)
            assert serialize.dumps(separator) == floor
        assert apply_records(separator, good) == 2
        assert serialize.dumps(separator) != floor


    @pytest.mark.skipif(not shm.available(), reason="no writable /dev/shm")
    def test_bad_catch_up_leaves_the_daemon_on_its_old_state(self):
        gateway, _, _ = started_gateway(2, 300, seed=5)
        controller, daemons = wire_up(gateway)
        peer = daemons[1]
        states, snapshot = controller._states(gateway)
        header, fib, rib = states[1]
        publisher = shm.SegmentPublisher(
            prefix=f"{shm.SEGMENT_PREFIX}test-{os.getpid():x}-"
        )
        try:
            segment = publisher.publish(snapshot)
            header = dict(header, segment={
                "name": segment.name, "fingerprint": segment.fingerprint,
            })
            crc = decode_json(peer._dispatch(MSG_STATUS, b"")[1])["gpt_crc"]
            good, bad = self.payloads(peer.node.gpt.setsep)
            for payload in bad:
                rsp_type, rsp = peer._dispatch(
                    MSG_STATE_REF, node_state(header, fib, rib, payload)
                )
                assert rsp_type == RSP_ERR
                assert "DeltaWireError" in decode_json(rsp)["error"]
                status = decode_json(peer._dispatch(MSG_STATUS, b"")[1])
                assert status["gpt_crc"] == crc
            rsp_type, rsp = peer._dispatch(
                MSG_STATE_REF, node_state(header, fib, rib, good)
            )
            assert (rsp_type, decode_json(rsp)["replayed"]) == (RSP_OK, 2)
            status = decode_json(peer._dispatch(MSG_STATUS, b"")[1])
            assert status["gpt_crc"] != crc
        finally:
            if peer._attached is not None:
                peer._attached.close()
            publisher.close()

    def test_othello_record_of_another_geometry_is_refused_whole(self):
        params = OthelloParams(value_bits=1, vertices_per_side=2048)
        separator, _ = separator_registry.build(
            unique_keys(200, seed=4), [0] * 200, params, backend="othello"
        )
        floor = serialize.dumps(separator)
        good = OthelloUpdate(0, int(separator.seeds[0]), ((5, 1),))
        # A value only a wider table can hold; a cell only a larger one
        # has; a block only a table of more blocks has.
        for other, block, cell in (
            (replace(params, value_bits=2), 0, (4000, 3)),
            (replace(params, vertices_per_side=4096), 0, (5000, 1)),
            (params, separator.num_blocks, (5, 1)),
        ):
            bad = OthelloUpdate(block, 0, (cell,)).wire_bytes(other)
            with pytest.raises(DeltaWireError):
                apply_records(separator, good.wire_bytes(params) + bad)
            assert serialize.dumps(separator) == floor
        assert apply_records(separator, good.wire_bytes(params)) == 1
        assert serialize.dumps(separator) != floor
        with pytest.raises(ValueError):
            separator.apply_delta(OthelloUpdate(0, 0, ((0, 0),) * 8, full=True))


class TestHostileState:
    """A state or ADOPT payload the daemon refuses leaves it as it was.

    Each refusal is an ``RSP_ERR`` naming the exception type, the
    daemons' states are unchanged (the old plane stays live) and the next
    good payload is taken.  The inputs are ones the row format can
    carry: payloads cut short, records that are not inserts, a RIB row
    for a node the cluster does not have, a FIB capacity the state cannot
    justify.
    """

    @pytest.fixture
    def peer(self):
        gateway, _, _ = started_gateway(2, 2_000, seed=5)
        controller, daemons = wire_up(gateway)
        states, snapshot = controller._states(gateway)
        return daemons, states[1], snapshot

    @staticmethod
    def refused(daemons, msg_type, payload, error):
        """``payload`` is refused with an ``error`` (a regex) and moves
        nothing on any daemon."""
        peer = daemons[1]
        before, gpt = daemon_states(daemons), peer.node.gpt
        rsp_type, rsp = peer._dispatch(msg_type, payload)
        assert rsp_type == RSP_ERR
        assert re.match(error, decode_json(rsp)["error"]), rsp
        assert peer.node.gpt is gpt
        assert daemon_states(daemons) == before

    @staticmethod
    def cuts(sections):
        """Cut points of a payload made of ``sections`` (their byte
        lengths, a record section as ``(count, 21)``): each boundary short
        of the end, and one byte into each section and its last record."""
        points, at = set(), 0
        for section in sections:
            count, size = section if isinstance(section, tuple) else (1, section)
            points |= {at, at + 1}
            if count:
                points.add(at + (count - 1) * size + 1)
            at += count * size
        return sorted(p for p in points if p < at)

    @pytest.mark.parametrize(
        "msg_type", [MSG_SNAPSHOT, MSG_SWAP], ids=["snapshot", "swap"]
    )
    def test_a_cut_state_keeps_the_old_plane(self, peer, msg_type):
        daemons, (header, fib, rib), snapshot = peer
        payload = node_state(header, fib, rib, snapshot)
        json_len = len(encode_json(header))
        rows = [4, (len(fib), 21), 4, (len(rib), 21)]
        head = 4 + json_len + 8 + 21 * (len(fib) + len(rib))
        for cut in self.cuts([4, json_len] + rows):
            self.refused(daemons, msg_type, payload[:cut], "ProtocolError: ")
        # Cut in the snapshot, at its start and one byte short of its end.
        for cut in (head, head + 1, len(payload) - 1):
            self.refused(daemons, msg_type, payload[:cut], "SnapshotError: ")
        assert daemons[1]._dispatch(msg_type, payload)[0] == RSP_OK

    @pytest.mark.skipif(not shm.available(), reason="no writable /dev/shm")
    def test_a_cut_state_ref_keeps_the_old_plane(self, peer):
        daemons, (header, fib, rib), snapshot = peer
        publisher = shm.SegmentPublisher(
            prefix=f"{shm.SEGMENT_PREFIX}test-{os.getpid():x}-"
        )
        try:
            segment = publisher.publish(snapshot)
            header = dict(header, segment={
                "name": segment.name, "fingerprint": segment.fingerprint,
            })
            payload = node_state(header, fib, rib, b"")
            sections = [
                4, len(encode_json(header)), 4, (len(fib), 21), 4,
                (len(rib), 21),
            ]
            for cut in self.cuts(sections):
                self.refused(
                    daemons, MSG_STATE_REF, payload[:cut], "ProtocolError: "
                )
            assert daemons[1]._dispatch(MSG_STATE_REF, payload)[0] == RSP_OK
        finally:
            if daemons[1]._attached is not None:
                daemons[1]._attached.close()
            publisher.close()

    def test_a_cut_adopt_lands_no_entry(self, peer):
        daemons, (_, _, rib), _ = peer
        payload = pack_records(rib[:3])
        for cut in self.cuts([4, (3, 21)]):
            self.refused(daemons, MSG_ADOPT, payload[:cut], "ProtocolError: ")
        self.refused(
            daemons, MSG_ADOPT, payload + b"\x00",
            "ProtocolError: adopted RIB rows length 68 != expected 67",
        )
        rsp_type, rsp = daemons[1]._dispatch(MSG_ADOPT, payload)
        assert (rsp_type, decode_json(rsp)) == (RSP_OK, {"adopted": 3})

    @pytest.mark.parametrize("section", ["FIB", "RIB", "ADOPT"])
    def test_a_row_that_is_not_an_insert_is_refused(self, peer, section):
        daemons, (header, fib, rib), snapshot = peer
        fib, rib = fib.copy(), rib.copy()
        rows = fib if section == "FIB" else rib
        rows["op"][1] = OP_REMOVE
        if section == "ADOPT":
            msg_type, payload = MSG_ADOPT, pack_records(rib)
            section = "adopted RIB"
        else:
            msg_type = MSG_SNAPSHOT
            payload = node_state(header, fib, rib, snapshot)
        self.refused(
            daemons, msg_type, payload,
            f"ProtocolError: {section} rows record 1: unexpected op 2",
        )
        rows["op"][1] = OP_INSERT
        good = (
            pack_records(rib) if msg_type == MSG_ADOPT
            else node_state(header, fib, rib, snapshot)
        )
        assert daemons[1]._dispatch(msg_type, good)[0] == RSP_OK

    def test_a_rib_row_for_a_node_beyond_the_cluster_is_refused(self, peer):
        daemons, (header, fib, rib), snapshot = peer
        bad = rib.copy()
        bad["node"][4] = header["num_nodes"]
        self.refused(
            daemons, MSG_SNAPSHOT, node_state(header, fib, bad, snapshot),
            "ValueError: handling node 2 out of range",
        )
        assert daemons[1]._dispatch(
            MSG_SNAPSHOT, node_state(header, fib, rib, snapshot)
        )[0] == RSP_OK

    def test_a_fib_capacity_past_the_separator_is_refused_unallocated(
        self, peer, monkeypatch
    ):
        daemons, (header, fib, rib), snapshot = peer
        limit = 2 * KEYS_PER_BLOCK * daemons[1].node.gpt.setsep.num_blocks
        assert header["fib_capacity"] <= limit
        built = []
        monkeypatch.setattr(
            daemon_module, "CuckooHashTable",
            lambda capacity: built.append(capacity) or CuckooHashTable(capacity),
        )
        for capacity in (limit + 1, 2**40, 0, -1, 1.5, "7", True, None):
            self.refused(
                daemons, MSG_SNAPSHOT,
                node_state(
                    dict(header, fib_capacity=capacity), fib, rib, snapshot
                ),
                re.escape(
                    f"ValueError: FIB capacity {capacity!r} is not 1..{limit}"
                ),
            )
        assert built == []
        assert daemons[1]._dispatch(
            MSG_SNAPSHOT, node_state(header, fib, rib, snapshot)
        )[0] == RSP_OK
        assert built == [header["fib_capacity"]]


class TestDaemonFlush:
    """Delayed deltas go out through the same fan-out and accounting."""

    @pytest.fixture()
    def delayed(self):
        """Three daemons; owner 0 holds one delta back from peers 1, 2."""
        gateway, _, flows = started_gateway(3, 300, seed=7)
        controller, daemons = wire_up(gateway)
        key = next(
            f.key() for f in flows
            if daemons[0].slice.owner_of_key(f.key()) == 0
        )
        controller.arm_faults(0, {DELAY: {"delta": 2}})
        totals = controller.push_updates([UpdateOp(OP_INSERT, key, 2, 9)])
        assert totals["deltas_delayed"] == 2
        assert totals["delta_broadcasts"] == totals["delta_bits"] == 0
        return controller, daemons

    @staticmethod
    def cut_link(daemon, dead):
        """Posts from ``daemon`` to peer ``dead`` fail like a dead link."""
        healthy = daemon._peer_post

        def post(node_id, msg_type, payload=b""):
            if node_id == dead:
                raise OSError("connection refused")
            return healthy(node_id, msg_type, payload)

        daemon._peer_post = post
        return healthy

    def test_flush_skips_a_peer_declared_down_since(self, delayed):
        _, daemons = delayed
        self.cut_link(daemons[0], dead=1)
        daemons[0]._dispatch(MSG_DOWN, encode_json({"down": [1]}))
        rsp_type, rsp = daemons[0]._dispatch(MSG_FLUSH, b"")
        assert rsp_type == RSP_OK
        assert decode_json(rsp)["flushed_deltas"] == 1
        assert not daemons[0]._delayed_deltas
        assert serialize.fingerprint(daemons[2].node.gpt.setsep) == (
            serialize.fingerprint(daemons[0].node.gpt.setsep)
        )

    def test_transport_error_keeps_the_undelivered_queued(self, delayed):
        _, daemons = delayed
        healthy = self.cut_link(daemons[0], dead=1)
        rsp_type, _ = daemons[0]._dispatch(MSG_FLUSH, b"")
        assert rsp_type == RSP_ERR
        assert [peer for peer, _, _ in daemons[0]._delayed_deltas] == [1, 2]
        daemons[0]._peer_post = healthy
        rsp_type, rsp = daemons[0]._dispatch(MSG_FLUSH, b"")
        assert rsp_type == RSP_OK
        assert decode_json(rsp)["flushed_deltas"] == 2
        assert len(
            {serialize.fingerprint(d.node.gpt.setsep) for d in daemons}
        ) == 1

    def test_flushed_deltas_are_accounted_on_delivery(self, delayed):
        controller, daemons = delayed
        flushed = controller.flush_node(0)
        assert flushed["flushed_deltas"] == flushed["delta_broadcasts"] == 2
        assert flushed["delta_bits"] > 0
        counters = controller.registry.counters()
        assert counters["runtime.update.delta_broadcasts"] == 2
        assert counters["runtime.update.delta_bits"] == flushed["delta_bits"]
        assert controller.flush_node(0)["flushed_deltas"] == 0


class TestEngineAgainstDaemons:
    #: Few candidate indices, so that groups fail and spill during the
    #: churn and the order of a failed group's keys reaches the wire.
    TIGHT = dict(index_bits=7)

    @pytest.mark.parametrize(
        "nodes, backend", [(2, "setsep"), (4, "setsep"), (3, "othello")]
    )
    def test_same_churn_same_bytes(self, nodes, backend, monkeypatch):
        monkeypatch.setattr(separator_registry._registry, "chosen", backend)
        gateway, generator, flows = started_gateway(
            nodes, 1_500, seed=11, **self.TIGHT
        )
        controller, daemons = wire_up(gateway)
        params = gateway.cluster.nodes[0].gpt.setsep.params
        record_type = separator_registry.update_record_type(backend)

        framed = []
        wire_bytes = record_type.wire_bytes

        def recording(delta, params):
            wire = wire_bytes(delta, params)
            if not (framed and framed[-1][0] is delta):  # Othello sizes
                framed.append((delta, wire))             # by framing again
            return wire

        monkeypatch.setattr(record_type, "wire_bytes", recording)
        # Full-contents enumerations: every update on SetSep, only a cold
        # owner's on Othello (``needs_full_contents``).
        enumerated = []
        group_contents = RoutingInformationBase.group_contents
        monkeypatch.setattr(
            RoutingInformationBase, "group_contents",
            lambda rib, group, sep: (
                enumerated.append(group) or group_contents(rib, group, sep)
            ),
        )
        live = list(flows)
        ops = churn(
            gateway, generator, live, np.random.default_rng(nodes), 2_000
        )
        by_engine, framed[:] = list(framed), []
        enumerated_by_engine, enumerated[:] = len(enumerated), []
        for op in ops:  # one at a time: the engine's delta order
            totals = controller.push_updates([op])
            assert totals["updates"] == 1
        by_daemons = list(framed)

        # Both owners framed the same deltas, byte for byte, and the codec
        # reads each back to what was written.
        assert len(by_engine) == len(ops)
        assert [w for _, w in by_engine] == [w for _, w in by_daemons]
        spilled = 0
        for delta, wire in by_engine:
            assert record_type.from_wire_bytes(wire) == (
                delta, params, len(wire)
            )
            if backend == "setsep":
                assert wire[WIRE_HEADER.size:] == reference_body(
                    delta, params
                )
                spilled += len(delta.fallback_upserts) > 1
        if backend == "setsep":
            assert spilled, "no group spilled: the key order went untested"
            assert enumerated_by_engine == len(enumerated) == len(ops)
        else:
            # Cold owners took the full contents, warm ones the changed
            # key alone: both arms ran, equally often, on both transports.
            assert 0 < enumerated_by_engine == len(enumerated) < len(ops)

        # Every replica of both systems ended in the same state.
        prints = {
            serialize.fingerprint(node.gpt.setsep)
            for node in gateway.cluster.nodes
        } | {serialize.fingerprint(d.node.gpt.setsep) for d in daemons}
        assert len(prints) == 1

        # Every live key reaches its handler, from every replica.
        records = [
            gateway.controller.record_for_key(flow.key()) for flow in live
        ]
        keys = np.asarray([r.key for r in records], dtype=np.uint64)
        handlers = np.asarray([r.handling_node for r in records])
        for node, daemon in zip(gateway.cluster.nodes, daemons):
            assert np.array_equal(node.gpt.lookup_batch(keys), handlers)
            assert np.array_equal(daemon.node.gpt.lookup_batch(keys), handlers)
        for record in records:
            handler = record.handling_node
            assert gateway.cluster.nodes[handler].fib.lookup(record.key) == (
                record.teid
            )
        # Each daemon's FIB holds exactly its shadow node's entries.
        assert [fib_entries(d.node.fib) for d in daemons] == [
            fib_entries(node.fib) for node in gateway.cluster.nodes
        ]
        assert sum(len(d.node.fib) for d in daemons) == len(live)
        assert sum(len(d.slice) for d in daemons) == len(live)

    @pytest.mark.parametrize(
        "nodes, backend", [(2, "setsep"), (3, "othello")]
    )
    def test_each_daemon_fib_is_its_shadow_nodes_after_every_step(
        self, nodes, backend, monkeypatch
    ):
        """The daemon's FIB is the shadow node's class at the shadow
        node's capacity: after every churn step, each holds exactly the
        entries (key -> TEID) of the node it mirrors, and every GPT
        replica is the same."""
        monkeypatch.setattr(separator_registry._registry, "chosen", backend)
        gateway, generator, flows = started_gateway(nodes, 600, seed=23)
        controller, daemons = wire_up(gateway)
        assert [d.node.fib.capacity for d in daemons] == [
            node.fib.capacity for node in gateway.cluster.nodes
        ]
        live, rng = list(flows), np.random.default_rng(nodes)
        for _ in range(150):
            controller.push_updates(churn(gateway, generator, live, rng, 1))
            assert [fib_entries(d.node.fib) for d in daemons] == [
                fib_entries(node.fib) for node in gateway.cluster.nodes
            ]
            assert {serialize.fingerprint(d.node.gpt.setsep) for d in daemons} == {
                serialize.fingerprint(gateway.cluster.nodes[0].gpt.setsep)
            }

    def test_same_fault_plan_same_accounting_and_staleness(self):
        nodes, count = 3, 300
        gateway, generator, flows = started_gateway(nodes, 400, seed=13)
        controller, daemons = wire_up(gateway)
        engine = gateway.updates
        # One seeded plan: a fifth of the updates have their first one or
        # two delta ships dropped, delayed or duplicated.  Armed just
        # ahead of its update and used up within it, so the engine's one
        # budget and the owning daemon's see the same ships.
        rng = np.random.default_rng(17)
        plan = {
            int(index): (
                (DROP, DELAY, DUPLICATE)[int(rng.integers(3))],
                int(rng.integers(1, nodes)),
            )
            for index in rng.choice(count, size=count // 5, replace=False)
        }
        budgets = TransportFaultBudgets()
        engine.delta_interceptor = lambda owner, peer: budgets.verdict("delta")
        live = list(flows)
        ops = churn(
            gateway, generator, live, np.random.default_rng(3), count,
            before_op=lambda index: index in plan and budgets.arm(
                plan[index][0], "delta", plan[index][1]
            ),
        )
        engine.delta_interceptor = None
        totals = dict.fromkeys(ACCOUNT_FIELDS, 0)
        for index, op in enumerate(ops):
            if index in plan:
                verdict, ships = plan[index]
                controller.arm_faults(
                    controller.owner_of_key(op.key), {verdict: {"delta": ships}}
                )
            for name, value in controller.push_updates([op]).items():
                totals[name] += value
        assert budgets.pending() == 0
        assert not any(d.faults.pending() for d in daemons)

        def prints():
            return (
                [serialize.fingerprint(n.gpt.setsep)
                 for n in gateway.cluster.nodes],
                [serialize.fingerprint(d.node.gpt.setsep) for d in daemons],
            )

        def account():
            runtime = controller.registry.counters()
            return (
                {name: getattr(engine.stats, name) for name in ACCOUNT_FIELDS},
                {name: runtime.get(f"runtime.update.{name}", 0)
                 for name in ACCOUNT_FIELDS},
            )

        # Same totals field by field, and the same replicas stale in the
        # same way, before the flush ...
        by_engine, by_daemons = account()
        assert by_engine == by_daemons == totals
        assert min(
            totals[name] for name in
            ("deltas_dropped", "deltas_delayed", "deltas_duplicated")
        ) > 0
        by_engine, by_daemons = prints()
        assert by_engine == by_daemons and len(set(by_engine)) > 1
        # ... and after it: delayed records count when they are delivered.
        flushed = sum(
            controller.flush_node(node)["flushed_deltas"]
            for node in range(nodes)
        )
        assert engine.flush_delayed_deltas() == flushed == (
            totals["deltas_delayed"]
        )
        by_engine, by_daemons = account()
        assert by_engine == by_daemons
        assert by_engine["delta_broadcasts"] == (
            totals["delta_broadcasts"] + flushed
        )
        by_engine, by_daemons = prints()
        assert by_engine == by_daemons

        # A dropped or late record leaves its group stale until the group
        # is rebuilt again: the §4.5 repair is an identity re-insert.
        separator = gateway.cluster.nodes[0].gpt.setsep
        stale = {
            separator.group_of(ops[index].key)
            for index, (verdict, _) in plan.items() if verdict != DUPLICATE
        }
        for flow in live:
            record = gateway.controller.record_for_key(flow.key())
            group = separator.group_of(record.key)
            if group in stale:
                stale.remove(group)
                engine.insert_flow(
                    record.key, record.handling_node, record.teid
                )
                controller.push_updates([UpdateOp(
                    OP_INSERT, record.key, record.handling_node,
                    record.teid, record.base_station_ip,
                )])
        assert not stale, "a stale group has no live key to repair it with"
        by_engine, by_daemons = prints()
        assert len(set(by_engine + by_daemons)) == 1
