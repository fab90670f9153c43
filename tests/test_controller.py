"""Tests for the EPC controller (repro.epc.controller)."""

from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.epc.controller import (
    FREE_ROW,
    AssignmentPolicy,
    BearerMismatchError,
    EpcController,
)
from repro.epc.packets import FlowTuple, PROTO_UDP, parse_ip


def flow(i: int) -> FlowTuple:
    return FlowTuple(
        src_ip=parse_ip("203.0.113.1") + i,
        dst_ip=parse_ip("10.0.0.1") + i,
        protocol=PROTO_UDP,
        sport=5000 + i,
        dport=6000,
    )


BS = parse_ip("172.16.1.1")


def node_loads(ctrl):
    """Flows pinned per node, counted from the controller's records."""
    loads = [0] * ctrl.num_nodes
    for record in ctrl.flows.values():
        loads[record.handling_node] += 1
    return loads


class TestBearerLifecycle:
    def test_establish_assigns_teid_and_node(self):
        ctrl = EpcController(num_nodes=4)
        record = ctrl.establish_bearer(flow(0), BS, region=3)
        assert record.teid in ctrl.teids
        assert 0 <= record.handling_node < 4
        assert record.base_station_ip == BS
        assert len(ctrl) == 1

    def test_duplicate_flow_rejected(self):
        ctrl = EpcController(num_nodes=4)
        ctrl.establish_bearer(flow(0), BS)
        with pytest.raises(ValueError):
            ctrl.establish_bearer(flow(0), BS)

    def test_teardown_releases_teid(self):
        ctrl = EpcController(num_nodes=4)
        record = ctrl.establish_bearer(flow(0), BS)
        removed = ctrl.teardown_bearer(flow(0))
        assert removed == record
        assert record.teid not in ctrl.teids
        assert ctrl.teardown_bearer(flow(0)) is None

    def test_record_for_key(self):
        ctrl = EpcController(num_nodes=2)
        record = ctrl.establish_bearer(flow(1), BS)
        assert ctrl.record_for_key(flow(1).key()) == record
        assert ctrl.record_for_key(12345) is None

    def test_invalid_cluster_size(self):
        with pytest.raises(ValueError):
            EpcController(num_nodes=0)


class TestPolicies:
    def test_round_robin_spreads_evenly(self):
        ctrl = EpcController(num_nodes=4, policy=AssignmentPolicy.ROUND_ROBIN)
        for i in range(40):
            ctrl.establish_bearer(flow(i), BS)
        assert node_loads(ctrl) == [10, 10, 10, 10]

    def test_geographic_pins_region_to_one_node(self):
        ctrl = EpcController(num_nodes=4, policy=AssignmentPolicy.GEOGRAPHIC)
        records = [
            ctrl.establish_bearer(flow(i), BS, region=7) for i in range(10)
        ]
        nodes = {r.handling_node for r in records}
        assert len(nodes) == 1

    def test_geographic_regions_map_to_distinct_nodes(self):
        ctrl = EpcController(num_nodes=4, policy=AssignmentPolicy.GEOGRAPHIC)
        a = ctrl.establish_bearer(flow(0), BS, region=0)
        b = ctrl.establish_bearer(flow(1), BS, region=1)
        assert a.handling_node != b.handling_node

    def test_geographic_creates_skew(self):
        """§7: geographic assignment skews FIB distribution."""
        ctrl = EpcController(num_nodes=4, policy=AssignmentPolicy.GEOGRAPHIC)
        # Two regions only -> two nodes get everything.
        for i in range(40):
            ctrl.establish_bearer(flow(i), BS, region=i % 2)
        loads = node_loads(ctrl)
        assert sorted(loads) == [0, 0, 20, 20]

    def test_hash_policy_deterministic(self):
        a = EpcController(num_nodes=4, policy=AssignmentPolicy.HASH)
        b = EpcController(num_nodes=4, policy=AssignmentPolicy.HASH)
        for i in range(10):
            assert (
                a.establish_bearer(flow(i), BS).handling_node
                == b.establish_bearer(flow(i), BS).handling_node
            )


class TestRefusedBearerLeavesNoTeid:
    """A bearer refused in ``establish_bearer`` allocates no TEID: the
    TEID is taken after every check and the node assignment."""

    @pytest.mark.parametrize("policy", list(AssignmentPolicy))
    @pytest.mark.parametrize("region", [None, 1.5, "3", 2.0])
    def test_non_integer_region_refused_before_a_teid(self, policy, region):
        ctrl = EpcController(num_nodes=4, policy=policy)
        first = ctrl.establish_bearer(flow(0), BS, region=2)
        with pytest.raises(ValueError, match=f"region {region!r}"):
            ctrl.establish_bearer(flow(1), BS, region=region)
        assert len(ctrl) == 1 and len(ctrl.teids) == 1
        assert ctrl.establish_bearer(flow(1), BS).teid == first.teid + 1

    def test_numpy_integer_region_accepted(self):
        ctrl = EpcController(num_nodes=4, policy=AssignmentPolicy.GEOGRAPHIC)
        record = ctrl.establish_bearer(flow(0), BS, region=np.int64(6))
        assert record.handling_node == 2

    @pytest.mark.parametrize("refused", [(0, BS), (1, 1 << 32)],
                             ids=["duplicate", "bad-ip"])
    def test_other_refusals_leave_no_teid(self, refused):
        ctrl = EpcController(num_nodes=4)
        ctrl.establish_bearer(flow(0), BS)
        index, base_station_ip = refused
        with pytest.raises(ValueError):
            ctrl.establish_bearer(flow(index), base_station_ip)
        assert len(ctrl) == 1 and len(ctrl.teids) == 1


class TestTeidAllocation:
    def test_each_bearer_takes_its_own_teid(self):
        ctrl = EpcController(num_nodes=2)
        records = [ctrl.establish_bearer(flow(i), BS) for i in range(20)]
        assert len(records) == 20
        assert len(ctrl) == 20
        teids = {r.teid for r in records}
        assert len(teids) == 20


def columns(ctrl):
    """The controller's TEID columns."""
    return ctrl._keys, ctrl._nodes, ctrl._base_stations


def free_rows_hold_sentinel(ctrl, live_teids):
    keys, nodes, base_stations = columns(ctrl)
    free = np.setdiff1d(np.arange(len(keys)), list(live_teids))
    assert (keys[free] == FREE_ROW[0]).all()
    assert (nodes[free] == FREE_ROW[1]).all()
    assert (base_stations[free] == FREE_ROW[2]).all()


def row_of(ctrl, teid):
    keys, nodes, base_stations = columns(ctrl)
    return int(keys[teid]), int(nodes[teid]), int(base_stations[teid])


class TestEgressColumns:
    """The controller's TEID-indexed columns follow every bearer change."""

    def test_rows_follow_establish_rehome_handover_teardown(self):
        ctrl = EpcController(num_nodes=4)
        record = ctrl.establish_bearer(flow(0), BS)
        assert row_of(ctrl, record.teid) == (
            record.key, record.handling_node, BS
        )
        node = (record.handling_node + 1) % 4
        ctrl.rehome(flow(0), node)
        ctrl.handover(flow(0), BS + 7)
        assert row_of(ctrl, record.teid) == (record.key, node, BS + 7)
        ctrl.teardown_bearer(flow(0))
        assert row_of(ctrl, record.teid) == FREE_ROW
        free_rows_hold_sentinel(ctrl, ())

    def test_columns_grow_with_the_teid_cursor(self):
        ctrl = EpcController(num_nodes=2)
        records = [ctrl.establish_bearer(flow(i), BS + i) for i in range(300)]
        keys, nodes, base_stations = columns(ctrl)
        assert len(keys) == len(nodes) == len(base_stations)
        assert 301 <= len(keys) <= 2 * 301  # doubling with the TEID cursor
        for record in records:
            assert row_of(ctrl, record.teid) == (
                record.key, record.handling_node, record.base_station_ip
            )
        free_rows_hold_sentinel(ctrl, [r.teid for r in records])

    def test_egress_gathers_the_base_station(self):
        ctrl = EpcController(num_nodes=4)
        records = [ctrl.establish_bearer(flow(i), BS + i) for i in range(5)]
        picked = [records[3], records[0], records[3]]
        base_stations = ctrl.egress(
            np.array([r.key for r in picked], dtype=np.uint64),
            np.array([r.teid for r in picked], dtype=np.int64),
            np.array([4, 9, 11]),
            np.array([r.handling_node for r in picked]),
        )
        assert base_stations.tolist() == [r.base_station_ip for r in picked]

    def test_egress_refuses_a_bearer_answered_at_another_node(self):
        """A FIB that answers a live bearer's TEID at a node that does not
        handle it (its DPE holds no context there) is a mismatch; of two
        bad rows, the lower frame number is named whatever the row order."""
        ctrl = EpcController(num_nodes=4)
        records = [ctrl.establish_bearer(flow(i), BS) for i in range(3)]
        handlers = np.array([r.handling_node for r in records])
        handlers[[0, 2]] = (handlers[[0, 2]] + 1) % 4
        with pytest.raises(BearerMismatchError) as err:
            ctrl.egress(
                np.array([r.key for r in records], dtype=np.uint64),
                np.array([r.teid for r in records], dtype=np.int64),
                np.array([30, 20, 10]), handlers,
            )
        assert (err.value.frame, err.value.key, err.value.teid) == (
            10, records[2].key, records[2].teid
        )

    @pytest.mark.parametrize("bad_teid", [1, 0, -1, 4, 5, 999, 1 << 40])
    def test_egress_names_the_first_frame_whose_teid_is_not_its_bearer(
        self, bad_teid
    ):
        """Another flow's TEID, TEID 0, a negative one, a free one, one
        never handed out, and two past the columns."""
        ctrl = EpcController(num_nodes=4)
        records = [ctrl.establish_bearer(flow(i), BS) for i in range(4)]
        ctrl.teardown_bearer(flow(3))  # TEID 4 is free
        keys = np.array([r.key for r in records[:3]], dtype=np.uint64)
        teids = np.array([1, bad_teid, bad_teid], dtype=np.int64)
        handlers = np.array([records[0].handling_node] * 3)
        with pytest.raises(BearerMismatchError) as err:
            ctrl.egress(keys, teids, np.array([10, 20, 30]), handlers)
        assert (err.value.frame, err.value.key, err.value.teid) == (
            20, records[1].key, bad_teid
        )
        assert str(err.value).startswith("frame 20: ")


class TestRefusalsBeforeChange:
    """What an integer column cannot hold is a ``ValueError``, raised
    before the records, the columns or the TEID allocator move."""

    @pytest.mark.parametrize(
        "address", [BS + 0.5, float(BS), "172.16.1.1", None, np.float64(BS)]
    )
    def test_establish_refuses_a_non_integer_address(self, address):
        ctrl = EpcController(num_nodes=4)
        ctrl.establish_bearer(flow(0), BS)
        with pytest.raises(ValueError, match="base_station_ip"):
            ctrl.establish_bearer(flow(1), address)
        assert len(ctrl) == 1 and len(ctrl.teids) == 1
        free_rows_hold_sentinel(ctrl, [1])

    @pytest.mark.parametrize(
        "address", [BS + 0.5, float(BS), "172.16.1.1", -1, 1 << 32]
    )
    def test_handover_refuses_what_a_column_cannot_hold(self, address):
        ctrl = EpcController(num_nodes=4)
        record = ctrl.establish_bearer(flow(0), BS)
        with pytest.raises(ValueError, match="base_station_ip"):
            ctrl.handover(flow(0), address)
        assert ctrl.record_for_key(record.key) == record
        assert row_of(ctrl, record.teid) == (
            record.key, record.handling_node, BS
        )

    def test_integer_addresses_are_stored_as_int(self):
        ctrl = EpcController(num_nodes=4)
        record = ctrl.establish_bearer(flow(0), np.uint32(BS))
        moved = ctrl.handover(flow(0), np.int64(BS + 1))
        assert type(record.base_station_ip) is int
        assert type(moved.base_station_ip) is int
        assert moved.base_station_ip == BS + 1

    @pytest.mark.parametrize(
        "node", [1.5, 1.0, True, False, np.float64(1), -1, 4, "1", None]
    )
    def test_rehome_refuses_what_is_not_a_node_id(self, node):
        ctrl = EpcController(num_nodes=4)
        record = ctrl.establish_bearer(flow(0), BS)
        with pytest.raises(ValueError, match="new_node"):
            ctrl.rehome(flow(0), node)
        assert ctrl.record_for_key(record.key) == record
        assert row_of(ctrl, record.teid) == (
            record.key, record.handling_node, BS
        )

    def test_rehome_takes_the_bearers_record(self):
        """A record's key is read, not hashed again: the same move as by
        the 5-tuple, and a record of a torn-down bearer is a KeyError."""
        by_flow, by_record = EpcController(4), EpcController(4)
        for ctrl in (by_flow, by_record):
            ctrl.establish_bearer(flow(0), BS)
            ctrl.establish_bearer(flow(1), BS)
        record = by_record.record_for_key(flow(1).key())
        moved = by_record.rehome(record, 3)
        assert moved == by_flow.rehome(flow(1), 3)
        assert moved.flow == flow(1) and moved.handling_node == 3
        assert by_record.record_for_key(record.key) == moved
        by_record.teardown_bearer(flow(1))
        with pytest.raises(KeyError):
            by_record.rehome(record, 2)

    def test_rehome_takes_a_numpy_node_as_int(self):
        ctrl = EpcController(num_nodes=4)
        ctrl.establish_bearer(flow(0), BS)
        moved = ctrl.rehome(flow(0), np.int64(3))
        assert type(moved.handling_node) is int and moved.handling_node == 3


class TestRecordForTeid:
    """Only a live TEID has a record, as :class:`TeidAllocator` says."""

    def test_live_teid(self):
        ctrl = EpcController(num_nodes=4)
        record = ctrl.establish_bearer(flow(0), BS)
        assert ctrl.record_for_teid(record.teid) == record

    @pytest.mark.parametrize(
        "teid", [True, 1.0, np.int64(1), -1, 0, 2, 64, 1 << 64, 10**20, "1"]
    )
    def test_anything_else_is_none(self, teid):
        ctrl = EpcController(num_nodes=4)
        ctrl.establish_bearer(flow(0), BS)
        assert (teid in ctrl.teids) is False
        assert ctrl.record_for_teid(teid) is None

    def test_a_freed_teid_is_none_until_reused(self):
        ctrl = EpcController(num_nodes=4)
        first = ctrl.establish_bearer(flow(0), BS)
        ctrl.teardown_bearer(flow(0))
        assert ctrl.record_for_teid(first.teid) is None
        again = ctrl.establish_bearer(flow(1), BS + 1)
        assert again.teid == first.teid
        assert ctrl.record_for_teid(first.teid) == again


FLOW_POOL = 12
node_ids = st.integers(0, 3)
not_node_ids = st.one_of(
    st.integers(-3, -1), st.integers(4, 9), st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
)
addresses = st.integers(0, 0xFFFFFFFF)
not_addresses = st.one_of(
    st.integers(max_value=-1), st.integers(min_value=1 << 32),
    st.floats(allow_nan=False, allow_infinity=False),
)
regions = st.one_of(
    st.integers(-3, 70), st.integers(-(1 << 63), (1 << 63) - 1)
)
not_regions = st.one_of(
    st.integers(max_value=-(1 << 63) - 1), st.integers(min_value=1 << 63),
    st.floats(allow_nan=False, allow_infinity=False),
)


class ControllerColumns(RuleBasedStateMachine):
    """The TEID columns against a plain-dict model of the whole records,
    kept in establishment order as the controller's ``flows`` dict once
    was."""

    def __init__(self):
        super().__init__()
        self.ctrl = EpcController(num_nodes=4)
        self.model = {}  # flow key -> FlowRecord, in establishment order

    def _set(self, record, **changes):
        self.model[record.key] = replace(record, **changes)

    @rule(index=st.integers(0, FLOW_POOL - 1),
          address=st.one_of(addresses, not_addresses),
          region=st.one_of(regions, not_regions))
    def establish(self, index, address, region):
        live = flow(index).key() in self.model
        valid = (type(address) is int and 0 <= address <= 0xFFFFFFFF
                 and type(region) is int and -(1 << 63) <= region < 1 << 63)
        if live or not valid:
            with pytest.raises(ValueError):
                self.ctrl.establish_bearer(flow(index), address, region)
            return
        record = self.ctrl.establish_bearer(flow(index), address, region)
        assert record.teid not in {r.teid for r in self.model.values()}
        assert (record.flow, record.base_station_ip, record.region) == (
            flow(index), address, region
        )
        self._set(record)

    @rule(indices=st.lists(st.integers(0, FLOW_POOL - 1), unique=True,
                           max_size=4))
    def establish_several(self, indices):
        for i in indices:
            if flow(i).key() not in self.model:
                self._set(self.ctrl.establish_bearer(flow(i), BS + i, i))

    @rule(index=st.integers(0, FLOW_POOL - 1))
    def teardown_bearer(self, index):  # ``teardown`` is the machine's own
        removed = self.ctrl.teardown_bearer(flow(index))
        assert removed == self.model.pop(flow(index).key(), None)

    @rule(index=st.integers(0, FLOW_POOL - 1),
          node=st.one_of(node_ids, not_node_ids))
    def rehome(self, index, node):
        record = self.model.get(flow(index).key())
        if not (type(node) is int and 0 <= node < 4):
            with pytest.raises(ValueError):
                self.ctrl.rehome(flow(index), node)
        elif record is None:
            with pytest.raises(KeyError):
                self.ctrl.rehome(flow(index), node)
        else:
            self._set(record, handling_node=node)
            assert self.ctrl.rehome(flow(index), node) == self.model[
                record.key
            ]

    @rule(index=st.integers(0, FLOW_POOL - 1),
          address=st.one_of(addresses, not_addresses))
    def handover(self, index, address):
        record = self.model.get(flow(index).key())
        if not (type(address) is int and 0 <= address <= 0xFFFFFFFF):
            with pytest.raises(ValueError):
                self.ctrl.handover(flow(index), address)
        elif record is None:
            with pytest.raises(KeyError):
                self.ctrl.handover(flow(index), address)
        else:
            self._set(record, base_station_ip=address)
            assert self.ctrl.handover(flow(index), address) == self.model[
                record.key
            ]

    @invariant()
    def columns_match_the_model(self):
        by_teid = {record.teid: record for record in self.model.values()}
        for teid, record in by_teid.items():
            assert row_of(self.ctrl, teid) == (
                record.key, record.handling_node, record.base_station_ip
            )
            # The cold row as its named columns read it.
            assert self.ctrl._cold[teid].item() == (
                *astuple(record.flow), record.region
            )
        free_rows_hold_sentinel(self.ctrl, by_teid)
        rows = len(self.ctrl._keys)
        for teid in [-1, True, 1.0, *range(rows + 2)]:
            expected = by_teid.get(teid) if type(teid) is int else None
            assert self.ctrl.record_for_teid(teid) == expected
        for index in range(FLOW_POOL):
            key = flow(index).key()
            assert self.ctrl.record_for_key(key) == self.model.get(key)
            assert (key in self.ctrl.flows) == (key in self.model)
        assert list(self.ctrl.flows.items()) == list(self.model.items())
        assert len(self.ctrl) == len(self.ctrl.teids) == len(self.model)


ControllerColumns.TestCase.settings = settings(
    max_examples=50, stateful_step_count=25, derandomize=True,
    deadline=None, suppress_health_check=list(HealthCheck),
)
TestControllerColumns = ControllerColumns.TestCase
