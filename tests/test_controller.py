"""Tests for the EPC controller (repro.epc.controller)."""

import numpy as np
import pytest

from repro.epc.controller import AssignmentPolicy, EpcController
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
        assert ctrl.node_loads() == [10, 10, 10, 10]

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
        loads = ctrl.node_loads()
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


class TestBulk:
    def test_establish_many(self):
        ctrl = EpcController(num_nodes=2)
        flows = [flow(i) for i in range(20)]
        records = ctrl.establish_many(flows, [BS] * 20)
        assert len(records) == 20
        assert len(ctrl) == 20
        teids = {r.teid for r in records}
        assert len(teids) == 20
