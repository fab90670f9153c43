"""Tests for live flow re-homing with DPE state migration (§7 mobility)."""

import numpy as np
import pytest

from repro.cluster import Architecture
from repro.epc.gateway import EpcGateway
from repro.epc.packets import build_downstream_frame, parse_ip
from repro.epc.traffic import GATEWAY_MAC, GENERATOR_MAC, FlowGenerator


@pytest.fixture()
def live_gateway():
    gen = FlowGenerator(seed=950)
    gateway = EpcGateway(Architecture.SCALEBRICKS, 4, parse_ip("192.0.2.1"))
    flows = gen.populate(gateway, 600)
    gateway.start()
    return gateway, gen, flows


def frame_for(flow, payload=b"payload!"):
    return build_downstream_frame(GENERATOR_MAC, GATEWAY_MAC, flow, payload)


class TestRehoming:
    def test_traffic_follows_the_move(self, live_gateway):
        gateway, _, flows = live_gateway
        flow = flows[0]
        old = gateway.controller.record_for_key(flow.key()).handling_node
        new = (old + 2) % 4
        record = gateway.rehome_flow(flow, new)
        assert record.handling_node == new
        result, tunnelled = gateway.process_downstream(frame_for(flow))
        assert tunnelled is not None
        assert result.handled_by == new
        assert result.value == record.teid  # TEID is preserved

    def test_charging_continues_across_the_move(self, live_gateway):
        gateway, _, flows = live_gateway
        flow = flows[1]
        gateway.process_downstream(frame_for(flow, b"a" * 50))
        record = gateway.controller.record_for_key(flow.key())
        before = gateway.dpes[record.handling_node].context(record.teid)
        bytes_before = before.downlink_bytes
        assert bytes_before > 0

        new = (record.handling_node + 1) % 4
        gateway.rehome_flow(flow, new)
        gateway.process_downstream(frame_for(flow, b"b" * 50))
        after = gateway.dpes[new].context(record.teid)
        assert after.downlink_bytes > bytes_before
        # The context physically lives at the new node's DPE now.
        assert gateway.dpes[new].context(record.teid) is not None
        old_node = record.handling_node
        assert gateway.dpes[old_node].context(record.teid) is None

    def test_old_node_fib_entry_removed(self, live_gateway):
        gateway, _, flows = live_gateway
        flow = flows[2]
        record = gateway.controller.record_for_key(flow.key())
        old = record.handling_node
        gateway.rehome_flow(flow, (old + 1) % 4)
        assert gateway.cluster.nodes[old].fib.lookup(flow.key()) is None

    def test_rehome_to_same_node_is_noop(self, live_gateway):
        gateway, _, flows = live_gateway
        flow = flows[3]
        record = gateway.controller.record_for_key(flow.key())
        same = gateway.rehome_flow(flow, record.handling_node)
        assert same == record

    def test_upstream_still_accounted_after_move(self, live_gateway):
        gateway, _, flows = live_gateway
        flow = flows[4]
        record = gateway.controller.record_for_key(flow.key())
        new = (record.handling_node + 1) % 4
        gateway.rehome_flow(flow, new)
        _, tunnelled = gateway.process_downstream(frame_for(flow))
        assert gateway.process_upstream(tunnelled) is not None
        context = gateway.dpes[new].context(record.teid)
        assert context.uplink_packets == 1

    def test_validation(self, live_gateway):
        gateway, gen, flows = live_gateway
        with pytest.raises(ValueError):
            gateway.rehome_flow(flows[5], 9)
        stranger = gen.flows(1)[0]
        with pytest.raises(KeyError):
            gateway.rehome_flow(stranger, 1)

    @pytest.mark.parametrize("bad", [1.5, True, 4, -1])
    def test_refused_node_keeps_the_bearer(self, live_gateway, bad):
        # The node id is checked before the DPE context leaves home, so
        # the flow is still delivered and charged where it was.
        gateway, _, flows = live_gateway
        flow = flows[7]
        record = gateway.controller.record_for_key(flow.key())
        with pytest.raises(ValueError):
            gateway.rehome_flow(flow, bad)
        assert gateway.controller.record_for_key(flow.key()) == record
        charged = gateway.stats.bytes_charged.get(record.teid, 0)
        result, tunnelled = gateway.process_downstream(frame_for(flow))
        assert tunnelled is not None
        assert result.handled_by == record.handling_node
        assert gateway.stats.bytes_charged[record.teid] > charged

    def test_numpy_node_id_is_accepted(self, live_gateway):
        gateway, _, flows = live_gateway
        flow = flows[8]
        old = gateway.controller.record_for_key(flow.key()).handling_node
        moved = gateway.rehome_flow(flow, np.int64((old + 1) % 4))
        assert type(moved.handling_node) is int
        _, tunnelled = gateway.process_downstream(frame_for(flow))
        assert tunnelled is not None

    def test_disconnect_after_move_emits_cdr(self, live_gateway, closed_cdrs):
        gateway, _, flows = live_gateway
        flow = flows[6]
        record = gateway.controller.record_for_key(flow.key())
        gateway.process_downstream(frame_for(flow, b"c" * 30))
        new_node = (record.handling_node + 1) % 4
        gateway.rehome_flow(flow, new_node)
        assert gateway.disconnect(flow)
        [(dpe, cdr)] = closed_cdrs
        assert dpe is gateway.dpes[new_node] and cdr.teid == record.teid
        assert cdr.downlink_bytes > 0  # counters survived the move
