"""Tests for the IPv6 codec, S1 handover and the aggregate DPE view."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Architecture
from repro.epc.gateway import EpcGateway
from repro.epc.packets import Ipv6Header, build_downstream_frame, parse_ip
from repro.epc.traffic import GATEWAY_MAC, GENERATOR_MAC, FlowGenerator
from repro.epc.tunnels import GtpTunnelEndpoint


class TestIpv6Header:
    def make(self, **overrides):
        fields = dict(
            src=0x2001_0DB8 << 96 | 0x1,
            dst=0x2001_0DB8 << 96 | 0x2,
            next_header=17,
            payload_length=100,
            hop_limit=64,
            traffic_class=0x2E,
            flow_label=0x12345,
        )
        fields.update(overrides)
        return Ipv6Header(**fields)

    def test_roundtrip(self):
        header = self.make()
        parsed, rest = Ipv6Header.parse(header.pack() + b"body")
        assert parsed == header
        assert rest == b"body"

    def test_rejects_non_v6(self):
        raw = bytearray(self.make().pack())
        raw[0] = 0x45
        with pytest.raises(ValueError, match="IPv6"):
            Ipv6Header.parse(bytes(raw))

    def test_truncated(self):
        with pytest.raises(ValueError):
            Ipv6Header.parse(b"\x60" + b"\x00" * 20)

    def test_hop_limit_decrement(self):
        assert self.make(hop_limit=2).decrement_hop_limit().hop_limit == 1
        with pytest.raises(ValueError):
            self.make(hop_limit=0).decrement_hop_limit()

    def test_flow_label_bounds(self):
        with pytest.raises(ValueError):
            self.make(flow_label=1 << 20).pack()

    def test_flow_key_distinct_per_address(self):
        a = self.make().flow_key(80, 443)
        b = self.make(dst=self.make().dst + 1).flow_key(80, 443)
        assert a != b

    @settings(max_examples=40, deadline=None)
    @given(
        src=st.integers(0, 2**128 - 1),
        dst=st.integers(0, 2**128 - 1),
        nh=st.integers(0, 255),
        plen=st.integers(0, 65535),
        hop=st.integers(1, 255),
        tc=st.integers(0, 255),
        label=st.integers(0, (1 << 20) - 1),
    )
    def test_property_roundtrip(self, src, dst, nh, plen, hop, tc, label):
        header = Ipv6Header(
            src=src, dst=dst, next_header=nh, payload_length=plen,
            hop_limit=hop, traffic_class=tc, flow_label=label,
        )
        assert Ipv6Header.parse(header.pack())[0] == header


class TestHandover:
    @pytest.fixture()
    def gateway(self):
        gen = FlowGenerator(seed=1400)
        gw = EpcGateway(Architecture.SCALEBRICKS, 4, parse_ip("192.0.2.1"))
        flows = gen.populate(gw, 300)
        gw.start()
        return gw, gen, flows

    def test_downstream_follows_new_base_station(self, gateway):
        gw, gen, flows = gateway
        flow = flows[0]
        new_bs = parse_ip("172.16.9.9")
        record = gw.controller.handover(flow, new_bs)
        assert record.base_station_ip == new_bs
        frame = build_downstream_frame(GENERATOR_MAC, GATEWAY_MAC, flow, b"x")
        _, tunnelled = gw.process_downstream(frame)
        _, _, outer = GtpTunnelEndpoint.decapsulate(tunnelled)
        assert outer.dst == new_bs

    def test_handover_preserves_teid_and_node(self, gateway):
        gw, _, flows = gateway
        flow = flows[1]
        before = gw.controller.record_for_key(flow.key())
        after = gw.controller.handover(flow, parse_ip("172.16.9.10"))
        assert after.teid == before.teid
        assert after.handling_node == before.handling_node

    def test_handover_unknown_flow(self, gateway):
        gw, gen, _ = gateway
        with pytest.raises(KeyError):
            gw.controller.handover(gen.flows(1)[0], parse_ip("172.16.9.11"))


class TestDpePlacement:
    """A bearer's data-plane state lives on its handling node's DPE."""

    @pytest.fixture()
    def gateway(self):
        gen = FlowGenerator(seed=1500)
        gw = EpcGateway(Architecture.SCALEBRICKS, 4, parse_ip("192.0.2.1"))
        flows = gen.populate(gw, 200)
        gw.start()
        return gw, gen, flows

    def test_one_context_per_bearer(self, gateway):
        gw, _, flows = gateway
        assert sum(len(d) for d in gw.dpes) == len(flows)

    def test_context_on_the_handling_node_only(self, gateway):
        gw, _, flows = gateway
        for flow in flows[:20]:
            record = gw.controller.record_for_key(flow.key())
            assert [
                d.context(record.teid) is not None for d in gw.dpes
            ] == [node == record.handling_node for node in range(4)]
        assert all(d.context(0x7FFFFFFF) is None for d in gw.dpes)

    def test_cdr_on_the_handling_node(self, gateway, closed_cdrs):
        gw, _, flows = gateway
        for flow in flows[:5]:
            record = gw.controller.record_for_key(flow.key())
            gw.disconnect(flow)
            dpe, cdr = closed_cdrs[-1]
            assert dpe is gw.dpes[record.handling_node]
            assert cdr.teid == record.teid
        assert len(closed_cdrs) == 5

    def test_dpe_bytes_match_the_ledger(self, gateway):
        gw, gen, flows = gateway
        frames = gen.packet_stream(flows[:10], 20)
        for frame in frames:
            gw.process_downstream(frame)
        total = sum(d.total_bytes() for d in gw.dpes)
        assert total == sum(gw.stats.bytes_charged.values()) > 0
