"""Integration: GTPv2-C signalling driving a live gateway data plane."""

import pytest

from repro.cluster import Architecture
from repro.epc.gateway import EpcGateway
from repro.epc.gtpc import (
    Cause,
    GtpcMessage,
    GtpcSessionHandler,
    IeType,
    create_session_request,
    decode_cause,
    decode_fteid,
    delete_session_request,
)
from repro.epc.packets import build_downstream_frame, parse_ip
from repro.epc.traffic import GATEWAY_MAC, GENERATOR_MAC, FlowGenerator

GW_IP = parse_ip("192.0.2.1")


@pytest.fixture()
def signalled_gateway():
    gen = FlowGenerator(seed=1600)
    gateway = EpcGateway(Architecture.SCALEBRICKS, 4, GW_IP)
    gen.populate(gateway, 500)
    gateway.start()
    handler = GtpcSessionHandler(gateway.controller, GW_IP, gateway=gateway)
    return gateway, gen, handler


class TestSignalledDataPlane:
    def test_signalled_bearer_forwards_immediately(self, signalled_gateway):
        gateway, gen, handler = signalled_gateway
        flow = gen.flows(1)[0]
        request = create_session_request(
            1, "001019999999999", flow, parse_ip("172.16.3.3"), 500
        )
        response = GtpcMessage.parse(handler.handle(request.pack()))
        assert decode_cause(response.find(IeType.CAUSE)) == \
            Cause.REQUEST_ACCEPTED
        teid, _ = decode_fteid(response.find(IeType.FTEID))

        frame = build_downstream_frame(GENERATOR_MAC, GATEWAY_MAC, flow, b"x")
        result, tunnelled = gateway.process_downstream(frame)
        assert tunnelled is not None
        assert result.value == teid
        # DPE context exists at the handling node.
        assert gateway.dpe.context(teid) is not None

    def test_signalled_delete_stops_forwarding(self, signalled_gateway):
        gateway, gen, handler = signalled_gateway
        flow = gen.flows(1)[0]
        response = GtpcMessage.parse(
            handler.handle(
                create_session_request(
                    1, "001019999999998", flow, parse_ip("172.16.3.4"), 501
                ).pack()
            )
        )
        teid, _ = decode_fteid(response.find(IeType.FTEID))
        handler.handle(delete_session_request(2, teid).pack())

        frame = build_downstream_frame(GENERATOR_MAC, GATEWAY_MAC, flow, b"y")
        result, tunnelled = gateway.process_downstream(frame)
        assert tunnelled is None and result.dropped
        # The CDR was emitted on teardown.
        assert any(r.teid == teid for r in gateway.dpe.records)

    def test_signalling_storm(self, signalled_gateway):
        gateway, gen, handler = signalled_gateway
        flows = gen.flows(60)
        teids = []
        for i, flow in enumerate(flows):
            response = GtpcMessage.parse(
                handler.handle(
                    create_session_request(
                        i, "001010000000002", flow,
                        parse_ip("172.16.3.5"), 600 + i,
                    ).pack()
                )
            )
            teid, _ = decode_fteid(response.find(IeType.FTEID))
            teids.append(teid)
        for flow in flows[:30]:
            frame = build_downstream_frame(
                GENERATOR_MAC, GATEWAY_MAC, flow, b"z"
            )
            _, tunnelled = gateway.process_downstream(frame)
            assert tunnelled is not None
        for i, teid in enumerate(teids[:20]):
            handler.handle(delete_session_request(100 + i, teid).pack())
        assert len(gateway.controller) == 500 + 60 - 20
