"""Fuzz/robustness: the gateway must drop garbage, never crash."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Architecture
from repro.epc.gateway import EpcGateway
from repro.epc.packets import parse_ip
from repro.epc.traffic import GATEWAY_MAC, GENERATOR_MAC, FlowGenerator


@pytest.fixture(scope="module")
def hardened_gateway():
    gen = FlowGenerator(seed=1700)
    gateway = EpcGateway(Architecture.SCALEBRICKS, 4, parse_ip("192.0.2.1"))
    flows = gen.populate(gateway, 400)
    gateway.start()
    return gateway, gen, flows


class TestMalformedDownstream:
    def test_random_bytes_dropped(self, hardened_gateway):
        gateway, _, _ = hardened_gateway
        rng = np.random.default_rng(1)
        malformed = gateway.registry.counter("gateway.drops.malformed")
        before = malformed.value
        for _ in range(50):
            junk = bytes(rng.integers(0, 256, size=rng.integers(0, 80)))
            result, tunnelled = gateway.process_downstream(junk)
            assert tunnelled is None
            assert result.dropped
        assert malformed.value == before + 50

    def test_truncated_valid_frame_dropped(self, hardened_gateway):
        gateway, gen, flows = hardened_gateway
        from repro.epc.packets import build_downstream_frame

        frame = build_downstream_frame(
            GENERATOR_MAC, GATEWAY_MAC, flows[0], b"payload"
        )
        for cut in (3, 14, 20, 33):
            result, tunnelled = gateway.process_downstream(frame[:cut])
            assert tunnelled is None and result.dropped

    def test_corrupted_checksum_dropped(self, hardened_gateway):
        gateway, gen, flows = hardened_gateway
        from repro.epc.packets import build_downstream_frame

        frame = bytearray(
            build_downstream_frame(GENERATOR_MAC, GATEWAY_MAC, flows[0], b"p")
        )
        frame[20] ^= 0xFF  # inside the IPv4 header
        result, tunnelled = gateway.process_downstream(bytes(frame))
        assert tunnelled is None and result.dropped

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(junk=st.binary(min_size=0, max_size=120))
    def test_property_never_crashes(self, hardened_gateway, junk):
        gateway, _, _ = hardened_gateway
        result, tunnelled = gateway.process_downstream(junk)
        # Either parsed as a (fluke) valid unknown flow and dropped, or
        # dropped as malformed; never an exception, never forwarded.
        assert tunnelled is None
        assert result.dropped


class TestMalformedUpstream:
    def test_random_bytes_dropped(self, hardened_gateway):
        gateway, _, _ = hardened_gateway
        rng = np.random.default_rng(2)
        for _ in range(50):
            junk = bytes(rng.integers(0, 256, size=rng.integers(0, 120)))
            assert gateway.process_upstream(junk) is None

    def test_valid_tunnel_corrupt_inner_dropped(self, hardened_gateway):
        gateway, gen, flows = hardened_gateway
        from repro.epc.packets import build_downstream_frame

        frame = build_downstream_frame(
            GENERATOR_MAC, GATEWAY_MAC, flows[1], b"payload"
        )
        _, tunnelled = gateway.process_downstream(frame)
        corrupted = bytearray(tunnelled)
        corrupted[40] ^= 0xFF  # inside the inner IPv4 header
        malformed = gateway.registry.counter("gateway.drops.malformed")
        before = malformed.value
        assert gateway.process_upstream(bytes(corrupted)) is None
        assert malformed.value == before + 1

    def test_forwarding_still_works_after_fuzzing(self, hardened_gateway):
        gateway, gen, flows = hardened_gateway
        from repro.epc.packets import build_downstream_frame

        frame = build_downstream_frame(
            GENERATOR_MAC, GATEWAY_MAC, flows[2], b"ok"
        )
        result, tunnelled = gateway.process_downstream(frame)
        assert tunnelled is not None and result.delivered


class TestUnforwardable:
    """TTL 0 (and, downstream, an inner packet too long for the GTP-U
    framing) is a ``malformed`` drop decided before routing, policing and
    charging — on the gateway (both directions), the daemons and the
    chaos oracle.  It used to be charged and then raise at egress."""

    @staticmethod
    def _fresh():
        from tests.test_fastpath import build_gateway

        gateway, flows, _gen = build_gateway(seed=23, flows=40, num_nodes=3)
        return gateway, flows

    def test_downstream_ttl_zero_charges_nothing(self):
        from tests.test_fastpath import OVERSIZE_PAYLOAD, make_frame

        gateway, flows = self._fresh()
        record = gateway.controller.record_for_key(flows[0].key())
        for bad in (
            make_frame(flows[0], ttl=0),
            make_frame(flows[0], payload=OVERSIZE_PAYLOAD),
        ):
            result, out = gateway.process_downstream(bad, ingress=1)
            assert out is None
            assert (result.dropped, result.reason) == (True, "malformed")
        assert gateway.registry.counters()["gateway.drops.malformed"] == 2
        assert gateway.stats.bytes_charged == {}
        dpe = gateway.dpes[record.handling_node]
        assert dpe.context(record.teid).downlink_bytes == 0
        result, out = gateway.process_downstream(make_frame(flows[0], ttl=1))
        assert out is not None and result.delivered

    def test_upstream_ttl_zero_charges_nothing(self):
        from repro.epc.tunnels import GtpTunnelEndpoint
        from tests.test_fastpath import make_frame

        gateway, flows = self._fresh()
        record = gateway.controller.record_for_key(flows[0].key())
        endpoint = GtpTunnelEndpoint(
            local_ip=record.base_station_ip, peer_ip=gateway.gateway_ip
        )
        inner = {
            ttl: make_frame(flows[0].reversed(), ttl=ttl)[14:]
            for ttl in (0, 1)
        }
        expired = endpoint.encapsulate(record.teid, inner[0])
        assert gateway.process_upstream(expired) is None
        counters = gateway.registry.counters()
        assert counters["gateway.drops.malformed"] == 1
        assert counters["gateway.upstream.forwarded"] == 0
        assert gateway.stats.bytes_charged == {}
        dpe = gateway.dpes[record.handling_node]
        assert dpe.context(record.teid).uplink_bytes == 0
        alive = endpoint.encapsulate(record.teid, inner[1])
        assert gateway.process_upstream(alive) is not None
        assert gateway.stats.bytes_charged == {record.teid: len(inner[1])}

    def test_chaos_oracle_expects_the_same_drop(self):
        from repro.chaos.oracle import (
            MALFORMED, ReferenceFlow, ReferenceGateway,
        )
        from repro.epc.tunnels import GtpTunnelEndpoint
        from tests.test_fastpath import OVERSIZE_PAYLOAD, make_frame

        gateway, flows = self._fresh()
        record = gateway.controller.record_for_key(flows[0].key())
        reference = ReferenceGateway(gateway.gateway_ip)
        reference.insert(ReferenceFlow(
            key=record.key, teid=record.teid, node=record.handling_node,
            base_station_ip=record.base_station_ip, flow=flows[0],
        ))
        assert reference.expect_downstream(
            make_frame(flows[0], ttl=0)
        ).kind == MALFORMED
        assert reference.expect_downstream(
            make_frame(flows[0], payload=OVERSIZE_PAYLOAD)
        ).kind == MALFORMED
        good = make_frame(flows[0])
        assert reference.expect_downstream(good).payload == (
            gateway.process_downstream(good)[1]
        )
        endpoint = GtpTunnelEndpoint(
            local_ip=record.base_station_ip, peer_ip=gateway.gateway_ip
        )
        expired = endpoint.encapsulate(
            record.teid, make_frame(flows[0].reversed(), ttl=0)[14:]
        )
        assert reference.expect_upstream(expired).kind == MALFORMED

    def test_daemons_drop_the_frame_and_deliver_the_rest(self):
        """Socket-less daemons: one TTL-0 frame used to make its ingress
        daemon refuse the whole batch (after other ingress nodes had
        charged theirs); now it alone is ``STATUS_MALFORMED``."""
        from repro.runtime.protocol import STATUS_DELIVERED, STATUS_MALFORMED
        from tests.test_fastpath import make_frame
        from tests.conftest import wire_up

        gateway, flows = self._fresh()
        controller, daemons = wire_up(gateway)
        clean_gateway, _ = self._fresh()
        clean_controller, clean_daemons = wire_up(clean_gateway)
        good = [make_frame(flow) for flow in flows[:9]]
        frames = good[:5] + [make_frame(flows[9], ttl=0)] + good[5:]
        ingress = [i % 3 for i in range(len(frames))]
        outcomes = controller.route_frames(frames, ingress)
        clean = clean_controller.route_frames(
            good, ingress[:5] + ingress[6:]
        )
        assert outcomes[5].status == STATUS_MALFORMED
        assert outcomes[5].out is None
        assert outcomes[:5] + outcomes[6:] == clean
        assert all(o.status == STATUS_DELIVERED for o in clean)
        assert [d.ledger.bytes_charged for d in daemons] == [
            d.ledger.bytes_charged for d in clean_daemons
        ]
        # And the shadow agrees frame for frame, so the differential
        # drivers see no divergence.
        from repro.runtime.shadow import compare_frames

        mirrored = [
            gateway.process_downstream(frame, ingress=node)
            for frame, node in zip(frames, ingress)
        ]
        summary = compare_frames(mirrored, outcomes)
        assert (summary["divergences"], summary["dropped"]) == (0, 1)
