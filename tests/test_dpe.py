"""Tests for the Data Plane Engine (repro.epc.dpe)."""

import pytest

from repro.cluster import Architecture
from repro.epc.gateway import EpcGateway
from repro.epc.dpe import BearerState, DataPlaneEngine, TokenBucket
from repro.epc.packets import build_downstream_frame, parse_ip
from repro.epc.traffic import GATEWAY_MAC, GENERATOR_MAC, FlowGenerator


class TestBearerLifecycle:
    def test_open_process_close(self):
        dpe = DataPlaneEngine()
        dpe.open_bearer(7, now=0.0)
        assert dpe.process(7, 100, downlink=True, now=1.0)
        assert dpe.process(7, 50, downlink=False, now=2.0)
        record = dpe.close_bearer(7, now=10.0)
        assert record.downlink_bytes == 100
        assert record.uplink_bytes == 50
        assert record.downlink_packets == 1
        assert record.uplink_packets == 1
        assert record.duration == 10.0
        assert dpe.records == [record]

    def test_double_open_rejected(self):
        dpe = DataPlaneEngine()
        dpe.open_bearer(1)
        with pytest.raises(ValueError):
            dpe.open_bearer(1)

    def test_close_unknown_rejected(self):
        with pytest.raises(KeyError):
            DataPlaneEngine().close_bearer(1)

    def test_unknown_bearer_packets_dropped(self):
        dpe = DataPlaneEngine()
        assert not dpe.process(99, 100, downlink=True)

    def test_len_and_context(self):
        dpe = DataPlaneEngine()
        dpe.open_bearer(1)
        dpe.open_bearer(2)
        assert len(dpe) == 2
        assert dpe.context(1).teid == 1
        assert dpe.context(3) is None


class TestStateMachine:
    def test_activity_transitions(self):
        dpe = DataPlaneEngine(idle_timeout_s=5.0)
        context = dpe.open_bearer(1, now=0.0)
        assert context.state is BearerState.IDLE
        dpe.process(1, 10, downlink=True, now=1.0)
        # The returned context is a snapshot: read the state again.
        assert context.state is BearerState.IDLE
        assert dpe.context(1).state is BearerState.ACTIVE

    def test_expire_idle(self):
        dpe = DataPlaneEngine(idle_timeout_s=5.0)
        dpe.open_bearer(1, now=0.0)
        dpe.open_bearer(2, now=0.0)
        dpe.process(1, 10, downlink=True, now=1.0)
        dpe.process(2, 10, downlink=True, now=1.0)
        assert dpe.active_bearers() == 2
        dpe.process(2, 10, downlink=True, now=8.0)
        assert dpe.expire_idle(now=8.0) == 1  # bearer 1 idles out
        assert dpe.active_bearers() == 1

    def test_total_bytes(self):
        dpe = DataPlaneEngine()
        dpe.open_bearer(1)
        dpe.process(1, 30, downlink=True)
        dpe.process(1, 20, downlink=False)
        assert dpe.total_bytes() == 50


class TestTokenBucket:
    def test_burst_then_throttle(self):
        bucket = TokenBucket(rate_bytes_per_s=100.0, burst_bytes=200.0)
        assert bucket.allow(200, now=0.0)   # full burst
        assert not bucket.allow(1, now=0.0)  # empty
        assert bucket.allow(100, now=1.0)   # refilled 100 bytes

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate_bytes_per_s=100.0, burst_bytes=150.0)
        bucket.allow(150, now=0.0)
        assert not bucket.allow(151, now=100.0)  # capped at 150
        assert bucket.allow(150, now=100.0)

    def test_late_packet_does_not_wind_the_clock_back(self):
        # The time up to t=10 is credited once: a packet stamped t=5
        # after it must not make the next t=10 packet earn it again.
        late = TokenBucket(rate_bytes_per_s=100.0, burst_bytes=100.0)
        assert late.allow(100, now=10.0)
        assert not late.allow(50, now=5.0)
        assert not late.allow(50, now=10.0)
        in_order = TokenBucket(rate_bytes_per_s=100.0, burst_bytes=100.0)
        assert in_order.allow(100, now=10.0)
        assert not in_order.allow(50, now=10.0)
        assert late.allow(100, now=11.0)  # one second refills the burst


class TestPolicingInGateway:
    def test_policer_drops_over_rate_traffic(self):
        gen = FlowGenerator(seed=500)
        gateway = EpcGateway(
            Architecture.SCALEBRICKS,
            4,
            parse_ip("192.0.2.1"),
            rate_limit_bytes_per_s=300.0,
        )
        flows = gen.populate(gateway, 50)
        gateway.start()
        frame = build_downstream_frame(
            GENERATOR_MAC, GATEWAY_MAC, flows[0], b"z" * 200
        )
        # Gateway's logical clock barely advances per packet, so a burst
        # of large frames exhausts the bucket.
        delivered = 0
        for _ in range(10):
            _, tunnelled = gateway.process_downstream(frame)
            if tunnelled is not None:
                delivered += 1
        assert 0 < delivered < 10
        assert sum(dpe.policed_drops for dpe in gateway.dpes) > 0

    def test_gateway_emits_cdrs_on_disconnect(self):
        gen = FlowGenerator(seed=501)
        gateway = EpcGateway(Architecture.SCALEBRICKS, 4, parse_ip("192.0.2.1"))
        flows = gen.populate(gateway, 20)
        gateway.start()
        frame = build_downstream_frame(
            GENERATOR_MAC, GATEWAY_MAC, flows[0], b"q" * 64
        )
        gateway.process_downstream(frame)
        record_before = gateway.controller.record_for_key(flows[0].key())
        assert gateway.disconnect(flows[0])
        cdrs = gateway.dpes[record_before.handling_node].records
        assert len(cdrs) == 1
        assert cdrs[0].teid == record_before.teid
        assert cdrs[0].downlink_bytes > 0

    def test_gateway_dpe_counts_both_directions(self):
        gen = FlowGenerator(seed=502)
        gateway = EpcGateway(Architecture.SCALEBRICKS, 4, parse_ip("192.0.2.1"))
        flows = gen.populate(gateway, 20)
        gateway.start()
        frame = build_downstream_frame(
            GENERATOR_MAC, GATEWAY_MAC, flows[1], b"k" * 40
        )
        _, tunnelled = gateway.process_downstream(frame)
        gateway.process_upstream(tunnelled)
        record = gateway.controller.record_for_key(flows[1].key())
        context = gateway.dpes[record.handling_node].context(record.teid)
        assert context.downlink_packets == 1
        assert context.uplink_packets == 1
