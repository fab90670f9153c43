"""Tests for the Data Plane Engine (repro.epc.dpe)."""

import tracemalloc

import numpy as np
import pytest

from repro.cluster import Architecture
from repro.epc.gateway import EpcGateway
from repro.epc.dpe import DataPlaneEngine, FlowContext
from repro.epc.packets import build_downstream_frame, parse_ip
from repro.epc.traffic import GATEWAY_MAC, GENERATOR_MAC, FlowGenerator


class TestBearerLifecycle:
    def test_open_process_close(self):
        dpe = DataPlaneEngine()
        dpe.open_bearer(7, now=0.0)
        assert dpe.process(7, 100, downlink=True)
        assert dpe.process(7, 50, downlink=False)
        record = dpe.close_bearer(7, now=10.0)
        assert record.downlink_bytes == 100
        assert record.uplink_bytes == 50
        assert record.downlink_packets == 1
        assert record.uplink_packets == 1
        assert record.duration == 10.0
        assert dpe.context(7) is None and len(dpe) == 0

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


class TestCounters:
    def test_total_bytes(self):
        dpe = DataPlaneEngine()
        dpe.open_bearer(1)
        dpe.process(1, 30, downlink=True)
        dpe.process(1, 20, downlink=False)
        assert dpe.total_bytes() == 50

    def test_each_direction_counts_its_own_bytes_and_packets(self):
        dpe = DataPlaneEngine()
        dpe.open_bearer(4, now=1.5)
        for size in (100, 200, 300):
            assert dpe.process(4, size, downlink=True)
        assert dpe.process(4, 40, downlink=False)
        assert dpe.context(4) == FlowContext(
            teid=4, uplink_bytes=40, downlink_bytes=600, uplink_packets=1,
            downlink_packets=3, opened_at=1.5,
        )

    def test_a_reused_row_starts_from_zero(self):
        dpe = DataPlaneEngine()
        dpe.open_bearer(1, now=0.0)
        dpe.process(1, 500, downlink=True)
        dpe.process(1, 70, downlink=False)
        dpe.close_bearer(1, now=2.0)
        # Bearer 2 takes the row bearer 1 left.
        assert dpe.open_bearer(2, now=3.0) == dpe.context(2)
        assert dpe.context(2) == FlowContext(teid=2, opened_at=3.0)
        assert dpe.total_bytes() == 0

    def test_export_import_carries_counters_and_opened_at(self):
        """A re-homed bearer (§7) keeps charging where it left off: its
        CDR on the new node covers both nodes' packets."""
        old, new = DataPlaneEngine(), DataPlaneEngine()
        old.open_bearer(9, now=0.25)
        old.process(9, 120, downlink=True)
        old.process(9, 30, downlink=False)
        context = old.export_context(9)
        assert old.context(9) is None and len(old) == 0
        new.import_context(context)
        assert new.context(9) == context
        new.process(9, 80, downlink=True)
        record = new.close_bearer(9, now=4.25)
        assert (
            record.uplink_bytes, record.downlink_bytes,
            record.uplink_packets, record.downlink_packets,
        ) == (30, 200, 1, 2)
        assert (record.opened_at, record.duration) == (0.25, 4.0)
        with pytest.raises(KeyError):
            old.close_bearer(9)  # the old node has no CDR to emit

    def test_import_of_a_bad_field_changes_nothing(self):
        dpe = DataPlaneEngine()
        dpe.open_bearer(1, now=0.0)
        dpe.process(1, 10, downlink=True)
        before = dpe.contexts()
        with pytest.raises((TypeError, ValueError)):
            dpe.import_context(FlowContext(teid=2, downlink_bytes="many"))
        assert dpe.contexts() == before
        assert dpe.context(2) is None
        dpe.import_context(FlowContext(teid=2, downlink_bytes=5))
        assert dpe.context(2).downlink_bytes == 5


class TestDpeInGateway:
    def test_every_frame_egress_accepts_is_charged(self):
        """Large frames back to back on one bearer: each is delivered and
        charged, on the bearer's DPE and in the ledger alike."""
        gen = FlowGenerator(seed=500)
        gateway = EpcGateway(Architecture.SCALEBRICKS, 4, parse_ip("192.0.2.1"))
        flows = gen.populate(gateway, 50)
        gateway.start()
        frame = build_downstream_frame(
            GENERATOR_MAC, GATEWAY_MAC, flows[0], b"z" * 200
        )
        delivered = [gateway.process_downstream(frame)[1] for _ in range(10)]
        assert all(packet is not None for packet in delivered)
        record = gateway.controller.record_for_key(flows[0].key())
        context = gateway.dpes[record.handling_node].context(record.teid)
        assert context.downlink_packets == 10
        assert gateway.stats.bytes_of(record.teid) == context.downlink_bytes
        counters = gateway.registry.counters()
        assert not any(
            count for name, count in counters.items()
            if name.startswith("gateway.drops.")
        )

    def test_the_clock_ends_where_batches_of_one_leave_it(self, closed_cdrs):
        """One ``tick`` per accepted frame, batched or not: the clock, and
        so the CDRs it stamps, agree bit for bit."""
        gateways = []
        for _ in range(2):
            gen = FlowGenerator(seed=503)
            gateway = EpcGateway(
                Architecture.SCALEBRICKS, 4, parse_ip("192.0.2.1")
            )
            flows = gen.populate(gateway, 40)
            gateway.start()
            gateways.append((gateway, flows, gen.packet_stream(flows, 97)))
        (one, flows, frames), (batched, _, same) = gateways
        for frame in frames:
            one.process_downstream(frame)
        batched.process_downstream_batch(same)
        assert one.now == batched.now > 0.0
        for gateway, _, _ in gateways:
            assert gateway.disconnect(flows[3])
        (one_dpe, one_cdr), (batched_dpe, batched_cdr) = closed_cdrs
        assert one_dpe in one.dpes and batched_dpe in batched.dpes
        assert one_cdr == batched_cdr
        assert one_cdr.closed_at == one.now

    def test_gateway_emits_cdrs_on_disconnect(self, closed_cdrs):
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
        [(dpe, cdr)] = closed_cdrs
        assert dpe is gateway.dpes[record_before.handling_node]
        assert cdr.teid == record_before.teid
        assert cdr.downlink_bytes > 0

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


class TestSteadyState:
    #: Bearers on the gateway, and how many times over they are churned.
    POPULATION, TURNS = 200, 10
    #: Heap that ``repro/epc/dpe.py`` may keep per churned bearer
    #: (disconnect + connect), fixed before any measurement: a closed
    #: bearer's row is reused, so nothing should stay.  An engine that
    #: kept every CDR would keep ~120 B per disconnect.
    BYTES_PER_CHURN = 1.0

    def test_churn_keeps_no_dpe_heap(self):
        """A started gateway churned ten times its population: the heap
        the DPE module holds does not grow with the disconnect count."""
        gen = FlowGenerator(seed=504)
        gateway = EpcGateway(Architecture.SCALEBRICKS, 4, parse_ip("192.0.2.1"))
        flows = gen.flows(self.POPULATION * (self.TURNS + 1))
        live = flows[:self.POPULATION]
        for flow in live:
            gateway.connect(
                flow, gen.base_station_for(flow), gen.region_for(flow)
            )
        gateway.start()
        churn = self.POPULATION * self.TURNS
        order = np.random.default_rng(505).integers(self.POPULATION, size=churn)
        dpe_file = [tracemalloc.Filter(True, "*repro/epc/dpe.py")]
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot().filter_traces(dpe_file)
            for slot, fresh in zip(order.tolist(), flows[self.POPULATION:]):
                assert gateway.disconnect(live[slot])
                gateway.connect(
                    fresh, gen.base_station_for(fresh), gen.region_for(fresh)
                )
                live[slot] = fresh
            after = tracemalloc.take_snapshot().filter_traces(dpe_file)
        finally:
            tracemalloc.stop()
        growth = sum(
            stat.size_diff for stat in after.compare_to(before, "filename")
        )
        assert sum(len(dpe) for dpe in gateway.dpes) == self.POPULATION
        assert growth < self.BYTES_PER_CHURN * churn, growth
