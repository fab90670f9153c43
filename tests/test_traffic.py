"""Tests for traffic generation and the RFC 2544 harness."""

import numpy as np
import pytest

from repro.cluster import Architecture
from repro.epc.gateway import EpcGateway
from repro.epc.packets import parse_ip
from repro.epc.traffic import FlowGenerator, run_downstream_trial
from repro.model.cache import XEON_E5_2697V2
from repro.model.perf import Rfc2544Bench, cuckoo_model


class TestFlowGenerator:
    def test_flows_are_unique(self):
        gen = FlowGenerator(seed=1)
        flows = gen.flows(3_000)
        assert len({f.key() for f in flows}) == 3_000

    def test_flow_address_spaces(self):
        gen = FlowGenerator(seed=2)
        for flow in gen.flows(100):
            assert (flow.dst_ip >> 24) == 10  # UE space
            assert flow.src_ip < parse_ip("223.0.0.0")

    def test_base_station_deterministic(self):
        gen = FlowGenerator(seed=3)
        flow = gen.flows(1)[0]
        assert gen.base_station_for(flow) == gen.base_station_for(flow)

    def test_region_in_range(self):
        gen = FlowGenerator(seed=4, num_regions=16)
        for flow in gen.flows(50):
            assert 0 <= gen.region_for(flow) < 16

    def test_packet_stream_uniform(self):
        gen = FlowGenerator(seed=5)
        flows = gen.flows(10)
        frames = gen.packet_stream(flows, 200)
        assert len(frames) == 200

    def test_packet_stream_zipf_skews(self):
        gen = FlowGenerator(seed=6)
        flows = gen.flows(100)
        frames = gen.packet_stream(flows, 2_000, zipf_s=1.5)
        # Zipf: some flows dominate; distinct frames far fewer than 2000.
        assert len(set(frames)) < 150

    def test_packet_stream_requires_flows(self):
        gen = FlowGenerator(seed=7)
        with pytest.raises(ValueError):
            gen.packet_stream([], 10)


class TestTrial:
    def test_trial_statistics(self):
        gen = FlowGenerator(seed=8)
        gateway = EpcGateway(
            Architecture.SCALEBRICKS, 4, parse_ip("192.0.2.1")
        )
        flows = gen.populate(gateway, 800)
        gateway.start()
        frames = gen.packet_stream(flows, 300)
        stats = run_downstream_trial(gateway, frames)
        assert stats.offered == 300
        assert stats.delivered == 300
        assert stats.loss_rate == 0.0
        assert 0 <= stats.mean_hops <= 1
        assert stats.software_pps > 0
        assert sum(stats.hop_histogram.values()) == 300


class TestRfc2544:
    def test_compare_orders_designs(self):
        bench = Rfc2544Bench(XEON_E5_2697V2.with_l3(15 * 1024 * 1024),
                             cuckoo_model())
        latencies = bench.compare(1_000_000)
        assert set(latencies) == {
            "full_duplication", "scalebricks", "hash_partition"
        }
        # Figure 10's orderings.
        assert latencies["scalebricks"] < latencies["full_duplication"]
        assert latencies["scalebricks"] < latencies["hash_partition"]

    def test_unknown_design_rejected(self):
        bench = Rfc2544Bench(XEON_E5_2697V2, cuckoo_model())
        with pytest.raises(ValueError):
            bench.average_latency_us("vlb", 1_000)
