"""Tests for the stochastic bearer workload (repro.epc.workload)."""

import numpy as np
import pytest

from repro.cluster import Architecture
from repro.epc.gateway import EpcGateway
from repro.epc.traffic import FlowGenerator
from repro.epc.packets import parse_ip
from repro.epc.workload import (
    BearerEvent,
    BearerWorkload,
    EventKind,
    offered_load_erlangs,
)


class TestEventGeneration:
    def test_events_sorted_and_paired(self):
        workload = BearerWorkload(
            arrival_rate=50.0, mean_holding_s=2.0, duration_s=10.0, seed=1
        )
        events, stats = workload.events()
        times = [e.time for e in events]
        assert times == sorted(times)
        connects = [e for e in events if e.kind is EventKind.CONNECT]
        disconnects = [e for e in events if e.kind is EventKind.DISCONNECT]
        assert len(connects) == stats.arrivals
        assert len(disconnects) == stats.departures
        assert stats.departures <= stats.arrivals
        # Every disconnect refers to a previously connected flow.
        seen = set()
        for event in events:
            if event.kind is EventKind.CONNECT:
                seen.add(event.flow.key())
            else:
                assert event.flow.key() in seen

    def test_deterministic(self):
        a = BearerWorkload(20.0, 1.0, 5.0, seed=7).events()[0]
        b = BearerWorkload(20.0, 1.0, 5.0, seed=7).events()[0]
        assert [(e.time, e.kind) for e in a] == [(e.time, e.kind) for e in b]

    def test_arrival_count_near_lambda_t(self):
        workload = BearerWorkload(100.0, 0.5, 20.0, seed=3)
        _, stats = workload.events()
        assert stats.arrivals == pytest.approx(2_000, rel=0.15)

    def test_mean_holding_matches_config(self):
        workload = BearerWorkload(200.0, 3.0, 10.0, seed=4)
        _, stats = workload.events()
        assert stats.mean_holding_time == pytest.approx(3.0, rel=0.15)

    def test_heavy_tailed_same_mean(self):
        workload = BearerWorkload(
            300.0, 3.0, 10.0, heavy_tailed=True, seed=5
        )
        _, stats = workload.events()
        assert stats.mean_holding_time == pytest.approx(3.0, rel=0.3)

    def test_peak_concurrent_near_erlang_load(self):
        # Offered load = lambda * holding = 100 * 1 = 100 erlangs.
        workload = BearerWorkload(100.0, 1.0, 30.0, seed=6)
        _, stats = workload.events()
        assert 60 < stats.peak_concurrent < 200

    def test_validation(self):
        with pytest.raises(ValueError):
            BearerWorkload(0, 1, 1)
        with pytest.raises(ValueError):
            offered_load_erlangs(-1, 1)

    def test_erlang_helper(self):
        assert offered_load_erlangs(50.0, 2.0) == 100.0


class TestReplay:
    def test_replay_into_live_gateway(self):
        gateway = EpcGateway(
            Architecture.SCALEBRICKS, 4, parse_ip("192.0.2.1")
        )
        # Pre-populate so the GPT exists before churn starts.
        FlowGenerator(seed=99).populate(gateway, 1_000)
        gateway.start()

        workload = BearerWorkload(40.0, 1.0, 5.0, seed=8)
        stats = workload.replay(gateway)
        live = stats.arrivals - stats.departures
        assert len(gateway.controller) == 1_000 + live
        # Churn flowed through the update engine.
        assert gateway.updates.stats.updates >= stats.arrivals

    def test_replay_limit(self):
        gateway = EpcGateway(
            Architecture.SCALEBRICKS, 4, parse_ip("192.0.2.1")
        )
        FlowGenerator(seed=98).populate(gateway, 500)
        gateway.start()
        workload = BearerWorkload(40.0, 1.0, 5.0, seed=9)
        workload.replay(gateway, limit=10)
        assert len(gateway.controller) <= 510
