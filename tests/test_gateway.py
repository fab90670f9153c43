"""End-to-end tests for the LTE-to-Internet gateway (repro.epc.gateway)."""

import itertools
from dataclasses import astuple

import numpy as np
import pytest

from repro.cluster import Architecture, Cluster
from repro.core import serialize
from repro.epc.controller import BearerMismatchError
from repro.epc.gateway import EpcGateway
from repro.epc.packets import build_downstream_frame, parse_ip
from repro.epc.traffic import GATEWAY_MAC, GENERATOR_MAC, FlowGenerator
from repro.epc.tunnels import GtpTunnelEndpoint
from repro.fabric import DELIVER, DROP

GW_IP = parse_ip("192.0.2.1")


@pytest.fixture(scope="module")
def started_gateway():
    gen = FlowGenerator(seed=7)
    gateway = EpcGateway(Architecture.SCALEBRICKS, 4, GW_IP)
    flows = gen.populate(gateway, 1_500)
    gateway.start()
    return gateway, gen, flows


def frame_for(flow, payload=b"data"):
    return build_downstream_frame(GENERATOR_MAC, GATEWAY_MAC, flow, payload)


class TestDownstream:
    def test_known_flow_gets_tunnelled(self, started_gateway):
        gateway, _, flows = started_gateway
        result, tunnelled = gateway.process_downstream(frame_for(flows[0]))
        assert result.delivered
        assert tunnelled is not None
        record = gateway.controller.record_for_key(flows[0].key())
        teid, inner, outer = GtpTunnelEndpoint.decapsulate(tunnelled)
        assert teid == record.teid
        assert outer.src == GW_IP
        assert outer.dst == record.base_station_ip

    def test_inner_ttl_decremented(self, started_gateway):
        gateway, _, flows = started_gateway
        _, tunnelled = gateway.process_downstream(frame_for(flows[1]))
        _, inner, _ = GtpTunnelEndpoint.decapsulate(tunnelled)
        from repro.epc.packets import Ipv4Header

        header, _ = Ipv4Header.parse(inner)
        assert header.ttl == 63  # generator frames start at 64

    def test_unknown_flow_dropped(self, started_gateway):
        gateway, gen, flows = started_gateway
        stranger = gen.flows(1)[0]
        assert stranger.key() not in gateway.controller.flows
        unknown = gateway.registry.counter("gateway.drops.unknown_flow")
        before = unknown.value
        result, tunnelled = gateway.process_downstream(frame_for(stranger))
        assert result.dropped and tunnelled is None
        assert unknown.value == before + 1

    def test_acl_blocks_sources(self, started_gateway):
        gateway, _, flows = started_gateway
        gateway.acl_blocked_sources.add(flows[2].src_ip)
        try:
            result, tunnelled = gateway.process_downstream(frame_for(flows[2]))
            assert tunnelled is None and result.reason == "acl"
        finally:
            gateway.acl_blocked_sources.clear()

    def test_charging_accumulates(self, started_gateway):
        gateway, _, flows = started_gateway
        record = gateway.controller.record_for_key(flows[3].key())
        before = gateway.stats.bytes_charged.get(record.teid, 0)
        gateway.process_downstream(frame_for(flows[3], payload=b"x" * 100))
        after = gateway.stats.bytes_charged[record.teid]
        assert after - before >= 100


class TestUpstream:
    def test_upstream_roundtrip(self, started_gateway):
        gateway, _, flows = started_gateway
        _, tunnelled = gateway.process_downstream(frame_for(flows[4]))
        forwarded = gateway.process_upstream(tunnelled)
        assert forwarded is not None
        assert gateway.registry.counter(
            "gateway.upstream.forwarded"
        ).value >= 1

    def test_bad_teid_dropped(self, started_gateway):
        gateway, _, flows = started_gateway
        record = gateway.controller.record_for_key(flows[5].key())
        endpoint = GtpTunnelEndpoint(local_ip=GW_IP, peer_ip=record.base_station_ip)
        from repro.epc.packets import Ipv4Header, PROTO_UDP

        inner = Ipv4Header(
            src=1, dst=2, protocol=PROTO_UDP, total_length=28
        ).pack() + b"\x00" * 8
        bogus = endpoint.encapsulate(0x7FFFFFFF, inner)
        bad_tunnel = gateway.registry.counter("gateway.drops.bad_tunnel")
        before = bad_tunnel.value
        assert gateway.process_upstream(bogus) is None
        assert bad_tunnel.value == before + 1

    def test_garbage_dropped(self, started_gateway):
        gateway, _, _ = started_gateway
        assert gateway.process_upstream(b"\x00" * 64) is None

    @pytest.mark.parametrize("live", [False, True], ids=["dead", "live"])
    def test_the_tunnel_is_checked_before_the_inner_packet(
        self, started_gateway, live
    ):
        """A malformed inner packet in a dead tunnel is ``bad_tunnel``;
        only a live tunnel's is ``malformed``."""
        gateway, _, flows = started_gateway
        teid = gateway.controller.record_for_key(flows[6].key()).teid
        endpoint = GtpTunnelEndpoint(local_ip=GW_IP, peer_ip=1)
        packet = endpoint.encapsulate(teid if live else 0x7FFFFFFF, b"\x45")
        before = gateway.registry.counters()
        assert gateway.process_upstream(packet) is None
        after = gateway.registry.counters()
        moved = {
            name for name, count in after.items()
            if name.startswith("gateway.drops.") and count != before[name]
        }
        assert moved == {
            "gateway.drops.malformed" if live else "gateway.drops.bad_tunnel"
        }


class TestLifecycle:
    def test_not_started_raises(self):
        gateway = EpcGateway(Architecture.SCALEBRICKS, 4, GW_IP)
        gen = FlowGenerator(seed=8)
        flow = gen.flows(1)[0]
        gateway.connect(flow, gen.base_station_for(flow))
        with pytest.raises(RuntimeError):
            gateway.process_downstream(frame_for(flow))

    def test_live_connect_and_disconnect(self, started_gateway):
        gateway, gen, _ = started_gateway
        flow = gen.flows(1)[0]
        record = gateway.connect(flow, gen.base_station_for(flow))
        result, tunnelled = gateway.process_downstream(frame_for(flow))
        assert tunnelled is not None and result.value == record.teid
        assert gateway.disconnect(flow)
        result, tunnelled = gateway.process_downstream(frame_for(flow))
        assert tunnelled is None
        assert not gateway.disconnect(flow)

    def test_memory_report(self, started_gateway):
        gateway, _, _ = started_gateway
        report = gateway.memory_report()
        assert len(report) == 4
        assert all(entry["gpt_bytes"] > 0 for entry in report)


@pytest.mark.parametrize(
    "arch", [Architecture.FULL_DUPLICATION, Architecture.HASH_PARTITION]
)
def test_other_architectures_forward_identically(arch):
    gen = FlowGenerator(seed=9)
    gateway = EpcGateway(arch, 4, GW_IP)
    flows = gen.populate(gateway, 600)
    gateway.start()
    for flow in flows[:40]:
        result, tunnelled = gateway.process_downstream(frame_for(flow))
        assert tunnelled is not None
        record = gateway.controller.record_for_key(flow.key())
        assert result.value == record.teid


def record_loop_cluster(gateway):
    """The cluster ``start()`` built when the controller kept a record per
    bearer: one loop over the records, in the flow table's order."""
    records = list(gateway.controller.flows.values())
    keys = [r.key for r in records]
    nodes = [r.handling_node for r in records]
    teids = [r.teid for r in records]
    return Cluster.build(
        gateway.architecture,
        gateway.num_nodes,
        np.asarray(keys, dtype=np.uint64),
        nodes,
        teids,
        fabric_backend="crossbar",
    )


class TestStartAfterChurn:
    def test_reused_teids_build_the_record_loops_cluster(self):
        """Connects, disconnects, rehomes and handovers that recycle
        TEIDs, then ``start()``: the same RIB, entry for entry and in
        order, and the same replicas as the record loop builds."""
        gen = FlowGenerator(seed=21)
        gateway = EpcGateway(
            Architecture.SCALEBRICKS, 4, GW_IP, fabric_backend="crossbar"
        )
        live = {flow.key(): flow for flow in gen.populate(gateway, 300)}
        rng = np.random.default_rng(4)
        freed, reused = set(), 0
        for _ in range(900):
            action = rng.integers(4)
            flow = list(live.values())[rng.integers(len(live))]
            if action == 0:
                newcomer = gen.flows(1)[0]
                teid = gateway.connect(
                    newcomer, gen.base_station_for(newcomer)
                ).teid
                reused += teid in freed
                freed.discard(teid)
                live[newcomer.key()] = newcomer
            elif action == 1:
                freed.add(gateway.controller.record_for_key(flow.key()).teid)
                assert gateway.disconnect(live.pop(flow.key()))
            elif action == 2:
                gateway.rehome_flow(flow, int(rng.integers(4)))
            else:
                gateway.controller.handover(flow, int(rng.integers(1 << 32)))
        assert reused > 50
        assert list(gateway.controller.flows) == list(live)
        gateway.start()
        reference = record_loop_cluster(gateway)
        assert [astuple(e) for e in gateway.cluster.rib.entries()] == [
            astuple(e) for e in reference.rib.entries()
        ]
        assert [
            serialize.fingerprint(node.gpt.setsep)
            for node in gateway.cluster.nodes
        ] == [
            serialize.fingerprint(node.gpt.setsep)
            for node in reference.nodes
        ]


class TestObservability:
    def test_registry_counts_and_spans(self):
        gen = FlowGenerator(seed=21)
        gateway = EpcGateway(Architecture.SCALEBRICKS, 4, GW_IP)
        flows = gen.populate(gateway, 400)
        gateway.start()
        for flow in flows[:30]:
            result, tunnelled = gateway.process_downstream(frame_for(flow))
            assert tunnelled is not None
        snap = gateway.registry.snapshot()
        counters = snap["counters"]
        assert counters["gateway.downstream.packets_in"] == 30
        assert counters["gateway.downstream.tunnelled"] == 30
        assert counters["gateway.downstream.bytes"] > 0
        assert counters["gateway.bytes_charged"] == counters[
            "gateway.downstream.bytes"
        ]
        assert counters["cluster.scalebricks.routed"] == 30
        for name in (
            "span.downstream_us",
            "span.downstream.ingress_us",
            "span.downstream.pfe_lookup_us",
            "span.downstream.dpe_us",
            "span.downstream.egress_us",
            "gateway.fabric_hop_us",
        ):
            assert snap["histograms"][name]["count"] > 0, name

    def test_shared_registry_reaches_update_engine(self):
        gen = FlowGenerator(seed=22)
        gateway = EpcGateway(Architecture.SCALEBRICKS, 4, GW_IP)
        gen.populate(gateway, 200)
        gateway.start()
        extra = gen.flows(5)
        for flow in extra:
            gateway.connect(flow, gen.base_station_for(flow))
        counters = gateway.registry.snapshot()["counters"]
        assert counters["update.updates"] == 5
        assert counters["setsep.group_rebuilds"] >= 5
        assert counters["rib.inserts"] >= 5

    def test_packet_counters_live_in_registry(self):
        gen = FlowGenerator(seed=23)
        gateway = EpcGateway(Architecture.SCALEBRICKS, 4, GW_IP)
        flows = gen.populate(gateway, 100)
        gateway.start()
        gateway.process_downstream(frame_for(flows[0]))
        counters = gateway.registry.snapshot()["counters"]
        assert counters["gateway.downstream.packets_in"] == 1
        assert counters["gateway.downstream.tunnelled"] == 1
        # bytes_charged stays a real per-TEID dict on the ledger.
        assert sum(gateway.stats.bytes_charged.values()) > 0

    def test_ledger_has_no_counter_attributes(self):
        gateway = EpcGateway(Architecture.SCALEBRICKS, 2, GW_IP)
        with pytest.raises(AttributeError):
            gateway.stats.downstream_in


class TestBatchSurface:
    def test_process_downstream_batch(self):
        gen = FlowGenerator(seed=24)
        gateway = EpcGateway(Architecture.SCALEBRICKS, 4, GW_IP)
        flows = gen.populate(gateway, 300)
        gateway.start()
        frames = [frame_for(flow) for flow in flows[:12]]
        out = gateway.process_downstream_batch(frames)
        assert len(out) == 12
        assert all(t is not None for _, t in out)
        pinned = gateway.process_downstream_batch(frames[:3], ingress=[0, 1, 2])
        assert [r.ingress for r, _ in pinned] == [0, 1, 2]
        with pytest.raises(ValueError):
            gateway.process_downstream_batch(frames[:2], ingress=[0])

    @pytest.mark.parametrize(
        "pinned", [[0, 99], [0, -1], [None, 1.7], [0, True], [0, np.float64(1)]]
    )
    def test_refused_ingress_moves_nothing(self, pinned):
        # Every pinned entry is checked before a counter moves or an
        # ingress is drawn, on the batch and the scalar entry alike.
        gen = FlowGenerator(seed=25)
        gateway = EpcGateway(Architecture.SCALEBRICKS, 4, GW_IP)
        flows = gen.populate(gateway, 50)
        gateway.start()
        frames = [frame_for(flow) for flow in flows[:2]]
        rng = gateway.cluster._rng.bit_generator.state
        counters = gateway.registry.counters()
        with pytest.raises(ValueError):
            gateway.process_downstream_batch(frames, ingress=pinned)
        with pytest.raises(ValueError):
            gateway.process_downstream(frames[1], ingress=pinned[1])
        assert gateway.registry.counters() == counters
        assert gateway.cluster._rng.bit_generator.state == rng

    def test_numpy_ingress_is_accepted(self):
        gen = FlowGenerator(seed=26)
        gateway = EpcGateway(Architecture.SCALEBRICKS, 4, GW_IP)
        flows = gen.populate(gateway, 50)
        gateway.start()
        frames = [frame_for(flow) for flow in flows[:3]]
        out = gateway.process_downstream_batch(
            frames, ingress=np.array([2, 0, 3])
        )
        assert [r.ingress for r, _ in out] == [2, 0, 3]
        result, _ = gateway.process_downstream(frames[0], ingress=np.int32(1))
        assert result.ingress == 1


def drop_nth_transit(n):
    """A fault hook that drops the ``n``-th transit it is asked about."""
    asked = itertools.count(1)
    return lambda src, dst, size: DROP if next(asked) == n else DELIVER


class TestTransitLoss:
    """A lost fabric transit is a drop reason, not an abort: the rest of
    the batch is routed and charged as if nothing happened."""

    @pytest.mark.parametrize("arch", list(Architecture), ids=lambda a: a.value)
    def test_the_fifth_transit_lost_in_a_64_frame_batch(self, arch):
        gen = FlowGenerator(seed=27)
        gateway = EpcGateway(arch, 4, GW_IP)
        flows = gen.populate(gateway, 200)
        gateway.start()
        frames = [frame_for(flow) for flow in flows[:64]]
        fabric = gateway.cluster.fabric
        fabric.fault_hook = drop_nth_transit(5)

        out = gateway.process_downstream_batch(frames)

        lost = [i for i, (r, _) in enumerate(out) if r.reason == "fabric_loss"]
        assert len(lost) == 1
        result, tunnelled = out[lost[0]]
        assert result.dropped and tunnelled is None
        assert result.handled_by is None and result.value is None
        # Every other frame is a known flow: delivered, charged once.
        expected = {}
        for frame, (result, tunnelled) in zip(frames, out):
            if tunnelled is not None:
                expected[result.value] = (
                    expected.get(result.value, 0) + len(frame) - 14
                )
        assert len(expected) == 63
        assert dict(gateway.stats.bytes_charged) == expected
        counters = gateway.registry.counters()
        drops = sum(
            count for name, count in counters.items()
            if name.startswith("gateway.drops.")
        )
        assert counters["gateway.drops.fabric_loss"] == 1
        assert counters["gateway.downstream.packets_in"] == 64
        assert counters["gateway.downstream.tunnelled"] + drops == 64
        assert fabric.stats.dropped == 1
        assert fabric.verify_accounting()


def small_gateway(flows=40, seed=5):
    gen = FlowGenerator(seed=seed)
    gateway = EpcGateway(Architecture.SCALEBRICKS, 4, GW_IP)
    live = gen.populate(gateway, flows)
    gateway.start()
    return gateway, live


class TestFibControllerCheck:
    """A FIB answer that is not the flow's bearer is an explicit error on
    both downstream paths (an ``assert`` would vanish under ``python -O``),
    raised before the frame is charged."""

    @pytest.mark.parametrize(
        "planted", ["other_live", "free", "past_column"]
    )
    def test_planted_fib_entry_raises_on_both_paths(self, planted):
        gateway, flows = small_gateway()
        victim = gateway.controller.record_for_key(flows[3].key())
        other = gateway.controller.record_for_key(flows[4].key())
        if planted == "free":
            gateway.disconnect(flows[5])
            wrong = gateway.controller.record_for_key(flows[5].key())
            assert wrong is None
            wrong_teid = 6
            assert wrong_teid not in gateway.controller.teids
        else:
            wrong_teid = other.teid if planted == "other_live" else 10**6
        # Behind the controller's back: same node, another TEID.
        gateway.updates.insert_flow(
            victim.key, victim.handling_node, wrong_teid
        )
        charged = dict(gateway.stats.bytes_charged)
        with pytest.raises(BearerMismatchError) as scalar:
            gateway.process_downstream(frame_for(flows[3]))
        with pytest.raises(BearerMismatchError) as batch:
            gateway.process_downstream_batch(
                [frame_for(flows[0]), frame_for(flows[1]), frame_for(flows[3])]
            )
        for err in (scalar.value, batch.value):
            assert (err.key, err.teid) == (victim.key, wrong_teid)
        assert batch.value.frame == 2
        assert str(batch.value).startswith("frame 2: the FIB answered TEID")
        assert gateway.stats.bytes_charged == charged

    def test_a_fractional_handover_is_refused_and_both_paths_agree(self):
        gateway, flows = small_gateway()
        record = gateway.controller.record_for_key(flows[2].key())
        with pytest.raises(ValueError, match="base_station_ip"):
            gateway.controller.handover(flows[2], record.base_station_ip + 0.5)
        _, scalar = gateway.process_downstream(frame_for(flows[2]))
        [(_, batch)] = gateway.process_downstream_batch([frame_for(flows[2])])
        assert scalar == batch
        _, _, outer = GtpTunnelEndpoint.decapsulate(batch)
        assert outer.dst == record.base_station_ip

    @pytest.mark.parametrize("node", [1.5, True, np.float64(2.0)])
    def test_a_non_integer_rehome_is_refused(self, node):
        gateway, flows = small_gateway()
        record = gateway.controller.record_for_key(flows[2].key())
        with pytest.raises(ValueError, match="new_node"):
            gateway.controller.rehome(flows[2], node)
        assert gateway.controller.record_for_key(record.key) == record
