"""Differentials for the vectorised downstream data path.

The contract under test: ``EpcGateway.process_downstream_batch`` (and every
layer under it — frame codec, batched routing, grouped DPE dispatch) gives
the same bytes, counters and trajectory at any batch size, down to the
batch of one that ``process_downstream`` is, and agrees frame by frame
with the independent single-node reference,
``repro.chaos.oracle.ReferenceGateway``.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.chaos.oracle import (
    DELIVERED,
    UNKNOWN,
    ReferenceFlow,
    ReferenceGateway,
)
from repro.cluster.architectures import Architecture
from repro.cluster.cluster import Cluster
from repro.core.delta import GroupDelta
from repro.core.hashfamily import canonical_key, canonical_key_rows
from repro.epc import fastpath
from repro.epc.dpe import DataPlaneEngine
from repro.epc.gateway import ChargingLedger, EpcGateway
from repro.epc.packets import (
    EthernetHeader,
    FlowTuple,
    PROTO_TCP,
    PROTO_UDP,
    build_downstream_frame,
    extract_forwardable,
    ipv4_checksum,
    parse_frame,
    parse_ip,
)
from repro.epc.tunnels import GtpTunnelEndpoint
from repro.epc.traffic import (
    GATEWAY_MAC,
    GENERATOR_MAC,
    FlowGenerator,
    run_downstream_trial,
)
from repro.fabric.crossbar import SwitchFabric
from repro.obs.metrics import MetricsRegistry
from tests.conftest import deliver

NUM_NODES = 6

#: Makes ``make_frame`` one byte longer than the GTP-U framing can carry
#: (20 IPv4 + 8 UDP + payload = MAX_INNER + 1; still a legal total_length).
OVERSIZE_PAYLOAD = b"x" * (fastpath.MAX_INNER + 1 - 28)


def scalar_parse(frame: bytes):
    """The scalar codec's view of one frame (None when it raises)."""
    try:
        _eth, l3 = parse_frame(frame)
        flow, header, _rest = extract_forwardable(l3, fastpath.MAX_INNER)
    except ValueError:
        return None
    return (
        flow.key(), flow.src_ip, flow.dst_ip, flow.protocol,
        flow.sport, flow.dport, header.ttl, header.dscp,
        header.identification, header.total_length,
    )


def make_frame(flow, payload=b"x" * 18, ttl=64, ihl=5, dscp=0, ident=0,
               version=4, body=None):
    """Hand-rolled downstream frame with full header control.  ``body``
    replaces the UDP-shaped L4 header and ``payload`` after the IPv4
    header (``b""`` leaves a bare 20-byte L3 packet)."""
    if body is None:
        body = struct.pack(
            "!HHHH", flow.sport, flow.dport, 8 + len(payload), 0
        ) + payload
    hdr_len = ihl * 4
    options = bytes(range(1, hdr_len - 20 + 1))
    total_length = hdr_len + len(body)
    head = struct.pack(
        "!BBHHHBBH4s4s", (version << 4) | ihl, dscp, total_length, ident, 0,
        ttl, flow.protocol, 0,
        struct.pack("!I", flow.src_ip), struct.pack("!I", flow.dst_ip),
    ) + options
    checksum = ipv4_checksum(head[:10] + b"\x00\x00" + head[12:hdr_len])
    l3 = head[:10] + struct.pack("!H", checksum) + head[12:]
    return EthernetHeader(GATEWAY_MAC, GENERATOR_MAC).pack() + l3 + body


def build_gateway(seed=7, flows=400, num_nodes=NUM_NODES):
    gateway = EpcGateway(
        Architecture.SCALEBRICKS, num_nodes, parse_ip("192.0.2.1")
    )
    gen = FlowGenerator(seed=seed)
    flow_list = gen.populate(gateway, flows)
    gateway.start()
    return gateway, flow_list, gen


def force_fallback_group(gateway, flow):
    """Push one flow's whole GPT group into the exact fallback table.

    Rebuilds the group as *failed* on every replica, upserting every
    established key that lives in it, so routing stays correct while the
    lookup path exercises the vectorised ``np.searchsorted`` probe.
    """
    setsep = gateway.cluster.nodes[0].gpt.setsep
    group = setsep.group_of(flow.key())
    upserts = tuple(
        (record.key, record.handling_node)
        for record in gateway.controller.flows.values()
        if setsep.group_of(record.key) == group
    )
    delta = GroupDelta(
        group_id=group,
        failed=True,
        indices=(0,) * setsep.params.value_bits,
        arrays=(0,) * setsep.params.value_bits,
        fallback_upserts=upserts,
    )
    for node in gateway.cluster.nodes:
        node.gpt.setsep.apply_delta(delta)
    return len(upserts)


def strip_fastpath(counters):
    return {
        name: value for name, value in counters.items()
        if not name.startswith("gateway.fastpath")
    }


def reference_for(gateway):
    """The oracle's single-node reference over the gateway's bearers."""
    reference = ReferenceGateway(gateway.gateway_ip)
    for record in gateway.controller.flows.values():
        reference.insert(ReferenceFlow(
            key=record.key, teid=record.teid, node=record.handling_node,
            base_station_ip=record.base_station_ip, flow=record.flow,
        ))
    reference.acl_blocked_sources = set(gateway.acl_blocked_sources)
    return reference


def outcome_kind(result, packet):
    """The reference's name for a gateway outcome (``None``: a verdict the
    reference does not model — the node topology)."""
    if packet is not None:
        return DELIVERED
    if result.reason == "node_down":
        return None
    if result.reason.startswith("unknown"):
        return UNKNOWN
    return result.reason


def assert_matches_reference(gateway, frames, outcomes, charged_before):
    """Every frame's outcome kind and tunnelled bytes, and the charge per
    TEID, against the reference (rows it does not model are skipped)."""
    reference = reference_for(gateway)
    expected_charge = {}
    for frame, (result, packet) in zip(frames, outcomes):
        kind = outcome_kind(result, packet)
        if kind is None:
            continue
        expected = reference.expect_downstream(frame)
        assert kind == expected.kind
        if kind == DELIVERED:
            assert packet == expected.payload
            assert result.value == expected.teid
            expected_charge[expected.teid] = (
                expected_charge.get(expected.teid, 0) + expected.charge
            )
    charged = {
        teid: total - charged_before.get(teid, 0)
        for teid, total in gateway.stats.bytes_charged.items()
        if total != charged_before.get(teid, 0)
    }
    assert charged == expected_charge


def assert_equivalent(gw_one, gw_batch, frames, ingress=None):
    """Drive one gateway a frame per call and its twin a batch per call,
    compare every observable output, and check the batch against the
    reference."""
    charged_before = dict(gw_batch.stats.bytes_charged)
    if ingress is None:
        one_by_one = [gw_one.process_downstream(f) for f in frames]
    else:
        one_by_one = [
            gw_one.process_downstream(f, i)
            for f, i in zip(frames, ingress)
        ]
    batched = gw_batch.process_downstream_batch(frames, ingress)
    assert len(batched) == len(one_by_one)
    for one, out in zip(one_by_one, batched):
        assert one == out
    assert gw_one.stats.bytes_charged == gw_batch.stats.bytes_charged
    assert strip_fastpath(gw_one.registry.counters()) == strip_fastpath(
        gw_batch.registry.counters()
    )
    assert gw_one.now == gw_batch.now
    assert (
        gw_one.cluster.fabric.stats == gw_batch.cluster.fabric.stats
    )
    for node_a, node_b in zip(gw_one.cluster.nodes, gw_batch.cluster.nodes):
        assert vars(node_a.counters) == vars(node_b.counters)
    for dpe_a, dpe_b in zip(gw_one.dpes, gw_batch.dpes):
        assert {t: asdict(c) for t, c in dpe_a.contexts().items()} == {
            t: asdict(c) for t, c in dpe_b.contexts().items()
        }
    assert_matches_reference(gw_batch, frames, batched, charged_before)
    return batched


class TestParseFrames:
    def test_matches_scalar_on_structured_frames(self):
        gen = FlowGenerator(seed=1)
        flows = gen.flows(50)
        frames = []
        for i, flow in enumerate(flows):
            frames.append(make_frame(flow, ttl=1 + i % 200, ihl=5 + i % 4,
                                     dscp=i % 256, ident=i * 37 % 65536))
        frames += [b"", b"\x00" * 13, b"\x00" * 14, b"\xff" * 60]
        parsed = fastpath.parse_frames(frames)
        for i, frame in enumerate(frames):
            ref = scalar_parse(frame)
            if ref is None:
                assert parsed.malformed[i]
                continue
            assert not parsed.malformed[i]
            got = (
                int(parsed.keys[i]), int(parsed.src_ip[i]),
                int(parsed.dst_ip[i]), int(parsed.protocol[i]),
                int(parsed.sport[i]), int(parsed.dport[i]),
                int(parsed.ttl[i]), int(parsed.dscp[i]),
                int(parsed.identification[i]), int(parsed.total_length[i]),
            )
            assert got == ref
        assert parsed.scalar_spills > 0  # the IHL>5 frames

    def test_bad_checksum_and_truncated_l4_are_malformed(self):
        flow = FlowTuple(0x0A000001, 0x0A000002, PROTO_UDP, 1000, 2000)
        good = make_frame(flow)
        corrupted = bytearray(good)
        corrupted[24] ^= 0xFF  # inside the IPv4 header, after the length
        ip_only = good[:14] + good[14:34] + b""  # 20-byte L3, UDP proto
        parsed = fastpath.parse_frames([good, bytes(corrupted), ip_only])
        assert not parsed.malformed[0]
        assert parsed.malformed[1]
        assert parsed.malformed[2]  # UDP but no room for ports
        for i, frame in enumerate([good, bytes(corrupted), ip_only]):
            assert (scalar_parse(frame) is None) == bool(parsed.malformed[i])

    def test_non_l4_protocol_has_zero_ports(self):
        flow = FlowTuple(0x01020304, 0x05060708, 47, 0, 0)  # GRE
        frame = make_frame(flow)
        parsed = fastpath.parse_frames([frame])
        assert not parsed.malformed[0]
        assert int(parsed.sport[0]) == 0 and int(parsed.dport[0]) == 0
        assert int(parsed.keys[0]) == flow.key()

    def test_unforwardable_frames_are_flagged_malformed(self):
        """TTL 0 and L3 longer than MAX_INNER: flagged per frame, like
        the scalar codec, and the neighbours are untouched."""
        flow = FlowTuple(0x0A000001, 0x0A000002, PROTO_UDP, 1000, 2000)
        frames = [
            make_frame(flow),
            make_frame(flow, ttl=0),
            make_frame(flow, ttl=1),
            make_frame(flow, payload=OVERSIZE_PAYLOAD),
            make_frame(flow, payload=OVERSIZE_PAYLOAD[:-1]),
            make_frame(flow, ttl=0, ihl=6),
        ]
        parsed = fastpath.parse_frames(frames)
        assert parsed.malformed.tolist() == [
            False, True, False, True, False, True
        ]
        assert parsed.malformed.tolist() == [
            scalar_parse(frame) is None for frame in frames
        ]
        assert int(parsed.keys[0]) == int(parsed.keys[2]) == flow.key()

    @given(st.lists(st.binary(min_size=0, max_size=80), max_size=30))
    @settings(max_examples=75, deadline=None)
    def test_random_bytes_differential(self, blobs):
        parsed = fastpath.parse_frames(blobs)
        for i, frame in enumerate(blobs):
            ref = scalar_parse(frame)
            if ref is None:
                assert parsed.malformed[i]
            else:
                assert not parsed.malformed[i]
                assert int(parsed.keys[i]) == ref[0]
                assert int(parsed.ttl[i]) == ref[6]


def blake2b_key(flow):
    """The flow key written out: BLAKE2b-64 of the packed 5-tuple, read
    little-endian."""
    digest = hashlib.blake2b(flow.pack(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def parsed_flow(src, dst, protocol, sport, dport):
    """The tuple a frame's parse yields: ports read only for TCP and
    UDP."""
    if protocol not in (PROTO_TCP, PROTO_UDP):
        sport = dport = 0
    return FlowTuple(src, dst, protocol, sport, dport)


flow_tuples = st.builds(
    parsed_flow,
    st.integers(0, 0xFFFFFFFF), st.integers(0, 0xFFFFFFFF),
    st.sampled_from([PROTO_TCP, PROTO_UDP, 1, 47]),
    st.integers(0, 0xFFFF), st.integers(0, 0xFFFF),
)


class TestFlowKeys:
    """The batch flow keys against ``FlowTuple.key()`` and BLAKE2b
    written out."""

    @given(flows=st.lists(flow_tuples, min_size=1, max_size=40),
           repeats=st.lists(st.integers(0, 39), max_size=20),
           spills=st.lists(st.integers(0, 39), max_size=4))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_keys_are_flowtuple_keys(self, flows, repeats, spills):
        picks = flows + [flows[i % len(flows)] for i in repeats]
        frames = [
            make_frame(flow, ihl=6 if i in spills else 5)
            for i, flow in enumerate(picks)
        ]
        parsed = fastpath.parse_frames(frames)
        assert not parsed.malformed.any()
        assert parsed.scalar_spills == len(set(spills) & set(range(len(picks))))
        assert parsed.keys.dtype == np.uint64
        expected = [flow.key() for flow in picks]
        assert parsed.keys.tolist() == expected
        assert expected == [blake2b_key(flow) for flow in picks]

    def test_one_flow_repeated_in_a_batch(self):
        flow = FlowTuple(0x0A000001, 0x0A000002, PROTO_UDP, 1000, 2000)
        other = FlowTuple(0x0A000003, 0x0A000002, PROTO_UDP, 1000, 2000)
        picks = [flow] * 7 + [other] + [flow] * 5 + [other]
        parsed = fastpath.parse_frames([make_frame(f) for f in picks])
        assert parsed.keys.tolist() == [blake2b_key(f) for f in picks]
        assert len(set(parsed.keys.tolist())) == 2

    def test_canonical_key_rows_is_canonical_key_per_row(self):
        rng = np.random.default_rng(10)
        rows = rng.integers(0, 256, size=(300, 13), dtype=np.uint8)
        rows[:3, -4:] = 0  # trailing zero bytes are part of the row
        keys = canonical_key_rows(rows)
        assert keys.dtype == np.uint64
        assert keys.tolist() == [
            canonical_key(row.tobytes()) for row in rows
        ]
        assert canonical_key_rows(rows[:0]).size == 0

class TestEncapsulateBatch:
    def test_byte_identical_to_scalar_egress(self):
        gateway, flows, gen = build_gateway(flows=64)
        frames = [make_frame(f, ttl=9, ihl=5 + i % 3, dscp=3, ident=77)
                  for i, f in enumerate(flows[:40])]
        reference = reference_for(gateway)
        batched = gateway.process_downstream_batch(frames)
        for frame, (_, out) in zip(frames, batched):
            assert out is not None
            assert out == reference.expect_downstream(frame).payload


GATEWAY_IP = parse_ip("192.0.2.1")

COLUMNS = (
    "keys", "src_ip", "dst_ip", "protocol", "sport", "dport", "ttl", "dscp",
    "identification", "total_length",
)


def scalar_egress(frame, teid, bs_ip, gateway_ip):
    """What the scalar data plane emits for one forwardable frame."""
    _eth, l3 = parse_frame(frame)
    _flow, header, _rest = extract_forwardable(l3, fastpath.MAX_INNER)
    inner = header.decrement_ttl().pack() + l3[header.SIZE:]
    return GtpTunnelEndpoint(gateway_ip, bs_ip).encapsulate(teid, inner)


def assert_codec_matches_scalar(frames, picks=None, gateway_ip=GATEWAY_IP):
    """Both halves of the batch codec against the scalar one.

    ``picks`` is ``(seed, teid, bs_ip)`` per packet to emit; a seed selects
    one of the valid frames, so any subset, order and repetition of ``idx``
    can be asked for.  None emits every valid frame once.
    """
    with np.errstate(all="raise"):
        parsed = fastpath.parse_frames(frames)
        reference = [scalar_parse(frame) for frame in frames]
        assert parsed.n == len(frames)
        assert parsed.raw == b"".join(frames) == parsed.buf.tobytes()
        assert parsed.offsets.tolist() == [
            sum(map(len, frames[:i])) for i in range(len(frames) + 1)
        ]
        assert parsed.l3_len.tolist() == [len(f) - 14 for f in frames]
        assert parsed.malformed.tolist() == [r is None for r in reference]
        assert parsed.valid.tolist() == [r is not None for r in reference]
        valid = [i for i, r in enumerate(reference) if r is not None]
        for i in valid:
            got = tuple(int(getattr(parsed, c)[i]) for c in COLUMNS)
            assert got == reference[i], (i, frames[i].hex())
        if picks is None:
            picks = [(i, 1 + i, 0xAC100101 + i) for i in range(len(valid))]
        if not valid:
            picks = []
        idx = [valid[seed % len(valid)] for seed, _, _ in picks]
        tunnelled = fastpath.encapsulate_batch(
            parsed, np.array(idx, dtype=np.int64),
            [teid for _, teid, _ in picks], [bs for _, _, bs in picks],
            gateway_ip,
        )
    assert tunnelled == [
        scalar_egress(frames[i], teid, bs_ip, gateway_ip)
        for i, (_, teid, bs_ip) in zip(idx, picks)
    ]
    return parsed


U32 = st.integers(0, 0xFFFFFFFF)
NON_L4 = (0, 1, 47, 50, 255)
CODEC_FLOWS = st.builds(
    FlowTuple, U32, U32, st.sampled_from((PROTO_TCP, PROTO_UDP) + NON_L4),
    st.integers(0, 65535), st.integers(0, 65535),
)


@st.composite
def codec_frames(draw):
    """One frame of a kind the codec must tell apart."""
    flow = draw(CODEC_FLOWS)
    kind = draw(st.sampled_from((
        "plain", "plain", "options", "ttl", "version", "checksum",
        "truncated", "max_inner",
    )))
    fields = dict(
        ttl=draw(st.integers(2, 255)), dscp=draw(st.integers(0, 255)),
        ident=draw(st.integers(0, 65535)),
        payload=draw(st.binary(max_size=40)),
    )
    if kind == "options":
        return make_frame(flow, ihl=draw(st.integers(6, 15)), **fields)
    if kind == "ttl":
        fields["ttl"] = draw(st.sampled_from((0, 1)))
        return make_frame(flow, ihl=draw(st.sampled_from((5, 6))), **fields)
    if kind == "version":
        version = draw(st.sampled_from((0, 5, 6, 15)))
        return make_frame(flow, version=version, **fields)
    if kind == "max_inner":
        fields["payload"] = OVERSIZE_PAYLOAD[draw(st.sampled_from((0, 1))):]
    frame = make_frame(flow, **fields)
    if kind == "checksum":
        corrupt = bytearray(frame)
        corrupt[14 + draw(st.integers(0, 19))] ^= draw(st.integers(1, 255))
        return bytes(corrupt)
    if kind == "truncated":
        return frame[:draw(st.integers(0, len(frame)))]
    return frame


#: Frames whose 24-byte gather reaches past their own end: anything too
#: short to parse, and 20- to 23-byte L3 packets (valid when not TCP/UDP).
SHORT_TAILS = st.one_of(
    st.binary(max_size=33),
    st.builds(
        lambda flow, extra: make_frame(flow, body=bytes(extra)),
        CODEC_FLOWS, st.integers(0, 3),
    ),
)


class TestCodecProperties:
    """Hypothesis differentials for both halves of the batch codec, run
    under ``np.errstate(all="raise")``."""

    @given(
        body=st.lists(codec_frames(), max_size=10),
        tail=st.none() | SHORT_TAILS,
        picks=st.lists(st.tuples(st.integers(0, 10**6), U32, U32), max_size=24),
        gateway_ip=U32,
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_random_batches_match_the_scalar_codec(
        self, body, tail, picks, gateway_ip
    ):
        # The short frame goes last in the buffer, where the gather is
        # clipped instead of reading a neighbour.
        frames = body + ([] if tail is None else [tail])
        assert_codec_matches_scalar(frames, picks, gateway_ip)

    @pytest.mark.parametrize("protocol", [PROTO_UDP, 47])
    @pytest.mark.parametrize("ihl", [5, 6])
    def test_truncated_at_every_length(self, protocol, ihl):
        flow = FlowTuple(0x0A000001, 0x0A000002, protocol, 1000, 2000)
        whole = make_frame(flow, ihl=ihl, dscp=9, ident=513)
        good = make_frame(flow, ttl=3)
        for cut in range(len(whole) + 1):
            for frames in (
                [whole[:cut]], [good, whole[:cut]], [whole[:cut], good],
            ):
                parsed = assert_codec_matches_scalar(frames)
                # A cut frame never changes what its neighbour reads.
                assert parsed.valid.sum() >= len(frames) - 1

    def test_a_bare_non_l4_header_last_in_the_buffer_is_valid(self):
        gre = FlowTuple(0x01020304, 0x05060708, 47, 0, 0)
        udp = FlowTuple(0x01020304, 0x05060708, PROTO_UDP, 7, 9)
        frames = [make_frame(udp), make_frame(gre, body=b"")]
        parsed = assert_codec_matches_scalar(frames)
        assert parsed.valid.all()
        # In front of another frame its port columns would be that
        # frame's Ethernet bytes: masked, not read.
        parsed = assert_codec_matches_scalar(frames[::-1])
        assert parsed.valid.all()
        assert (int(parsed.sport[0]), int(parsed.dport[0])) == (0, 0)
        assert int(parsed.keys[0]) == gre.key()

    def test_exactly_max_inner_is_forwarded_and_one_more_is_not(self):
        flow = FlowTuple(0x0A000001, 0x0A000002, PROTO_TCP, 1000, 2000)
        frames = [
            make_frame(flow, payload=OVERSIZE_PAYLOAD[1:]),
            make_frame(flow, payload=OVERSIZE_PAYLOAD),
        ]
        parsed = assert_codec_matches_scalar(frames)
        assert parsed.l3_len.tolist() == [
            fastpath.MAX_INNER, fastpath.MAX_INNER + 1
        ]
        assert parsed.malformed.tolist() == [False, True]

    def test_checksum_zero_and_ffff_are_not_interchangeable(self):
        """A header whose words sum to 0xFFFF has checksum 0x0000; the
        scalar codec rejects the other ones-complement zero in the field,
        and so must a checksum verified as one column sum."""
        flow = FlowTuple(0x0A000001, 0x0A000002, PROTO_UDP, 1000, 2000)
        frame = next(
            frame for frame in (
                make_frame(flow, ident=ident) for ident in range(65536)
            ) if frame[24:26] == b"\x00\x00"
        )
        other_zero = frame[:24] + b"\xff\xff" + frame[26:]
        parsed = assert_codec_matches_scalar([frame, other_zero])
        assert parsed.malformed.tolist() == [False, True]

    def test_empty_batch_and_empty_frames(self):
        assert assert_codec_matches_scalar([]).n == 0
        assert assert_codec_matches_scalar([b"", b""]).malformed.all()

    #: (payload bytes — the three sizes of the e2e ``fwd_mixed`` pool —
    #: TEID, base station, the 56 header bytes, SHA-256 of the packet),
    #: produced by the byte-at-a-time codec this one replaced.
    GOLDEN = (
        (18, 0x01020304, "172.16.1.9",
         "450000520000000040110b81c0000201ac10010908680868003e000030ff002e"
         "010203044500002e000000003f112949c63364070a141e28",
         "a219690154d280e3871aa2478cf0f1bdb7ed38eebe95ba6beb4bbbabdd1aa912"),
        (512, 0xFFFFFFFF, "172.16.255.254",
         "450002400000000040110a9dc0000201ac10fffe08680868022c000030ff021c"
         "ffffffff4500021c000000003f11275bc63364070a141e28",
         "b73f3f3d9367b786aa181a42e128f58cefa24316a426667ac356f87f3743e092"),
        (1400, 7, "255.255.255.255",
         "450005b8000000004011b334c0000201ffffffff0868086805a4000030ff0594"
         "0000000745000594000000003f1123e3c63364070a141e28",
         "ea31a53a8534c968da02c34eddcb729ace447be74e94d761eeff78b2265cc7cf"),
    )

    def test_golden_vectors(self):
        """Pinned bytes, so the batch codec cannot drift with the scalar
        codec moving in step beside it."""
        flow = FlowTuple(
            parse_ip("198.51.100.7"), parse_ip("10.20.30.40"), PROTO_UDP,
            53124, 443,
        )
        frames = [
            build_downstream_frame(
                GENERATOR_MAC, GATEWAY_MAC, flow, b"x" * size
            )
            for size, *_ in self.GOLDEN
        ]
        parsed = fastpath.parse_frames(frames)
        assert parsed.keys.tolist() == [0x7927880792B081BF] * 3
        tunnelled = fastpath.encapsulate_batch(
            parsed, np.arange(3), [teid for _, teid, *_ in self.GOLDEN],
            [parse_ip(bs) for _, _, bs, *_ in self.GOLDEN], GATEWAY_IP,
        )
        for frame, out, (size, _, _, head, digest) in zip(
            frames, tunnelled, self.GOLDEN
        ):
            assert out[:56].hex() == head
            assert out[56:] == frame[34:] and len(out) == 56 + 8 + size
            assert hashlib.sha256(out).hexdigest() == digest
        assert tunnelled[0].hex() == self.GOLDEN[0][3] + (
            "cf8401bb001a0000" + "78" * 18
        )


class TestTunnelFieldRange:
    """A TEID or base-station address wider than 32 bits must never be
    masked into another subscriber's tunnel."""

    def test_encapsulate_batch_names_the_first_offender(self):
        flow = FlowTuple(0x0A000001, 0x0A000002, PROTO_UDP, 1000, 2000)
        parsed = fastpath.parse_frames([make_frame(flow)] * 3)
        idx = np.arange(3)
        ok = [1, 2, 3]
        with pytest.raises(ValueError, match=r"teids\[0\] = 4294967301"):
            fastpath.encapsulate_batch(
                parsed, [0], [2**32 + 5], [2**32 + 9], GATEWAY_IP
            )
        with pytest.raises(ValueError, match=r"teids\[1\] = -1 "):
            fastpath.encapsulate_batch(
                parsed, idx, [1, -1, 2**40], ok, GATEWAY_IP
            )
        with pytest.raises(ValueError, match=r"bs_ips\[2\] = 4294967296"):
            fastpath.encapsulate_batch(
                parsed, idx, ok, [0, 0xFFFFFFFF, 2**32], GATEWAY_IP
            )
        for gateway_ip in (2**32, -1):
            with pytest.raises(ValueError, match="gateway_ip"):
                fastpath.encapsulate_batch(parsed, idx, ok, ok, gateway_ip)
        edge = fastpath.encapsulate_batch(
            parsed, idx, [0, 0xFFFFFFFF, 1], [0xFFFFFFFF, 0, 1], 0xFFFFFFFF
        )
        assert edge == [
            scalar_egress(make_frame(flow), teid, bs_ip, 0xFFFFFFFF)
            for teid, bs_ip in ((0, 0xFFFFFFFF), (0xFFFFFFFF, 0), (1, 1))
        ]

    def test_connect_and_handover_reject_a_wide_base_station(self):
        gateway, flows, gen = build_gateway(flows=20)
        newcomer = gen.flows(21)[-1]
        assert gateway.controller.record_for_key(newcomer.key()) is None
        registry_before = gateway.registry.counters()
        for bad in (2**32 + 9, -1):
            with pytest.raises(ValueError, match="base_station_ip"):
                gateway.connect(newcomer, bad)
            with pytest.raises(ValueError, match="base_station_ip"):
                gateway.controller.handover(flows[0], bad)
        assert len(gateway.controller) == len(gateway.controller.teids) == 20
        assert sum(len(dpe) for dpe in gateway.dpes) == 20
        assert gateway.stats.bytes_charged == {}
        assert gateway.registry.counters() == registry_before
        record = gateway.controller.record_for_key(flows[0].key())
        assert record.base_station_ip == gen.base_station_for(flows[0])
        # The widest legal address still connects and tunnels as the
        # reference's scalar encapsulation does.
        gateway.connect(newcomer, 0xFFFFFFFF)
        frame = make_frame(newcomer)
        _, packet = gateway.process_downstream(frame, 0)
        assert packet == reference_for(gateway).expect_downstream(
            frame
        ).payload
        assert packet[16:20] == b"\xff" * 4


class TestAclScreen:
    def test_the_screen_reads_the_live_set_every_batch(self):
        """Blocked between two batches, unblocked again, then emptied:
        each batch sees the set as it is, and results, counters and ledger
        equal a frame per call's (nobody may cache it as an array)."""
        gw_a, flows, gen = build_gateway(seed=19, flows=60)
        gw_b, _, _ = build_gateway(seed=19, flows=60)
        victim, bystander = flows[4], flows[5]
        frames = [make_frame(f) for f in (victim, bystander, victim)]
        ingress = [0, 1, 2]

        def both(expected_drops):
            out = assert_equivalent(gw_a, gw_b, frames, ingress)
            assert [
                result.reason if packet is None else None
                for result, packet in out
            ] == expected_drops
            return gw_b.registry.counters().get("gateway.drops.acl", 0)

        assert both([None, None, None]) == 0
        for gateway in (gw_a, gw_b):
            gateway.acl_blocked_sources.add(victim.src_ip)
        assert both(["acl", None, "acl"]) == 2
        for gateway in (gw_a, gw_b):
            gateway.acl_blocked_sources.add(bystander.src_ip)
            gateway.acl_blocked_sources.discard(victim.src_ip)
        assert both([None, "acl", None]) == 3
        for gateway in (gw_a, gw_b):
            gateway.acl_blocked_sources.clear()
        assert both([None, None, None]) == 3
        victim_teid = gw_b.controller.record_for_key(victim.key()).teid
        assert gw_b.stats.bytes_charged[victim_teid] == 6 * 46

    def test_a_malformed_frame_is_never_an_acl_drop(self):
        """Its zeroed source column must not be looked up as address 0."""
        gw_a, flows, _ = build_gateway(seed=19, flows=10)
        gw_b, _, _ = build_gateway(seed=19, flows=10)
        for gateway in (gw_a, gw_b):
            gateway.acl_blocked_sources.add(0)
        out = assert_equivalent(
            gw_a, gw_b, [b"", make_frame(flows[0])[:30], make_frame(flows[0])]
        )
        assert [r.reason for r, _ in out[:2]] == ["malformed", "malformed"]
        assert out[2][1] is not None


class TestGatewayDifferential:
    def test_ten_thousand_mixed_frames(self):
        """The acceptance-criteria batch: >= 10k valid/malformed/unknown/
        fallback frames, byte-identical outputs and counters."""
        gw_a, flows, gen_a = build_gateway(seed=13, flows=600)
        gw_b, _, gen_b = build_gateway(seed=13, flows=600)
        fallback_size_a = force_fallback_group(gw_a, flows[0])
        fallback_size_b = force_fallback_group(gw_b, flows[0])
        assert fallback_size_a == fallback_size_b > 0

        rng = np.random.default_rng(99)
        frames = gen_a.packet_stream(flows, 9000)
        _ = gen_b.packet_stream(flows, 9000)  # keep generator streams equal
        frames += [make_frame(flows[0]) for _ in range(200)]  # fallback keys
        unknown = [
            build_downstream_frame(
                GENERATOR_MAC, GATEWAY_MAC,
                FlowTuple(
                    int(rng.integers(1, 2**31)), int(rng.integers(1, 2**31)),
                    PROTO_TCP, int(rng.integers(1, 65535)), 443,
                ),
                b"u" * 12,
            )
            for _ in range(600)
        ]
        malformed = [b"", b"\x01" * 7, b"\xab" * 33, frames[0][:21]]
        corrupt = bytearray(frames[1])
        corrupt[25] ^= 0x55
        malformed.append(bytes(corrupt))
        options = [make_frame(f, ihl=6) for f in flows[:120]]
        pool = frames + unknown + malformed * 40 + options
        assert len(pool) >= 10_000
        order = rng.permutation(len(pool))
        pool = [pool[int(i)] for i in order]

        batched = assert_equivalent(gw_a, gw_b, pool)
        counters = gw_b.registry.counters()
        assert counters["gateway.fastpath.frames"] == len(pool)
        assert counters["gateway.fastpath.batches"] == 1
        assert counters["setsep.fallback_hits"] > 0
        assert counters["gateway.drops.malformed"] >= 200
        assert counters["gateway.drops.unknown_flow"] >= 600
        delivered = sum(1 for _r, t in batched if t is not None)
        assert delivered > 8000

    def test_acl_and_down_nodes(self):
        gw_a, flows, gen = build_gateway(seed=3, flows=200)
        gw_b, _, _ = build_gateway(seed=3, flows=200)
        for gw in (gw_a, gw_b):
            gw.acl_blocked_sources.update(
                {flows[0].src_ip, flows[3].src_ip}
            )
            gw.down_nodes.add(1)
        frames = gen.packet_stream(flows, 2500)
        assert_equivalent(gw_a, gw_b, frames)
        assert gw_b.registry.counters()["gateway.drops.acl"] > 0
        assert gw_b.registry.counters()["gateway.drops.node_down"] > 0

    def test_few_bearers_many_frames(self):
        """Some fifty frames per bearer, so a node's share of a batch
        repeats bearers: every frame is delivered and charged once."""
        gw_a, flows, gen = build_gateway(seed=5, flows=30)
        gw_b, _, _ = build_gateway(seed=5, flows=30)
        frames = gen.packet_stream(flows, 1500)
        batched = assert_equivalent(gw_a, gw_b, frames)
        assert all(packet is not None for _, packet in batched)
        contexts = [
            context for dpe in gw_b.dpes for context in dpe.contexts().values()
        ]
        assert sum(c.downlink_packets for c in contexts) == len(frames)
        assert sum(gw_b.stats.bytes_charged.values()) == sum(
            c.downlink_bytes for c in contexts
        )

    def test_pinned_and_mixed_ingress(self):
        gw_a, flows, gen = build_gateway(seed=8, flows=100)
        gw_b, _, _ = build_gateway(seed=8, flows=100)
        frames = gen.packet_stream(flows, 900)
        ingress = [
            None if i % 4 == 0 else int(i % NUM_NODES)
            for i in range(len(frames))
        ]
        assert_equivalent(gw_a, gw_b, frames, ingress)

    def test_unforwardable_frames_drop_alone_in_a_batch(self):
        """A TTL-0 and an oversize frame for live bearers inside a batch
        of good frames: nothing charged for them, nothing raised, one
        ``malformed`` drop each, one frame per call == one batch, and
        every neighbour's bytes and charge are what they are without the
        bad frames."""
        gw_a, flows, _gen = build_gateway(seed=2, flows=20)
        gw_b, _, _ = build_gateway(seed=2, flows=20)
        gw_clean, _, _ = build_gateway(seed=2, flows=20)
        good = [make_frame(flow) for flow in flows[:8]]
        frames = (
            good[:4] + [make_frame(flows[8], ttl=0)] + good[4:]
            + [make_frame(flows[9], payload=OVERSIZE_PAYLOAD)]
        )
        good_at = [0, 1, 2, 3, 5, 6, 7, 8]
        ingress = [i % NUM_NODES for i in range(len(frames))]
        one_by_one = [
            gw_a.process_downstream(frame, node)
            for frame, node in zip(frames, ingress)
        ]
        batched = gw_b.process_downstream_batch(frames, ingress)
        clean = gw_clean.process_downstream_batch(
            good, [ingress[i] for i in good_at]
        )
        assert one_by_one == batched
        assert [batched[i] for i in good_at] == clean
        assert all(out is not None for _, out in clean)
        for position in (4, 9):
            result, out = batched[position]
            assert out is None
            assert (result.dropped, result.reason) == (True, "malformed")
        for gateway in (gw_a, gw_b):
            assert gateway.registry.counters()["gateway.drops.malformed"] == 2
            for flow in flows[8:10]:
                record = gateway.controller.record_for_key(flow.key())
                assert record.teid not in gateway.stats.bytes_charged
                dpe = gateway.dpes[record.handling_node]
                assert dpe.context(record.teid).downlink_bytes == 0
        assert (
            gw_a.stats.bytes_charged == gw_b.stats.bytes_charged
            == gw_clean.stats.bytes_charged
        )
        assert strip_fastpath(gw_a.registry.counters()) == strip_fastpath(
            gw_b.registry.counters()
        )
        # Dropped by the vector codec, not spilled to the scalar codec.
        assert gw_b.registry.counters()["gateway.fastpath.batches"] == 1
        assert gw_b.registry.counters()["gateway.fastpath.spilled_frames"] == 0

    def test_length_mismatch_raises(self):
        gateway, flows, gen = build_gateway(flows=10)
        frames = gen.packet_stream(flows, 4)
        with pytest.raises(ValueError, match="lengths differ"):
            gateway.process_downstream_batch(frames, [0])

    def test_trial_at_batch_size_one_matches_batch_size_128(self):
        gw_a, flows, gen_a = build_gateway(seed=21, flows=150)
        gw_b, _, gen_b = build_gateway(seed=21, flows=150)
        frames_a = gen_a.packet_stream(flows, 1200)
        frames_b = gen_b.packet_stream(flows, 1200)
        assert frames_a == frames_b
        stats_a = run_downstream_trial(gw_a, frames_a, batch_size=1)
        stats_b = run_downstream_trial(gw_b, frames_b, batch_size=128)
        assert (stats_a.offered, stats_a.delivered, stats_a.dropped) == (
            stats_b.offered, stats_b.delivered, stats_b.dropped
        )
        assert stats_a.hop_histogram == stats_b.hop_histogram
        assert gw_a.stats.bytes_charged == gw_b.stats.bytes_charged


class TestRegistryAtEveryBatchSize:
    """The same mixed stream, in batches of 1, 8, 32 and 256, leaves the
    same registry: every counter (but ``gateway.fastpath.batches``, which
    counts the batches) and every histogram that is not a span's wall
    clock — counts, sum, min, max and buckets.  Pins the instrumentation
    (handles resolved once, ``observe_many`` adding left to right) as
    much as the data path."""

    @staticmethod
    def stream(gateway, flows, gen):
        rng = np.random.default_rng(44)
        known = gen.packet_stream(flows, 700)
        unknown = [
            make_frame(FlowTuple(
                int(rng.integers(1, 2**31)), int(rng.integers(1, 2**31)),
                PROTO_UDP, int(rng.integers(1, 65535)), 53,
            ))
            for _ in range(60)
        ]
        blocked = [make_frame(flow) for flow in flows[:30]]
        gateway.acl_blocked_sources.update(f.src_ip for f in flows[:10])
        options = [make_frame(flow, ihl=6) for flow in flows[40:60]]
        truncated = [frame[:24] for frame in known[:20]]
        corrupt = bytearray(known[20])
        corrupt[25] ^= 0x55
        fallback = [make_frame(flows[0]) for _ in range(30)]
        pool = (known + unknown + blocked + options + truncated
                + [bytes(corrupt)] * 10 + fallback)
        return [pool[int(i)] for i in rng.permutation(len(pool))]

    def test_counters_and_histograms_match_across_batch_sizes(self):
        registries = {}
        for size in (1, 8, 32, 256):
            gateway, flows, gen = build_gateway(seed=21, flows=300)
            force_fallback_group(gateway, flows[0])
            frames = self.stream(gateway, flows, gen)
            for start in range(0, len(frames), size):
                gateway.process_downstream_batch(frames[start:start + size])
            snapshot = gateway.registry.snapshot()
            del snapshot["counters"]["gateway.fastpath.batches"]
            snapshot["histograms"] = {
                name: histogram
                for name, histogram in snapshot["histograms"].items()
                if not name.startswith("span.")
            }
            registries[size] = snapshot
        counters = registries[1]["counters"]
        for reason in ("unknown_flow", "acl", "malformed"):
            assert counters[f"gateway.drops.{reason}"] > 0, reason
        assert counters["gateway.fastpath.spilled_frames"] > 0
        assert counters["setsep.fallback_hits"] > 0
        histograms = registries[1]["histograms"]
        assert {"gateway.fabric_hop_us", "cluster.scalebricks.hops"} <= set(
            histograms
        )
        assert histograms["gateway.fabric_hop_us"]["count"] > 0
        for size in (8, 32, 256):
            assert registries[size] == registries[1], size


class TestCounterAccounting:
    def test_no_double_count_between_cluster_and_setsep(self):
        """Satellite: the fast path must count each lookup once.

        Every packet the PFE routes does exactly one GPT lookup, so
        ``setsep.lookups`` equals ``cluster.scalebricks.routed`` at a
        frame per call and at one batch (``repro stats --json`` surfaces
        both counters).
        """
        for batched in (False, True):
            gateway, flows, gen = build_gateway(seed=31, flows=120)
            frames = gen.packet_stream(flows, 800)
            if batched:
                gateway.process_downstream_batch(frames)
            else:
                for frame in frames:
                    gateway.process_downstream(frame)
            counters = gateway.registry.counters()
            assert (
                counters["setsep.lookups"]
                == counters["cluster.scalebricks.routed"]
                == len(frames)
            )

    def test_stats_json_exposes_matching_counters(self, capsys):
        import json

        from repro.cli import main

        assert main(
            ["stats", "--flows", "200", "--packets", "300", "--json"]
        ) == 0
        parsed = json.loads(capsys.readouterr().out)
        counters = parsed["counters"]
        assert (
            counters["setsep.lookups"]
            == counters["cluster.scalebricks.routed"]
            == 300
        )


class TestDpeBatch:
    def test_process_batch_matches_scalar(self):
        scalar, batched = DataPlaneEngine(), DataPlaneEngine()
        rng = np.random.default_rng(4)
        for engine in (scalar, batched):
            for teid in range(1, 10):
                engine.open_bearer(teid, now=0.25 * teid)
        teids = rng.integers(1, 10, size=400)
        unknown = rng.integers(0, 400, size=25)
        teids[unknown] = 1234  # never opened
        sizes = rng.integers(40, 1500, size=400)
        for t, s in zip(teids, sizes):
            scalar.process(int(t), int(s), True)
        assert batched.process_batch(teids, sizes, downlink=True) is None
        assert batched.total_bytes() == scalar.total_bytes() > 0
        for teid in range(1, 10):
            assert asdict(scalar.context(teid)) == asdict(
                batched.context(teid)
            )


class TestFabricBatch:
    def test_deliver_batch_matches_scalar(self):
        fabric_a, fabric_b = SwitchFabric(5), SwitchFabric(5)
        rng = np.random.default_rng(6)
        srcs = rng.integers(0, 5, size=300)
        dsts = rng.integers(0, 5, size=300)
        lat_a = [deliver(fabric_a, int(s), int(d), 64) for s, d in zip(srcs, dsts)]
        lat_b, lost = fabric_b.deliver_batch(srcs, dsts, 64)
        assert not lost.any()
        assert np.allclose(lat_a, lat_b)
        assert fabric_a.stats == fabric_b.stats

    def test_deliver_batch_validates_nodes(self):
        fabric = SwitchFabric(3)
        with pytest.raises(ValueError, match="not attached"):
            fabric.deliver_batch(np.array([0, 5]), np.array([1, 1]))


class TestClusterBatch:
    def test_scalebricks_route_batch_differential(self):
        rng = np.random.default_rng(17)
        keys = rng.integers(1, 2**62, size=2000, dtype=np.uint64)
        owners = rng.integers(0, 4, size=2000).tolist()
        values = rng.integers(1, 2**30, size=2000).tolist()
        reg_a, reg_b = MetricsRegistry(), MetricsRegistry()
        cluster_a = Cluster.build(
            Architecture.SCALEBRICKS, 4, keys, owners, values,
            registry=reg_a,
        )
        cluster_b = Cluster.build(
            Architecture.SCALEBRICKS, 4, keys, owners, values,
            registry=reg_b,
        )
        reg_a.reset()
        reg_b.reset()
        probe = np.concatenate(
            [keys[:1500], rng.integers(1, 2**62, size=500, dtype=np.uint64)]
        )
        ingress = [int(i % 4) for i in range(probe.size)]
        reference = [
            cluster_a.route(int(k), i) for k, i in zip(probe, ingress)
        ]
        batch = cluster_b.route_batch(probe, ingress)
        assert list(batch) == reference
        assert reg_a.snapshot() == reg_b.snapshot()
        for node_a, node_b in zip(cluster_a.nodes, cluster_b.nodes):
            assert vars(node_a.counters) == vars(node_b.counters)
        assert cluster_a.fabric.stats == cluster_b.fabric.stats

    def test_pick_ingress_batch_matches_stream(self):
        cluster_a = Cluster.build(
            Architecture.SCALEBRICKS, 4, [1, 2, 3], [0, 1, 2], [5, 6, 7]
        )
        cluster_b = Cluster.build(
            Architecture.SCALEBRICKS, 4, [1, 2, 3], [0, 1, 2], [5, 6, 7]
        )
        scalar = [cluster_a.pick_ingress() for _ in range(257)]
        batched = cluster_b.pick_ingress_batch(257)
        assert scalar == batched.tolist()


def engines_with_bearers():
    """A scalar and a batch DPE with the same bearers: 1-7 open, 8 and
    up never opened."""
    scalar, batched = DataPlaneEngine(), DataPlaneEngine()
    for engine in (scalar, batched):
        for teid in range(1, 8):
            engine.open_bearer(teid, now=0.5 * teid)
    return scalar, batched


class TestColumnsAgainstScalar:
    """The loops the columns rule rewrote, each against its scalar
    reference."""

    @given(
        packets=st.lists(
            st.tuples(
                st.integers(1, 9),                     # teid; 8, 9 unknown
                st.integers(20, 1500),                 # size
            ),
            max_size=60,
        ),
        downlink=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_process_batch_is_process_per_packet(self, packets, downlink):
        scalar, batched = engines_with_bearers()
        for teid, size in packets:
            scalar.process(teid, size, downlink)
        assert batched.process_batch(
            np.array([p[0] for p in packets], dtype=np.int64),
            np.array([p[1] for p in packets], dtype=np.int64),
            downlink=downlink,
        ) is None
        assert batched.total_bytes() == scalar.total_bytes()
        for teid in range(1, 8):
            assert asdict(scalar.context(teid)) == asdict(batched.context(teid))

    def test_clock_ledger_contexts_and_bytes_after_k_batches(self):
        gw_a, flows, gen = build_gateway(seed=41, flows=120)
        gw_b, _, _ = build_gateway(seed=41, flows=120)
        stranger = FlowTuple(0x0B000001, 0x0B000002, PROTO_UDP, 7, 9)
        frames = gen.packet_stream(flows, 1100) + [make_frame(stranger)] * 9
        for start in range(0, len(frames), 97):
            chunk = frames[start:start + 97]
            out_a = [gw_a.process_downstream(frame) for frame in chunk]
            assert gw_b.process_downstream_batch(chunk) == out_a
            # Bit-equal, not close: the batch clock adds tick by tick.
            assert gw_a.now == gw_b.now
        assert gw_b.now > 1000 * gw_b.tick
        assert gw_a.stats.bytes_charged == gw_b.stats.bytes_charged
        assert list(gw_a.stats.bytes_charged) == list(gw_b.stats.bytes_charged)
        for dpe_a, dpe_b in zip(gw_a.dpes, gw_b.dpes):
            assert {t: asdict(c) for t, c in dpe_a.contexts().items()} == {
                t: asdict(c) for t, c in dpe_b.contexts().items()
            }

    def test_flow_keys_with_repeats_other_protocols_and_a_spill(self):
        gen = FlowGenerator(seed=9)
        flows = gen.flows(12)
        gre = FlowTuple(0x01020304, 0x05060708, 47, 0, 0)
        icmp = FlowTuple(0x01020304, 0x05060708, 1, 0, 0)
        picks = [flows[i % 12] for i in range(40)] + [gre, icmp, gre]
        frames = [make_frame(flow) for flow in picks]
        frames.insert(5, make_frame(flows[3], ihl=7))
        picks.insert(5, flows[3])
        parsed = fastpath.parse_frames(frames)
        assert not parsed.malformed.any()
        assert parsed.scalar_spills == 1
        assert parsed.keys.dtype == np.uint64
        assert parsed.keys.tolist() == [flow.key() for flow in picks]

    def test_unknown_key_behind_a_dead_node_is_node_down(self):
        """The GPT still names a node for a key nobody established; when
        that node is down the packet dies on the way, on both paths."""
        gw_a, flows, _gen = build_gateway(seed=6, flows=80)
        gw_b, _, _ = build_gateway(seed=6, flows=80)
        rng = np.random.default_rng(12)
        strangers = [
            FlowTuple(int(rng.integers(1, 2**31)), 0x0C000001, PROTO_TCP,
                      int(rng.integers(1, 65535)), 443)
            for _ in range(60)
        ]
        probe, _, _ = build_gateway(seed=6, flows=80)
        picked = [
            int(probe.cluster.nodes[0].gpt.lookup(flow.key()))
            for flow in strangers
        ]
        down = next(node for node in picked if node != 0)
        assert 0 in picked  # an unknown key that stays ``unknown_key``
        frames = [make_frame(flow) for flow in strangers + flows[:20]]
        ingress = [0] * len(frames)
        for gateway in (gw_a, gw_b):
            gateway.down_nodes.add(down)
        batched = assert_equivalent(gw_a, gw_b, frames, ingress)
        assert [result.reason for result, _ in batched[:60]] == [
            "node_down" if node == down else "unknown_key" for node in picked
        ]
        assert all(out is None for _, out in batched[:60])
        charged = set(gw_b.stats.bytes_charged)
        assert charged == {
            gw_b.controller.record_for_key(flow.key()).teid
            for flow in flows[:20]
            if gw_b.controller.record_for_key(flow.key()).handling_node != down
        }

    def test_daemons_parse_once_and_match_the_gateway(self, monkeypatch):
        from repro.runtime import shadow
        from repro.runtime.framing import pack_frame_list
        from repro.runtime.protocol import (
            MSG_FORWARD, MSG_ROUTE, RSP_ROUTE, STATUS_DELIVERED,
            STATUS_MALFORMED, STATUS_UNKNOWN, decode_outcomes,
        )
        from tests.conftest import wire_up

        gateway, flows, gen = build_gateway(seed=15, flows=90, num_nodes=3)
        controller, daemons = wire_up(gateway)
        stranger = FlowTuple(0x0B000001, 0x0B000002, PROTO_UDP, 7, 9)
        frames = gen.packet_stream(flows, 70)
        frames[10:10] = [b"", make_frame(stranger), frames[0][:30]]
        frames += [make_frame(flows[1], ttl=0), make_frame(flows[2], ihl=6)]

        messages, parses = [], []
        peer_post = daemons[0]._peer_post

        def counting_post(node_id, msg_type, payload=b""):
            messages.append((node_id, msg_type))
            return peer_post(node_id, msg_type, payload)

        parse_buffer = fastpath.parse_buffer

        def counting_parse(raw, offsets):
            parses.append(offsets.size - 1)
            return parse_buffer(raw, offsets)

        for daemon in daemons:
            daemon._peer_post = counting_post
        monkeypatch.setattr(fastpath, "parse_buffer", counting_parse)
        rsp_type, body = daemons[0]._dispatch(
            MSG_ROUTE, pack_frame_list(frames)
        )
        monkeypatch.undo()
        assert rsp_type == RSP_ROUTE
        outcomes = decode_outcomes(body)

        # One parse per daemon per message: the ingress parses the batch,
        # each peer parses what it was forwarded, nobody parses twice.
        forwards = [m for m in messages if m[1] == MSG_FORWARD]
        assert sorted(node for node, _ in forwards) == [1, 2]
        assert len(parses) == 1 + len(forwards)
        assert parses[0] == len(frames) and sum(parses[1:]) < len(frames)

        reference = [gateway.process_downstream(f, 0) for f in frames]
        summary = shadow.compare_frames(reference, outcomes)
        assert summary["divergences"] == 0 and summary["byte_identical"]
        assert summary["delivered"] == 71 and summary["dropped"] == 4
        for (result, _), outcome in zip(reference, outcomes):
            if result.reason == "malformed":
                assert (outcome.status, outcome.handler) == (
                    STATUS_MALFORMED, -1
                )
            elif result.reason == "unknown_key":
                assert (outcome.status, outcome.handler, outcome.teid) == (
                    STATUS_UNKNOWN, result.path[-1], 0
                )
            else:
                assert (outcome.status, outcome.handler, outcome.teid) == (
                    STATUS_DELIVERED, result.handled_by, result.value
                )
        charges = {}
        for daemon in daemons:
            assert not set(charges) & set(daemon.ledger.bytes_charged)
            charges.update(daemon.ledger.bytes_charged)
        assert charges == gateway.stats.bytes_charged


@st.composite
def bad_columns(draw):
    """Batch columns (teids, sizes) that disagree in length or carry a
    negative size, with the first bad row: the first negative size or the
    first row some column lacks."""
    lengths = draw(st.lists(st.integers(0, 12), min_size=2, max_size=2))
    sizes = draw(st.lists(st.integers(-1500, 1500), min_size=lengths[1],
                          max_size=lengths[1]))
    bad = [row for row, size in enumerate(sizes) if size < 0]
    if len(set(lengths)) > 1:
        bad.append(min(lengths))
    assume(bad)
    teids = draw(st.lists(st.integers(1, 9), min_size=lengths[0],
                          max_size=lengths[0]))
    columns = [np.array(teids, dtype=np.int64),
               np.array(sizes, dtype=np.int64)]
    return columns, min(bad)


class TestBatchColumnRange:
    """Both batch entries refuse ragged columns and negative sizes with
    one ValueError naming the first bad row, before anything moves."""

    @given(batch=bad_columns())
    @settings(max_examples=150, deadline=None)
    def test_charge_many_refuses_before_the_ledger_moves(self, batch):
        (teids, sizes), row = batch
        ledger = ChargingLedger()
        ledger.charge_many(np.array([1, 2]), np.array([100, 200]))
        with pytest.raises(ValueError, match=rf"^row {row}: "):
            ledger.charge_many(teids, sizes)
        assert ledger.bytes_charged == {1: 100, 2: 200}
        assert ledger._c_bytes.value == 300

    @given(batch=bad_columns(), downlink=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_process_batch_refuses_before_any_bearer_moves(
        self, batch, downlink
    ):
        (teids, sizes), row = batch
        _, dpe = engines_with_bearers()
        before = {t: asdict(c) for t, c in dpe.contexts().items()}
        with pytest.raises(ValueError, match=rf"^row {row}: "):
            dpe.process_batch(teids, sizes, downlink)
        assert {t: asdict(c) for t, c in dpe.contexts().items()} == before

    def test_scalar_entries_refuse_a_negative_size(self):
        ledger = ChargingLedger()
        _, dpe = engines_with_bearers()
        with pytest.raises(ValueError, match="-50"):
            ledger.charge(1, -50)
        with pytest.raises(ValueError, match="-50"):
            dpe.process(1, -50, True)
        assert ledger.bytes_charged == {} and dpe.total_bytes() == 0
