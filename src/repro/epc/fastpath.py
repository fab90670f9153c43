"""Batched frame codec for the gateway's data plane (paper §4.3).

The paper's throughput numbers come from *batched* lookups: ScaleBricks
pipelines the bucket -> group -> array probes of many packets so no stage
ever stalls on one packet's memory access.  This module gives the gateway
the same shape end to end, and keeps a batch's fixed-width fields side by
side: ingress gathers every frame's IPv4 header and L4 ports as one row of
a byte matrix and reads the columns through big-endian views; egress fills
one 56-byte row per packet (outer IPv4, UDP, GTP-U, re-packed inner IPv4),
serialises the matrix once, and copies each payload as one slice of the
joined input bytes.  No per-frame Python header objects, no per-byte index.

Equivalence contract: for every frame, the columns produced here match what
the scalar codec (:func:`repro.epc.packets.parse_frame` +
:func:`repro.epc.packets.extract_forwardable`) produces, and
:func:`encapsulate_batch` emits byte-identical output to the scalar
``decrement_ttl().pack() + payload`` / ``GtpTunnelEndpoint.encapsulate``
pipeline.  Frames the vector path cannot express (IPv4 options, i.e.
IHL > 20) spill to the scalar codec per frame; malformed frames are flagged,
never raised.

Unforwardable-packet rule: a frame whose TTL is already 0, or whose L3
length exceeds :data:`MAX_INNER`, cannot be re-encapsulated.  It is flagged
``malformed`` here, exactly as :func:`repro.epc.packets.extract_forwardable`
rejects it on the scalar path, so every data plane (the gateway, node
daemons, the chaos oracle) drops it before routing, policing and
charging; no caller ever sees an egress exception for a billed packet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.hashfamily import canonical_key_rows
from repro.epc.packets import (
    EthernetHeader,
    GtpuHeader,
    Ipv4Header,
    PROTO_TCP,
    PROTO_UDP,
    UdpHeader,
    extract_forwardable,
    parse_frame,
)
from repro.epc.tunnels import GtpTunnelEndpoint

#: Ethernet header bytes ahead of the L3 packet.
ETH_SIZE = EthernetHeader.SIZE

#: Outer IPv4 + UDP + GTP-U framing added per tunnelled packet.
OUTER_SIZE = Ipv4Header.SIZE + UdpHeader.SIZE + GtpuHeader.SIZE

#: Largest inner packet the outer IPv4 total-length field can carry.
MAX_INNER = 0xFFFF - OUTER_SIZE

#: Ingress gather, relative to a frame's start: the IPv4 header, then the
#: two L4 ports.
_GATHER = np.arange(ETH_SIZE, ETH_SIZE + Ipv4Header.SIZE + 4, dtype=np.int64)

#: The 13 bytes ``FlowTuple.pack()`` hashes, as columns of that gather:
#: source and destination address, protocol, ports.
_KEY_COLUMNS = np.r_[12:20, 9, 20:24]

#: The header fields, as columns of the gather read one width at a time:
#: bytes (type of service, TTL, protocol), big-endian words (total
#: length, identification, ports) and double words (addresses).
_U8_FIELDS = np.array([1, 8, 9])
_U16_FIELDS = np.array([1, 2, 10, 11])
_U32_FIELDS = np.array([3, 4])

#: A length no frame reaches.
_NEVER = 1 << 62

#: By version/IHL byte: the header length in bytes of an IPv4 header
#: with options (IHL over 5), the frames the scalar codec parses; a
#: length no frame reaches for every other byte.
_OPTIONS_IHL = np.array(
    [(b & 0xF) * 4 if b >> 4 == 4 and b & 0xF > 5 else _NEVER
     for b in range(256)],
    dtype=np.int64,
)

#: By protocol byte: the fewest L3 bytes a frame needs, its 20 header
#: bytes and, for TCP and UDP, the two ports.
_MIN_L3 = np.array(
    [Ipv4Header.SIZE + 4 * (p in (PROTO_TCP, PROTO_UDP)) for p in range(256)],
    dtype=np.int64,
)

#: Byte offsets of the UDP, GTP-U and inner IPv4 headers in an egress row.
_UDP = Ipv4Header.SIZE
_GTP = _UDP + UdpHeader.SIZE
_INNER = OUTER_SIZE

#: Bytes no packet changes (versions, outer TTL and protocol, the GTP-U
#: ports, flags and type, zeroed inner flags), taken from the scalar codec;
#: both checksum fields are zero so a row's words can be summed in place.
_TEMPLATE = np.frombuffer(
    GtpTunnelEndpoint(0, 0).encapsulate(0, Ipv4Header(0, 0, 0, 0, ttl=0).pack()),
    dtype=np.uint8,
).copy()
_TEMPLATE[[10, 11, _INNER + 10, _INNER + 11]] = 0

#: The inner header bytes an egress row copies from its frame's own IPv4
#: header: type of service, total length, identification (1-5), TTL and
#: protocol (8, 9), addresses (12-19).  Version/IHL (0x45), the zeroed
#: flags and the checksum are the template's.
_INNER_COPY = np.r_[1:6, 8:10, 12:20]
_INNER_COPY_TO = _INNER + _INNER_COPY

#: Subtracted from those bytes: the TTL goes one lower.
_TTL_STEP = np.zeros(_INNER_COPY.size, dtype=np.uint8)
_TTL_STEP[_INNER_COPY.tolist().index(8)] = 1

#: An egress row as big-endian words: the three length fields (outer
#: IPv4 total, UDP, GTP-U payload) are the inner length plus these.
_LENGTH_WORDS = np.array([1, (_UDP + 4) // 2, (_GTP + 2) // 2])
_LENGTH_ADDS = np.array([OUTER_SIZE, UdpHeader.SIZE + GtpuHeader.SIZE, 0])

#: Word offsets where the outer and inner header sums start (and the UDP
#: words between them, whose sum is not used), and their checksum words.
_HEADER_WORDS = np.array([0, _UDP // 2, _INNER // 2])
_CHECKSUM_WORDS = np.array([5, _INNER // 2 + 5])


def _checksums(sums: np.ndarray) -> np.ndarray:
    """IPv4 checksums of headers whose (positive) word sums, checksum field
    zero, are ``sums``: the ones-complement fold of a positive sum is
    ``(sum - 1) % 0xFFFF + 1``, and the checksum its complement."""
    sums -= 1
    sums %= 0xFFFF
    return 0xFFFE - sums


@dataclass
class ParsedBatch:
    """Column layout of one parsed frame batch.

    All per-frame arrays are aligned to the input order.  Columns of
    malformed frames are zero and must not be interpreted.

    Attributes:
        buf: every frame's bytes concatenated, as a uint8 array.
        raw: the same bytes as the ``bytes`` object ``buf`` views (egress
            copies each payload as one slice of it).
        offsets: frame ``i`` occupies ``buf[offsets[i]:offsets[i + 1]]``.
        l3_len: actual L3 byte count (frame length minus Ethernet header).
        malformed: frames the scalar codec would reject with ValueError
            (unparseable, or unforwardable: TTL 0 / longer than MAX_INNER).
        keys: canonical 64-bit flow key per valid frame.
        src_ip / dst_ip / protocol / sport / dport: the flow 5-tuple.
        ttl / dscp / identification / total_length: IPv4 header fields
            needed to re-pack the forwarded inner header.
        scalar_spills: frames parsed by the scalar codec (IPv4 options).
    """

    buf: np.ndarray
    raw: bytes
    offsets: np.ndarray
    l3_len: np.ndarray
    malformed: np.ndarray
    keys: np.ndarray
    src_ip: np.ndarray
    dst_ip: np.ndarray
    protocol: np.ndarray
    sport: np.ndarray
    dport: np.ndarray
    ttl: np.ndarray
    dscp: np.ndarray
    identification: np.ndarray
    total_length: np.ndarray
    scalar_spills: int

    @property
    def n(self) -> int:
        """Number of frames in the batch."""
        return self.l3_len.size

    @property
    def valid(self) -> np.ndarray:
        """Mask of frames the scalar codec would parse successfully."""
        return ~self.malformed


def parse_frames(frames: Sequence[bytes]) -> ParsedBatch:
    """Parse raw Ethernet/IPv4 frames into column arrays
    (:func:`parse_buffer` over the frames joined end to end)."""
    offsets = np.zeros(len(frames) + 1, dtype=np.int64)
    np.fromiter(map(len, frames), dtype=np.int64, count=len(frames)).cumsum(
        out=offsets[1:]
    )
    return parse_buffer(b"".join(frames), offsets)


def parse_buffer(raw: bytes, offsets: np.ndarray) -> ParsedBatch:
    """Parse frames laid end to end in ``raw`` into column arrays.

    Frame ``i`` is ``raw[offsets[i]:offsets[i + 1]]``; ``offsets`` is an
    ascending int64 array of ``n + 1`` entries ending at ``len(raw)``
    (what :func:`repro.runtime.framing.frame_columns` returns).  One
    gather for the whole batch: every frame's 20 header bytes and L4
    ports become one row of an ``(n, 24)`` byte matrix.  Validity is one
    pass of column tests (the version/IHL and protocol bytes read through
    256-entry tables; the checksum as one sum of the ten header words),
    the fields are one gather per width, and the flow keys are the
    BLAKE2b digests of the 13-byte 5-tuple rows
    (:func:`repro.core.hashfamily.canonical_key_rows`).
    """
    n = offsets.size - 1
    buf = np.frombuffer(raw, dtype=np.uint8)
    l3_len = offsets[1:] - offsets[:-1]
    l3_len -= ETH_SIZE

    # A frame shorter than the gather reads into its neighbour, and the
    # last one is clipped to the buffer: what lies past a frame's own end
    # is masked below, never interpreted.
    hdr = (
        buf.take(offsets[:-1, None] + _GATHER, mode="clip") if raw
        else np.zeros((n, _GATHER.size), dtype=np.uint8)
    )
    words = hdr.view(">u2")
    vihl = hdr[:, 0]
    spill = _OPTIONS_IHL.take(vihl) <= l3_len
    need = _MIN_L3.take(hdr[:, 9])
    good = need <= l3_len
    good &= vihl == 0x45
    # The unforwardable-packet rule (module docstring).
    good &= l3_len <= MAX_INNER
    good &= hdr[:, 8] != 0
    # A header checks when its words, checksum included, sum to a
    # multiple of 0xFFFF (the ones-complement zero), and its checksum is
    # not the other zero, 0xFFFF, which the scalar codec never computes
    # for a header with a version.
    total = np.add.reduce(words[:, :10], axis=1, dtype=np.int64)
    total %= 0xFFFF
    good &= total == 0
    good &= words[:, 5] != 0xFFFF
    hdr[~good] = 0
    hdr[need == Ipv4Header.SIZE, Ipv4Header.SIZE:] = 0

    dscp, ttl, protocol = hdr.T.take(_U8_FIELDS, axis=0).astype(np.int64)
    total_length, identification, sport, dport = words.T.take(
        _U16_FIELDS, axis=0
    ).astype(np.int64)
    src_ip, dst_ip = hdr.view(">u4").T.take(_U32_FIELDS, axis=0).astype(
        np.int64
    )
    malformed = ~(good | spill)
    keys = np.zeros(n, dtype=np.uint64)

    valid = good.nonzero()[0]
    if valid.size:
        keys[valid] = canonical_key_rows(hdr[valid[:, None], _KEY_COLUMNS])

    # IPv4 options (IHL > 20): rare enough that the scalar codec is the
    # honest reference — parse those frames one by one.
    spilled = spill.nonzero()[0].tolist()
    for i in spilled:
        try:
            _eth, l3 = parse_frame(raw[offsets[i]:offsets[i + 1]])
            flow, header, _rest = extract_forwardable(l3, MAX_INNER)
        except ValueError:
            malformed[i] = True
            continue
        keys[i] = flow.key()
        src_ip[i] = flow.src_ip
        dst_ip[i] = flow.dst_ip
        protocol[i] = flow.protocol
        sport[i] = flow.sport
        dport[i] = flow.dport
        ttl[i] = header.ttl
        dscp[i] = header.dscp
        identification[i] = header.identification
        total_length[i] = header.total_length

    return ParsedBatch(
        buf=buf,
        raw=raw,
        offsets=offsets,
        l3_len=l3_len,
        malformed=malformed,
        keys=keys,
        src_ip=src_ip,
        dst_ip=dst_ip,
        protocol=protocol,
        sport=sport,
        dport=dport,
        ttl=ttl,
        dscp=dscp,
        identification=identification,
        total_length=total_length,
        scalar_spills=len(spilled),
    )


def _require_u32(name: str, values: np.ndarray) -> None:
    """A tunnel field wider than 32 bits would wrap into someone else's."""
    outside = (values >> 32).nonzero()[0]
    if outside.size:
        raise ValueError(
            f"{name}[{outside[0]}] = {values[outside[0]]} "
            "is outside 0..0xFFFFFFFF"
        )


def encapsulate_batch(
    parsed: ParsedBatch,
    idx: np.ndarray,
    teids: np.ndarray,
    bs_ips: np.ndarray,
    gateway_ip: int,
) -> List[bytes]:
    """GTP-U-encapsulate the frames ``idx`` selects, byte-for-byte.

    Emits, for each selected frame, exactly what the scalar egress
    produces: the 36-byte outer IPv4/UDP/GTP-U framing toward the base
    station, the inner IPv4 header re-packed with TTL-1 and a fresh
    checksum, and the original payload bytes.  The 56 header bytes are one
    row of a matrix serialised once: the inner header's kept bytes are
    one gather from the frames, the three length fields one assignment,
    and both checksums one segmented sum.  Each payload is one slice of
    the input bytes.

    Raises:
        ValueError: a TEID, a base-station address or ``gateway_ip`` does
            not fit 32 bits (naming the first offending position), or a
            selected packet is longer than :data:`MAX_INNER`; nothing is
            emitted.
    """
    idx = np.asarray(idx, dtype=np.int64)
    m = idx.size
    if m == 0:
        return []
    teids = np.asarray(teids, dtype=np.int64)
    bs_ips = np.asarray(bs_ips, dtype=np.int64)
    if np.logical_or.reduce((teids | bs_ips) >> 32):
        _require_u32("teids", teids)
        _require_u32("bs_ips", bs_ips)
    if not 0 <= gateway_ip <= 0xFFFFFFFF:
        raise ValueError(f"gateway_ip {gateway_ip} is outside 0..0xFFFFFFFF")
    starts = parsed.offsets[idx] + ETH_SIZE
    ends = parsed.offsets[idx + 1]
    inner_len = ends - starts
    if np.maximum.reduce(inner_len) > MAX_INNER:
        raise ValueError("inner packet too large for GTP-U framing")

    # One row per packet.  The inner IPv4 header is re-packed exactly as
    # ``decrement_ttl().pack()``: the frame's own bytes under the
    # template's version/IHL 0x45 and zeroed flags, TTL one lower.
    head = np.empty((m, _TEMPLATE.size), dtype=np.uint8)
    head[:] = _TEMPLATE
    inner = parsed.buf.take(starts[:, None] + _INNER_COPY)
    inner -= _TTL_STEP
    head[:, _INNER_COPY_TO] = inner
    words, dwords = head.view(">u2"), head.view(">u4")
    words[:, _LENGTH_WORDS] = inner_len[:, None] + _LENGTH_ADDS
    # Outer IPv4 gateway -> base station; the GTP-U TEID.
    dwords[:, 3] = gateway_ip
    dwords[:, 4] = bs_ips
    dwords[:, (_GTP + 4) // 4] = teids
    sums = np.add.reduceat(words, _HEADER_WORDS, axis=1, dtype=np.int64)
    words[:, _CHECKSUM_WORDS] = _checksums(sums[:, ::2])

    # Payload tail: everything after the first 20 L3 bytes, options
    # included (the scalar codec slices at Ipv4Header.SIZE, not at IHL).
    blob = head.tobytes()
    raw = parsed.raw
    size = _TEMPLATE.size
    starts += Ipv4Header.SIZE
    return [
        blob[row:row + size] + raw[start:end]
        for row, start, end in zip(
            range(0, m * size, size), starts.tolist(), ends.tolist()
        )
    ]
