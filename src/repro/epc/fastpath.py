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


def _checksums(words: np.ndarray, less: object = 0) -> np.ndarray:
    """IPv4 checksum of each row of big-endian header words, ``less`` the
    checksum field's own word where the row still carries one."""
    total = words.sum(axis=1, dtype=np.int64) - less
    total = (total & 0xFFFF) + (total >> 16)
    total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


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
    np.cumsum(
        np.fromiter(map(len, frames), dtype=np.int64, count=len(frames)),
        out=offsets[1:],
    )
    return parse_buffer(b"".join(frames), offsets)


def parse_buffer(raw: bytes, offsets: np.ndarray) -> ParsedBatch:
    """Parse frames laid end to end in ``raw`` into column arrays.

    Frame ``i`` is ``raw[offsets[i]:offsets[i + 1]]``; ``offsets`` is an
    ascending int64 array of ``n + 1`` entries ending at ``len(raw)``
    (what :func:`repro.runtime.framing.frame_columns` returns).  One
    gather for the whole batch: every frame's 20 header bytes and L4
    ports become one row of an ``(n, 24)`` byte matrix, fields are read
    through big-endian views of it, the IPv4 checksum is verified as ten
    u16 word columns, and the flow keys are the BLAKE2b digests of the
    13-byte 5-tuple rows (:func:`repro.core.hashfamily.canonical_key_rows`).
    """
    n = offsets.size - 1
    buf = np.frombuffer(raw, dtype=np.uint8)
    l3_len = offsets[1:] - (offsets[:-1] + ETH_SIZE)

    # A frame shorter than the gather reads into its neighbour, and the
    # last one is clipped to the buffer: what lies past a frame's own end
    # is masked below, never interpreted.
    hdr = (
        buf.take(offsets[:-1, None] + _GATHER, mode="clip") if raw
        else np.zeros((n, _GATHER.size), dtype=np.uint8)
    )
    words = hdr.view(">u2")
    ihl = (hdr[:, 0] & 0xF) * 4
    bad = (l3_len < Ipv4Header.SIZE) | (hdr[:, 0] >> 4 != 4)
    bad |= (ihl < Ipv4Header.SIZE) | (l3_len < ihl)
    spill = ~bad & (ihl != Ipv4Header.SIZE)
    is_l4 = (hdr[:, 9] == PROTO_TCP) | (hdr[:, 9] == PROTO_UDP)
    bad |= _checksums(words[:, :10], less=words[:, 5]) != words[:, 5]
    bad |= is_l4 & (l3_len < _GATHER.size)
    # The unforwardable-packet rule (module docstring).
    bad |= (hdr[:, 8] == 0) | (l3_len > MAX_INNER)
    good = ~(bad | spill)
    hdr[~good] = 0
    hdr[~is_l4, Ipv4Header.SIZE:] = 0

    dwords = hdr.view(">u4")
    dscp, ttl, protocol = (hdr[:, i].astype(np.int64) for i in (1, 8, 9))
    total_length, identification, sport, dport = (
        words[:, i].astype(np.int64) for i in (1, 2, 10, 11)
    )
    src_ip, dst_ip = (dwords[:, i].astype(np.int64) for i in (3, 4))
    malformed = bad & ~spill
    keys = np.zeros(n, dtype=np.uint64)

    valid = np.nonzero(good)[0]
    if valid.size:
        keys[valid] = canonical_key_rows(hdr[valid[:, None], _KEY_COLUMNS])

    # IPv4 options (IHL > 20): rare enough that the scalar codec is the
    # honest reference — parse those frames one by one.
    spilled = np.nonzero(spill)[0].tolist()
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
    outside = np.nonzero(values >> 32)[0]
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
    row of a matrix filled column by column and serialised once; each
    payload is one slice of the input bytes.

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
    _require_u32("teids", teids)
    _require_u32("bs_ips", bs_ips)
    if not 0 <= gateway_ip <= 0xFFFFFFFF:
        raise ValueError(f"gateway_ip {gateway_ip} is outside 0..0xFFFFFFFF")
    inner_len = parsed.l3_len[idx]
    if int(inner_len.max()) > MAX_INNER:
        raise ValueError("inner packet too large for GTP-U framing")

    # One row per packet; each header's fields are stored as byte, word
    # or double-word columns at the offsets of its own wire format.
    head = np.empty((m, _TEMPLATE.size), dtype=np.uint8)
    head[:] = _TEMPLATE
    outer, inner = head[:, :_UDP], head[:, _INNER:]
    outer16, outer32 = outer.view(">u2"), outer.view(">u4")
    inner16, inner32 = inner.view(">u2"), inner.view(">u4")
    udp16 = head[:, _UDP:_GTP].view(">u2")
    gtp = head[:, _GTP:_INNER]

    # Outer IPv4: gateway -> base station, UDP, TTL 64, fresh checksum.
    outer16[:, 1] = OUTER_SIZE + inner_len
    outer32[:, 3] = gateway_ip
    outer32[:, 4] = bs_ips
    outer16[:, 5] = _checksums(outer16)

    # UDP + GTP-U framing.
    udp16[:, 2] = UdpHeader.SIZE + GtpuHeader.SIZE + inner_len
    gtp.view(">u2")[:, 1] = inner_len
    gtp.view(">u4")[:, 1] = teids

    # Inner IPv4 header, re-packed exactly as ``decrement_ttl().pack()``:
    # ver/IHL fixed to 0x45, flags zeroed, checksum recomputed.
    inner[:, 1] = parsed.dscp[idx]
    inner16[:, 1] = parsed.total_length[idx]
    inner16[:, 2] = parsed.identification[idx]
    inner[:, 8] = parsed.ttl[idx] - 1
    inner[:, 9] = parsed.protocol[idx]
    inner32[:, 3] = parsed.src_ip[idx]
    inner32[:, 4] = parsed.dst_ip[idx]
    inner16[:, 5] = _checksums(inner16)

    # Payload tail: everything after the first 20 L3 bytes, options
    # included (the scalar codec slices at Ipv4Header.SIZE, not at IHL).
    blob = head.tobytes()
    raw = parsed.raw
    size = _TEMPLATE.size
    return [
        blob[row:row + size] + raw[start:end]
        for row, start, end in zip(
            range(0, m * size, size),
            (parsed.offsets[idx] + (ETH_SIZE + Ipv4Header.SIZE)).tolist(),
            parsed.offsets[idx + 1].tolist(),
        )
    ]
