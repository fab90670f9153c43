"""Batched zero-copy frame codec for the gateway's data plane (paper §4.3).

The paper's throughput numbers come from *batched* lookups: ScaleBricks
pipelines the bucket -> group -> array probes of many packets so no stage
ever stalls on one packet's memory access.  This module gives the gateway
the same shape end to end: a whole batch of raw downstream frames is parsed
into NumPy column arrays (one gather per field, no per-frame Python header
objects), and accepted packets are re-encapsulated into GTP-U from one
preallocated output buffer.

Equivalence contract: for every frame, the columns produced here match what
the scalar codec (:func:`repro.epc.packets.parse_frame` +
:func:`repro.epc.packets.extract_flow`) produces, and
:func:`encapsulate_batch` emits byte-identical output to the scalar
``decrement_ttl().pack() + payload`` / ``GtpTunnelEndpoint.encapsulate``
pipeline.  Frames the vector path cannot express (IPv4 options, i.e.
IHL > 20) spill to the scalar codec per frame; malformed frames are flagged,
never raised.

Unforwardable-packet rule: a frame whose TTL is already 0, or whose L3
length exceeds :data:`MAX_INNER`, cannot be re-encapsulated.  It is flagged
``malformed`` here, exactly as :func:`repro.epc.packets.extract_forwardable`
rejects it on the scalar path, so every data plane (gateway scalar and
batch, node daemons, the chaos oracle) drops it before routing, policing
and charging; no caller ever sees an egress exception for a billed packet.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.epc.packets import (
    EthernetHeader,
    GTPU_PORT,
    GtpuHeader,
    Ipv4Header,
    PROTO_TCP,
    PROTO_UDP,
    UdpHeader,
    extract_flow,
    parse_frame,
)

#: Ethernet header bytes ahead of the L3 packet.
ETH_SIZE = EthernetHeader.SIZE

#: Outer IPv4 + UDP + GTP-U framing added per tunnelled packet.
OUTER_SIZE = Ipv4Header.SIZE + UdpHeader.SIZE + GtpuHeader.SIZE

#: Largest inner packet the outer IPv4 total-length field can carry.
MAX_INNER = 0xFFFF - OUTER_SIZE


def _fold16(total: np.ndarray) -> np.ndarray:
    """Ones-complement fold of per-row word sums into 16 bits."""
    total = (total & 0xFFFF) + (total >> 16)
    total = (total & 0xFFFF) + (total >> 16)
    return total


@dataclass
class ParsedBatch:
    """Column layout of one parsed frame batch.

    All per-frame arrays are aligned to the input order.  Columns of
    malformed frames must not be interpreted.

    Attributes:
        buf: every frame's bytes concatenated (zero-copy field source).
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
    """Parse raw Ethernet/IPv4 frames into column arrays.

    One pass over the batch: header bytes are gathered from the
    concatenated buffer with fancy indexing, the IPv4 checksum is verified
    as ten u16 word columns, and the flow key is computed once per
    *distinct* 5-tuple (frames of one flow share the BLAKE2b digest).
    """
    n = len(frames)
    lengths = np.fromiter((len(f) for f in frames), dtype=np.int64, count=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    buf = np.frombuffer(b"".join(frames), dtype=np.uint8)

    l3_len = lengths - ETH_SIZE
    # Shorter than Ethernet + minimal IPv4: rejected before field access.
    malformed = l3_len < Ipv4Header.SIZE
    keys = np.zeros(n, dtype=np.uint64)
    src_ip = np.zeros(n, dtype=np.int64)
    dst_ip = np.zeros(n, dtype=np.int64)
    protocol = np.zeros(n, dtype=np.int64)
    sport = np.zeros(n, dtype=np.int64)
    dport = np.zeros(n, dtype=np.int64)
    ttl = np.zeros(n, dtype=np.int64)
    dscp = np.zeros(n, dtype=np.int64)
    identification = np.zeros(n, dtype=np.int64)
    total_length = np.zeros(n, dtype=np.int64)
    scalar_spills = 0

    ok = np.nonzero(~malformed)[0]
    if ok.size:
        base = offsets[ok] + ETH_SIZE
        hdr = buf[base[:, None] + np.arange(Ipv4Header.SIZE, dtype=np.int64)]
        hdr = hdr.astype(np.int64)
        ihl = (hdr[:, 0] & 0xF) * 4
        bad = (hdr[:, 0] >> 4) != 4
        bad |= (ihl < Ipv4Header.SIZE) | (l3_len[ok] < ihl)
        spill = ~bad & (ihl != Ipv4Header.SIZE)
        fast = ~bad & ~spill
        if fast.any():
            rows = np.nonzero(fast)[0]
            h16 = (hdr[rows, 0::2] << 8) | hdr[rows, 1::2]
            checksum = _fold16(h16.sum(axis=1) - h16[:, 5])
            bad_rows = (~checksum & 0xFFFF) != h16[:, 5]
            proto = hdr[rows, 9]
            is_l4 = (proto == PROTO_TCP) | (proto == PROTO_UDP)
            bad_rows |= is_l4 & (
                l3_len[ok[rows]] < Ipv4Header.SIZE + 4
            )
            bad[rows] = bad_rows
            good = rows[~bad_rows]
            gi = ok[good]
            dscp[gi] = hdr[good, 1]
            total_length[gi] = (hdr[good, 2] << 8) | hdr[good, 3]
            identification[gi] = (hdr[good, 4] << 8) | hdr[good, 5]
            ttl[gi] = hdr[good, 8]
            protocol[gi] = hdr[good, 9]
            src_ip[gi] = (
                (hdr[good, 12] << 24) | (hdr[good, 13] << 16)
                | (hdr[good, 14] << 8) | hdr[good, 15]
            )
            dst_ip[gi] = (
                (hdr[good, 16] << 24) | (hdr[good, 17] << 16)
                | (hdr[good, 18] << 8) | hdr[good, 19]
            )
            l4_rows = good[
                (protocol[gi] == PROTO_TCP) | (protocol[gi] == PROTO_UDP)
            ]
            if l4_rows.size:
                l4i = ok[l4_rows]
                l4 = buf[
                    (base[l4_rows] + Ipv4Header.SIZE)[:, None]
                    + np.arange(4, dtype=np.int64)
                ].astype(np.int64)
                sport[l4i] = (l4[:, 0] << 8) | l4[:, 1]
                dport[l4i] = (l4[:, 2] << 8) | l4[:, 3]
        # IPv4 options (IHL > 20): rare enough that the scalar codec is
        # the honest reference — parse those frames one by one.
        for i in ok[np.nonzero(spill)[0]]:
            scalar_spills += 1
            try:
                _eth, l3 = parse_frame(frames[i])
                flow, header, _rest = extract_flow(l3)
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
        malformed[ok[np.nonzero(bad)[0]]] = True

    # The unforwardable-packet rule (module docstring).
    malformed |= (ttl == 0) | (l3_len > MAX_INNER)

    valid = np.nonzero(~malformed & (keys == 0))[0]
    if valid.size:
        packed = np.zeros((valid.size, 13), dtype=np.uint8)
        for col, shift in ((0, 24), (1, 16), (2, 8), (3, 0)):
            packed[:, col] = (src_ip[valid] >> shift) & 0xFF
            packed[:, col + 4] = (dst_ip[valid] >> shift) & 0xFF
        packed[:, 8] = protocol[valid]
        packed[:, 9] = (sport[valid] >> 8) & 0xFF
        packed[:, 10] = sport[valid] & 0xFF
        packed[:, 11] = (dport[valid] >> 8) & 0xFF
        packed[:, 12] = dport[valid] & 0xFF
        blob = packed.tobytes()
        digest_of: Dict[bytes, int] = {}
        flow_keys = []
        for start in range(0, len(blob), 13):
            row = blob[start:start + 13]
            key = digest_of.get(row)
            if key is None:
                key = digest_of[row] = int.from_bytes(
                    hashlib.blake2b(row, digest_size=8).digest(), "little"
                )
            flow_keys.append(key)
        keys[valid] = np.array(flow_keys, dtype=np.uint64)

    return ParsedBatch(
        buf=buf,
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
        scalar_spills=scalar_spills,
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
    produces: the inner IPv4 header re-packed with TTL-1 and a fresh
    checksum, the original payload bytes, and the 36-byte outer
    IPv4/UDP/GTP-U framing toward the base station.  Everything is
    scattered into one preallocated buffer and sliced at the end.
    """
    idx = np.asarray(idx, dtype=np.int64)
    m = idx.size
    if m == 0:
        return []
    teids = np.asarray(teids, dtype=np.int64)
    bs_ips = np.asarray(bs_ips, dtype=np.int64)
    inner_len = parsed.l3_len[idx]
    if int(inner_len.max()) > MAX_INNER:
        raise ValueError("inner packet too large for GTP-U framing")
    out_len = OUTER_SIZE + inner_len
    out_off = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(out_len, out=out_off[1:])
    out = np.zeros(int(out_off[-1]), dtype=np.uint8)
    base = out_off[:-1]

    def put16(pos: np.ndarray, vals: np.ndarray) -> None:
        out[pos] = (vals >> 8) & 0xFF
        out[pos + 1] = vals & 0xFF

    def put32(pos: np.ndarray, vals: np.ndarray) -> None:
        put16(pos, (vals >> 16) & 0xFFFF)
        put16(pos + 2, vals & 0xFFFF)

    # Outer IPv4: gateway -> base station, UDP, TTL 64, fresh checksum.
    outer_tl = OUTER_SIZE + inner_len
    gw_hi, gw_lo = (gateway_ip >> 16) & 0xFFFF, gateway_ip & 0xFFFF
    outer_sum = _fold16(
        0x4500 + outer_tl + 0x4011 + gw_hi + gw_lo
        + ((bs_ips >> 16) & 0xFFFF) + (bs_ips & 0xFFFF)
    )
    out[base] = 0x45
    put16(base + 2, outer_tl)
    out[base + 8] = 64
    out[base + 9] = PROTO_UDP
    put16(base + 10, ~outer_sum & 0xFFFF)
    put32(base + 12, np.full(m, gateway_ip, dtype=np.int64))
    put32(base + 16, bs_ips)

    # UDP + GTP-U framing.
    udp = base + Ipv4Header.SIZE
    put16(udp, np.full(m, GTPU_PORT, dtype=np.int64))
    put16(udp + 2, np.full(m, GTPU_PORT, dtype=np.int64))
    put16(udp + 4, UdpHeader.SIZE + GtpuHeader.SIZE + inner_len)
    gtp = udp + UdpHeader.SIZE
    out[gtp] = GtpuHeader.FLAGS
    out[gtp + 1] = 0xFF
    put16(gtp + 2, inner_len)
    put32(gtp + 4, teids)

    # Inner IPv4 header, re-packed exactly as ``decrement_ttl().pack()``:
    # ver/IHL fixed to 0x45, flags zeroed, checksum recomputed.
    inner = base + OUTER_SIZE
    dscp = parsed.dscp[idx]
    tl = parsed.total_length[idx]
    ident = parsed.identification[idx]
    ttl1 = parsed.ttl[idx] - 1
    proto = parsed.protocol[idx]
    src = parsed.src_ip[idx]
    dst = parsed.dst_ip[idx]
    inner_sum = _fold16(
        ((0x45 << 8) | dscp) + tl + ident + ((ttl1 << 8) | proto)
        + ((src >> 16) & 0xFFFF) + (src & 0xFFFF)
        + ((dst >> 16) & 0xFFFF) + (dst & 0xFFFF)
    )
    out[inner] = 0x45
    out[inner + 1] = dscp
    put16(inner + 2, tl)
    put16(inner + 4, ident)
    out[inner + 8] = ttl1
    out[inner + 9] = proto
    put16(inner + 10, ~inner_sum & 0xFFFF)
    put32(inner + 12, src)
    put32(inner + 16, dst)

    # Payload tail: everything after the first 20 L3 bytes, options
    # included (the scalar path slices at Ipv4Header.SIZE, not at IHL).
    tail_len = inner_len - Ipv4Header.SIZE
    total_tail = int(tail_len.sum())
    if total_tail:
        src_start = parsed.offsets[idx] + ETH_SIZE + Ipv4Header.SIZE
        dst_start = inner + Ipv4Header.SIZE
        reps = np.repeat(np.arange(m, dtype=np.int64), tail_len)
        within = np.arange(total_tail, dtype=np.int64) - np.repeat(
            np.cumsum(tail_len) - tail_len, tail_len
        )
        out[dst_start[reps] + within] = parsed.buf[src_start[reps] + within]

    blob = out.tobytes()
    return [
        blob[int(out_off[i]): int(out_off[i + 1])] for i in range(m)
    ]
