"""Byte-accurate packet codecs: Ethernet, IPv4, UDP, GTP-U (paper §2).

The LTE gateway's data plane speaks these formats: downstream traffic
arrives as plain Ethernet/IPv4 frames from the ISP peering routers and
leaves encapsulated in GTP-U (an 8-byte header over UDP port 2152) toward
the base stations; upstream traffic does the reverse.  The forwarding key
is the inner packet's 5-tuple.

Headers are immutable dataclasses with ``pack()``/``parse()`` that
round-trip exactly; IPv4 carries a real ones-complement checksum.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.core.hashfamily import canonical_key
from repro.utils import DATACLASS_SLOTS

#: EtherType for IPv4.
ETHERTYPE_IPV4 = 0x0800

#: IP protocol numbers.
PROTO_TCP = 6
PROTO_UDP = 17

#: GTP-U's well-known UDP port.
GTPU_PORT = 2152

#: GTP-U message type for tunnelled user data (G-PDU).
GTPU_GPDU = 0xFF


def ipv4_checksum(header: bytes) -> int:
    """RFC 791 ones-complement checksum over a header with zeroed field."""
    if len(header) % 2:
        header += b"\x00"
    total = sum(struct.unpack(f"!{len(header) // 2}H", header))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def format_ip(address: int) -> str:
    """Dotted-quad string for a 32-bit address."""
    return ".".join(str((address >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def parse_ip(text: str) -> int:
    """32-bit address from a dotted-quad string."""
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"not a dotted quad: {text!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


@dataclass(frozen=True)
class EthernetHeader:
    """14-byte Ethernet II header."""

    dst: bytes
    src: bytes
    ethertype: int = ETHERTYPE_IPV4

    SIZE = 14

    def __post_init__(self) -> None:
        if len(self.dst) != 6 or len(self.src) != 6:
            raise ValueError("MAC addresses must be 6 bytes")

    def pack(self) -> bytes:
        return self.dst + self.src + struct.pack("!H", self.ethertype)

    @classmethod
    def parse(cls, data: bytes) -> Tuple["EthernetHeader", bytes]:
        if len(data) < cls.SIZE:
            raise ValueError("truncated Ethernet header")
        ethertype = struct.unpack("!H", data[12:14])[0]
        return cls(bytes(data[:6]), bytes(data[6:12]), ethertype), data[14:]


@dataclass(frozen=True)
class Ipv4Header:
    """20-byte IPv4 header (no options)."""

    src: int
    dst: int
    protocol: int
    total_length: int
    ttl: int = 64
    identification: int = 0
    dscp: int = 0

    SIZE = 20

    def pack(self) -> bytes:
        head = struct.pack(
            "!BBHHHBBH4s4s",
            (4 << 4) | 5,
            self.dscp,
            self.total_length,
            self.identification,
            0,  # flags / fragment offset
            self.ttl,
            self.protocol,
            0,  # checksum placeholder
            struct.pack("!I", self.src),
            struct.pack("!I", self.dst),
        )
        checksum = ipv4_checksum(head)
        return head[:10] + struct.pack("!H", checksum) + head[12:]

    @classmethod
    def parse(cls, data: bytes, verify_checksum: bool = True) -> Tuple["Ipv4Header", bytes]:
        if len(data) < cls.SIZE:
            raise ValueError("truncated IPv4 header")
        (
            ver_ihl,
            dscp,
            total_length,
            identification,
            _flags,
            ttl,
            protocol,
            checksum,
            src,
            dst,
        ) = struct.unpack("!BBHHHBBH4s4s", data[:20])
        if ver_ihl >> 4 != 4:
            raise ValueError("not an IPv4 packet")
        ihl = (ver_ihl & 0xF) * 4
        if ihl < 20 or len(data) < ihl:
            raise ValueError("bad IPv4 header length")
        if verify_checksum:
            zeroed = data[:10] + b"\x00\x00" + data[12:ihl]
            if ipv4_checksum(zeroed) != checksum:
                raise ValueError("IPv4 checksum mismatch")
        header = cls(
            src=struct.unpack("!I", src)[0],
            dst=struct.unpack("!I", dst)[0],
            protocol=protocol,
            total_length=total_length,
            ttl=ttl,
            identification=identification,
            dscp=dscp,
        )
        return header, data[ihl:]

    def decrement_ttl(self) -> "Ipv4Header":
        """Forwarding step: TTL-1 (checksum recomputed on pack)."""
        if self.ttl <= 0:
            raise ValueError("TTL expired")
        return replace(self, ttl=self.ttl - 1)


@dataclass(frozen=True)
class Ipv6Header:
    """40-byte IPv6 header.

    The gateway's data plane is IPv4 (as in the paper's testbed), but the
    codec supports IPv6 so flow keys over v6 5-tuples work end to end —
    the related work (PacketShader) forwards IPv6, and modern EPCs carry
    both.
    """

    src: int  # 128-bit
    dst: int  # 128-bit
    next_header: int
    payload_length: int
    hop_limit: int = 64
    traffic_class: int = 0
    flow_label: int = 0

    SIZE = 40

    def pack(self) -> bytes:
        if not 0 <= self.flow_label < (1 << 20):
            raise ValueError("flow label must fit in 20 bits")
        word0 = (
            (6 << 28)
            | (self.traffic_class << 20)
            | self.flow_label
        )
        return struct.pack(
            "!IHBB16s16s",
            word0,
            self.payload_length,
            self.next_header,
            self.hop_limit,
            self.src.to_bytes(16, "big"),
            self.dst.to_bytes(16, "big"),
        )

    @classmethod
    def parse(cls, data: bytes) -> Tuple["Ipv6Header", bytes]:
        if len(data) < cls.SIZE:
            raise ValueError("truncated IPv6 header")
        word0, payload_length, next_header, hop_limit, src, dst = (
            struct.unpack("!IHBB16s16s", data[:40])
        )
        if word0 >> 28 != 6:
            raise ValueError("not an IPv6 packet")
        header = cls(
            src=int.from_bytes(src, "big"),
            dst=int.from_bytes(dst, "big"),
            next_header=next_header,
            payload_length=payload_length,
            hop_limit=hop_limit,
            traffic_class=(word0 >> 20) & 0xFF,
            flow_label=word0 & 0xFFFFF,
        )
        return header, data[40:]

    def decrement_hop_limit(self) -> "Ipv6Header":
        """Forwarding step: hop limit - 1."""
        if self.hop_limit <= 0:
            raise ValueError("hop limit expired")
        return replace(self, hop_limit=self.hop_limit - 1)

    def flow_key(self, sport: int = 0, dport: int = 0) -> int:
        """Canonical 64-bit key for a v6 flow (full 128-bit addresses)."""
        blob = (
            self.src.to_bytes(16, "big")
            + self.dst.to_bytes(16, "big")
            + struct.pack("!BHH", self.next_header, sport, dport)
        )
        return canonical_key(blob)


@dataclass(frozen=True)
class UdpHeader:
    """8-byte UDP header (checksum optional: 0 = unused, as GTP-U allows)."""

    sport: int
    dport: int
    length: int
    checksum: int = 0

    SIZE = 8

    def pack(self) -> bytes:
        return struct.pack(
            "!HHHH", self.sport, self.dport, self.length, self.checksum
        )

    @classmethod
    def parse(cls, data: bytes) -> Tuple["UdpHeader", bytes]:
        if len(data) < cls.SIZE:
            raise ValueError("truncated UDP header")
        sport, dport, length, checksum = struct.unpack("!HHHH", data[:8])
        return cls(sport, dport, length, checksum), data[8:]


@dataclass(frozen=True)
class GtpuHeader:
    """Minimal 8-byte GTPv1-U header.

    Flags: version=1, protocol type=1, no extension/sequence/N-PDU bits.
    ``length`` counts the payload after this header; ``teid`` is the Tunnel
    Endpoint Identifier the controller allocated for the bearer.
    """

    teid: int
    length: int
    message_type: int = GTPU_GPDU

    SIZE = 8
    FLAGS = 0x30  # version 1, PT=1

    def pack(self) -> bytes:
        return struct.pack(
            "!BBHI", self.FLAGS, self.message_type, self.length, self.teid
        )

    @classmethod
    def parse(cls, data: bytes) -> Tuple["GtpuHeader", bytes]:
        if len(data) < cls.SIZE:
            raise ValueError("truncated GTP-U header")
        flags, message_type, length, teid = struct.unpack("!BBHI", data[:8])
        if flags >> 5 != 1:
            raise ValueError("not a GTPv1 packet")
        return cls(teid=teid, length=length, message_type=message_type), data[8:]


@dataclass(frozen=True, **DATACLASS_SLOTS)
class FlowTuple:
    """The 5-tuple forwarding key of the paper's FIB/GPT."""

    src_ip: int
    dst_ip: int
    protocol: int
    sport: int
    dport: int

    def pack(self) -> bytes:
        return struct.pack(
            "!IIBHH", self.src_ip, self.dst_ip, self.protocol,
            self.sport, self.dport,
        )

    def key(self) -> int:
        """Canonical 64-bit key in SetSep's key space."""
        return canonical_key(self.pack())

    def reversed(self) -> "FlowTuple":
        """The opposite direction's tuple (upstream vs downstream)."""
        return FlowTuple(
            src_ip=self.dst_ip,
            dst_ip=self.src_ip,
            protocol=self.protocol,
            sport=self.dport,
            dport=self.sport,
        )

    def __str__(self) -> str:
        return (
            f"{format_ip(self.src_ip)}:{self.sport} -> "
            f"{format_ip(self.dst_ip)}:{self.dport} proto={self.protocol}"
        )


def extract_flow(ip_packet: bytes) -> Tuple[FlowTuple, Ipv4Header, bytes]:
    """Parse an IPv4 packet into its flow tuple, header and L4 payload."""
    header, rest = Ipv4Header.parse(ip_packet)
    if header.protocol in (PROTO_TCP, PROTO_UDP):
        if len(rest) < 4:
            raise ValueError("truncated L4 header")
        sport, dport = struct.unpack("!HH", rest[:4])
    else:
        sport = dport = 0
    flow = FlowTuple(header.src, header.dst, header.protocol, sport, dport)
    return flow, header, rest


def extract_forwardable(
    ip_packet: bytes, max_len: Optional[int] = None
) -> Tuple[FlowTuple, Ipv4Header, bytes]:
    """:func:`extract_flow` for a packet that is about to be forwarded.

    A packet whose TTL is already 0, or that is longer than ``max_len``
    (what the egress framing can carry), cannot leave the gateway.  It
    raises ``ValueError`` like any other malformed packet, so the data
    plane drops it *before* routing, policing and charging instead of
    failing at egress with the bearer already billed.
    """
    flow, header, rest = extract_flow(ip_packet)
    if header.ttl == 0 or (max_len is not None and len(ip_packet) > max_len):
        raise ValueError("unforwardable: TTL expired or packet too long")
    return flow, header, rest


def build_downstream_frame(
    src_mac: bytes,
    dst_mac: bytes,
    flow: FlowTuple,
    payload: bytes,
) -> bytes:
    """A plain Internet-side frame headed for a mobile (pre-tunnel)."""
    l4 = struct.pack(
        "!HHHH", flow.sport, flow.dport, UdpHeader.SIZE + len(payload), 0
    )
    ip = Ipv4Header(
        src=flow.src_ip,
        dst=flow.dst_ip,
        protocol=flow.protocol,
        total_length=Ipv4Header.SIZE + len(l4) + len(payload),
    )
    eth = EthernetHeader(dst=dst_mac, src=src_mac)
    return eth.pack() + ip.pack() + l4 + payload


def parse_frame(frame: bytes) -> Tuple[EthernetHeader, bytes]:
    """Split a frame into its Ethernet header and L3 payload."""
    return EthernetHeader.parse(frame)
