"""GTP-U tunnel endpoints and TEID allocation (paper §2).

Every bearer gets a GTP-U tunnel with a unique Tunnel End Point Identifier
(TEID); downstream packets are re-encapsulated into their flow's tunnel so
the right base station — and from there the right mobile — receives them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.epc.packets import (
    GTPU_PORT,
    GtpuHeader,
    Ipv4Header,
    PROTO_UDP,
    UdpHeader,
)


class TeidAllocator:
    """Allocates unique, recyclable 32-bit TEIDs (never zero).

    The cursor and the free set are the whole index: a TEID is live iff
    ``start <= teid < _next`` and it is not in ``_free``.  A released
    TEID goes back to ``_free`` and is handed out again before the
    cursor moves.  A TEID is a plain ``int``: ``release`` refuses any
    other type (``bool`` included) with a ``TypeError``, and ``in``
    answers ``False`` for one.
    """

    def __init__(self, start: int = 1) -> None:
        if not 1 <= start <= 0xFFFFFFFF:
            raise ValueError("start must be a valid nonzero TEID")
        self._start = start
        self._next = start
        self._free: Set[int] = set()

    def allocate(self) -> int:
        """Hand out a TEID not currently in use."""
        if self._free:
            return self._free.pop()
        if self._next > 0xFFFFFFFF:
            raise RuntimeError("TEID space exhausted")
        teid = self._next
        self._next += 1
        return teid

    def release(self, teid: int) -> None:
        """Return a TEID to the pool (bearer teardown).

        Raises:
            TypeError: if ``teid`` is not an ``int`` (a ``bool`` is not).
            ValueError: if ``teid`` is not allocated.
        """
        if type(teid) is not int:
            raise TypeError(
                f"TEID {teid!r} is a {type(teid).__name__}, not an int"
            )
        if teid not in self:
            raise ValueError(f"TEID {teid} is not allocated")
        self._free.add(teid)

    def __contains__(self, teid: object) -> bool:
        return (
            type(teid) is int
            and self._start <= teid < self._next
            and teid not in self._free
        )

    def __len__(self) -> int:
        return self._next - self._start - len(self._free)


@dataclass(frozen=True)
class GtpTunnelEndpoint:
    """One end of a GTP-U tunnel (the gateway side).

    Attributes:
        local_ip: this endpoint's IPv4 address (outer source).
        peer_ip: the base-station (eNodeB) address (outer destination).
    """

    local_ip: int
    peer_ip: int

    def encapsulate(self, teid: int, inner_packet: bytes) -> bytes:
        """Wrap an inner IP packet into outer IPv4/UDP/GTP-U."""
        gtp = GtpuHeader(teid=teid, length=len(inner_packet))
        udp_len = UdpHeader.SIZE + GtpuHeader.SIZE + len(inner_packet)
        udp = UdpHeader(sport=GTPU_PORT, dport=GTPU_PORT, length=udp_len)
        outer = Ipv4Header(
            src=self.local_ip,
            dst=self.peer_ip,
            protocol=PROTO_UDP,
            total_length=Ipv4Header.SIZE + udp_len,
        )
        return outer.pack() + udp.pack() + gtp.pack() + inner_packet

    @staticmethod
    def decapsulate(outer_packet: bytes) -> Tuple[int, bytes, Ipv4Header]:
        """Unwrap outer IPv4/UDP/GTP-U; returns (teid, inner, outer header).

        Raises:
            ValueError: if the packet is not a well-formed GTP-U G-PDU.
        """
        outer, rest = Ipv4Header.parse(outer_packet)
        if outer.protocol != PROTO_UDP:
            raise ValueError("outer packet is not UDP")
        udp, rest = UdpHeader.parse(rest)
        if GTPU_PORT not in (udp.sport, udp.dport):
            raise ValueError("not a GTP-U port")
        gtp, inner = GtpuHeader.parse(rest)
        if gtp.message_type != 0xFF:
            raise ValueError("not a G-PDU")
        if len(inner) < gtp.length:
            raise ValueError("truncated GTP-U payload")
        return gtp.teid, inner[: gtp.length], outer
