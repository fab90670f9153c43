"""Tests for GTP-U tunnels and TEID allocation (repro.epc.tunnels)."""

from typing import Set

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.epc.packets import (
    GTPU_PORT,
    Ipv4Header,
    PROTO_UDP,
    UdpHeader,
    parse_ip,
)
from repro.epc.tunnels import GtpTunnelEndpoint, TeidAllocator


class TestTeidAllocator:
    def test_unique_allocations(self):
        alloc = TeidAllocator()
        teids = {alloc.allocate() for _ in range(100)}
        assert len(teids) == 100
        assert 0 not in teids

    def test_release_and_reuse(self):
        alloc = TeidAllocator()
        teid = alloc.allocate()
        alloc.release(teid)
        assert teid not in alloc
        assert alloc.allocate() == teid

    def test_double_release_rejected(self):
        alloc = TeidAllocator()
        teid = alloc.allocate()
        alloc.release(teid)
        with pytest.raises(ValueError):
            alloc.release(teid)

    def test_live_membership_and_len(self):
        alloc = TeidAllocator()
        teid = alloc.allocate()
        assert teid in alloc
        assert len(alloc) == 1

    def test_invalid_start(self):
        with pytest.raises(ValueError):
            TeidAllocator(start=0)

    def test_exhaustion(self):
        alloc = TeidAllocator(start=0xFFFFFFFF)
        alloc.allocate()
        with pytest.raises(RuntimeError):
            alloc.allocate()

    @pytest.mark.parametrize("bad", [2.0, True, False, "2", None])
    def test_non_int_release_refused_before_any_change(self, bad):
        alloc = TeidAllocator()
        for _ in range(3):
            alloc.allocate()
        alloc.release(3)
        with pytest.raises(TypeError, match="not an int"):
            alloc.release(bad)
        assert len(alloc) == 2 and 3 not in alloc
        # The pool still holds only the int released above.
        assert type(alloc.allocate()) is int
        assert alloc.allocate() == 4

    def test_non_int_is_never_live(self):
        alloc = TeidAllocator()
        alloc.allocate()
        alloc.allocate()
        assert 2 in alloc
        assert 2.0 not in alloc and True not in alloc and "2" not in alloc


class SetTeidAllocator:
    """The set-based allocator ``TeidAllocator`` replaced, kept as the
    reference: a ``_live`` set beside the cursor and the free set.  Its
    one addition is the new ``int`` check on ``release`` (the old one
    accepted ``2.0`` and ``True`` and handed them out again)."""

    def __init__(self, start: int = 1) -> None:
        self._next = start
        self._free: Set[int] = set()
        self._live: Set[int] = set()

    def allocate(self) -> int:
        if self._free:
            teid = self._free.pop()
        else:
            if self._next > 0xFFFFFFFF:
                raise RuntimeError("TEID space exhausted")
            teid = self._next
            self._next += 1
        self._live.add(teid)
        return teid

    def release(self, teid: int) -> None:
        if type(teid) is not int:
            raise TypeError(f"TEID {teid!r} is not an int")
        if teid not in self._live:
            raise ValueError(f"TEID {teid} is not allocated")
        self._live.remove(teid)
        self._free.add(teid)

    def __contains__(self, teid: object) -> bool:
        return type(teid) is int and teid in self._live

    def __len__(self) -> int:
        return len(self._live)


#: One step of an allocator run: allocate, or release a value — a live
#: TEID picked by index, or any int (mostly not live), or a non-int.
_steps = st.one_of(
    st.just(("allocate", None)),
    st.tuples(st.just("release_live"), st.integers(0, 1 << 16)),
    st.tuples(
        st.just("release"),
        st.one_of(
            st.integers(-3, 80),
            st.sampled_from([0, 0xFFFFFFFF, 1 << 32]),
            st.sampled_from([2.0, True, False, "3", None]),
        ),
    ),
)


class TestTeidAllocatorDifferential:
    """The cursor-and-free-set index against the old set-based one."""

    @given(
        start=st.sampled_from([1, 7, 0xFFFFFFF0]),
        steps=st.lists(_steps, max_size=120),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_teids_membership_and_refusals(self, start, steps):
        new, ref = TeidAllocator(start), SetTeidAllocator(start)
        handed: list = []
        for op, arg in steps:
            if op == "release_live":
                if not handed:
                    continue
                arg = handed[arg % len(handed)]
            outcome = []
            for alloc in (new, ref):
                try:
                    if op == "allocate":
                        outcome.append(alloc.allocate())
                    else:
                        outcome.append(alloc.release(arg))
                except (TypeError, ValueError, RuntimeError) as exc:
                    outcome.append(type(exc))
            assert outcome[0] == outcome[1], (op, arg)
            if op == "allocate" and type(outcome[0]) is int:
                handed.append(outcome[0])
            assert len(new) == len(ref)
            probes = set(handed) | {start - 1, start, new._next, ref._next}
            for teid in probes:
                assert (teid in new) == (teid in ref), teid


class TestGtpTunnel:
    def endpoint(self):
        return GtpTunnelEndpoint(
            local_ip=parse_ip("192.0.2.1"), peer_ip=parse_ip("172.16.0.9")
        )

    def inner(self):
        return Ipv4Header(
            src=parse_ip("203.0.113.7"),
            dst=parse_ip("10.0.0.5"),
            protocol=PROTO_UDP,
            total_length=28,
        ).pack() + b"\x00" * 8

    def test_encap_decap_roundtrip(self):
        packet = self.inner()
        tunnelled = self.endpoint().encapsulate(0xABCD, packet)
        teid, inner, outer = GtpTunnelEndpoint.decapsulate(tunnelled)
        assert teid == 0xABCD
        assert inner == packet
        assert outer.src == parse_ip("192.0.2.1")
        assert outer.dst == parse_ip("172.16.0.9")

    def test_outer_headers_well_formed(self):
        tunnelled = self.endpoint().encapsulate(7, self.inner())
        outer, rest = Ipv4Header.parse(tunnelled)
        assert outer.protocol == PROTO_UDP
        assert outer.total_length == len(tunnelled)
        udp, _ = UdpHeader.parse(rest)
        assert udp.sport == GTPU_PORT and udp.dport == GTPU_PORT
        assert udp.length == len(rest)

    def test_decap_rejects_non_udp(self):
        bad = Ipv4Header(src=1, dst=2, protocol=6, total_length=20).pack()
        with pytest.raises(ValueError, match="UDP"):
            GtpTunnelEndpoint.decapsulate(bad)

    def test_decap_rejects_wrong_port(self):
        inner = self.inner()
        tunnelled = bytearray(self.endpoint().encapsulate(7, inner))
        # Rewrite both UDP ports to 53.
        tunnelled[20:24] = (53).to_bytes(2, "big") * 2
        with pytest.raises(ValueError, match="port"):
            GtpTunnelEndpoint.decapsulate(bytes(tunnelled))

    def test_decap_rejects_truncated_payload(self):
        tunnelled = self.endpoint().encapsulate(7, self.inner())
        with pytest.raises(ValueError):
            GtpTunnelEndpoint.decapsulate(tunnelled[:-10])
