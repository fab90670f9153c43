"""Seeded load generator: flow sets, frame pools and update op lists.

Everything here is a pure function of the seed and the workload spec — the
system under test never influences what is generated, so the same seed gives
byte-identical frames and op lists on every commit.  Frames are raw
Ethernet/IPv4/UDP bytes; nothing but those bytes (and flow tuples for the
control-plane calls) is handed to the gateway or the runtime.
"""

from __future__ import annotations

import hashlib
import struct
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.epc.packets import (
    EthernetHeader,
    FlowTuple,
    Ipv4Header,
    build_downstream_frame,
    ipv4_checksum,
)
from repro.epc.traffic import FlowGenerator

GENERATOR_MAC = bytes.fromhex("02aabbccdd01")
GATEWAY_MAC = bytes.fromhex("02aabbccdd02")

#: Smallest payload: 14 + 20 + 8 + 18 = a 60-byte minimum Ethernet frame.
MIN_PAYLOAD = 18

#: Frame flags the oracle branches on.
NORMAL = 0
MALFORMED = 1
ACL = 2

#: One 32-bit word of IPv4 options (NOP NOP NOP EOL) -> IHL 6.
_OPTIONS = b"\x01\x01\x01\x00"

#: ``fwd_mixed`` composition, as exact shares of the pool.
MIX_SHARES = {
    "unknown": 0.08,      # flows that never had a bearer
    "acl": 0.02,          # bearers whose source address is blocked
    "options": 0.01,      # IPv4 options: leaves the vectorised codec
    "truncated": 0.005,   # cut inside the IPv4 header
}
MIX_PAYLOADS = ((MIN_PAYLOAD, 0.5), (512, 0.3), (1400, 0.2))
MIX_ZIPF_S = 1.2


def options_frame(flow: FlowTuple, payload: bytes) -> bytes:
    """A downstream frame whose IPv4 header carries one word of options."""
    l4 = struct.pack("!HHHH", flow.sport, flow.dport, 8 + len(payload), 0)
    total = Ipv4Header.SIZE + len(_OPTIONS) + len(l4) + len(payload)
    head = struct.pack(
        "!BBHHHBBH4s4s", (4 << 4) | 6, 0, total, 0, 0, 64, flow.protocol, 0,
        struct.pack("!I", flow.src_ip), struct.pack("!I", flow.dst_ip),
    ) + _OPTIONS
    head = head[:10] + struct.pack("!H", ipv4_checksum(head)) + head[12:]
    eth = EthernetHeader(dst=GATEWAY_MAC, src=GENERATOR_MAC)
    return eth.pack() + head + l4 + payload


def truncated_frame(frame: bytes) -> bytes:
    """``frame`` cut twelve bytes into its IPv4 header."""
    return frame[: EthernetHeader.SIZE + 12]


class FrameCache:
    """Builds each (flow, payload length) frame once.

    ``blocked_ips`` are the ACL-blocked source addresses of the workload;
    :meth:`flag` marks every frame from one of them, whichever set its
    flow was drawn from.
    """

    def __init__(self, blocked_ips: Sequence[int] = ()) -> None:
        self._frames: Dict[Tuple[FlowTuple, int], bytes] = {}
        self._keys: Dict[FlowTuple, int] = {}
        self.blocked_ips = frozenset(blocked_ips)

    def flag(self, flow: FlowTuple) -> int:
        return ACL if flow.src_ip in self.blocked_ips else NORMAL

    def key(self, flow: FlowTuple) -> int:
        key = self._keys.get(flow)
        if key is None:
            key = self._keys[flow] = flow.key()
        return key

    def frame(self, flow: FlowTuple, payload_len: int = MIN_PAYLOAD) -> bytes:
        frame = self._frames.get((flow, payload_len))
        if frame is None:
            frame = self._frames[(flow, payload_len)] = build_downstream_frame(
                GENERATOR_MAC, GATEWAY_MAC, flow, b"x" * payload_len
            )
        return frame


class Frames(NamedTuple):
    """Parallel per-frame columns: raw bytes, flow key, oracle flag."""

    frames: List[bytes]
    keys: List[int]
    flags: List[int]

    def digest(self) -> str:
        """Content hash (determinism self-tests)."""
        h = hashlib.sha256()
        for frame, key, flag in zip(self.frames, self.keys, self.flags):
            h.update(struct.pack("<IQB", len(frame), key, flag))
            h.update(frame)
        return h.hexdigest()

    def take(self, order: Sequence[int]) -> "Frames":
        return Frames(
            [self.frames[i] for i in order],
            [self.keys[i] for i in order],
            [self.flags[i] for i in order],
        )

    def slice(self, start: int, stop: int) -> "Frames":
        return Frames(
            self.frames[start:stop], self.keys[start:stop],
            self.flags[start:stop],
        )


@dataclass
class FlowSets:
    """Disjoint flow sets one workload draws from.

    ``stable`` bearers live for the whole run; ``ring`` bearers are the
    ones churn disconnects (oldest first); ``spare`` flows have no bearer
    until churn connects them; ``blocked`` are stable bearers whose source
    address is ACL-blocked; ``unknown`` flows never get a bearer.
    """

    stable: List[FlowTuple]
    ring: List[FlowTuple]
    spare: List[FlowTuple]
    blocked: List[FlowTuple]
    unknown: List[FlowTuple]

    @property
    def population(self) -> List[FlowTuple]:
        """Every flow with a bearer at set-up, in connect order."""
        return self.stable + self.blocked + self.ring


def flow_sets(
    seed: int, bearers: int, ring: int, spare: int,
    blocked: int = 0, unknown: int = 0,
) -> Tuple[FlowGenerator, FlowSets]:
    """Draw the workload's flows; returns the generator for its
    base-station and region functions."""
    generator = FlowGenerator(seed)
    flows = generator.flows(bearers + spare + unknown)
    stable_n = bearers - ring - blocked
    cuts = np.cumsum([stable_n, blocked, ring, spare])
    return generator, FlowSets(
        stable=flows[: cuts[0]],
        blocked=flows[cuts[0]: cuts[1]],
        ring=flows[cuts[1]: cuts[2]],
        spare=flows[cuts[2]: cuts[3]],
        unknown=flows[cuts[3]:],
    )


def uniform_pool(
    rng: np.random.Generator, cache: FrameCache,
    flows: Sequence[FlowTuple], count: int,
) -> Frames:
    """``count`` minimum-size frames drawn uniformly over ``flows``."""
    picks = rng.integers(len(flows), size=count)
    return Frames(
        [cache.frame(flows[int(i)]) for i in picks],
        [cache.key(flows[int(i)]) for i in picks],
        [cache.flag(flows[int(i)]) for i in picks],
    )


def mix_counts(count: int) -> Dict[str, int]:
    """Frames per category for a mixed pool of ``count`` frames.

    Raises if a share does not land on a whole frame: the stated
    percentages must hold exactly, not on average.
    """
    out: Dict[str, int] = {}
    for name, share in MIX_SHARES.items():
        exact = count * share
        if abs(exact - round(exact)) > 1e-9:
            raise ValueError(
                f"pool of {count} frames cannot hold exactly {share:.1%} "
                f"{name} frames"
            )
        out[name] = int(round(exact))
    out["known"] = count - sum(out.values())
    return out


def mixed_pool(
    rng: np.random.Generator, cache: FrameCache, sets: FlowSets,
    count: int, block: int,
) -> Frames:
    """The ``fwd_mixed`` pool: ``count`` frames in blocks of ``block``.

    Every block holds the stated mix exactly, so a window that plays one
    block does the same kind of work as every other window; only the flows
    differ from block to block."""
    if count % block:
        raise ValueError("the pool must be a whole number of blocks")
    blocks = [
        _mixed_block(rng, cache, sets, block) for _ in range(count // block)
    ]
    return Frames(
        [f for b in blocks for f in b.frames],
        [k for b in blocks for k in b.keys],
        [g for b in blocks for g in b.flags],
    )


def _mixed_block(
    rng: np.random.Generator, cache: FrameCache, sets: FlowSets, count: int,
) -> Frames:
    """Zipf popularity, three packet sizes and the four off-fast-path
    categories of :data:`MIX_SHARES`, shuffled."""
    counts = mix_counts(count)
    sizes: List[int] = []
    for payload_len, share in MIX_PAYLOADS[:-1]:
        sizes += [payload_len] * int(round(count * share))
    sizes += [MIX_PAYLOADS[-1][0]] * (count - len(sizes))
    sizes = [sizes[int(i)] for i in rng.permutation(count)]

    def zipf_flows(n: int) -> List[FlowTuple]:
        ranks = rng.zipf(MIX_ZIPF_S, size=n)
        return [sets.stable[int(r - 1) % len(sets.stable)] for r in ranks]

    def pick(flows: Sequence[FlowTuple], n: int) -> List[FlowTuple]:
        return [flows[int(i)] for i in rng.integers(len(flows), size=n)]

    plan: List[Tuple[str, FlowTuple]] = []
    plan += [("plain", f) for f in zipf_flows(counts["known"])]
    plan += [("plain", f) for f in pick(sets.unknown, counts["unknown"])]
    plan += [("plain", f) for f in pick(sets.blocked, counts["acl"])]
    plan += [("options", f) for f in zipf_flows(counts["options"])]
    plan += [("truncated", f) for f in zipf_flows(counts["truncated"])]
    plan = [plan[int(i)] for i in rng.permutation(count)]

    frames: List[bytes] = []
    keys: List[int] = []
    flags: List[int] = []
    for (kind, flow), payload_len in zip(plan, sizes):
        if kind == "options":
            frames.append(options_frame(flow, b"x" * payload_len))
        elif kind == "truncated":
            frames.append(truncated_frame(cache.frame(flow, payload_len)))
        else:
            frames.append(cache.frame(flow, payload_len))
        keys.append(0 if kind == "truncated" else cache.key(flow))
        flags.append(MALFORMED if kind == "truncated" else cache.flag(flow))
    return Frames(frames, keys, flags)


class Op(NamedTuple):
    """One control-plane operation.  ``shift`` (rehome only) is added to
    the bearer's current node, so the op list never needs system state."""

    kind: str  # "connect" | "disconnect" | "rehome"
    flow: FlowTuple
    shift: int = 0


class Churn:
    """Constant-population bearer churn, one round at a time.

    Each round connects ``connects`` spare flows, disconnects as many of
    the oldest ring bearers (which become spare again) and rehomes
    ``rehomes`` stable bearers picked by the seeded generator.
    """

    def __init__(
        self, rng: np.random.Generator, sets: FlowSets, num_nodes: int,
        connects: int, rehomes: int,
    ) -> None:
        if len(sets.ring) < connects or len(sets.spare) < connects:
            raise ValueError("ring and spare must each cover one round")
        self._rng = rng
        self._stable = sets.stable
        self._ring: Deque[FlowTuple] = deque(sets.ring)
        self._spare: Deque[FlowTuple] = deque(sets.spare)
        self._num_nodes = num_nodes
        self.connects = connects
        self.rehomes = rehomes

    def next_round(self) -> List[Op]:
        ops: List[Op] = []
        for _ in range(self.connects):
            new = self._spare.popleft()
            old = self._ring.popleft()
            self._ring.append(new)
            self._spare.append(old)
            ops.append(Op("connect", new))
            ops.append(Op("disconnect", old))
        if self.rehomes:
            picks = self._rng.choice(
                len(self._stable), size=self.rehomes, replace=False
            )
            shifts = self._rng.integers(
                1, self._num_nodes, size=self.rehomes
            )
            for i, shift in zip(picks, shifts):
                ops.append(Op("rehome", self._stable[int(i)], int(shift)))
        return ops


class RoundFrames:
    """The frames of one round: ``hot`` frames over the flows its updates
    touched, the rest taken from the pool in order (the pool is cycled)."""

    def __init__(
        self, rng: np.random.Generator, cache: FrameCache, pool: Frames,
        frames_per_round: int, hot: int,
    ) -> None:
        if (frames_per_round - hot) > len(pool.frames):
            raise ValueError("pool smaller than one round's draw")
        self._rng = rng
        self._cache = cache
        self._pool = pool
        self._cursor = 0
        self.frames_per_round = frames_per_round
        self.hot = hot

    def next_round(self, ops: Sequence[Op]) -> Frames:
        cold_n = self.frames_per_round - self.hot
        size = len(self._pool.frames)
        cold = self._pool.take(
            [(self._cursor + i) % size for i in range(cold_n)]
        )
        self._cursor = (self._cursor + cold_n) % size
        if not self.hot:
            return cold
        touched = [op.flow for op in ops]
        picks = self._rng.integers(len(touched), size=self.hot)
        flows = [touched[int(i)] for i in picks]
        merged = Frames(
            cold.frames + [self._cache.frame(f) for f in flows],
            cold.keys + [self._cache.key(f) for f in flows],
            cold.flags + [self._cache.flag(f) for f in flows],
        )
        return merged.take(self._rng.permutation(self.frames_per_round))
