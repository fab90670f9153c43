"""Traffic generation and the functional trial harness (paper §6.2).

Stands in for the Spirent SPT-N11U: synthesises downstream flow
populations, generates packet streams over them (uniform or Zipf-skewed)
and drives them through a gateway while collecting functional statistics.
The RFC 2544-style latency evaluation over the cost models is
:class:`repro.model.perf.Rfc2544Bench`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.epc.gateway import EpcGateway
from repro.epc.packets import (
    FlowTuple,
    PROTO_UDP,
    build_downstream_frame,
    parse_ip,
)

#: MAC addresses used by the generator (values are irrelevant to the PFE).
GENERATOR_MAC = bytes.fromhex("02aa bbcc dd01".replace(" ", ""))
GATEWAY_MAC = bytes.fromhex("02aa bbcc dd02".replace(" ", ""))


class FlowGenerator:
    """Synthesises unique downstream flows, base stations and regions.

    Downstream flows run from public server addresses to UE addresses in
    10.0.0.0/8; base stations live in 172.16.0.0/12; each UE belongs to a
    region so the GEOGRAPHIC assignment policy has something to bite on.
    """

    def __init__(self, seed: int = 0, num_base_stations: int = 256,
                 num_regions: int = 64) -> None:
        self._rng = np.random.default_rng(seed)
        self.num_base_stations = num_base_stations
        self.num_regions = num_regions
        self._base_station_ips = [
            parse_ip("172.16.0.0") + 256 + i for i in range(num_base_stations)
        ]

    def flows(self, count: int) -> List[FlowTuple]:
        """``count`` unique downstream flow tuples."""
        seen = set()
        out: List[FlowTuple] = []
        while len(out) < count:
            need = count - len(out)
            src = self._rng.integers(0x08000000, 0xDF000000, size=need * 2)
            dst = parse_ip("10.0.0.0") + self._rng.integers(
                1, 1 << 24, size=need * 2
            )
            sport = self._rng.integers(1024, 65535, size=need * 2)
            dport = self._rng.integers(1024, 65535, size=need * 2)
            for s, d, sp, dp in zip(src, dst, sport, dport):
                flow = FlowTuple(int(s), int(d), PROTO_UDP, int(sp), int(dp))
                key = flow.key()
                if key not in seen:
                    seen.add(key)
                    out.append(flow)
                    if len(out) == count:
                        break
        return out

    def base_station_for(self, flow: FlowTuple) -> int:
        """Deterministic base-station address for a flow's UE."""
        return self._base_station_ips[flow.dst_ip % self.num_base_stations]

    def region_for(self, flow: FlowTuple) -> int:
        """Deterministic region for a flow's UE."""
        return (flow.dst_ip >> 8) % self.num_regions

    def populate(self, gateway: EpcGateway, count: int) -> List[FlowTuple]:
        """Establish ``count`` bearers on a gateway (pre-start population)."""
        flows = self.flows(count)
        for flow in flows:
            gateway.connect(
                flow, self.base_station_for(flow), self.region_for(flow)
            )
        return flows

    def packet_stream(
        self,
        flows: Sequence[FlowTuple],
        count: int,
        zipf_s: float = 0.0,
        payload: bytes = b"x" * 18,
    ) -> List[bytes]:
        """Downstream frames over the flow population.

        ``zipf_s > 0`` skews packet counts across flows (real traffic is
        heavy-tailed); 0 draws uniformly.
        """
        if not flows:
            raise ValueError("no flows to generate over")
        if zipf_s > 0.0:
            ranks = self._rng.zipf(zipf_s, size=count)
            indices = (ranks - 1) % len(flows)
        else:
            indices = self._rng.integers(len(flows), size=count)
        return [
            build_downstream_frame(
                GENERATOR_MAC, GATEWAY_MAC, flows[int(i)], payload
            )
            for i in indices
        ]


@dataclass
class TrafficStats:
    """Outcome of one traffic trial."""

    offered: int = 0
    delivered: int = 0
    dropped: int = 0
    total_internal_hops: int = 0
    wall_seconds: float = 0.0
    hop_histogram: Dict[int, int] = field(default_factory=dict)

    @property
    def loss_rate(self) -> float:
        """Fraction of offered packets not delivered."""
        return self.dropped / self.offered if self.offered else 0.0

    @property
    def mean_hops(self) -> float:
        """Average internal fabric transits per delivered packet."""
        if not self.delivered:
            return 0.0
        return self.total_internal_hops / self.delivered

    @property
    def software_pps(self) -> float:
        """Simulation processing rate (not the paper's hardware Mpps)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.offered / self.wall_seconds


def run_downstream_trial(
    gateway: EpcGateway,
    frames: Sequence[bytes],
    batch_size: int = 256,
) -> TrafficStats:
    """Push frames through a gateway, collecting functional statistics.

    Frames flow through :meth:`EpcGateway.process_downstream_batch` in
    chunks of ``batch_size``; every functional statistic — and the
    gateway's RNG/clock trajectory — is the same at any batch size.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    stats = TrafficStats()
    started = time.perf_counter()
    for start in range(0, len(frames), batch_size):
        chunk = frames[start:start + batch_size]
        stats.offered += len(chunk)
        for result, tunnelled in gateway.process_downstream_batch(chunk):
            if tunnelled is None:
                stats.dropped += 1
                continue
            stats.delivered += 1
            stats.total_internal_hops += result.internal_hops
            stats.hop_histogram[result.internal_hops] = (
                stats.hop_histogram.get(result.internal_hops, 0) + 1
            )
    stats.wall_seconds = time.perf_counter() - started
    return stats
