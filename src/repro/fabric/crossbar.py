"""The crossbar: one non-blocking switch, §3.1's "exactly one crossing".

Every node pair ``(src, dst)`` has its own directed link through the
switch, so a transit is one switch hop over one link and the link set is
the full ``n * (n - 1)`` mesh of pairs.  A severed pair has no alternate
path; a degraded one is slow but lossless.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.fabric import Fabric, FabricLoss, Link, Route


class SwitchFabric(Fabric):
    """A non-blocking switch connecting ``num_nodes`` cluster nodes.

    The ``crossbar`` backend of the fabric registry (:mod:`repro.fabric`);
    constructor arguments are :class:`~repro.fabric.Fabric`'s.
    """

    backend = "crossbar"

    def _route(self, src: int, dst: int) -> Route:
        link = (src, dst)
        if link in self._down_links:
            raise FabricLoss(src, dst)
        return (link,), 1

    def deliver_batch(
        self,
        srcs: np.ndarray,
        dsts: np.ndarray,
        size: int = 64,
    ) -> np.ndarray:
        """Move many packets at once; returns per-packet transit latencies.

        Equivalent to calling :meth:`deliver` element-wise (and delegates
        to the base's per-packet path when a :attr:`fault_hook` or link
        fault is active, so fault verdicts keep their per-transit
        ordering), but accounts lossless traffic with a handful of array
        reductions instead of a Python call per packet.
        """
        if self.fault_hook is not None or self.has_link_faults():
            return super().deliver_batch(srcs, dsts, size)
        srcs, dsts = self._check_batch(srcs, dsts)
        remote = srcs != dsts
        count = int(remote.sum())
        if count:
            self.stats.packets += count
            self.stats.bytes += size * count
            self.stats.switch_hops += count
            links, link_counts = np.unique(
                srcs[remote] * self.num_nodes + dsts[remote],
                return_counts=True,
            )
            link_srcs, link_dsts = np.divmod(links, self.num_nodes)
            for s, d, c in zip(
                link_srcs.tolist(), link_dsts.tolist(), link_counts.tolist()
            ):
                self.stats.record_link((s, d), c)
        return np.where(remote, self.transit_latency_us, 0.0)

    def links(self) -> Tuple[Link, ...]:
        """Every directed node pair, in deterministic order."""
        return tuple(
            (a, b)
            for a in range(self.num_nodes)
            for b in range(self.num_nodes)
            if a != b
        )

    def pick_fault_link(self, rng: np.random.Generator) -> Optional[Link]:
        """A seeded victim pair for link-level chaos (``None`` if n < 2)."""
        if self.num_nodes < 2:
            return None
        src = int(rng.integers(self.num_nodes))
        dst = int(rng.integers(self.num_nodes - 1))
        if dst >= src:
            dst += 1
        return (src, dst)

    def ingress_costs(self) -> np.ndarray:
        """Per-node cost of accepting the next external packet.

        The crossbar has no shared uplinks, so the cost is each node's
        outgoing fabric load (observed plus projected) plus one per
        severed egress link: the utilization-aware ingress policy then
        levels sender-side load.  A node whose egress links are all
        severed reaches no peer and costs ``inf``.
        """
        costs = self._pending_ingress.copy()
        for (src, _dst), count in self.stats.per_link_packets.items():
            costs[src] += count
        severed = np.bincount(
            [src for src, _dst in self._down_links], minlength=self.num_nodes
        )
        costs += severed
        costs[severed >= max(self.num_nodes - 1, 1)] = np.inf
        return costs

    def verify_accounting(self) -> bool:
        """One switch hop and one link crossing per recorded packet
        (duplicates included), and the per-link map sums to the crossing
        total."""
        s = self.stats
        return (
            sum(s.per_link_packets.values()) == s.link_crossings
            and s.link_crossings == s.packets
            and s.switch_hops == s.packets
        )
