"""The cluster interconnect (paper §3.1).

ScaleBricks connects nodes through a hardware switch: one transit between
any pair of nodes, internal bandwidth requirement equal to the external
bandwidth, and latency set by the switch rather than by an indirect server.
The RouteBricks alternative is a server mesh with Valiant load balancing.
This module models both at the level the reproduction needs: delivery
between nodes with per-link byte/packet accounting, so benchmarks can
verify the 2R-vs-R internal bandwidth claim and the hop counts.

:class:`SwitchFabric` is also the ``crossbar`` backend of the fabric
registry (:mod:`repro.fabric`): alternative topologies — currently the
two-layer leaf/spine fat-tree in :mod:`repro.fabric.fattree` — implement
the same surface, so :class:`~repro.cluster.cluster.Cluster` routes over
either interchangeably.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Set, Tuple

import numpy as np

#: Verdicts a fault hook may return for one send: a fabric transit here,
#: a §4.5 delta ship in :mod:`repro.cluster.owner`, a runtime transport
#: send in :mod:`repro.chaos.transport`.  The one definition of the
#: vocabulary; every other module imports these names.
DELIVER = "deliver"
DROP = "drop"
DUPLICATE = "duplicate"
DELAY = "delay"

#: Latency multiplier applied to a transit the fault hook delays (models
#: the queueing that reorders a packet behind later arrivals).
DELAY_FACTOR = 4.0

FaultHook = Callable[[int, int, int], str]

#: A directed link identifier.  The crossbar's links are node pairs
#: ``(src, dst)``; multi-stage fabrics use tagged tuples such as
#: ``("uplink", leaf, spine)``.  Links are only compared/hashed, never
#: interpreted, by the shared accounting.
Link = Tuple


class FabricLoss(RuntimeError):
    """A transit was dropped in flight by an injected fabric fault.

    Carried out of :meth:`SwitchFabric.deliver` so the caller (e.g. the
    chaos harness) can attribute the loss to the injection rather than to
    the forwarding logic.
    """

    def __init__(self, src: int, dst: int) -> None:
        super().__init__(f"transit {src} -> {dst} lost to injected fault")
        self.src = src
        self.dst = dst


@dataclass
class FabricStats:
    """Aggregate interconnect accounting (shared by every fabric backend).

    ``packets``/``bytes`` count delivered transits end to end;
    ``switch_hops`` counts switch traversals and ``link_crossings``
    counts directed-link traversals, so multi-stage fabrics can report
    path length without changing the per-packet fields.  On the one-hop
    crossbar every packet is exactly one switch hop over exactly one
    link, so ``packets == switch_hops == link_crossings`` (duplicates
    included).
    """

    packets: int = 0
    bytes: int = 0
    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0
    degraded: int = 0
    reroutes: int = 0
    capacity_exceeded: int = 0
    switch_hops: int = 0
    link_crossings: int = 0
    per_link_packets: Dict[Link, int] = field(default_factory=dict)

    def record_link(self, link: Link, count: int = 1) -> None:
        """Count ``count`` crossings of one directed link."""
        self.per_link_packets[link] = (
            self.per_link_packets.get(link, 0) + count
        )
        self.link_crossings += count

    def record(self, src: int, dst: int, size: int) -> None:
        """Count one crossbar transit (one switch hop, one link)."""
        self.packets += 1
        self.bytes += size
        self.switch_hops += 1
        self.record_link((src, dst))

    def max_link_packets(self) -> int:
        """Busiest directed link (fabric hot-spot metric)."""
        return max(self.per_link_packets.values(), default=0)

    def busiest_link(self) -> Optional[Tuple[Link, int]]:
        """The busiest directed link and its packet count.

        Ties break on the smallest link id, so the answer is
        deterministic for byte-compared reports.
        """
        if not self.per_link_packets:
            return None
        return max(
            sorted(self.per_link_packets.items()), key=lambda item: item[1]
        )


class SwitchFabric:
    """A non-blocking switch connecting ``num_nodes`` cluster nodes.

    This is the ``crossbar`` backend of the fabric registry
    (:mod:`repro.fabric`): the paper's §3.1 ideal of exactly one switch
    transit between any node pair.

    Args:
        num_nodes: attached node count.
        transit_latency_us: one switch transit (Mellanox-class hardware,
            §3.1's cost argument).
        seed: randomness for VLB indirect-node selection.
    """

    #: Registry name (see :mod:`repro.fabric`).
    backend = "crossbar"

    def __init__(
        self,
        num_nodes: int,
        transit_latency_us: float = 0.6,
        seed: int = 0,
    ) -> None:
        if num_nodes < 1:
            raise ValueError("fabric needs at least one node")
        self.num_nodes = num_nodes
        self.transit_latency_us = transit_latency_us
        self.stats = FabricStats()
        self._rng = np.random.default_rng(seed)
        #: Optional fault-injection hook consulted once per transit with
        #: ``(src, dst, size)``; must return one of :data:`DELIVER`,
        #: :data:`DROP`, :data:`DUPLICATE` or :data:`DELAY`.  ``None``
        #: (the default) keeps the fabric lossless.
        self.fault_hook: Optional[FaultHook] = None
        #: Links severed by link-level chaos (see :meth:`fail_link`).
        self._down_links: Set[Link] = set()
        #: Link -> latency factor for degraded (slow but lossless) links.
        self._degraded_links: Dict[Link, float] = {}
        #: Projected ingress load per node: the utilization-aware ingress
        #: policy (:meth:`repro.cluster.cluster.Cluster.pick_ingress`)
        #: notes each pick here so consecutive picks spread before any
        #: real traffic lands.
        self._pending_ingress = np.zeros(num_nodes, dtype=np.float64)

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------

    def deliver(self, src: int, dst: int, size: int = 64) -> float:
        """Move one packet from ``src`` to ``dst``; returns transit latency.

        Delivery to self is free (no fabric transit).

        Raises:
            FabricLoss: when an installed :attr:`fault_hook` drops the
                transit, or the ``(src, dst)`` link is down
                (chaos testing; never raised on a healthy fabric).
        """
        self._check(src)
        self._check(dst)
        if src == dst:
            return 0.0
        verdict = DELIVER if self.fault_hook is None else self.fault_hook(
            src, dst, size
        )
        if verdict == DROP:
            self.stats.dropped += 1
            raise FabricLoss(src, dst)
        link = (src, dst)
        if link in self._down_links:
            # The crossbar has a single path per pair: a severed link
            # has no reroute, the transit is lost in flight.
            self.stats.dropped += 1
            raise FabricLoss(src, dst)
        self.stats.record(src, dst, size)
        latency = self.transit_latency_us
        factor = self._degraded_links.get(link)
        if factor is not None:
            self.stats.degraded += 1
            latency *= factor
        if verdict == DUPLICATE:
            # The copy travels in parallel: double the accounting, same
            # arrival latency for the first copy.
            self.stats.record(src, dst, size)
            self.stats.duplicated += 1
            return latency
        if verdict == DELAY:
            self.stats.delayed += 1
            return latency * DELAY_FACTOR
        return latency

    def deliver_batch(
        self,
        srcs: np.ndarray,
        dsts: np.ndarray,
        size: int = 64,
    ) -> np.ndarray:
        """Move many packets at once; returns per-packet transit latencies.

        Equivalent to calling :meth:`deliver` element-wise (and delegates
        to it when a :attr:`fault_hook` or link fault is active, so fault
        verdicts keep their per-transit ordering), but accounts lossless
        traffic with a handful of array reductions instead of a Python
        call per packet.
        """
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        if srcs.shape != dsts.shape:
            raise ValueError("srcs and dsts must have equal length")
        if srcs.size == 0:
            return np.zeros(0, dtype=np.float64)
        if srcs.size and (
            srcs.min() < 0
            or dsts.min() < 0
            or srcs.max() >= self.num_nodes
            or dsts.max() >= self.num_nodes
        ):
            bad = srcs[(srcs < 0) | (srcs >= self.num_nodes)]
            node = int(bad[0]) if bad.size else int(
                dsts[(dsts < 0) | (dsts >= self.num_nodes)][0]
            )
            raise ValueError(f"node {node} not attached to this fabric")
        if self.fault_hook is not None or self.has_link_faults():
            return np.asarray(
                [
                    self.deliver(int(s), int(d), size)
                    for s, d in zip(srcs, dsts)
                ],
                dtype=np.float64,
            )
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
            per_link = self.stats.per_link_packets
            for s, d, c in zip(
                link_srcs.tolist(), link_dsts.tolist(), link_counts.tolist()
            ):
                per_link[(s, d)] = per_link.get((s, d), 0) + c
            self.stats.link_crossings += count
        return np.where(remote, self.transit_latency_us, 0.0)

    def pick_indirect(self, src: int, dst: int) -> int:
        """Choose a VLB indirect node distinct from source and destination.

        With fewer than three nodes there is no usable indirect node and the
        packet goes direct (degenerate VLB).
        """
        self._check(src)
        self._check(dst)
        candidates = [
            n for n in range(self.num_nodes) if n not in (src, dst)
        ]
        if not candidates:
            return dst
        return int(self._rng.choice(candidates))

    # ------------------------------------------------------------------
    # Link-level faults (chaos: LINK_DOWN / LINK_DEGRADED / LINK_HEAL)
    # ------------------------------------------------------------------

    def links(self) -> Tuple[Link, ...]:
        """Every directed link, in deterministic order."""
        return tuple(
            (a, b)
            for a in range(self.num_nodes)
            for b in range(self.num_nodes)
            if a != b
        )

    def pick_fault_link(self, rng: np.random.Generator) -> Optional[Link]:
        """A seeded victim link for link-level chaos (``None`` if n < 2)."""
        if self.num_nodes < 2:
            return None
        src = int(rng.integers(self.num_nodes))
        dst = int(rng.integers(self.num_nodes - 1))
        if dst >= src:
            dst += 1
        return (src, dst)

    def fail_link(self, link: Link) -> None:
        """Sever one directed link: transits over it are lost in flight."""
        self._down_links.add(tuple(link))

    def degrade_link(self, link: Link, factor: float = DELAY_FACTOR) -> None:
        """Slow one directed link down by ``factor`` (lossless)."""
        if factor <= 0:
            raise ValueError("degrade factor must be positive")
        self._degraded_links[tuple(link)] = float(factor)

    def heal_links(self) -> None:
        """Restore every failed and degraded link."""
        self._down_links.clear()
        self._degraded_links.clear()

    def has_link_faults(self) -> bool:
        """Whether any link is currently down or degraded."""
        return bool(self._down_links or self._degraded_links)

    def down_links(self) -> Tuple[Link, ...]:
        """The currently severed links, in deterministic order."""
        return tuple(sorted(self._down_links))

    # ------------------------------------------------------------------
    # Ingress steering (utilization-aware policy support)
    # ------------------------------------------------------------------

    def ingress_costs(self) -> np.ndarray:
        """Per-node cost of accepting the next external packet.

        The crossbar has no shared uplinks, so the cost is simply each
        node's outgoing fabric load (observed plus projected): the
        utilization-aware ingress policy then levels sender-side load.
        Nodes whose egress links are all severed cost ``inf``.
        """
        costs = self._pending_ingress.copy()
        for (src, _dst), count in self.stats.per_link_packets.items():
            costs[src] += count
        for (src, _dst) in self._down_links:
            costs[src] += 1.0  # a severed egress narrows the node's paths
        return costs

    def note_ingress(self, node: int) -> None:
        """Project one ingress pick onto ``node`` (policy feedback)."""
        self._check(node)
        self._pending_ingress[node] += 1.0

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def verify_accounting(self) -> bool:
        """Check the crossbar's conservation invariants.

        One switch hop and one link crossing per recorded packet
        (duplicates included), and the per-link map sums to the crossing
        total — the "no accounting leaks" gate the chaos drill asserts.
        """
        s = self.stats
        recorded = s.packets  # duplicates already double-counted
        return (
            sum(s.per_link_packets.values()) == s.link_crossings
            and s.link_crossings == recorded
            and s.switch_hops == recorded
        )

    def reset_stats(self) -> None:
        """Zero the accounting (fault state is kept; see heal_links)."""
        self.stats = FabricStats()
        self._pending_ingress[:] = 0.0

    def _check(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} not attached to this fabric")
