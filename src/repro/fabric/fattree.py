"""Two-layer leaf/spine fat-tree fabric (arXiv:1301.6179).

The crossbar backend models §3.1's ideal: one switch transit between any
node pair.  Real clusters outgrow a single switch, and the standard
two-layer answer is a fat-tree: nodes attach to leaf switches, leaves
attach to every spine, and equal-cost multipath (ECMP) spreads
inter-leaf flows over the spines.  What the ideal hides — and this
backend models — is *structure*:

* **hop counts** — an intra-leaf transit crosses one switch, an
  inter-leaf transit crosses three (leaf, spine, leaf), so "exactly one
  crossing" becomes a measurable property of the topology rather than an
  assumption;
* **per-link capacity** — every directed link (node↔leaf edges,
  leaf↔spine trunks) has a packets-per-window capacity.  The
  *oversubscription ratio* is the classic fat-tree design parameter:
  attached edge bandwidth per leaf divided by the leaf's total uplink
  bandwidth (1:1 is a full bisection, 4:1 saves three quarters of the
  spine).  Crossings beyond a link's per-window capacity are delivered
  but pay a queueing penalty and are counted as ``capacity_exceeded`` —
  the congestion signal the benchmarks chart;
* **deterministic ECMP** — the spine for an inter-leaf transit is a pure
  hash of ``(src, dst)``, so runs are replayable and a flow's path is
  stable.  When a chaos fault downs a trunk the next hash slot takes
  over (counted as a reroute), which is exactly how switch ECMP tables
  fail over;
* **ingress steering** — :meth:`FatTreeFabric.ingress_costs` exposes
  per-node congestion (edge plus leaf-uplink occupancy) so the cluster's
  utilization-aware ingress policy can steer skewed traffic off hot leaf
  uplinks.

Accounting is conservation-checked: every delivered packet contributes
its hop count to ``switch_hops`` and one crossing per traversed link to
``link_crossings`` (``link_crossings == switch_hops + packets``, since a
path of ``h`` switches spans ``h + 1`` links); :meth:`verify_accounting`
is the chaos drill's "no accounting leaks" gate.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.fabric import Fabric, FabricLoss, Link, Route

#: Mixing constants for the deterministic ECMP hash (Fibonacci/Murmur
#: multipliers; any fixed odd constants work, these match the repo's
#: seeded-stream idiom).
_ECMP_MULT_SRC = 0x9E3779B1
_ECMP_MULT_DST = 0x85EBCA77
_ECMP_MASK = 0xFFFFFFFF


class FatTreeFabric(Fabric):
    """A two-layer leaf/spine fat-tree connecting ``num_nodes`` nodes.

    Args:
        num_nodes: attached node count.
        transit_latency_us: latency of one switch traversal; an
            inter-leaf path costs three of these, plus queueing.
        seed: randomness for VLB indirect-node selection (delivery and
            ECMP are deterministic and never consume it).
        num_leaves: leaf switch count; default ``ceil(sqrt(num_nodes))``
            (at least 2 once there are 2 nodes, so inter-leaf paths
            exist).  Nodes attach to leaves in contiguous blocks.
        num_spines: spine switch count; default half the leaves,
            minimum 2 (so a downed trunk always has an ECMP alternate).
        oversubscription: the leaf uplink design ratio — attached edge
            capacity per leaf over total uplink capacity (1.0 = full
            bisection, 2.0 = 2:1, ...).
        window: packets per accounting window; per-link occupancy (and
            with it queueing and ``capacity_exceeded``) resets every
            ``window`` delivered packets.
        edge_capacity: per-window capacity of one node↔leaf edge link;
            default gives each edge 2x its uniform-traffic share of the
            window.
        queue_penalty_us: latency added per over-capacity link crossing;
            defaults to one switch transit.
    """

    #: Registry name (see :mod:`repro.fabric`).
    backend = "fattree"

    def __init__(
        self,
        num_nodes: int,
        transit_latency_us: float = 0.6,
        seed: int = 0,
        num_leaves: Optional[int] = None,
        num_spines: Optional[int] = None,
        oversubscription: float = 1.0,
        window: int = 512,
        edge_capacity: Optional[int] = None,
        queue_penalty_us: Optional[float] = None,
    ) -> None:
        super().__init__(num_nodes, transit_latency_us, seed)
        if oversubscription <= 0:
            raise ValueError("oversubscription ratio must be positive")
        if window < 1:
            raise ValueError("accounting window must be at least 1 packet")
        if num_leaves is None:
            num_leaves = math.ceil(math.sqrt(num_nodes))
            if num_nodes >= 2:
                num_leaves = max(2, num_leaves)
        if not 1 <= num_leaves <= num_nodes:
            raise ValueError("need between 1 and num_nodes leaf switches")
        self.nodes_per_leaf = math.ceil(num_nodes / num_leaves)
        # Contiguous attachment can leave trailing leaves empty; drop them
        # so capacity math reflects the leaves that exist.
        self.num_leaves = math.ceil(num_nodes / self.nodes_per_leaf)
        if num_spines is None:
            num_spines = max(2, (self.num_leaves + 1) // 2)
        if num_spines < 1:
            raise ValueError("need at least one spine switch")
        self.num_spines = num_spines
        self.oversubscription = float(oversubscription)
        self.window = int(window)
        if edge_capacity is None:
            edge_capacity = max(4, math.ceil(2 * window / num_nodes))
        if edge_capacity < 1:
            raise ValueError("edge capacity must be at least 1")
        self.edge_capacity = int(edge_capacity)
        # The defining fat-tree relation: a leaf's uplink budget is its
        # attached edge budget divided by the oversubscription ratio,
        # split evenly over the spines.
        self.uplink_capacity = max(1, math.ceil(
            self.nodes_per_leaf * self.edge_capacity
            / (self.num_spines * self.oversubscription)
        ))
        self.queue_penalty_us = (
            transit_latency_us if queue_penalty_us is None
            else float(queue_penalty_us)
        )
        self._leaf_of = np.arange(num_nodes) // self.nodes_per_leaf
        self._window_counts: Dict[Link, int] = {}
        self._window_offered = 0

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def leaf_of(self, node: int) -> int:
        """The leaf switch ``node`` attaches to."""
        self._check(node)
        return int(self._leaf_of[node])

    def hop_count(self, src: int, dst: int) -> int:
        """Switch traversals between two nodes on the healthy topology."""
        self._check(src)
        self._check(dst)
        if src == dst:
            return 0
        return 1 if self._leaf_of[src] == self._leaf_of[dst] else 3

    def ecmp_spine(self, src: int, dst: int) -> int:
        """The deterministic preferred spine for an inter-leaf transit."""
        mixed = (
            (src * _ECMP_MULT_SRC) ^ (dst * _ECMP_MULT_DST)
        ) & _ECMP_MASK
        return int(mixed % self.num_spines)

    def links(self) -> Tuple[Link, ...]:
        """Every directed link, in deterministic order."""
        out: List[Link] = []
        for node in range(self.num_nodes):
            out.append(("up", node))
            out.append(("down", node))
        for leaf in range(self.num_leaves):
            for spine in range(self.num_spines):
                out.append(("uplink", leaf, spine))
                out.append(("downlink", spine, leaf))
        return tuple(out)

    def link_capacity(self, link: Link) -> int:
        """Per-window packet capacity of one directed link."""
        return (
            self.edge_capacity if link[0] in ("up", "down")
            else self.uplink_capacity
        )

    def pick_fault_link(self, rng: np.random.Generator) -> Optional[Link]:
        """A seeded victim among the spine-layer trunks.

        Trunks are the interesting victims — they have ECMP alternates,
        so downing one exercises the reroute path rather than just
        severing a node (edge-link loss is covered by targeted tests).
        Returns ``None`` on a single-leaf topology (no trunks carry
        traffic worth failing).
        """
        if self.num_leaves < 2:
            return None
        trunks = self.links()[2 * self.num_nodes:]
        return trunks[int(rng.integers(len(trunks)))]

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------

    def _route(self, src: int, dst: int) -> Route:
        """Intra-leaf: up, down (one hop).  Inter-leaf: up, the ECMP
        spine's uplink and downlink, down (three hops).

        Edge links have no alternate (loss); a downed trunk fails over to
        the next spine in hash order, counted as a reroute; with every
        spine path severed the transit is lost.
        """
        up: Link = ("up", src)
        down: Link = ("down", dst)
        if up in self._down_links or down in self._down_links:
            raise FabricLoss(src, dst)
        leaf_src = int(self._leaf_of[src])
        leaf_dst = int(self._leaf_of[dst])
        if leaf_src == leaf_dst:
            return (up, down), 1
        preferred = self.ecmp_spine(src, dst)
        for offset in range(self.num_spines):
            spine = (preferred + offset) % self.num_spines
            uplink: Link = ("uplink", leaf_src, spine)
            downlink: Link = ("downlink", spine, leaf_dst)
            if uplink in self._down_links or downlink in self._down_links:
                continue
            if offset:
                self.stats.reroutes += 1
            return (up, uplink, downlink, down), 3
        raise FabricLoss(src, dst)

    def _traverse(
        self, path: Tuple[Link, ...], hops: int, size: int
    ) -> float:
        """The base's accounting plus per-window capacity queueing: a
        crossing beyond its link's capacity pays ``queue_penalty_us`` and
        counts as ``capacity_exceeded``.  Latency thus depends on delivery
        order, which is why ``deliver_batch`` stays per-packet here."""
        self._window_offered += 1
        if self._window_offered > self.window:
            self._window_counts.clear()
            self._pending_ingress[:] = 0.0
            self._window_offered = 1
        latency = super()._traverse(path, hops, size)
        for link in path:
            occupancy = self._window_counts.get(link, 0) + 1
            self._window_counts[link] = occupancy
            if occupancy > self.link_capacity(link):
                self.stats.capacity_exceeded += 1
                latency += self.queue_penalty_us
        return latency

    # ------------------------------------------------------------------
    # Ingress steering (utilization-aware policy) and accounting
    # ------------------------------------------------------------------

    def ingress_costs(self) -> np.ndarray:
        """Per-node cost of accepting the next external packet.

        A packet ingressing at node ``i`` crosses ``i``'s edge uplink
        and, when its handler sits on another leaf, one of ``leaf(i)``'s
        spine trunks — so the cost is the current-window occupancy of
        those links, each normalised by its capacity, plus the projected
        load of picks already steered this window.  Leaves whose nodes
        mostly *receive* (a hot handler) show cool uplinks, so the
        argmin policy steers ingress toward them and skewed traffic
        terminates intra-leaf instead of crossing the spine.  A node
        whose edge uplink is down costs ``inf``.
        """
        edge = self._pending_ingress.copy()
        trunk = np.bincount(
            self._leaf_of, weights=self._pending_ingress,
            minlength=self.num_leaves,
        )
        for (kind, where, *_), count in self._window_counts.items():
            if kind == "up":
                edge[where] += count
            elif kind == "uplink":
                trunk[where] += count
        uplink_budget = float(self.num_spines * self.uplink_capacity)
        costs = edge / self.edge_capacity + trunk[self._leaf_of] / uplink_budget
        for kind, where, *_ in self._down_links:
            if kind == "up":
                costs[where] = np.inf
        return costs

    def verify_accounting(self) -> bool:
        """Check the fat-tree's conservation invariants.

        A path of ``h`` switch hops spans ``h + 1`` links, so summed over
        every recorded packet ``link_crossings == switch_hops + packets``;
        and the per-link map must sum to the crossing total.  This is the
        chaos drill's "no capacity accounting leaks" gate.
        """
        s = self.stats
        return (
            sum(s.per_link_packets.values()) == s.link_crossings
            and s.link_crossings == s.switch_hops + s.packets
        )

    def reset_stats(self) -> None:
        """Zero the accounting and the window (fault state is kept)."""
        super().reset_stats()
        self._window_counts.clear()
        self._window_offered = 0

    def __repr__(self) -> str:
        return (
            f"FatTreeFabric(nodes={self.num_nodes}, "
            f"leaves={self.num_leaves}, spines={self.num_spines}, "
            f"oversubscription={self.oversubscription:g})"
        )
