"""The cluster interconnect (paper §3.1): one fabric model, two topologies.

ScaleBricks connects nodes through a hardware switch: one transit between
any pair of nodes, internal bandwidth requirement equal to the external
bandwidth, and latency set by the switch rather than by an indirect server.
The RouteBricks alternative is a server mesh with Valiant load balancing,
which the cluster routes as two transits via :meth:`Fabric.pick_indirect`.
This package models the interconnect at the level the reproduction needs:
delivery between nodes with per-link byte/packet accounting, so
benchmarks can verify the 2R-vs-R internal bandwidth claim and the hop
counts.

:class:`Fabric` owns everything a topology does not decide — the
fault-hook verdicts, batch validation, VLB indirect selection, link-fault
bookkeeping, ingress feedback and the stats — and a topology supplies
only its ``backend`` name, :meth:`Fabric._route` (the link path and
switch hop count of one transit), :meth:`Fabric.links`,
:meth:`Fabric.pick_fault_link`, :meth:`Fabric.ingress_costs` and
:meth:`Fabric.verify_accounting`.  Two are registered: the flat crossbar
(:class:`repro.fabric.crossbar.SwitchFabric`, §3.1's ideal) and a
two-layer leaf/spine fat-tree with per-link capacities and deterministic
ECMP (:class:`repro.fabric.fattree.FatTreeFabric`, after *Automated
Design of Two-Layer Fat-Tree Networks*, arXiv:1301.6179).

The selection mechanism is :mod:`repro.core.separator`'s
(:class:`repro.utils.backends.BackendRegistry`): a process-wide default
that the CLI's ``--fabric`` flag and the ``REPRO_FABRIC_BACKEND``
environment variable select, explicit ``fabric=`` / ``fabric_backend=``
arguments on ``Cluster.build`` overriding it per call, and lazy backend
imports so crossbar-only workloads never pay for the fat-tree module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Set, Tuple

import numpy as np

from repro.utils.backends import BackendRegistry

#: Verdicts a fault hook may return for one send: a fabric transit here,
#: a §4.5 delta ship in :mod:`repro.cluster.owner`, a runtime transport
#: send in :mod:`repro.chaos.transport`.  The one definition of the
#: vocabulary; every other module imports these names.
DELIVER = "deliver"
DROP = "drop"
DUPLICATE = "duplicate"
DELAY = "delay"

#: Latency multiplier applied to a transit the fault hook delays (models
#: the queueing that reorders a packet behind later arrivals), and the
#: default slow-down of a degraded link.
DELAY_FACTOR = 4.0

FaultHook = Callable[[int, int, int], str]

#: A directed link identifier.  The crossbar's links are node pairs
#: ``(src, dst)``; the fat-tree uses tagged tuples such as
#: ``("uplink", leaf, spine)``.  Links are only compared/hashed, never
#: interpreted, by the shared accounting.
Link = Tuple

#: A transit's route: the links it crosses, in order, and its switch hops.
Route = Tuple[Tuple[Link, ...], int]

#: Names of the available fabric backends.
BACKENDS = ("crossbar", "fattree")

#: Environment variable consulted for the initial default backend.
BACKEND_ENV = "REPRO_FABRIC_BACKEND"


@dataclass
class FabricStats:
    """Aggregate interconnect accounting (shared by every topology).

    ``packets``/``bytes`` count delivered transits end to end (a
    duplicated transit twice); ``switch_hops`` counts switch traversals
    and ``link_crossings`` counts directed-link traversals, so multi-stage
    fabrics can report path length without changing the per-packet
    fields.  ``degraded`` counts crossings of a degraded link: once per
    degraded link on the path, per copy.
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

    def max_link_packets(self) -> int:
        """Busiest directed link (fabric hot-spot metric)."""
        return max(self.per_link_packets.values(), default=0)


class Fabric:
    """An interconnect of ``num_nodes`` cluster nodes; topologies subclass it.

    Args:
        num_nodes: attached node count.
        transit_latency_us: one switch traversal (Mellanox-class hardware,
            §3.1's cost argument).
        seed: randomness for VLB indirect-node selection (delivery never
            consumes it).
    """

    #: Registry name of the topology (see :data:`BACKENDS`).
    backend: str

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
    # What a topology supplies
    # ------------------------------------------------------------------

    def _route(self, src: int, dst: int) -> Optional[Route]:
        """The link path and switch hop count of one ``src != dst`` transit.

        Applies the topology's link faults: ``None`` when no live path
        exists (the base counts the loss).
        """
        raise NotImplementedError

    def links(self) -> Tuple[Link, ...]:
        """Every directed link, in deterministic order."""
        raise NotImplementedError

    def pick_fault_link(self, rng: np.random.Generator) -> Optional[Link]:
        """A seeded victim link for link-level chaos (``None`` if none)."""
        raise NotImplementedError

    def ingress_costs(self) -> np.ndarray:
        """Per-node cost of accepting the next external packet (``inf``
        for a node that can reach no peer)."""
        raise NotImplementedError

    def verify_accounting(self) -> bool:
        """The topology's conservation invariants over :attr:`stats` —
        the chaos drill's "no accounting leaks" gate."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------

    def _traverse(
        self, path: Tuple[Link, ...], hops: int, size: int
    ) -> float:
        """Account one packet crossing ``path``; returns its latency:
        ``hops`` switch transits, each degraded link's slow-down on top."""
        self.stats.packets += 1
        self.stats.bytes += size
        self.stats.switch_hops += hops
        latency = hops * self.transit_latency_us
        for link in path:
            self.stats.record_link(link)
            factor = self._degraded_links.get(link)
            if factor is not None:
                self.stats.degraded += 1
                latency += self.transit_latency_us * (factor - 1.0)
        return latency

    def deliver_batch(
        self,
        srcs: np.ndarray,
        dsts: np.ndarray,
        size: int = 64,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Move many packets, in order; returns ``(latencies, lost)``.

        A packet to its own node is free: no transit and no verdict.  Each
        remote transit takes one :attr:`fault_hook` verdict, in batch
        order, then the topology's route: a ``DROP``, or no live path,
        loses it (``lost`` set, latency 0, ``stats.dropped`` counted; a
        loss is never raised).  A duplicated transit crosses its path
        twice (same arrival latency for the first copy), a delayed one
        arrives :data:`DELAY_FACTOR` times later.  Mismatched shapes or an
        unattached node are a ``ValueError`` before anything moves.
        """
        srcs, dsts = self._check_batch(srcs, dsts)
        latencies = np.zeros(srcs.size, dtype=np.float64)
        lost = np.zeros(srcs.size, dtype=bool)
        hook = self.fault_hook
        remote = np.flatnonzero(srcs != dsts)
        for j, src, dst in zip(
            remote.tolist(), srcs[remote].tolist(), dsts[remote].tolist()
        ):
            verdict = DELIVER if hook is None else hook(src, dst, size)
            route = None if verdict == DROP else self._route(src, dst)
            if route is None:
                self.stats.dropped += 1
                lost[j] = True
                continue
            path, hops = route
            latency = self._traverse(path, hops, size)
            if verdict == DUPLICATE:
                self._traverse(path, hops, size)
                self.stats.duplicated += 1
            elif verdict == DELAY:
                self.stats.delayed += 1
                latency *= DELAY_FACTOR
            latencies[j] = latency
        return latencies, lost

    def pick_indirect(self, srcs, dsts) -> np.ndarray:
        """VLB indirect nodes for ``src != dst`` pairs, each distinct from
        its source and destination: one seeded draw per pair, in order.

        With fewer than three nodes there is no usable indirect node and
        each packet goes direct (degenerate VLB: its ``dst``).
        """
        srcs, dsts = self._check_batch(srcs, dsts)
        if self.num_nodes < 3:
            return dsts.copy()
        # The draw-th node of the ascending candidates, skipping both ends.
        picks = self._rng.integers(self.num_nodes - 2, size=srcs.size)
        picks += picks >= np.minimum(srcs, dsts)
        picks += picks >= np.maximum(srcs, dsts)
        return picks

    # ------------------------------------------------------------------
    # Link-level faults (chaos: LINK_DOWN / LINK_DEGRADED / LINK_HEAL)
    # ------------------------------------------------------------------

    def fail_link(self, link: Link) -> None:
        """Sever one directed link: :meth:`_route` decides whether a
        transit over it reroutes or is lost in flight."""
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
    # Ingress feedback and accounting
    # ------------------------------------------------------------------

    def note_ingress(self, node: int) -> None:
        """Project one ingress pick onto ``node`` (policy feedback)."""
        self._check(node)
        self._pending_ingress[node] += 1.0

    def reset_stats(self) -> None:
        """Zero the accounting (fault state is kept; see heal_links)."""
        self.stats = FabricStats()
        self._pending_ingress[:] = 0.0

    def _check(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} not attached to this fabric")

    def _check_batch(
        self, srcs: np.ndarray, dsts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``srcs``/``dsts`` as int64 columns, or a ``ValueError`` naming
        the first unattached source (else destination) node."""
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        if srcs.shape != dsts.shape:
            raise ValueError("srcs and dsts must have equal length")
        # Read as unsigned, a negative id is a huge one: one bound test
        # per column covers both ends.
        if srcs.size and max(
            np.maximum.reduce(srcs.view(np.uint64)),
            np.maximum.reduce(dsts.view(np.uint64)),
        ) >= self.num_nodes:
            for node in np.concatenate((srcs, dsts)).tolist():
                self._check(node)
        return srcs, dsts


_registry = BackendRegistry("fabric", BACKENDS, BACKEND_ENV)
default_backend = _registry.default_backend
set_default_backend = _registry.set_default_backend
resolve_backend = _registry.resolve_backend
backend_of = _registry.backend_of


def create(
    num_nodes: int,
    backend: Optional[str] = None,
    transit_latency_us: float = 0.6,
    seed: int = 0,
    **backend_options,
) -> Fabric:
    """Build a fabric on the chosen backend (front door for both).

    ``backend_options`` are passed through to the backend constructor —
    the fat-tree accepts ``num_leaves``, ``num_spines``,
    ``oversubscription``, ``window`` and friends; the crossbar accepts
    none.
    """
    if resolve_backend(backend) == "fattree":
        from repro.fabric.fattree import FatTreeFabric as topology
    else:
        from repro.fabric.crossbar import SwitchFabric as topology

        if backend_options:
            unexpected = ", ".join(sorted(backend_options))
            raise TypeError(
                f"crossbar fabric accepts no topology options "
                f"(got {unexpected})"
            )
    return topology(
        num_nodes,
        transit_latency_us=transit_latency_us,
        seed=seed,
        **backend_options,
    )


__all__ = [
    "BACKENDS",
    "BACKEND_ENV",
    "DELAY",
    "DELAY_FACTOR",
    "DELIVER",
    "DROP",
    "DUPLICATE",
    "Fabric",
    "FabricStats",
    "Link",
    "backend_of",
    "create",
    "default_backend",
    "resolve_backend",
    "set_default_backend",
]
