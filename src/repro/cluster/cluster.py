"""The cluster: packet routing under each FIB architecture (paper §3).

``Cluster.build`` populates every node's tables for the chosen architecture
from one authoritative flow list, and ``route_batch`` walks a batch of keys
through the exact path Figure 2 draws — including the failure modes:
hash-partition lookups rejecting unknown keys at the indirect node,
ScaleBricks delivering unknown keys to an arbitrary node whose exact FIB
then drops them, a transit lost in the fabric.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import make_dataclass
from itertools import repeat
from typing import (
    Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro import fabric as fabric_registry
from repro.cluster.architectures import Architecture
from repro.cluster.node import ClusterNode
from repro.cluster.rib import RoutingInformationBase
from repro.core import hashfamily, twolevel
from repro.core import separator as separator_registry
from repro.core.separator import SeparatorParams
from repro.core.setsep import Key
from repro.gpt.gpt import GlobalPartitionTable
from repro.hashtables.cuckoo import CuckooHashTable
from repro.hashtables.interface import FibTable
from repro.obs.metrics import MetricsRegistry, resolve_registry

FibFactory = Callable[[int], FibTable]

#: Ingress selection policies for :meth:`Cluster.pick_ingress`.
INGRESS_POLICIES = ("random", "roundrobin", "utilization")

#: Why a routed packet ended where it did (``RouteResult.reason``), by
#: the code :meth:`Cluster.route_batch` carries per packet.
_REASONS = (
    "handled", "unknown_key", "unknown_at_ingress",
    "unknown_at_lookup_node", "fabric_loss",
)
(
    _HANDLED, _UNKNOWN_KEY, _UNKNOWN_AT_INGRESS, _UNKNOWN_AT_LOOKUP_NODE,
    _FABRIC_LOSS,
) = range(len(_REASONS))


class RouteResult(NamedTuple):
    """Outcome of routing one key through the cluster."""

    key: int
    ingress: int
    path: Tuple[int, ...]
    internal_hops: int
    latency_us: float
    handled_by: Optional[int]
    value: Optional[int]
    dropped: bool
    reason: str

    @property
    def delivered(self) -> bool:
        """Whether the packet reached a node that accepted it."""
        return not self.dropped

    @classmethod
    def drop(cls, key: int, ingress: int, reason: str) -> "RouteResult":
        """A packet dropped before it entered the cluster."""
        return tuple.__new__(
            cls, (key, ingress, (), 0, 0.0, None, None, True, reason)
        )

    def dropped_as(self, reason: str) -> "RouteResult":
        """This routed packet, refused afterwards (a dead node on its
        path): same route, no handler, no value."""
        return tuple.__new__(RouteResult, (
            self.key, self.ingress, self.path, self.internal_hops,
            self.latency_us, None, None, True, reason,
        ))


# ``dataclasses.replace(result, ...)`` works on a result too (the e2e
# oracle's self-test flips one outcome with it): it reads these fields
# and calls the keyword constructor.
RouteResult.__dataclass_fields__ = make_dataclass(  # type: ignore[attr-defined]
    "RouteResult", RouteResult._fields
).__dataclass_fields__


class _PathMemo(dict):
    """Each path a cluster's packets took, by its code ``((hops * n +
    ingress) * (n + 1) + middle + 1) * n + end`` over ``n`` nodes
    (``middle`` is -1 on a path without a detour): built on first sight,
    so it holds only the paths seen, at most ``n + n**2 + n**3``."""

    __slots__ = ("nodes",)

    def __init__(self, nodes: int) -> None:
        super().__init__()
        self.nodes = nodes

    def __missing__(self, code: int) -> Tuple[int, ...]:
        n = self.nodes
        rest, end = divmod(code, n)
        rest, middle = divmod(rest, n + 1)
        hops, ingress = divmod(rest, n)
        path = self[code] = (
            (ingress,) if not hops else (ingress, end) if hops == 1
            else (ingress, middle - 1, end)
        )
        return path


class RouteBatchResult(SequenceABC):
    """Typed outcome of :meth:`Cluster.route_batch`.

    Behaves as a sequence of :class:`RouteResult` (so per-packet code and
    older call sites keep working) while exposing the batch as NumPy
    columns for vectorised analysis.  A packet's path is its ingress
    node, then its indirect node if it has one, then the node it ends at
    when that is another hop.

    Attributes:
        results: the per-packet :class:`RouteResult` tuple.
        ingress_nodes: node each packet entered at.
        indirect_nodes: the node between the ends of a two-hop path
            (hash-partition lookup detour / VLB bounce), ``-1`` if none.
        handler_nodes: node each packet's path ends at — under
            ScaleBricks the GPT's answer, set even when that node's FIB
            then rejects the key; for a packet lost in the fabric, the
            node that sent the lost transit.
        egress_nodes: node that accepted each packet (``-1`` if dropped).
        hop_counts: internal fabric transits per packet.
        indirections: whether the packet crossed an intermediate node.
        dropped: per-packet drop flag.
        lost: packets lost in the fabric (reason ``fabric_loss``).
        values: application value per packet (``-1`` if dropped).
        latencies_us: modelled fabric latency per packet.
        handler_split: the accepted packets split by the node that
            accepted them, as the handler stage split them: ``(order,
            runs)``, ``order`` the packets' rows sorted by node (batch
            order within one) and ``runs`` per node present ``(node,
            start, stop)`` — :func:`node_runs` of ``egress_nodes`` over
            the accepted packets, without a second sort.
    """

    __slots__ = (
        "results", "ingress_nodes", "indirect_nodes", "handler_nodes",
        "egress_nodes", "hop_counts", "indirections", "dropped", "lost",
        "values", "latencies_us", "handler_split",
    )

    def __init__(
        self,
        results: Sequence[RouteResult],
        ingress_nodes: np.ndarray,
        indirect_nodes: np.ndarray,
        handler_nodes: np.ndarray,
        egress_nodes: np.ndarray,
        hop_counts: np.ndarray,
        dropped: np.ndarray,
        lost: np.ndarray,
        values: np.ndarray,
        latencies_us: np.ndarray,
        handler_split: Tuple[np.ndarray, list],
    ) -> None:
        self.results: Tuple[RouteResult, ...] = tuple(results)
        self.ingress_nodes = ingress_nodes
        self.indirect_nodes = indirect_nodes
        self.handler_nodes = handler_nodes
        self.egress_nodes = egress_nodes
        self.hop_counts = hop_counts
        self.indirections = hop_counts >= 2
        self.dropped = dropped
        self.lost = lost
        self.values = values
        self.latencies_us = latencies_us
        self.handler_split = handler_split

    def touches(self, nodes) -> np.ndarray:
        """Mask of packets whose path crosses any of ``nodes``."""
        nodes = list(nodes)
        return (
            np.isin(self.ingress_nodes, nodes)
            | np.isin(self.indirect_nodes, nodes)
            | np.isin(self.handler_nodes, nodes)
        )

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index):
        if isinstance(index, slice):
            egress = self.egress_nodes[index]
            accepted = (egress >= 0).nonzero()[0]
            order, runs = node_runs(
                egress[accepted], int(np.maximum.reduce(egress, initial=-1)) + 1
            )
            return RouteBatchResult(
                self.results[index], self.ingress_nodes[index],
                self.indirect_nodes[index], self.handler_nodes[index],
                egress, self.hop_counts[index], self.dropped[index],
                self.lost[index], self.values[index],
                self.latencies_us[index], (accepted[order], runs),
            )
        return self.results[index]

    @property
    def delivered_count(self) -> int:
        """Packets that reached a node that accepted them."""
        return int((~self.dropped).sum())

    @property
    def dropped_count(self) -> int:
        """Packets refused on their path or lost in the fabric."""
        return int(self.dropped.sum())

    @property
    def mean_hops(self) -> float:
        """Average internal fabric transits per packet."""
        if not len(self.results):
            return 0.0
        return float(self.hop_counts.mean())

    def __repr__(self) -> str:
        return (
            f"RouteBatchResult(n={len(self.results)}, "
            f"delivered={self.delivered_count}, "
            f"mean_hops={self.mean_hops:.2f})"
        )


def node_runs(ids: np.ndarray, num_nodes: int):
    """Split a batch by a node-id column with one stable sort.

    Returns the sort ``order`` and, per node present, ``(node, start,
    stop)``: ``order[start:stop]`` are that node's rows in batch order.
    The cluster's routing splits this way, and
    :attr:`RouteBatchResult.handler_split` hands the last split on.
    """
    order = ids.argsort(kind="stable")
    stops = np.bincount(ids, minlength=num_nodes).cumsum().tolist()
    return order, [
        (node, start, stop)
        for node, (start, stop) in enumerate(zip([0] + stops, stops))
        if start < stop
    ]


def kept_runs(order: np.ndarray, runs, keep: np.ndarray):
    """The split ``(order, runs)`` of :func:`node_runs` restricted to the
    rows whose ``keep`` is set (``keep`` aligned with ``order``): each
    node's kept rows stay in batch order, and a node left with none goes."""
    kept = [0] + keep.cumsum().tolist()  # kept rows before each position
    return order[keep], [
        (node, kept[start], kept[stop])
        for node, start, stop in runs
        if kept[start] < kept[stop]
    ]


class Cluster:
    """A switch- (or mesh-) connected cluster of forwarding nodes."""

    def __init__(
        self,
        architecture: Architecture,
        nodes: List[ClusterNode],
        fabric: fabric_registry.Fabric,
        rib: RoutingInformationBase,
        gpt_params: Optional[SeparatorParams] = None,
        registry: Optional[MetricsRegistry] = None,
        ingress_policy: str = "random",
        fib_factory: FibFactory = CuckooHashTable,
    ) -> None:
        if ingress_policy not in INGRESS_POLICIES:
            raise ValueError(
                f"unknown ingress policy {ingress_policy!r}; "
                f"expected one of {', '.join(INGRESS_POLICIES)}"
            )
        self.architecture = architecture
        self.nodes = nodes
        self.fabric = fabric
        self.rib = rib
        self.gpt_params = gpt_params
        self.ingress_policy = ingress_policy
        #: What built the nodes' FIBs; a resize builds the new ones with it.
        self.fib_factory = fib_factory
        self._ingress_rr = 0
        self._rng = np.random.default_rng(0xEC)
        self._paths = _PathMemo(len(nodes))
        self.bind_registry(registry)

    def bind_registry(self, registry: Optional[MetricsRegistry]) -> None:
        """Attach a metrics registry to this cluster and its GPT replicas.

        Metric names carry the architecture (``cluster.scalebricks.*``) so
        one registry can observe several clusters side by side.  ``None``
        selects the shared null registry (zero-cost instrumentation).
        """
        self.registry = resolve_registry(registry)
        prefix = f"cluster.{self.architecture.value}"
        self._m_routed = self.registry.counter(
            f"{prefix}.routed", "packets offered to the PFE"
        )
        self._m_delivered = self.registry.counter(
            f"{prefix}.delivered", "packets accepted by their handler"
        )
        self._m_dropped = self.registry.counter(
            f"{prefix}.dropped", "packets rejected (unknown key, ACL, ...)"
        )
        self._m_hops = self.registry.histogram(
            f"{prefix}.hops", buckets=(0, 1, 2, 3, 4),
            description="internal fabric transits per packet",
        )
        self._m_indirections = self.registry.counter(
            f"{prefix}.indirections",
            "packets detoured through an intermediate node",
        )
        self._g_fabric_packets = self.registry.gauge(
            "fabric.packets", "packets delivered by the fabric"
        )
        self._g_fabric_bytes = self.registry.gauge(
            "fabric.bytes", "bytes delivered by the fabric"
        )
        self._g_fabric_dropped = self.registry.gauge(
            "fabric.dropped", "packets lost in the fabric"
        )
        self._g_fabric_max_link = self.registry.gauge(
            "fabric.max_link", "packets over the busiest fabric link"
        )
        self._g_fabric_hops = self.registry.gauge(
            "fabric.switch_hops", "switch traversals across all packets"
        )
        self._g_fabric_reroutes = self.registry.gauge(
            "fabric.reroutes", "transits forced off their ECMP path"
        )
        self._g_fabric_capacity_exceeded = self.registry.gauge(
            "fabric.capacity_exceeded",
            "link crossings beyond per-window capacity",
        )
        self.rib.bind_registry(self.registry)
        for node in self.nodes:
            if node.gpt is not None:
                node.gpt.setsep.bind_registry(self.registry)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        architecture: Architecture,
        num_nodes: int,
        keys: Union[Sequence[Key], np.ndarray],
        handling_nodes: Sequence[int],
        values: Sequence[int],
        fib_factory: Optional[FibFactory] = None,
        gpt_params: Optional[SeparatorParams] = None,
        fabric: Optional[fabric_registry.Fabric] = None,
        registry: Optional[MetricsRegistry] = None,
        backend: Optional[str] = None,
        fabric_backend: Optional[str] = None,
        ingress_policy: str = "random",
    ) -> "Cluster":
        """Stand up a cluster pre-populated with the given flows.

        Args:
            architecture: one of the Figure 2 designs.
            num_nodes: cluster size.
            keys: flow keys.
            handling_nodes: each key's handling node (assigned externally —
                by the EPC controller in the driving application; §2's
                "deterministic partitioning" constraint).
            values: application value per key (e.g. the downstream TEID).
            fib_factory: ``capacity -> FibTable``; defaults to the extended
                cuckoo table.
            gpt_params: separator configuration for the GPT (ScaleBricks);
                converted if it doesn't match the selected backend.
            fabric: interconnect; defaults to a new fabric on
                ``fabric_backend``.
            registry: metrics registry shared by the cluster, its GPT
                replicas and the update engine (default: disabled).
            backend: separator backend for the GPT; ``None`` uses the
                process default (:mod:`repro.core.separator`).
            fabric_backend: fabric topology backend ("crossbar",
                "fattree"); ``None`` uses the process default
                (:mod:`repro.fabric`).  Mutually exclusive with an
                explicit ``fabric``.
            ingress_policy: how :meth:`pick_ingress` selects the
                receiving node — "random" (§2's any-node ECMP spray),
                "roundrobin", or "utilization" (steers toward the node
                whose fabric links are coolest).
        """
        keys_arr = hashfamily.canonical_keys(keys)
        nodes_arr = np.asarray(handling_nodes, dtype=np.int64)
        values_list = [int(value) for value in values]
        if not (len(keys_arr) == len(nodes_arr) == len(values_list)):
            raise ValueError("keys, handling_nodes, values lengths differ")
        if len(nodes_arr) and (nodes_arr.min() < 0 or nodes_arr.max() >= num_nodes):
            raise ValueError("handling node out of range")
        if fib_factory is None:
            fib_factory = CuckooHashTable
        if fabric is not None and fabric_backend is not None:
            raise ValueError(
                "pass either an explicit fabric or a fabric_backend name, "
                "not both"
            )
        if fabric is None:
            fabric = fabric_registry.create(num_nodes, fabric_backend)

        # The GPT (and the RIB's block partitioning) exist for ScaleBricks;
        # the RIB itself is kept for every architecture since updates need
        # an authoritative source.
        gpt: Optional[GlobalPartitionTable] = None
        if architecture.uses_gpt:
            backend = separator_registry.resolve_backend(backend)
            if gpt_params is None:
                gpt_params = separator_registry.params_for_cluster(
                    num_nodes, backend
                )
            else:
                gpt_params = separator_registry.coerce_params(
                    gpt_params, backend
                )
            gpt, _ = GlobalPartitionTable.build(
                keys_arr, nodes_arr.tolist(), num_nodes, gpt_params,
                backend=backend,
            )
            num_blocks = gpt.setsep.num_blocks
        else:
            num_blocks = twolevel.num_blocks_for(len(keys_arr))

        rib = RoutingInformationBase(num_nodes, num_blocks)
        rib.insert_many(keys_arr, nodes_arr, values_list)

        cluster_nodes: List[ClusterNode] = []
        total = max(1, len(keys_arr))
        for node_id in range(num_nodes):
            if architecture.replicates_full_fib:
                capacity = total
            elif architecture is Architecture.HASH_PARTITION:
                # Each entry lives at its lookup node *and* its handling
                # node, so a slice sees up to 2/N of the population.
                capacity = max(16, int(total / num_nodes * 3.0))
            else:
                # Partitioned slices get head-room for imbalance and for
                # post-build inserts via the update engine.
                capacity = max(16, int(total / num_nodes * 2.0))
            node_gpt = None
            if gpt is not None:
                node_gpt = gpt if node_id == 0 else gpt.copy()
            cluster_nodes.append(
                ClusterNode(
                    node_id,
                    architecture,
                    fib_factory(capacity),
                    gpt=node_gpt,
                )
            )

        cluster = cls(
            architecture, cluster_nodes, fabric, rib, gpt_params,
            registry=registry, ingress_policy=ingress_policy,
            fib_factory=fib_factory,
        )
        cluster._install_all(keys_arr, nodes_arr, values_list)
        return cluster

    def _install_all(
        self, keys: np.ndarray, nodes: np.ndarray, values: List[int]
    ) -> None:
        """Place every flow's FIB entries by the architecture: each node
        takes its rows in flow order, in one bulk insert."""
        arch = self.architecture
        if arch is Architecture.HASH_PARTITION:
            lookup_nodes = self.lookup_nodes_batch(keys)
        for cluster_node in self.nodes:
            if arch.replicates_full_fib:
                rows = np.arange(len(keys))
            elif arch is Architecture.HASH_PARTITION:
                # At its lookup node, and at its handling node (which
                # owns the state) when that is another.
                rows = np.flatnonzero(
                    (lookup_nodes == cluster_node.node_id)
                    | (nodes == cluster_node.node_id)
                )
            else:  # ScaleBricks: only at its handling node.
                rows = np.flatnonzero(nodes == cluster_node.node_id)
            cluster_node.install_routes(
                keys[rows],
                nodes[rows].tolist(),
                [values[row] for row in rows.tolist()],
            )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def lookup_node_of(self, key: Key) -> int:
        """Hash-partitioning's lookup node for a key."""
        return int(self.lookup_nodes_batch([key])[0])

    def lookup_nodes_batch(
        self, keys: Union[Sequence[Key], np.ndarray]
    ) -> np.ndarray:
        """Vectorised :meth:`lookup_node_of` (hash-partition lookup nodes).

        Part of the unified batch query surface: like
        :meth:`repro.core.setsep.SetSep.lookup_batch` and
        :meth:`repro.gpt.gpt.GlobalPartitionTable.lookup_batch` it accepts
        any mix of the canonical :data:`repro.core.hashfamily.Key` types
        and returns one NumPy array.
        """
        arr = hashfamily.canonical_keys(keys)
        return hashfamily.reduce_range(
            hashfamily.bucket_hash(arr), len(self.nodes)
        ).astype(np.int64)

    def pick_ingress(self) -> int:
        """Ingress selection under the configured policy.

        "random" is §2's any-node ECMP spray; "roundrobin" cycles the
        nodes; "utilization" asks the fabric for per-node ingress costs
        (current-window link occupancy normalised by capacity) and takes
        the coolest node, feeding the pick back so a burst of picks
        spreads instead of dog-piling one node.
        """
        if self.ingress_policy == "roundrobin":
            node = self._ingress_rr
            self._ingress_rr = (node + 1) % len(self.nodes)
            return node
        if self.ingress_policy == "utilization":
            node = int(np.argmin(self.fabric.ingress_costs()))
            self.fabric.note_ingress(node)
            return node
        return int(self._rng.integers(len(self.nodes)))

    def pick_ingress_batch(self, count: int) -> np.ndarray:
        """Draw ``count`` ingress nodes at once.

        Under the "random" policy this consumes the generator stream
        identically to ``count`` scalar :meth:`pick_ingress` calls (PCG64
        guarantees the equivalence), so batched and per-packet ingest
        stay trajectory-identical; the deterministic policies delegate to
        the scalar picker.
        """
        if self.ingress_policy != "random":
            return np.fromiter(
                (self.pick_ingress() for _ in range(count)),
                dtype=np.int64, count=count,
            )
        return self._rng.integers(len(self.nodes), size=count)

    def route(self, key: Key, ingress: Optional[int] = None) -> RouteResult:
        """Walk one packet from its ingress to its handling node: a batch
        of one."""
        return self.route_batch(
            [key], None if ingress is None else [ingress]
        )[0]

    def route_batch(
        self,
        keys: Union[Sequence[Key], np.ndarray],
        ingress: Optional[Sequence[int]] = None,
    ) -> RouteBatchResult:
        """Route many keys along the path Figure 2 draws for the
        architecture; returns a typed :class:`RouteBatchResult`.

        Every architecture is the same stages over carried columns:

        1. an ingress lookup — the ingress GPT replica (ScaleBricks), the
           ingress FIB (full duplication and VLB; an unknown key drops
           there, ``unknown_at_ingress``), none (hash partitioning);
        2. a middle leg — to the key's lookup node, whose FIB slice names
           the handler (hash partitioning; ``unknown_at_lookup_node``),
           or to a seeded indirect node for each packet not already at
           its handler (VLB);
        3. the transit to the handler;
        4. :meth:`ClusterNode.handle_batch` there (``unknown_key``).

        Each lookup stage splits the batch by node with one stable sort
        and hands each table a contiguous slice of the sorted batch; the
        keys are hashed once for every table on the path (ScaleBricks:
        separator and FIB columns in one stacked pass).  Packets at
        different nodes consult their own replicas, which may differ.
        Each leg is one :meth:`~repro.fabric.Fabric.deliver_batch` (a leg
        that carries every packet runs on the whole columns): a transit
        lost there ends its packet as ``fabric_loss``, which the fabric
        counts and the ``cluster.*`` counters do not.  An ``ingress``
        that is not one node id per key is a ``ValueError`` before any
        counter, random draw or fabric call.
        """
        keys_arr = hashfamily.canonical_keys(keys)
        if ingress is None:
            ingress_arr = self.pick_ingress_batch(len(keys_arr))
        else:
            ingress_arr = self._ingress_column(ingress, len(keys_arr))
        n = keys_arr.size
        arch = self.architecture
        hp = arch is Architecture.HASH_PARTITION
        vlb = arch is Architecture.ROUTEBRICKS_VLB
        hashed = (
            hashfamily.HashedKeys.both(keys_arr) if arch.uses_gpt
            else hashfamily.HashedKeys(keys_arr)
        )
        # Per packet: the node it is at, its transits so far, its reason
        # (set where it stops) and the node its detour crossed.  (Array
        # methods, not ``np.full``: each wrapper is Python calls per batch.)
        at = ingress_arr.copy()
        hops = np.zeros(n, dtype=np.int64)
        latencies = np.zeros(n, dtype=np.float64)
        reasons = np.empty(n, dtype=np.int64)
        reasons.fill(_UNKNOWN_KEY)
        middle = np.empty(n, dtype=np.int64)
        middle.fill(-1)

        def leg(rows, dsts: np.ndarray, credit: np.ndarray) -> np.ndarray:
            """Move packets ``rows`` (``None``: every packet, on the whole
            columns) from where they are to ``dsts`` in one fabric call; a
            transit counts at its receiver and as forwarded at ``credit``.
            Returns the mask of the packets that arrived."""
            srcs = at if rows is None else at[rows]
            lat, lost = self.fabric.deliver_batch(srcs, dsts)
            moved = srcs != dsts
            moved &= ~lost
            for node, received, sent in zip(
                self.nodes,
                np.bincount(dsts[moved], minlength=len(self.nodes)).tolist(),
                np.bincount(credit[moved], minlength=len(self.nodes)).tolist(),
            ):
                node.counters.internal_rx += received
                node.counters.forwarded += sent
            if rows is None:
                np.add(latencies, lat, out=latencies)
                np.add(hops, moved, out=hops)
                at[moved] = dsts[moved]
                reasons[lost] = _FABRIC_LOSS
            else:
                latencies[rows] += lat
                hops[rows] += moved
                at[rows[moved]] = dsts[moved]
                reasons[rows[lost]] = _FABRIC_LOSS
            return ~lost

        rows = None  # every packet, until one stops
        if arch is Architecture.SCALEBRICKS:
            order, runs, batch = self._split(hashed, ingress_arr, "separator")
            targets_sorted = np.empty(n, dtype=np.int64)
            for node_id, start, stop in runs:
                node = self.nodes[node_id]
                node.counters.external_rx += stop - start
                node.counters.gpt_lookups += stop - start
                targets_sorted[start:stop] = node.gpt.lookup_batch(
                    batch[start:stop]
                )
            targets = np.empty(n, dtype=np.int64)
            targets[order] = targets_sorted
        else:
            for node, count in zip(self.nodes, np.bincount(
                ingress_arr, minlength=len(self.nodes)
            ).tolist()):
                node.counters.external_rx += count
            rows = np.arange(n)
            if hp:
                rows = rows[leg(None, self.lookup_nodes_batch(keys_arr),
                                ingress_arr)]
                middle[rows] = at[rows]
            found, targets, _ = self._at_nodes(
                hashed, rows, at[rows], ClusterNode.locate_batch
            )
            reasons[rows[~found]] = (
                _UNKNOWN_AT_LOOKUP_NODE if hp else _UNKNOWN_AT_INGRESS
            )
            rows, targets = rows[found], targets[found]
            if vlb:
                detour = targets != at[rows]
                bounced = rows[detour]
                indirect = self.fabric.pick_indirect(
                    at[bounced], targets[detour]
                )
                middle[bounced] = indirect
                # The indirect node counts as forwarding on arrival, the
                # ingress once the second transit lands.
                keep = ~detour
                keep[detour] = leg(bounced, indirect, indirect)
                rows, targets = rows[keep], targets[keep]
        credit = ingress_arr if vlb else at
        arrived = leg(rows, targets, credit if rows is None else credit[rows])
        if not np.logical_and.reduce(arrived):
            rows = arrived.nonzero()[0] if rows is None else rows[arrived]
            targets = targets[arrived]

        found_at, values_at, (order, runs) = self._at_nodes(
            hashed, rows, targets, ClusterNode.handle_batch
        )
        if rows is None:
            found, values = found_at, values_at
        else:
            found = np.zeros(n, dtype=bool)
            values = np.empty(n, dtype=np.int64)
            values.fill(-1)
            found[rows], values[rows] = found_at, values_at
        every_found = np.logical_and.reduce(found_at)
        if not every_found:
            order, runs = kept_runs(order, runs, found[order])
        reasons[found] = _HANDLED
        lost = reasons == _FABRIC_LOSS
        # A detour is a middle node only on a path that crossed it.
        indirect_nodes = middle
        if hp or vlb:
            indirect_nodes = np.where(hops == 2, middle, -1)

        # One result per packet, made in C: one map over the columns, the
        # path from the memo of paths seen, no Python call per packet.
        n_nodes = self._paths.nodes
        codes = (
            (hops * n_nodes + ingress_arr) * (n_nodes + 1) + indirect_nodes + 1
        ) * n_nodes + at
        dropped = ~found
        if every_found and (rows is None or rows.size == n):
            handled_by, found_values = at.tolist(), values.tolist()
        else:
            handled_by = np.where(found, at, None).tolist()
            found_values = np.where(found, values, None).tolist()
        results = map(tuple.__new__, repeat(RouteResult), zip(
            keys_arr.tolist(), ingress_arr.tolist(),
            map(self._paths.__getitem__, codes.tolist()), hops.tolist(),
            latencies.tolist(), handled_by, found_values, dropped.tolist(),
            map(_REASONS.__getitem__, reasons.tolist()),
        ))

        # A packet lost in flight is the fabric's to count.
        counted = hops[~lost] if np.logical_or.reduce(lost) else hops
        delivered = int(np.add.reduce(found))
        if counted.size:
            self._m_routed.inc(counted.size)
        if counted.size - delivered:
            self._m_dropped.inc(counted.size - delivered)
        if delivered:
            self._m_delivered.inc(delivered)
        self._m_hops.observe_many(counted)
        if hp or vlb:
            indirections = int(np.add.reduce(counted >= 2))
            if indirections:
                self._m_indirections.inc(indirections)
        return RouteBatchResult(
            results,
            ingress_nodes=ingress_arr,
            indirect_nodes=indirect_nodes,
            handler_nodes=at,
            egress_nodes=np.where(found, at, -1),
            hop_counts=hops,
            dropped=dropped,
            lost=lost,
            values=values,
            latencies_us=latencies,
            handler_split=(order, runs),
        )

    def _ingress_column(self, ingress, count: int) -> np.ndarray:
        """``ingress`` as an int64 column of ``count`` node ids."""
        column = np.asarray(ingress)
        if column.shape != (count,):
            raise ValueError(f"{count} keys, ingress of shape {column.shape}")
        if column.dtype.kind in "iu":
            ids = column.astype(np.int64)
            # Read as unsigned, a negative id is a huge one: one bound
            # test covers both ends.
            if not count or np.maximum.reduce(ids.view(np.uint64)) < len(
                self.nodes
            ):
                return ids
            bad = (column < 0) | (column >= len(self.nodes))
        else:  # a float is not truncated, None is not a default
            bad = np.array([
                type(v) is not int or not 0 <= v < len(self.nodes)
                for v in column.tolist()
            ], dtype=bool)
        if bad.any():
            j = int(bad.argmax())
            raise ValueError(f"ingress[{j}] = {column[j]!r} is not a node id")
        return column.astype(np.int64)

    def _split(self, hashed: hashfamily.HashedKeys, ids: np.ndarray,
               columns: str):
        """Split the batch by a node-id column with one stable sort:
        :func:`node_runs`' ``order`` and ``runs``, and the batch in that
        order, its ``columns`` hashed once, here, if ``hashed`` does not
        carry them (``batch[start:stop]`` is one node's slice)."""
        order, runs = node_runs(ids, len(self.nodes))
        batch = hashed[order]
        getattr(batch, columns)
        return order, runs, batch

    def _at_nodes(self, hashed, rows, ids, stage):
        """``stage(node, batch) -> (found, column)`` at each node of
        ``ids`` over its packets of ``rows`` (``None``: every packet; one
        FIB-hashed slice per node).  Returns ``found`` and the column,
        aligned with ``rows``, and the split by node: the batch rows in
        node order, and per node present ``(node, start, stop)``."""
        order, runs, batch = self._split(
            hashed if rows is None else hashed[rows], ids, "fib"
        )
        found_sorted = np.empty(order.size, dtype=bool)
        column_sorted = np.empty(order.size, dtype=np.int64)
        for node, start, stop in runs:
            found_sorted[start:stop], column_sorted[start:stop] = stage(
                self.nodes[node], batch[start:stop]
            )
        found = np.empty(order.size, dtype=bool)
        column = np.empty(order.size, dtype=np.int64)
        found[order] = found_sorted
        column[order] = column_sorted
        return found, column, (order if rows is None else rows[order], runs)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def memory_report(self) -> List[Dict[str, int]]:
        """Per-node table footprints (FIB vs GPT)."""
        return [
            {
                "node": n.node_id,
                "fib_bytes": n.fib_bytes(),
                "gpt_bytes": n.gpt_bytes(),
                "fib_entries": len(n.fib),
            }
            for n in self.nodes
        ]

    def sync_fabric_gauges(self) -> None:
        """Copy fabric accounting into the ``fabric.*`` gauges.

        Gauges snapshot cumulative fabric state, so they are synced on
        demand (stats export, episode end) rather than per packet.
        """
        stats = self.fabric.stats
        self._g_fabric_packets.set(stats.packets)
        self._g_fabric_bytes.set(stats.bytes)
        self._g_fabric_dropped.set(stats.dropped)
        self._g_fabric_max_link.set(stats.max_link_packets())
        self._g_fabric_hops.set(stats.switch_hops)
        self._g_fabric_reroutes.set(stats.reroutes)
        self._g_fabric_capacity_exceeded.set(stats.capacity_exceeded)

    def total_fib_entries(self) -> int:
        """Sum of FIB entries across nodes (replication inflates this)."""
        return sum(len(n.fib) for n in self.nodes)

    def reset_stats(self) -> None:
        """Zero node counters, fabric stats and the metrics registry."""
        for node in self.nodes:
            node.counters.reset()
        self.fabric.reset_stats()
        self.registry.reset()

    def __repr__(self) -> str:
        return (
            f"Cluster(arch={self.architecture.value}, "
            f"nodes={len(self.nodes)}, flows={len(self.rib)})"
        )
