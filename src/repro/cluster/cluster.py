"""The cluster: packet routing under each FIB architecture (paper §3).

``Cluster.build`` populates every node's tables for the chosen architecture
from one authoritative flow list, and ``route`` walks a packet's key through
the exact path Figure 2 draws — including the failure modes: hash-partition
lookups rejecting unknown keys at the indirect node, ScaleBricks delivering
unknown keys to an arbitrary node whose exact FIB then drops them.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

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


@dataclass(frozen=True)
class RouteResult:
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
    def _of(
        cls, key, ingress, path, internal_hops, latency_us, handled_by,
        value, dropped, reason,
    ) -> "RouteResult":
        """Positional constructor for per-packet loops over columns.

        Equal, hash-equal and repr-equal to the keyword constructor; it
        fills the instance dict in one call where the frozen dataclass
        ``__init__`` pays nine ``object.__setattr__``.
        """
        self = object.__new__(cls)
        self.__dict__.update(
            key=key, ingress=ingress, path=path,
            internal_hops=internal_hops, latency_us=latency_us,
            handled_by=handled_by, value=value, dropped=dropped,
            reason=reason,
        )
        return self

    @classmethod
    def drop(
        cls,
        key: int,
        ingress: int,
        reason: str,
        path: Tuple[int, ...] = (),
        latency_us: float = 0.0,
    ) -> "RouteResult":
        """A packet refused where ``path`` ends (nowhere, for a packet
        dropped before it entered the cluster)."""
        return cls._of(
            key, ingress, path, max(len(path) - 1, 0), latency_us,
            None, None, True, reason,
        )

    def dropped_as(self, reason: str) -> "RouteResult":
        """This routed packet, refused afterwards (a dead node on its
        path, the bearer's policer): same route, no handler, no value."""
        return self._of(
            self.key, self.ingress, self.path, self.internal_hops,
            self.latency_us, None, None, True, reason,
        )


class RouteBatchResult(SequenceABC):
    """Typed outcome of :meth:`Cluster.route_batch`.

    Behaves as a sequence of :class:`RouteResult` (so per-packet code and
    older call sites keep working) while exposing the batch as NumPy
    columns for vectorised analysis.  The vectorised route hands its
    columns straight in; :meth:`from_results` derives them for the
    per-packet routes.

    Attributes:
        results: the per-packet :class:`RouteResult` tuple.
        ingress_nodes: node each packet entered at.
        handler_nodes: node each packet's path ends at — under
            ScaleBricks the GPT's answer, set even when that node's FIB
            then rejects the key (``-1`` for an empty path).
        egress_nodes: node that accepted each packet (``-1`` if dropped).
        hop_counts: internal fabric transits per packet.
        indirections: whether the packet crossed an intermediate node
            (hash-partition lookup detour / VLB bounce).
        dropped: per-packet drop flag.
        values: application value per packet (``-1`` if dropped).
        latencies_us: modelled fabric latency per packet.
    """

    __slots__ = (
        "results", "ingress_nodes", "handler_nodes", "egress_nodes",
        "hop_counts", "indirections", "dropped", "values", "latencies_us",
    )

    def __init__(
        self,
        results: Sequence[RouteResult],
        ingress_nodes: np.ndarray,
        handler_nodes: np.ndarray,
        egress_nodes: np.ndarray,
        hop_counts: np.ndarray,
        dropped: np.ndarray,
        values: np.ndarray,
        latencies_us: np.ndarray,
    ) -> None:
        self.results: Tuple[RouteResult, ...] = tuple(results)
        self.ingress_nodes = ingress_nodes
        self.handler_nodes = handler_nodes
        self.egress_nodes = egress_nodes
        self.hop_counts = hop_counts
        self.indirections = hop_counts >= 2
        self.dropped = dropped
        self.values = values
        self.latencies_us = latencies_us

    @classmethod
    def from_results(
        cls, results: Sequence[RouteResult]
    ) -> "RouteBatchResult":
        """Derive the columns from per-packet results."""

        def ints(column) -> np.ndarray:
            return np.array(column, dtype=np.int64)

        return cls(
            results,
            ingress_nodes=ints([r.ingress for r in results]),
            handler_nodes=ints(
                [r.path[-1] if r.path else -1 for r in results]
            ),
            egress_nodes=ints(
                [-1 if r.handled_by is None else r.handled_by
                 for r in results]
            ),
            hop_counts=ints([r.internal_hops for r in results]),
            dropped=np.array([r.dropped for r in results], dtype=bool),
            values=ints(
                [-1 if r.value is None else r.value for r in results]
            ),
            latencies_us=np.array(
                [r.latency_us for r in results], dtype=np.float64
            ),
        )

    def touches(self, nodes) -> np.ndarray:
        """Mask of packets whose path crosses any of ``nodes``."""
        nodes = list(nodes)
        mask = np.isin(self.ingress_nodes, nodes) | np.isin(
            self.handler_nodes, nodes
        )
        # Only a detoured path (hash-partition, VLB) has nodes between
        # its ends; ScaleBricks never does.
        for j in np.nonzero(self.indirections & ~mask)[0].tolist():
            mask[j] = any(n in nodes for n in self.results[j].path[1:-1])
        return mask

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return RouteBatchResult.from_results(self.results[index])
        return self.results[index]

    @property
    def delivered_count(self) -> int:
        """Packets that reached a node that accepted them."""
        return int((~self.dropped).sum())

    @property
    def dropped_count(self) -> int:
        """Packets rejected by the terminal node's exact FIB."""
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
    The cluster's routing and the gateway's DPE dispatch both split this
    way.
    """
    order = ids.argsort(kind="stable")
    stops = np.bincount(ids, minlength=num_nodes).cumsum().tolist()
    return order, [
        (node, start, stop)
        for node, (start, stop) in enumerate(zip([0] + stops, stops))
        if start < stop
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
        self._ingress_rr = 0
        self._rng = np.random.default_rng(0xEC)
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
            fib_factory = lambda capacity: CuckooHashTable(capacity)
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
        return self._rng.integers(len(self.nodes), size=count).astype(
            np.int64
        )

    def route(
        self,
        key: Key,
        ingress: Optional[int] = None,
        size: int = 64,
    ) -> RouteResult:
        """Walk one packet from its ingress to its handling node."""
        ckey = hashfamily.canonical_key(key)
        if ingress is None:
            ingress = self.pick_ingress()
        elif type(ingress) is not int or not 0 <= ingress < len(self.nodes):
            ingress = int(self._ingress_column([ingress], 1)[0])
        arch = self.architecture
        if arch is Architecture.SCALEBRICKS:
            result = self._route_scalebricks(ckey, ingress, size)
        elif arch is Architecture.HASH_PARTITION:
            result = self._route_hash_partition(ckey, ingress, size)
        elif arch is Architecture.ROUTEBRICKS_VLB:
            result = self._route_vlb(ckey, ingress, size)
        else:
            result = self._route_full_duplication(ckey, ingress, size)
        self._m_routed.inc()
        if result.dropped:
            self._m_dropped.inc()
        else:
            self._m_delivered.inc()
        self._m_hops.observe(result.internal_hops)
        if result.internal_hops >= 2:
            self._m_indirections.inc()
        return result

    def route_batch(
        self,
        keys: Union[Sequence[Key], np.ndarray],
        ingress: Optional[Sequence[int]] = None,
    ) -> RouteBatchResult:
        """Route many keys; returns a typed :class:`RouteBatchResult`.

        The result iterates as a sequence of :class:`RouteResult` (the
        historical list shape) and additionally carries the batch as NumPy
        arrays (egress node, hop count, indirection flag, ...).  An
        ``ingress`` that is not one node id per key is a ``ValueError``
        before any counter, random draw or fabric call.
        """
        keys_arr = hashfamily.canonical_keys(keys)
        if ingress is None:
            ingress_arr = self.pick_ingress_batch(len(keys_arr))
        else:
            ingress_arr = self._ingress_column(ingress, len(keys_arr))
        if (
            len(keys_arr)
            and self.architecture is Architecture.SCALEBRICKS
            and self.fabric.fault_hook is None
            and not self.fabric.has_link_faults()
        ):
            return self._route_batch_scalebricks(keys_arr, ingress_arr)
        return RouteBatchResult.from_results(
            list(map(self.route, keys_arr.tolist(), ingress_arr.tolist()))
        )

    def _ingress_column(self, ingress, count: int) -> np.ndarray:
        """``ingress`` as an int64 column of ``count`` node ids."""
        column = np.asarray(ingress)
        if column.shape != (count,):
            raise ValueError(f"{count} keys, ingress of shape {column.shape}")
        if column.dtype.kind in "iu":
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

    def _runs(self, keys_arr: np.ndarray, ids: np.ndarray, columns: str):
        """Split the batch by a node-id column with one stable sort: per
        node present, its packets' rows (in batch order) and their keys, a
        slice of the sorted batch whose ``columns`` are hashed once, here."""
        order, runs = node_runs(ids, len(self.nodes))
        batch = hashfamily.HashedKeys(keys_arr[order])
        getattr(batch, columns)
        for node, start, stop in runs:
            yield self.nodes[node], order[start:stop], batch[start:stop]

    def _route_batch_scalebricks(
        self,
        keys_arr: np.ndarray,
        ingress_arr: np.ndarray,
        size: int = 64,
    ) -> RouteBatchResult:
        """Vectorised ScaleBricks routing (paper §4.3's batched pipeline).

        Counter totals, fabric accounting and the per-packet
        :class:`RouteResult` values are identical to routing each packet
        through :meth:`route`; only the per-packet Python call stack is
        gone.  The batch is sorted once by ingress node and once by
        handler, so every GPT replica (each packet still consults its own
        ingress replica: replicas may differ) and every FIB is handed a
        contiguous slice of keys hashed once for all of them.
        """
        n = keys_arr.size
        num_nodes = len(self.nodes)
        handlers = np.empty(n, dtype=np.int64)
        for node, rows, keys in self._runs(keys_arr, ingress_arr, "separator"):
            node.counters.external_rx += len(rows)
            node.counters.gpt_lookups += len(rows)
            handlers[rows] = node.gpt.lookup_batch(keys)

        remote = handlers != ingress_arr
        latencies = self.fabric.deliver_batch(ingress_arr, handlers, size)
        for node, rx, forwarded in zip(
            self.nodes,
            np.bincount(handlers[remote], minlength=num_nodes).tolist(),
            np.bincount(ingress_arr[remote], minlength=num_nodes).tolist(),
        ):
            node.counters.internal_rx += rx
            node.counters.forwarded += forwarded

        found = np.empty(n, dtype=bool)
        values = np.empty(n, dtype=np.int64)
        for node, rows, keys in self._runs(keys_arr, handlers, "fib"):
            found[rows], values[rows] = node.handle_batch(keys)

        hop_counts = remote.astype(np.int64)
        results = [
            RouteResult._of(
                key, ing, (ing, handler) if hop else (ing,), hop, latency,
                handler if hit else None, value if hit else None, not hit,
                "handled" if hit else "unknown_key",
            )
            for key, ing, handler, hop, latency, hit, value in zip(
                keys_arr.tolist(), ingress_arr.tolist(), handlers.tolist(),
                hop_counts.tolist(), latencies.tolist(), found.tolist(),
                values.tolist(),
            )
        ]

        dropped_count = n - int(found.sum())
        self._m_routed.inc(n)
        if dropped_count:
            self._m_dropped.inc(dropped_count)
        if n - dropped_count:
            self._m_delivered.inc(n - dropped_count)
        self._m_hops.observe_many(hop_counts)
        return RouteBatchResult(
            results,
            ingress_nodes=ingress_arr,
            handler_nodes=handlers,
            egress_nodes=np.where(found, handlers, -1),
            hop_counts=hop_counts,
            dropped=~found,
            values=values,
            latencies_us=latencies,
        )

    def _finish(
        self,
        ckey: int,
        ingress: int,
        path: List[int],
        latency: float,
        handler: int,
    ) -> RouteResult:
        """Terminal handling at ``handler`` with drop accounting."""
        value = self.nodes[handler].handle(ckey)
        dropped = value is None
        return RouteResult(
            key=ckey,
            ingress=ingress,
            path=tuple(path),
            internal_hops=len(path) - 1,
            latency_us=latency,
            handled_by=None if dropped else handler,
            value=value,
            dropped=dropped,
            reason="unknown_key" if dropped else "handled",
        )

    def _route_full_duplication(
        self, ckey: int, ingress: int, size: int
    ) -> RouteResult:
        node = self.nodes[ingress]
        node.counters.external_rx += 1
        found = node.fib_lookup(ckey)
        if found is None:
            node.counters.dropped += 1
            return RouteResult.drop(
                ckey, ingress, "unknown_at_ingress", path=(ingress,)
            )
        handler, _ = found
        latency = self.fabric.deliver(ingress, handler, size)
        path = [ingress] if handler == ingress else [ingress, handler]
        if handler != ingress:
            self.nodes[handler].counters.internal_rx += 1
            node.counters.forwarded += 1
        return self._finish(ckey, ingress, path, latency, handler)

    def _route_vlb(self, ckey: int, ingress: int, size: int) -> RouteResult:
        node = self.nodes[ingress]
        node.counters.external_rx += 1
        found = node.fib_lookup(ckey)
        if found is None:
            node.counters.dropped += 1
            return RouteResult.drop(
                ckey, ingress, "unknown_at_ingress", path=(ingress,)
            )
        handler, _ = found
        path = [ingress]
        latency = 0.0
        if handler != ingress:
            indirect = self.fabric.pick_indirect(ingress, handler)
            latency += self.fabric.deliver(ingress, indirect, size)
            self.nodes[indirect].counters.internal_rx += 1
            self.nodes[indirect].counters.forwarded += 1
            path.append(indirect)
            latency += self.fabric.deliver(indirect, handler, size)
            self.nodes[handler].counters.internal_rx += 1
            node.counters.forwarded += 1
            path.append(handler)
        return self._finish(ckey, ingress, path, latency, handler)

    def _route_hash_partition(
        self, ckey: int, ingress: int, size: int
    ) -> RouteResult:
        node = self.nodes[ingress]
        node.counters.external_rx += 1
        lookup_node_id = self.lookup_node_of(ckey)
        path = [ingress]
        latency = 0.0
        if lookup_node_id != ingress:
            latency += self.fabric.deliver(ingress, lookup_node_id, size)
            self.nodes[lookup_node_id].counters.internal_rx += 1
            node.counters.forwarded += 1
            path.append(lookup_node_id)
        lookup_node = self.nodes[lookup_node_id]
        found = lookup_node.fib_lookup(ckey)
        if found is None:
            lookup_node.counters.dropped += 1
            return RouteResult.drop(
                ckey, ingress, "unknown_at_lookup_node",
                path=tuple(path), latency_us=latency,
            )
        handler, _ = found
        if handler != lookup_node_id:
            latency += self.fabric.deliver(lookup_node_id, handler, size)
            self.nodes[handler].counters.internal_rx += 1
            lookup_node.counters.forwarded += 1
            path.append(handler)
        return self._finish(ckey, ingress, path, latency, handler)

    def _route_scalebricks(
        self, ckey: int, ingress: int, size: int
    ) -> RouteResult:
        node = self.nodes[ingress]
        node.counters.external_rx += 1
        handler = node.gpt_lookup(ckey)
        path = [ingress]
        latency = 0.0
        if handler != ingress:
            latency = self.fabric.deliver(ingress, handler, size)
            self.nodes[handler].counters.internal_rx += 1
            node.counters.forwarded += 1
            path.append(handler)
        return self._finish(ckey, ingress, path, latency, handler)

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
