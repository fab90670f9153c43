"""The scalable RIB update protocol (paper §3.2, §4.5, §6.2).

Updates are sent to the key's RIB partition owner.  The owner:

1. updates its RIB slice (the authoritative record);
2. pushes the new/removed FIB entry to the key's handling node;
3. recomputes the key's SetSep group on its local GPT replica and
   broadcasts the resulting delta — tens of bits — which every peer
   applies with a memory copy.

Because ownership is spread across nodes and a delta application is
trivial, the aggregate update rate scales with the cluster size: the §6.2
measurement (60 K updates/s/core -> 240 K/s on 4 nodes) is the per-owner
recompute rate times the node count, which ``bench_update_rate`` measures
on this implementation.

Under full duplication the same update must modify the FIB on *every*
node, so the aggregate rate stays at a single node's — the contrast
``UpdateEngine`` exposes through its message accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.architectures import Architecture
from repro.cluster.cluster import Cluster
from repro.core import hashfamily
from repro.core.params import BUCKETS_PER_BLOCK
from repro.obs.metrics import MetricsRegistry, resolve_registry

#: Broadcast-delta size buckets (bits).  The paper's §4.5 claim is "tens
#: of bits" per delta, so the resolution is finest there.
DELTA_BITS_BUCKETS = (16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)

#: Verdicts a delta interceptor may return for one (owner, peer) ship.
DELIVER = "deliver"
DROP = "drop"
DUPLICATE = "duplicate"
DELAY = "delay"

DeltaInterceptor = Callable[[int, int], str]


@dataclass
class UpdateStats:
    """Protocol accounting across a batch of updates."""

    updates: int = 0
    fib_messages: int = 0
    delta_broadcasts: int = 0
    broadcast_bits: int = 0
    groups_rebuilt: int = 0
    deltas_dropped: int = 0
    deltas_duplicated: int = 0
    deltas_delayed: int = 0
    per_owner_updates: Dict[int, int] = field(default_factory=dict)

    def record_owner(self, owner: int) -> None:
        """Attribute one update to its RIB owner."""
        self.per_owner_updates[owner] = self.per_owner_updates.get(owner, 0) + 1

    @property
    def mean_delta_bits(self) -> float:
        """Average broadcast delta size (the paper's "tens of bits")."""
        if not self.delta_broadcasts:
            return 0.0
        return self.broadcast_bits / self.delta_broadcasts


class UpdateEngine:
    """Drives inserts/changes/removals through the cluster's update path.

    Args:
        cluster: the cluster whose RIB/FIB/GPT the engine mutates.
        registry: metrics registry; defaults to the *cluster's* registry,
            so an instrumented cluster gets an instrumented update path
            for free.  Records update counts, FIB messages, broadcast
            delta sizes (``update.delta_bits``) and per-update apply
            latency (``span.update.apply_us``).
    """

    def __init__(
        self, cluster: Cluster, registry: Optional[MetricsRegistry] = None
    ) -> None:
        self.cluster = cluster
        self.stats = UpdateStats()
        #: Optional fault-injection hook consulted once per delta ship
        #: with ``(owner_id, peer_id)``; must return one of
        #: :data:`DELIVER`, :data:`DROP`, :data:`DUPLICATE` or
        #: :data:`DELAY`.  ``None`` (the default) ships every delta.
        self.delta_interceptor: Optional[DeltaInterceptor] = None
        #: (peer, record type, wire bytes, size in bits) per held-back ship.
        self._delayed_deltas: List[Tuple[int, type, bytes, int]] = []
        self.bind_registry(
            registry if registry is not None else cluster.registry
        )

    def bind_registry(self, registry: Optional[MetricsRegistry]) -> None:
        """Attach a metrics registry (``None`` selects the null registry)."""
        self.registry = resolve_registry(registry)
        self._m_updates = self.registry.counter(
            "update.updates", "RIB updates driven through the protocol"
        )
        self._m_fib_messages = self.registry.counter(
            "update.fib_messages", "point-to-point FIB install/remove messages"
        )
        self._m_broadcasts = self.registry.counter(
            "update.delta_broadcasts", "GPT delta messages shipped to peers"
        )
        self._h_delta_bits = self.registry.histogram(
            "update.delta_bits",
            buckets=DELTA_BITS_BUCKETS,
            description="encoded size of each broadcast GPT delta",
        )
        self._m_deltas_dropped = self.registry.counter(
            "update.deltas_dropped", "GPT deltas lost to injected faults"
        )
        self._m_deltas_duplicated = self.registry.counter(
            "update.deltas_duplicated",
            "GPT deltas applied twice by injected faults",
        )
        self._m_deltas_delayed = self.registry.counter(
            "update.deltas_delayed",
            "GPT deltas held back for a delayed rebroadcast",
        )

    def _count_fib_message(self) -> None:
        self.stats.fib_messages += 1
        self._m_fib_messages.inc()

    def _count_broadcast(self, delta_bits: int) -> None:
        self.stats.delta_broadcasts += 1
        self.stats.broadcast_bits += delta_bits
        self._m_broadcasts.inc()
        self._h_delta_bits.observe(delta_bits)

    def _count_update(self, bucket: int) -> int:
        """Account one update to the owner of ``bucket``'s block."""
        owner = self.cluster.rib.owner_of_block(bucket // BUCKETS_PER_BLOCK)
        self.stats.updates += 1
        self._m_updates.inc()
        self.stats.record_owner(owner)
        return owner

    # ------------------------------------------------------------------
    # ScaleBricks path
    # ------------------------------------------------------------------

    def insert_flow(self, key, node: int, value: int) -> None:
        """Add or change a flow's (handling node, value) mapping."""
        with self.registry.span("update"):
            self._insert_flow(key, node, value)

    def _insert_flow(self, key, node: int, value: int) -> None:
        cluster = self.cluster
        ckey = hashfamily.canonical_key(key)
        # One hash per update: the bucket gives the RIB slot, the block,
        # its owner and (through the owner's GPT) the group.
        bucket = cluster.rib.bucket_of(ckey)
        previous = cluster.rib._get(bucket, ckey)
        owner = self._count_update(bucket)
        cluster.rib._insert(bucket, ckey, node, value)

        if cluster.architecture is Architecture.SCALEBRICKS:
            # FIB entry moves to (or is updated at) the handling node.
            if previous is not None and previous.node != node:
                cluster.nodes[previous.node].remove_route(ckey)
                self._count_fib_message()
            cluster.nodes[node].install_route(ckey, node, value)
            self._count_fib_message()
            self._rebroadcast_group(ckey, bucket, owner, node=node)
        elif cluster.architecture is Architecture.HASH_PARTITION:
            lookup_node = cluster.lookup_node_of(ckey)
            for target in {lookup_node, node}:
                cluster.nodes[target].install_route(ckey, node, value)
                self._count_fib_message()
            if previous is not None and previous.node not in (lookup_node, node):
                cluster.nodes[previous.node].remove_route(ckey)
                self._count_fib_message()
        else:
            # Full duplication / VLB: every node must apply the update —
            # the aggregate update rate stays at a single server's (§3.2).
            for cluster_node in cluster.nodes:
                cluster_node.install_route(ckey, node, value)
                self._count_fib_message()

    def remove_flow(self, key) -> bool:
        """Remove a flow entirely; returns whether it existed."""
        with self.registry.span("update"):
            return self._remove_flow(key)

    def _remove_flow(self, key) -> bool:
        cluster = self.cluster
        ckey = hashfamily.canonical_key(key)
        bucket = cluster.rib.bucket_of(ckey)
        previous = cluster.rib._remove(bucket, ckey)
        if previous is None:
            return False
        owner = self._count_update(bucket)

        if cluster.architecture is Architecture.SCALEBRICKS:
            cluster.nodes[previous.node].remove_route(ckey)
            self._count_fib_message()
            self._rebroadcast_group(ckey, bucket, owner)
        elif cluster.architecture is Architecture.HASH_PARTITION:
            lookup_node = cluster.lookup_node_of(ckey)
            for target in {lookup_node, previous.node}:
                cluster.nodes[target].remove_route(ckey)
                self._count_fib_message()
        else:
            for cluster_node in cluster.nodes:
                cluster_node.remove_route(ckey)
                self._count_fib_message()
        return True

    # ------------------------------------------------------------------
    # GPT delta broadcast
    # ------------------------------------------------------------------

    def _rebroadcast_group(
        self, ckey: int, bucket: int, owner_id: int, node: Optional[int] = None
    ) -> None:
        """Owner recomputes the key's group; peers apply the delta.

        ``node`` is the key's new handling node, ``None`` when it left.
        """
        cluster = self.cluster
        owner = cluster.nodes[owner_id]
        assert owner.gpt is not None
        separator = owner.gpt.setsep
        group = separator.group_of_bucket(bucket)
        removed = (ckey,) if node is None else ()
        # Incremental backends (Othello) skip the O(group) contents
        # enumeration once their owner-side graph is warm: the changed
        # key alone produces the byte-identical record.
        needs_full = getattr(separator, "needs_full_contents", None)
        if needs_full is None or needs_full(group):
            keys, nodes = cluster.rib.group_contents(group, separator)
        elif node is None:
            keys, nodes = [], []
        else:
            keys, nodes = [ckey], [node]
        with self.registry.span("rebuild"):
            delta = owner.gpt.rebuild_group(
                group, keys, nodes, removed_keys=removed
            )
        self.stats.groups_rebuilt += 1
        self._broadcast(delta, owner_id)

    def _broadcast(self, delta, owner_id: int) -> None:
        """Ship the record to every other replica (a memory copy each).

        Backend-generic: ``delta`` is a ``GroupDelta`` (SetSep) or an
        ``OthelloUpdate`` — both self-framing, so peers decode from the
        wire bytes alone.

        An installed :attr:`delta_interceptor` may drop a peer's copy
        (leaving that replica stale until a later rebroadcast), apply it
        twice (exercising delta idempotence) or hold it back until
        :meth:`flush_delayed_deltas` — the §3.4 one-sided-error windows a
        production cluster actually experiences.
        """
        params = self.cluster.nodes[owner_id].gpt.setsep.params
        record_type = type(delta)
        wire = delta.wire_bytes(params)
        delta_bits = delta.size_bits(params)
        for node in self.cluster.nodes:
            if node.node_id == owner_id or node.gpt is None:
                continue
            verdict = DELIVER
            if self.delta_interceptor is not None:
                verdict = self.delta_interceptor(owner_id, node.node_id)
            if verdict == DROP:
                self.stats.deltas_dropped += 1
                self._m_deltas_dropped.inc()
                continue
            if verdict == DELAY:
                self._delayed_deltas.append(
                    (node.node_id, record_type, wire, delta_bits)
                )
                self.stats.deltas_delayed += 1
                self._m_deltas_delayed.inc()
                continue
            node.gpt.apply_delta(record_type.from_wire_bytes(wire)[0])
            if verdict == DUPLICATE:
                node.gpt.apply_delta(record_type.from_wire_bytes(wire)[0])
                self.stats.deltas_duplicated += 1
                self._m_deltas_duplicated.inc()
            self._count_broadcast(delta_bits)

    def flush_delayed_deltas(self) -> int:
        """Deliver every delta an interceptor held back, in ship order.

        Returns the number of deltas applied.  Flushing in first-in
        first-out order preserves the per-group last-writer-wins
        convergence the broadcast protocol relies on.
        """
        pending, self._delayed_deltas = self._delayed_deltas, []
        for peer_id, record_type, wire, delta_bits in pending:
            node = self.cluster.nodes[peer_id]
            if node.gpt is None:
                continue
            node.gpt.apply_delta(record_type.from_wire_bytes(wire)[0])
            self._count_broadcast(delta_bits)
        return len(pending)
