"""Driving RIB updates through an in-process cluster (paper §3.2, §6.2).

On a ScaleBricks cluster an update is the §4.5 protocol of
:mod:`repro.cluster.owner`, run at the key's block owner and delivered
here by direct call.  Because ownership is spread across nodes and a delta
application is trivial, the aggregate update rate scales with the cluster
size: the §6.2 measurement (60 K updates/s/core -> 240 K/s on 4 nodes) is
the per-owner recompute rate times the node count, which
``bench_update_rate`` measures on this implementation.

Under full duplication the same update must modify the FIB on *every*
node, so the aggregate rate stays at a single node's — the contrast
``UpdateEngine`` exposes through its message accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.cluster import owner
from repro.cluster.architectures import Architecture
from repro.cluster.cluster import Cluster
from repro.cluster.owner import UpdateAccount
from repro.core import hashfamily
from repro.core.params import BUCKETS_PER_BLOCK
from repro.fabric import DELAY, DELIVER, DROP, DUPLICATE  # noqa: F401
from repro.obs.metrics import MetricsRegistry, resolve_registry

#: Broadcast-delta size buckets (bits).  The paper's §4.5 claim is "tens
#: of bits" per delta, so the resolution is finest there.
DELTA_BITS_BUCKETS = (16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)

DeltaInterceptor = Callable[[int, int], str]

#: Account fields mirrored into ``update.<field>`` registry counters (the
#: bits go to the ``update.delta_bits`` histogram, one sample per record).
_COUNTERS = {
    "updates": "RIB updates driven through the protocol",
    "fib_messages": "point-to-point FIB install/remove messages",
    "delta_broadcasts": "GPT delta messages shipped to peers",
    "deltas_dropped": "GPT deltas lost to injected faults",
    "deltas_duplicated": "GPT deltas applied twice by injected faults",
    "deltas_delayed": "GPT deltas held back for a delayed rebroadcast",
}


@dataclass
class UpdateStats(UpdateAccount):
    """Protocol accounting across a batch of updates."""

    per_owner_updates: Dict[int, int] = field(default_factory=dict)

    @property
    def broadcast_bits(self) -> int:
        """Total encoded size of the delivered deltas (``delta_bits``)."""
        return self.delta_bits

    @property
    def mean_delta_bits(self) -> float:
        """Average broadcast delta size (the paper's "tens of bits")."""
        if not self.delta_broadcasts:
            return 0.0
        return self.delta_bits / self.delta_broadcasts


class UpdateEngine:
    """Drives inserts/changes/removals through the cluster's update path.

    On a ScaleBricks cluster the engine is a transport around the §4.5
    core (:mod:`repro.cluster.owner`): it finds the owner, runs the owner
    step there and delivers the FIB messages and records by direct call.

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
        self._delayed_deltas: List[owner.Delayed] = []
        self.bind_registry(
            registry if registry is not None else cluster.registry
        )

    def bind_registry(self, registry: Optional[MetricsRegistry]) -> None:
        """Attach a metrics registry (``None`` selects the null registry)."""
        self.registry = resolve_registry(registry)
        self._counters = {
            name: self.registry.counter(f"update.{name}", description)
            for name, description in _COUNTERS.items()
        }
        self._h_delta_bits = self.registry.histogram(
            "update.delta_bits",
            buckets=DELTA_BITS_BUCKETS,
            description="encoded size of each broadcast GPT delta",
        )

    def _record(
        self, acc: UpdateAccount, owner_id: Optional[int] = None
    ) -> None:
        """Fold one call's account into the stats and the registry."""
        stats = self.stats
        for name in owner.ACCOUNT_FIELDS:
            count = getattr(acc, name)
            if count:
                setattr(stats, name, getattr(stats, name) + count)
                counter = self._counters.get(name)
                if counter is not None:
                    counter.inc(count)
        if owner_id is not None:
            stats.per_owner_updates[owner_id] = (
                stats.per_owner_updates.get(owner_id, 0) + 1
            )

    def insert_flow(self, key, node: int, value: int) -> None:
        """Add or change a flow's (handling node, value) mapping."""
        with self.registry.span("update"):
            self._update(key, node, value)

    def remove_flow(self, key) -> bool:
        """Remove a flow entirely; returns whether it existed."""
        with self.registry.span("update"):
            return self._update(key)

    def _update(self, key, node: Optional[int] = None, value: int = 0) -> bool:
        """One update (``node`` ``None`` removes) on the cluster's
        architecture; ``False`` for the removal of an unknown key."""
        cluster = self.cluster
        nodes = cluster.nodes
        ckey = hashfamily.canonical_key(key)
        # One hash per update: the bucket gives the RIB slot, the block,
        # its owner and (through the owner's GPT) the group.
        bucket = cluster.rib.bucket_of(ckey)
        owner_id = cluster.rib.owner_of_block(bucket // BUCKETS_PER_BLOCK)
        if cluster.architecture is Architecture.SCALEBRICKS:
            return self._scalebricks_update(
                owner_id, ckey, bucket, node, value
            )
        if node is None:
            previous = cluster.rib._remove(bucket, ckey)
            if previous is None:
                return False
        else:
            previous = cluster.rib._get(bucket, ckey)
            # Range-checks ``node`` before it changes or counts anything.
            cluster.rib._insert(bucket, ckey, node, value)
        if cluster.architecture is Architecture.HASH_PARTITION:
            # The entry lives at the key's lookup node and at its handler.
            holders = {
                cluster.lookup_node_of(ckey),
                previous.node if node is None else node,
            }
        else:
            # Full duplication / VLB: every node must apply the update —
            # the aggregate update rate stays at a single server's (§3.2).
            holders = range(len(nodes))
        for target in holders:
            if node is None:
                nodes[target].remove_route(ckey)
            else:
                nodes[target].install_route(ckey, node, value)
        acc = UpdateAccount(updates=1, fib_messages=len(holders))
        if (
            node is not None and previous is not None
            and previous.node not in holders
        ):
            nodes[previous.node].remove_route(ckey)  # the handler it left
            acc.fib_messages += 1
        self._record(acc, owner_id)
        return True

    # ------------------------------------------------------------------
    # ScaleBricks path: the §4.5 core, delivered by direct call
    # ------------------------------------------------------------------

    def _scalebricks_update(
        self, owner_id: int, ckey: int, bucket: int,
        node: Optional[int] = None, value: int = 0,
    ) -> bool:
        """One §4.5 update at its owner node, delivered by direct call.

        The :attr:`delta_interceptor` verdicts open the §3.4
        one-sided-error windows a production cluster actually experiences
        (:func:`repro.cluster.owner.fan_out`).
        """
        nodes = self.cluster.nodes
        acc = UpdateAccount()
        step = owner.owner_step(
            self.cluster.rib, nodes[owner_id].gpt, acc,
            ckey, bucket, node, value,
        )
        if step is None:
            return False
        for target, entry in step.fib_ops:
            if entry is None:
                nodes[target].remove_route(ckey)
            else:
                nodes[target].install_route(ckey, entry.node, entry.value)
        interceptor = self.delta_interceptor
        peers = [
            peer.node_id for peer in nodes
            if peer.node_id != owner_id and peer.gpt is not None
        ]
        ships = owner.fan_out(
            peers,
            (lambda peer: DELIVER) if interceptor is None
            else (lambda peer: interceptor(owner_id, peer)),
            step, self._delayed_deltas, acc,
        )
        if ships:
            # One broadcast, one parse: every peer applies the same records.
            records = owner.parse_records(step.wire, nodes[owner_id].gpt)
            for peer, copies in ships:
                self._apply(peer, records * copies, step.bits)
        self._record(acc, owner_id)
        return True

    def _apply(self, peer: int, records: list, bits: int) -> None:
        """``peer`` applies parsed records (a memory copy); sized once."""
        gpt = self.cluster.nodes[peer].gpt
        for record in records:
            gpt.apply_delta(record)
        self._h_delta_bits.observe(bits)

    def flush_delayed_deltas(self) -> int:
        """Deliver every delta an interceptor held back, in ship order.

        Returns the number of deltas applied (none toward a peer that has
        since lost its replica).
        """
        nodes = self.cluster.nodes
        acc = UpdateAccount()
        owner.flush_delayed(
            self._delayed_deltas,
            [n.node_id for n in nodes if n.gpt is None],
            lambda peer, wire, bits: self._apply(
                peer, owner.parse_records(wire, nodes[peer].gpt), bits
            ),
            acc,
        )
        self._record(acc)
        return acc.delta_broadcasts
