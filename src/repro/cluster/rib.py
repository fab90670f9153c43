"""The Routing Information Base and its partitioning (paper §3.2, §4.5).

The RIB is the authoritative mapping ``key -> (handling node, value)`` from
which both derived structures are generated: FIB entries (pushed to each
key's handling node) and the GPT (replicated everywhere).  ScaleBricks
hash-partitions the RIB so that *keys in the same 1024-key SetSep block are
stored on the same node* — the property that lets the owning node recompute
a SetSep group locally and broadcast a tiny delta (§4.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core import hashfamily, twolevel
from repro.core.params import BUCKETS_PER_BLOCK
from repro.core.separator import Separator
from repro.core.setsep import Key
from repro.hashtables.interface import checked_keys
from repro.obs.metrics import MetricsRegistry, resolve_registry


def block_owner(block: int, num_nodes: int, down: Collection[int] = ()) -> int:
    """The node owning a block's RIB slice: the one ownership rule.

    Round-robin, ``block % num_nodes``; while that node is ``down`` its
    blocks pass to the next live node above it (wrapping), which is where
    a repair moves its slice.  The controller routes each update by it,
    and a daemon refuses an update for a block it does not own by it.
    """
    for offset in range(num_nodes):
        candidate = (block + offset) % num_nodes
        if candidate not in down:
            return candidate
    raise RuntimeError("no live nodes")


@dataclass(frozen=True)
class RibEntry:
    """One authoritative routing record."""

    # A build makes one per flow: with slots each is 56 bytes, not ~96,
    # and a third quicker to make.
    __slots__ = ("key", "node", "value")

    key: int
    node: int
    value: int


class RoutingInformationBase:
    """Block-partitioned RIB spread across the cluster.

    Records are indexed by first-level *bucket* — a function of the key
    alone, so a record never moves — and a block is 256 consecutive
    buckets.  A group's records are then the records of the few buckets
    whose stored choice names it (:meth:`group_contents`), found without
    touching the rest of the block.  A runtime daemon holds its RIB slice
    in the same class, filled with the blocks it owns.

    Args:
        num_nodes: cluster size (block owners are assigned round-robin).
        num_blocks: SetSep block count — must match the GPT's, since the
            partitioning unit *is* the SetSep block.
        registry: metrics registry for mutation counters and the live
            entry-count gauge (``None`` selects the null registry).
    """

    def __init__(
        self,
        num_nodes: int,
        num_blocks: int,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if num_nodes < 1:
            raise ValueError("num_nodes must be positive")
        if num_blocks < 1:
            raise ValueError("num_blocks must be positive")
        self.num_nodes = num_nodes
        self.num_blocks = num_blocks
        #: global bucket id -> {key: record}, each in insertion order.
        self._buckets: Dict[int, Dict[int, RibEntry]] = {}
        self._len = 0
        self.bind_registry(registry)

    def bind_registry(self, registry: Optional[MetricsRegistry]) -> None:
        """Attach a metrics registry (``None`` selects the null registry)."""
        self.registry = resolve_registry(registry)
        self._m_inserts = self.registry.counter(
            "rib.inserts", "authoritative records inserted or overwritten"
        )
        self._m_removes = self.registry.counter(
            "rib.removes", "authoritative records removed"
        )
        self._m_group_scan = self.registry.counter(
            "rib.group_scan_keys", "records read by group_contents"
        )
        self._g_entries = self.registry.gauge(
            "rib.entries", "authoritative records currently held"
        )
        # Rebinds happen after construction-time population (Cluster.build
        # fills the RIB before attaching its registry) — resynchronise.
        self._g_entries.set(len(self))

    # ------------------------------------------------------------------
    # Partitioning
    # ------------------------------------------------------------------

    def bucket_of(self, key: Key) -> int:
        """Global first-level bucket of a key (the index unit)."""
        return twolevel.bucket_id(key, self.num_blocks)

    def block_of(self, key: Key) -> int:
        """SetSep block id of a key (the partitioning unit)."""
        return self.bucket_of(key) // BUCKETS_PER_BLOCK

    def owner_of_block(self, block: int) -> int:
        """Node owning a block's RIB slice (round-robin assignment)."""
        if not 0 <= block < self.num_blocks:
            raise ValueError(f"block {block} out of range")
        return block_owner(block, self.num_nodes)

    def owner_of_key(self, key: Key) -> int:
        """Node owning a key's RIB entry."""
        return self.owner_of_block(self.block_of(key))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(self, key: Key, node: int, value: int) -> RibEntry:
        """Insert or overwrite the authoritative record for ``key``."""
        ckey = hashfamily.canonical_key(key)
        return self._insert(self.bucket_of(ckey), ckey, node, value)

    def insert_many(self, keys, nodes, values) -> None:
        """:meth:`insert` of each row, in order, from three columns.

        Every bucket's records, and so every group's order
        (:meth:`group_contents`), come out as the loop of single inserts
        leaves them; ``rib.inserts`` and ``rib.entries`` move once.  A
        handling node out of range, an integer key outside
        ``[0, 2**64)`` (``ValueError`` naming the row) or columns of
        different lengths refuse the whole batch before any change.
        """
        ckeys = hashfamily.canonical_keys(checked_keys(keys))
        nodes = np.asarray(nodes, dtype=np.int64)
        values = [int(value) for value in values]
        if not len(ckeys) == len(nodes) == len(values):
            raise ValueError("keys, nodes and values lengths differ")
        if not len(values):
            return
        self.check_node(int(nodes.min()))
        self.check_node(int(nodes.max()))
        buckets = self._buckets
        keys_list = ckeys.tolist()
        for bucket, key, entry in zip(
            twolevel.bucket_ids(ckeys, self.num_blocks).tolist(),
            keys_list,
            map(RibEntry, keys_list, nodes.tolist(), values),
        ):
            records = buckets.get(bucket)
            if records is None:
                records = buckets[bucket] = {}
            records[key] = entry
        added = sum(map(len, buckets.values())) - self._len
        self._len += added
        self._g_entries.inc(added)
        self._m_inserts.inc(len(values))

    def remove(self, key: Key) -> Optional[RibEntry]:
        """Remove and return the record, or ``None`` if absent."""
        ckey = hashfamily.canonical_key(key)
        return self._remove(self.bucket_of(ckey), ckey)

    def get(self, key: Key) -> Optional[RibEntry]:
        """Exact lookup of the authoritative record."""
        ckey = hashfamily.canonical_key(key)
        return self._get(self.bucket_of(ckey), ckey)

    # The same three for the §4.5 owner path (``UpdateEngine``,
    # ``NodeDaemon``), which hashes a key once per update and needs the
    # bucket for the block, the owner and the group as well.  ``bucket``
    # must be ``bucket_of(ckey)``; nothing here checks it.

    def check_node(self, node: int) -> None:
        """Raise ``ValueError`` unless ``node`` is one of the cluster's."""
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"handling node {node} out of range")

    def _insert(self, bucket: int, ckey: int, node: int, value: int) -> RibEntry:
        self.check_node(node)
        entry = RibEntry(key=ckey, node=node, value=value)
        records = self._buckets.setdefault(bucket, {})
        if ckey not in records:
            self._len += 1
            self._g_entries.inc()
        records[ckey] = entry
        self._m_inserts.inc()
        return entry

    def _remove(self, bucket: int, ckey: int) -> Optional[RibEntry]:
        entry = self._buckets.get(bucket, {}).pop(ckey, None)
        if entry is not None:
            self._len -= 1
            self._m_removes.inc()
            self._g_entries.dec()
        return entry

    def _get(self, bucket: int, ckey: int) -> Optional[RibEntry]:
        return self._buckets.get(bucket, {}).get(ckey)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._len

    def entries(self) -> Iterator[RibEntry]:
        """All records, bucket by bucket, each bucket in insertion order.

        Inserting them into an empty RIB in this order reproduces every
        bucket's order, and so every group's (:meth:`group_contents`).
        """
        for records in self._buckets.values():
            yield from records.values()

    def entries_on_node(self, node: int) -> List[RibEntry]:
        """All records owned by ``node``."""
        out: List[RibEntry] = []
        for bucket, records in self._buckets.items():
            if self.owner_of_block(bucket // BUCKETS_PER_BLOCK) == node:
                out.extend(records.values())
        return out

    def group_contents(
        self, group_id: int, setsep: Separator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(keys, nodes) of one separator group — the rebuild input (§4.5).

        Only the block owner can produce this, which is exactly why keys of
        one block must co-reside: group membership depends on the block's
        bucket-to-group choices.  Canonical keys come back as ``uint64``
        and nodes as ``uint32``, the arrays a rebuild hashes and tests.

        Order: ascending bucket id, then insertion order within the bucket
        (an overwrite keeps the key's place, remove-then-insert moves it to
        the end).  The order reaches the wire in a failed group's
        ``fallback_upserts``, so every holder of the slice must produce it.
        """
        keys: List[int] = []
        nodes: List[int] = []
        buckets = self._buckets
        for bucket in setsep.buckets_of_group(group_id):
            records = buckets.get(bucket)
            if records:
                keys += records
                nodes += [entry.node for entry in records.values()]
        self._m_group_scan.inc(len(keys))
        return (
            np.array(keys, dtype=np.uint64), np.array(nodes, dtype=np.uint32)
        )

    def load_per_node(self) -> List[int]:
        """RIB records held by each node (partitioning balance metric)."""
        loads = [0] * self.num_nodes
        for bucket, records in self._buckets.items():
            loads[self.owner_of_block(bucket // BUCKETS_PER_BLOCK)] += len(
                records
            )
        return loads

