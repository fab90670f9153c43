"""The Routing Information Base and its partitioning (paper §3.2, §4.5).

The RIB is the authoritative mapping ``key -> (handling node, value)`` from
which both derived structures are generated: FIB entries (pushed to each
key's handling node) and the GPT (replicated everywhere).  ScaleBricks
hash-partitions the RIB so that *keys in the same 1024-key SetSep block are
stored on the same node* — the property that lets the owning node recompute
a SetSep group locally and broadcast a tiny delta (§4.5).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Collection, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core import hashfamily, twolevel
from repro.core.hashfamily import HashedKeys
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
    """One authoritative routing record: a snapshot, built on read."""

    __slots__ = ("key", "node", "value")

    key: int
    node: int
    value: int


#: Rows of a block's ``uint64`` column matrix: the key, its
#: :attr:`HashedKeys.separator` triple (bucket hash, G1, G2|1), its value
#: and its handling node.  Rows 0-3 of a group's columns are its hashed
#: keys.
_KEY, _VALUE, _NODE = 0, 4, 5
_COLUMNS = 6
_MAX_VALUE = (1 << 64) - 1
#: End of a bucket's chain, and a bucket that never held a record.
_NONE = -1


class _Block:
    """One block's records: a column per field, a row per record, and each
    bucket's rows chained in arrival order (an overwrite keeps its row).

    A removed record's row is unlinked and reused by a later insert, so
    no update moves another record.  The columns live in one ``array``
    (``raw``, column ``c`` of row ``r`` at ``c * capacity + r``) that
    single-record reads and writes index at plain-int speed, and
    :attr:`cols` is a ``(6, capacity)`` NumPy view of the same memory for
    the gathers; the chains and the per-bucket heads are ``array`` ints.
    """

    __slots__ = ("raw", "cols", "capacity", "next", "heads", "first_seen",
                 "free")

    def __init__(self, records: Optional[np.ndarray] = None) -> None:
        self._hold(np.zeros((_COLUMNS, 0), np.uint64)
                   if records is None else records)
        #: Row -> the next row of its bucket's chain (or ``_NONE``).
        self.next = array("i")
        self.heads = array("i", [_NONE]) * BUCKETS_PER_BLOCK
        #: Arrival number of each bucket's first record, or ``_NONE``.
        self.first_seen = array("q", [_NONE]) * BUCKETS_PER_BLOCK
        #: Rows of removed records, reused first.
        self.free: List[int] = []

    def _hold(self, records: np.ndarray) -> None:
        """Take ``records``, a C-ordered ``(6, capacity)`` uint64 matrix,
        as the columns."""
        self.capacity = records.shape[1]
        self.raw = array("Q", records.tobytes())
        self.cols = np.frombuffer(self.raw, dtype=np.uint64).reshape(
            _COLUMNS, self.capacity
        )

    @classmethod
    def built(cls, records: np.ndarray, local: np.ndarray,
              arrivals: np.ndarray) -> "_Block":
        """A block over ``records``, its columns (distinct keys, sorted by
        bucket, then arrival, as ``local`` — each row's bucket — and
        ``arrivals`` give)."""
        blk = cls(records)
        count = len(local)
        runs = np.flatnonzero(np.diff(local, prepend=-1))
        chained = np.arange(1, count + 1, dtype=np.int32)
        chained[np.append(runs[1:], count) - 1] = _NONE
        heads = np.full(BUCKETS_PER_BLOCK, _NONE, dtype=np.int32)
        seen = np.full(BUCKETS_PER_BLOCK, _NONE, dtype=np.int64)
        heads[local[runs]] = runs
        seen[local[runs]] = arrivals[runs]
        blk.next = array("i", chained.tobytes())
        blk.heads = array("i", heads.tobytes())
        blk.first_seen = array("q", seen.tobytes())
        return blk

    @property
    def live(self) -> int:
        return len(self.next) - len(self.free)

    def field(self, column: int, row: int) -> int:
        return self.raw[column * self.capacity + row]

    def find(self, local: int, ckey: int) -> Tuple[int, int]:
        """``(row, previous row in the chain)`` of ``ckey`` in bucket
        ``local``; for an absent key, ``_NONE`` and the chain's last row."""
        keys, after = self.raw, self.next  # the key column comes first
        previous, row = _NONE, self.heads[local]
        while row != _NONE and keys[row] != ckey:
            previous, row = row, after[row]
        return row, previous

    def rows(self, buckets: Iterable[int], base: int = 0) -> List[int]:
        """Rows of ``buckets`` (global ids, ``base`` the block's first),
        bucket by bucket, each chain in arrival order."""
        rows, heads, after = [], self.heads, self.next
        for bucket in buckets:
            row = heads[bucket - base]
            while row != _NONE:
                rows.append(row)
                row = after[row]
        return rows

    def write(self, row: int, record) -> None:
        """Store ``record``'s fields in ``row``, from column ``0``."""
        raw, capacity = self.raw, self.capacity
        for column, value in enumerate(record):
            raw[column * capacity + row] = value

    def append(self, local: int, last: int, record: tuple,
               arrival: int) -> None:
        """Chain a new record after ``last``, its bucket's last row."""
        if self.free:
            row = self.free.pop()
            self.next[row] = _NONE
        else:
            row = len(self.next)
            self.next.append(_NONE)
            if row == self.capacity:  # an eighth more room
                grown = np.zeros((_COLUMNS, row + (row >> 3) + 8), np.uint64)
                grown[:, :row] = self.cols
                self._hold(grown)
        self.write(row, record)
        if last == _NONE:
            self.heads[local] = row
        else:
            self.next[last] = row
        if self.first_seen[local] == _NONE:
            self.first_seen[local] = arrival

    def overwrite(self, row: int, value: int, node: int) -> int:
        """Set ``row``'s value and node; the node it named before."""
        raw, capacity = self.raw, self.capacity
        previous = raw[_NODE * capacity + row]
        raw[_VALUE * capacity + row] = value
        raw[_NODE * capacity + row] = node
        return previous

    def unlink(self, local: int, row: int, previous: int) -> None:
        """Take ``row`` out of its bucket's chain and free it."""
        if previous == _NONE:
            self.heads[local] = self.next[row]
        else:
            self.next[previous] = self.next[row]
        self.free.append(row)

    def snapshot(self, row: int) -> RibEntry:
        field = self.field
        return RibEntry(field(_KEY, row), field(_NODE, row),
                        field(_VALUE, row))


class RoutingInformationBase:
    """Block-partitioned RIB spread across the cluster.

    Each SetSep block's records are columns (:class:`_Block`): key, the
    key's separator hashes, value and node, each bucket's rows chained in
    arrival order — no object per record; :meth:`get` and :meth:`entries`
    build :class:`RibEntry` snapshots, :meth:`columns` gathers columns.
    A record's bucket is a function of its key alone, so a record never
    moves between blocks, and a group's records are the chains of its few
    buckets (:meth:`group_contents`), hashes included.  A runtime daemon
    holds its RIB slice in the same class, filled with the blocks it
    owns.

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
        #: block id -> its columns, created with its first record.
        self._blocks: Dict[int, _Block] = {}
        self._len = 0
        #: Arrivals so far: dates each bucket's first record.
        self._clock = 0
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
        self._insert(self.bucket_of(ckey), ckey, node, value)
        return RibEntry(ckey, node, value)

    def insert_many(self, keys, nodes, values) -> None:
        """:meth:`insert` of each row, in order, from three columns.

        Every record, its place in its bucket and so every group's order
        (:meth:`group_contents`) come out as the loop of single inserts
        leaves them: a key named twice keeps its first arrival and its
        last node and value.  The keys are hashed in one pass, and a
        block that held nothing yet is built in one pass too;
        ``rib.inserts`` and ``rib.entries`` move once.  A handling node
        out of range, a value outside ``[0, 2**64)``, an integer key
        outside ``[0, 2**64)`` (``ValueError`` naming the row) or columns
        of different lengths refuse the whole batch before any change.
        """
        ckeys = hashfamily.canonical_keys(checked_keys(keys))
        nodes = np.asarray(nodes, dtype=np.int64)
        values = _value_column(values)
        if not len(ckeys) == len(nodes) == len(values):
            raise ValueError("keys, nodes and values lengths differ")
        count = len(values)
        if not count:
            return
        self.check_node(int(nodes.min()))
        self.check_node(int(nodes.max()))
        hashed = HashedKeys(ckeys)
        hashes = hashed.separator
        blocks, local = np.divmod(
            twolevel.bucket_ids(hashed, self.num_blocks), BUCKETS_PER_BLOCK
        )
        held = np.isin(blocks, list(self._blocks))
        before = self._len
        # Rows for blocks already held go in one at a time, in order.
        rows = np.flatnonzero(held)
        for row, block, bucket, key, bucket_hash, g1, g2, value, node in zip(
            rows.tolist(), blocks[rows].tolist(), local[rows].tolist(),
            ckeys[rows].tolist(), *hashes[:, rows].tolist(),
            values[rows].tolist(), nodes[rows].tolist(),
        ):
            self._put(self._blocks[block], bucket, key, value, node,
                      self._clock + row, (bucket_hash, g1, g2))
        if len(rows) < count:
            rows = np.flatnonzero(~held)
            self._build_blocks(
                rows, (ckeys, hashes, values, nodes), blocks, local
            )
        added = self._len - before
        self._clock += count
        self._g_entries.inc(added)
        self._m_inserts.inc(count)

    def _build_blocks(self, rows, columns, blocks, local) -> None:
        """Build the blocks of ``rows`` (none held yet) in one pass each:
        one row per distinct key at its first arrival, with its last node
        and value, chained by bucket in arrival order."""
        ckeys, hashes, values, nodes = columns
        keys = ckeys[rows]
        order = np.argsort(keys, kind="stable")
        runs = np.flatnonzero(np.diff(keys[order], prepend=~keys[order[0]]))
        first = rows[order[runs]]
        last = rows[order[np.append(runs[1:], len(rows)) - 1]]
        # Block, then bucket, then arrival: each chain is a run of rows.
        by_arrival = np.argsort(first)
        first, last = first[by_arrival], last[by_arrival]
        order = np.lexsort((local[first], blocks[first]))
        first, last = first[order], last[order]
        cuts = np.flatnonzero(np.diff(blocks[first])) + 1
        for start, end in zip(
            [0, *cuts.tolist()], [*cuts.tolist(), len(first)]
        ):
            head, tail = first[start:end], last[start:end]
            cols = np.empty((_COLUMNS, end - start), dtype=np.uint64)
            cols[_KEY] = ckeys[head]
            hashes.take(head, axis=1, out=cols[1:_VALUE])
            cols[_VALUE] = values[tail]
            cols[_NODE] = nodes[tail]
            self._blocks[int(blocks[head[0]])] = _Block.built(
                cols, local[head], head + self._clock
            )
            self._len += end - start

    def _put(self, blk: "_Block", local: int, ckey: int, value: int,
             node: int, arrival: int, hashes=None) -> Optional[int]:
        """Insert or overwrite ``ckey``'s record in bucket ``local`` (its
        separator ``hashes``, hashed here when not given); the node it
        replaced, ``None`` for a new key."""
        row, last = blk.find(local, ckey)
        if row == _NONE:
            blk.append(local, last, (
                ckey, *(hashes or hashfamily.separator_int(ckey)), value,
                node,
            ), arrival)
            self._len += 1
            return None
        return blk.overwrite(row, value, node)

    def remove(self, key: Key) -> Optional[RibEntry]:
        """Remove and return the record, or ``None`` if absent."""
        entry = self.get(key)
        if entry is not None:
            self._remove(self.bucket_of(entry.key), entry.key)
        return entry

    def get(self, key: Key) -> Optional[RibEntry]:
        """Exact lookup of the authoritative record."""
        ckey = hashfamily.canonical_key(key)
        block, local = divmod(self.bucket_of(ckey), BUCKETS_PER_BLOCK)
        blk = self._blocks.get(block)
        row = _NONE if blk is None else blk.find(local, ckey)[0]
        return None if row == _NONE else blk.snapshot(row)

    # Insert and remove for the §4.5 owner path (``UpdateEngine``,
    # ``NodeDaemon``), which hashes a key once per update and needs the
    # bucket for the block, the owner and the group as well.  ``bucket``
    # must be ``bucket_of(ckey)``; nothing here checks it.

    def check_node(self, node: int) -> None:
        """Raise ``ValueError`` unless ``node`` is one of the cluster's."""
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"handling node {node} out of range")

    @staticmethod
    def check_value(value: int) -> None:
        """Raise ``ValueError`` unless ``value`` is in ``[0, 2**64)``."""
        if not 0 <= value <= _MAX_VALUE:
            raise ValueError(f"value {value} out of range [0, 2**64)")

    def _insert(
        self, bucket: int, ckey: int, node: int, value: int
    ) -> Optional[int]:
        """Insert or overwrite; the node the record named before
        (``None`` for a new key)."""
        self.check_node(node)
        self.check_value(value)
        block, local = divmod(bucket, BUCKETS_PER_BLOCK)
        blk = self._blocks.get(block)
        if blk is None:
            blk = self._blocks[block] = _Block()
        previous = self._put(blk, local, ckey, value, node, self._clock)
        if previous is None:
            self._clock += 1
            self._g_entries.inc()
        self._m_inserts.inc()
        return previous

    def _remove(self, bucket: int, ckey: int) -> Optional[int]:
        """Remove ``ckey``'s record; the node it named, ``None`` for an
        absent key."""
        block, local = divmod(bucket, BUCKETS_PER_BLOCK)
        blk = self._blocks.get(block)
        if blk is None:
            return None
        row, previous = blk.find(local, ckey)
        if row == _NONE:
            return None
        node = blk.field(_NODE, row)
        blk.unlink(local, row, previous)
        self._len -= 1
        self._m_removes.inc()
        self._g_entries.dec()
        return node

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._len

    def entries(self) -> Iterator[RibEntry]:
        """All records, bucket by bucket — buckets in the order they first
        received a record, each in insertion order (an overwrite keeps a
        key's place, remove-then-insert moves it to the end).

        Inserting them into an empty RIB in this order reproduces every
        bucket's order, and so every group's (:meth:`group_contents`).
        """
        return iter([RibEntry(*row) for row in self.columns().T.tolist()])

    def columns(self, node: Optional[int] = None) -> np.ndarray:
        """The records — those ``node`` owns, if given — in
        :meth:`entries` order, as a ``(3, n)`` ``uint64`` matrix: keys,
        nodes, values."""
        blocks = [blk for block, blk in self._blocks.items()
                  if node is None or self.owner_of_block(block) == node]
        dated = sorted(
            (seen, local, index)
            for index, blk in enumerate(blocks)
            for local, seen in enumerate(blk.first_seen)
            if blk.heads[local] != _NONE
        )
        starts = np.cumsum([0] + [blk.capacity for blk in blocks]).tolist()
        order = [starts[index] + row for _, local, index in dated
                 for row in blocks[index].rows((local,))]
        return np.hstack([np.zeros((3, 0), np.uint64)] + [
            blk.cols[[_KEY, _NODE, _VALUE]] for blk in blocks
        ]).take(order, axis=1)

    def group_contents(
        self, group_id: int, setsep: Separator
    ) -> Tuple[HashedKeys, np.ndarray]:
        """(hashed keys, nodes) of one separator group — the rebuild
        input (§4.5).

        Only the block owner can produce this, which is exactly why keys of
        one block must co-reside: group membership depends on the block's
        bucket-to-group choices.  The group's rows are its few buckets'
        chains, gathered in one ``take``: the keys come back as a
        :class:`HashedKeys` batch carrying their separator columns (a
        rebuild hashes nothing) and the nodes as ``uint32``.

        Order: ascending bucket id, then insertion order within the bucket
        (an overwrite keeps the key's place, remove-then-insert moves it to
        the end).  The order reaches the wire in a failed group's
        ``fallback_upserts``, so every holder of the slice must produce it.
        """
        buckets = setsep.buckets_of_group(group_id)
        rows: List[int] = []
        if len(buckets):
            base = buckets[0] - buckets[0] % BUCKETS_PER_BLOCK
            blk = self._blocks.get(base // BUCKETS_PER_BLOCK)
            if blk is not None:
                rows = blk.rows(buckets, base)
        self._m_group_scan.inc(len(rows))
        if not rows:
            return (
                HashedKeys(np.zeros(0, np.uint64), np.zeros((3, 0), np.uint64)),
                np.zeros(0, np.uint32),
            )
        cols = blk.cols.take(rows, axis=1)
        return (
            HashedKeys(cols[_KEY], cols[1:_VALUE]),
            cols[_NODE].astype(np.uint32),
        )

    def load_per_node(self) -> List[int]:
        """RIB records held by each node (partitioning balance metric)."""
        loads = [0] * self.num_nodes
        for block, blk in self._blocks.items():
            loads[self.owner_of_block(block)] += blk.live
        return loads


def _value_column(values) -> np.ndarray:
    """``values`` as ``uint64``; ``ValueError`` naming the first row
    outside ``[0, 2**64)``."""
    column = np.asarray(values)
    if column.dtype.kind == "u":
        return column.astype(np.uint64, copy=False)
    if column.dtype.kind == "i" or not column.size:
        bad = np.flatnonzero(column < 0) if column.size else ()
    else:  # Python ints past int64: NumPy keeps them as objects
        bad = [row for row, value in enumerate(column.tolist())
               if not 0 <= value <= _MAX_VALUE]
    if len(bad):
        raise ValueError(
            f"row {int(bad[0])}: value {column[bad[0]]} out of range "
            "[0, 2**64)"
        )
    return column.astype(np.uint64)
