"""Cuckoo-hash FIB with a separated value array (paper §5.2).

ScaleBricks stores each node's slice of the FIB in a concurrent cuckoo hash
table derived from CuckooSwitch [34].  CuckooSwitch interleaved key/value to
fetch both in one cache line; ScaleBricks instead needs *configurable-sized*
values, so it keeps keys in the buckets and moves values into a separate
array indexed by the slot number — the extension this module implements.
When a cuckoo insertion relocates a key, the value moves with it, and lookup
costs one extra (slot-indexed) memory read that the paper measures to be
nearly free.

The table is 4-way set-associative with partial-key ("tag") alternate-bucket
derivation as in MemC3 [14]: ``alt(b, tag) = b XOR hash(tag)``, an involution
that lets either bucket derive the other without the full key.  Insertion
uses BFS for the shortest relocation path, which keeps high occupancy.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional, Tuple

import numpy as np

from repro.core import hashfamily
from repro.core.setsep import Key
from repro.hashtables.interface import (
    FibTable,
    TableFullError,
    canonical,
    checked_keys,
)

#: Slots per bucket (the associativity CuckooSwitch uses).
SLOTS_PER_BUCKET = 4

#: Maximum BFS depth when searching for a relocation path.
MAX_BFS_DEPTH = 4

#: Tag width in bits (partial key stored logically alongside each slot).
TAG_BITS = hashfamily.TAG_BITS

_TAG_MASK = (1 << TAG_BITS) - 1
_FIB_INT = hashfamily.FIB_STREAM_INT
_TAG_INT = hashfamily.TAG_STREAM_INT
_MASK64 = (1 << 64) - 1
#: The integer sidecar's range: a value outside it cannot be stored.
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1

#: The batched probe's constants, as arrays (a ufunc takes a 0-d array
#: at an array's cost, a scalar at up to twice it): each of a key's 8
#: candidates relative to its bucket's first slot, log2 of the slots per
#: bucket, the miss marker.
_SLOT_OFFSETS = np.tile(np.arange(SLOTS_PER_BUCKET, dtype=np.int64), 2)
_BUCKET_SHIFT = np.array(SLOTS_PER_BUCKET.bit_length() - 1, dtype=np.int64)
_MISS = np.array(-1, dtype=np.int64)
assert 1 << int(_BUCKET_SHIFT) == SLOTS_PER_BUCKET

#: ``(primary, alternate)`` bucket pairs times this are each key's 8
#: candidates' first slots (primary bucket first): one product widens
#: the pair and scales buckets to slots.
_EXPAND = np.repeat(
    np.eye(2, dtype=np.uint64) * np.uint64(SLOTS_PER_BUCKET),
    SLOTS_PER_BUCKET, axis=1,
)


class CuckooHashTable(FibTable):
    """4-way cuckoo hash table with values in a separate slot-indexed array.

    Args:
        capacity: expected number of entries; the bucket count is the next
            power of two giving a target load factor of ~0.95 (cuckoo with
            4-way buckets sustains >95% occupancy).
        value_size: bytes per value (the application-specific data the
            paper mentions — e.g. a TEID plus per-flow state handle).
        value_store: ``"object"`` keeps arbitrary Python values and uses
            ``value_size`` only for the memory model; ``"packed"``
            materialises the paper's dense byte matrix
            (:class:`repro.hashtables.valuearray.ValueArray`) and requires
            every value to be ``value_size`` bytes (ints are packed
            little-endian).
    """

    def __init__(
        self,
        capacity: int,
        value_size: int = 8,
        value_store: str = "object",
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if value_size < 1:
            raise ValueError("value_size must be positive")
        if value_store not in ("object", "packed"):
            raise ValueError("value_store must be 'object' or 'packed'")
        self.capacity = capacity  #: the entry count it is sized for
        buckets_needed = max(1, int(capacity / (SLOTS_PER_BUCKET * 0.95)) + 1)
        self._num_buckets = 1 << (buckets_needed - 1).bit_length()
        self._bucket_mask_int = self._num_buckets - 1
        # 0-d, not a NumPy scalar: a ufunc takes it at an array's cost.
        self._bucket_mask = np.array(self._bucket_mask_int, dtype=np.uint64)
        num_slots = self._num_buckets * SLOTS_PER_BUCKET
        self._keys = np.zeros(num_slots, dtype=np.uint64)
        self._occupied = np.zeros(num_slots, dtype=bool)
        # The separated value array: element k holds the value of slot k.
        self._values: Any
        if value_store == "packed":
            from repro.hashtables.valuearray import ValueArray

            self._values = ValueArray(num_slots, value_size)
        else:
            self._values = [None] * num_slots
        # Integer sidecar mirroring the value array: slots whose value is a
        # plain int are additionally kept here so the array-native batch
        # lookup can gather values without touching Python objects.
        self._int_values = np.zeros(num_slots, dtype=np.int64)
        self._int_ok = np.zeros(num_slots, dtype=bool)
        # The scalar ops' way in (the arrays are never replaced): a
        # memoryview item costs a third of a NumPy scalar, and a slice of
        # one bucket reads its four slots in one step.
        self._key_view = memoryview(self._keys)
        self._occupied_view = memoryview(self._occupied)
        self._int_view = memoryview(self._int_values)
        self._int_ok_view = memoryview(self._int_ok)
        #: Whether a value that is not an integer was ever stored: until
        #: one is, every hit holds an integer and the array-native lookup
        #: skips its test.
        self._held_non_int = False
        self.value_store = value_store
        self._value_size = value_size
        self._len = 0
        self._relocations = 0

    # ------------------------------------------------------------------
    # Hashing
    # ------------------------------------------------------------------

    # Single-key hashing runs in plain ints, the rounds inlined (the
    # ``*_int`` twins of the vectorised streams ``lookup_slots`` uses).

    def _find(self, key: Key) -> Tuple[int, int, int, int]:
        """``(ckey, slot, first, second)`` of one key: ``slot`` holds it,
        ``-1`` when none does; ``first`` and ``second`` are the first
        slots of its primary and alternate buckets.

        The primary bucket is probed first, and only a key it does not
        hold pays for the alternate bucket's two rounds (``second`` is
        ``-1`` then).  An integer key outside ``[0, 2**64)`` is a
        ``ValueError`` (:func:`~repro.hashtables.interface.canonical`).
        """
        if type(key) is int and 0 <= key <= _MASK64:
            ckey = key
        else:
            ckey = canonical(key)
        x = (ckey ^ _FIB_INT) + 0x9E3779B97F4A7C15 & _MASK64
        x = (x ^ x >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
        x = (x ^ x >> 27) * 0x94D049BB133111EB & _MASK64
        bucket = (x ^ x >> 31) & self._bucket_mask_int
        first = bucket * SLOTS_PER_BUCKET
        keys, occupied = self._key_view, self._occupied_view
        row = keys[first:first + SLOTS_PER_BUCKET].tolist()
        if ckey in row:
            slot = first + row.index(ckey)
            if occupied[slot]:
                return ckey, slot, first, -1
        second = self._alt_bucket(bucket, ckey) * SLOTS_PER_BUCKET
        # A free slot reads as key 0: where a free slot matched, the
        # primary bucket is tested slot by slot too.
        for start in (first, second) if ckey in row else (second,):
            row = keys[start:start + SLOTS_PER_BUCKET].tolist()
            if ckey in row:
                for slot, held in enumerate(row, start):
                    if held == ckey and occupied[slot]:
                        return ckey, slot, first, second
        return ckey, -1, first, second

    def _alt_bucket(self, bucket: int, ckey: int) -> int:
        """The other bucket of ``ckey``, which sits at ``bucket``: the
        bucket XOR the hash of its tag (an involution, per MemC3).  The
        tag is the tag hash's low ``TAG_BITS``, never zero, so zero can
        mean "empty"; both rounds inlined."""
        x = (ckey ^ _TAG_INT) + 0x9E3779B97F4A7C15 & _MASK64
        x = (x ^ x >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
        x = (x ^ x >> 27) * 0x94D049BB133111EB & _MASK64
        x = ((x ^ x >> 31) & _TAG_MASK or 1) ^ _TAG_INT
        x = x + 0x9E3779B97F4A7C15 & _MASK64
        x = (x ^ x >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
        x = (x ^ x >> 27) * 0x94D049BB133111EB & _MASK64
        return bucket ^ (x ^ x >> 31) & self._bucket_mask_int

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------

    def insert(self, key: Key, value: Any) -> None:
        """Insert or overwrite ``key``: its slot if held, else the first
        free slot of its primary bucket, then of its alternate, else the
        end of the shortest relocation path (:class:`TableFullError`
        when there is none, nothing changed).

        An integer value must fit the int64 sidecar (``OverflowError``
        before any change); a ``bool`` is not an integer value.
        """
        ckey, slot, first, second = self._find(key)
        if type(value) is int or (
            isinstance(value, (int, np.integer))
            and not isinstance(value, bool)
        ):
            int_value = int(value)
            if not _INT64_MIN <= int_value <= _INT64_MAX:
                raise OverflowError(
                    f"integer value {int_value} does not fit in int64"
                )
        else:
            int_value = None
        if slot < 0:
            occupied = self._occupied_view
            row = occupied[first:first + SLOTS_PER_BUCKET].tolist()
            if False in row:
                slot = first + row.index(False)
            else:
                row = occupied[second:second + SLOTS_PER_BUCKET].tolist()
                if False in row:
                    slot = second + row.index(False)
                else:
                    path = self._bfs_path(first // SLOTS_PER_BUCKET,
                                          second // SLOTS_PER_BUCKET)
                    if path is None:
                        raise TableFullError(
                            "cuckoo table full at load factor "
                            f"{self.load_factor():.3f}"
                        )
                    self._shift_along(path)
                    slot = path[0]
            self._values[slot] = value  # a packed store may refuse it
            self._key_view[slot] = ckey
            occupied[slot] = True
            self._len += 1
        else:
            self._values[slot] = value
        if int_value is None:
            self._int_ok_view[slot] = False
            self._held_non_int = True
        else:
            self._int_view[slot] = int_value
            self._int_ok_view[slot] = True

    def insert_many(self, keys, values) -> None:
        """Insert or overwrite many entries, leaving exactly the state a
        loop of :meth:`insert` over the rows, in order, leaves.

        The batch is hashed once (the FIB columns :meth:`lookup_slots`
        reads) and each new key takes :meth:`insert`'s slot: the first
        free one of its primary bucket, then of its alternate.  A key
        already held, repeated in the batch, or with both buckets full
        goes through :meth:`insert` itself, at its place in the order.

        The whole batch is refused before any change when a key is an
        integer outside ``[0, 2**64)`` (``ValueError`` naming the row,
        :func:`~repro.hashtables.interface.checked_keys`), an integer
        value does not fit the int64 sidecar, or the columns' lengths
        differ.  A :class:`TableFullError` leaves the rows before the one
        it names inserted, as the loop would.
        """
        batch = hashfamily.prehash(checked_keys(keys))
        values = list(values)
        if len(values) != len(batch):
            raise ValueError("keys and values lengths differ")
        if not values:
            return
        is_int = [  # ``insert``'s integer test, plain ints first
            type(value) is int or (
                isinstance(value, (int, np.integer))
                and not isinstance(value, bool)
            )
            for value in values
        ]
        # Refuses an int beyond int64 before any slot is written.
        int_values = np.array(
            [int(value) if ok else 0 for value, ok in zip(values, is_int)],
            dtype=np.int64,
        )
        int_ok = np.array(is_int, dtype=bool)
        if not all(is_int):
            self._held_non_int = True
        keys_arr = batch.keys
        # Rows ``insert`` takes: held keys, and repeats of an earlier row.
        via_insert = self._probe(batch)[1]
        repeat = np.ones(len(keys_arr), dtype=bool)
        repeat[np.unique(keys_arr, return_index=True)[1]] = False
        via_insert |= repeat
        # Each key's two buckets, as first slots (as ``_probe`` has them).
        buckets = (batch.fib & self._bucket_mask).view(np.int64)
        buckets[1] ^= buckets[0]
        buckets <<= _BUCKET_SHIFT

        # One byte per slot: ``find(0, start, end)`` is the first free
        # slot of a bucket, in C.
        occupied = bytearray(self._occupied)
        rows: List[int] = []
        slots: List[int] = []

        def flush() -> None:
            """Write the rows placed since the last flush."""
            if not rows:
                return
            at = np.array(slots, dtype=np.int64)
            taken = np.array(rows, dtype=np.int64)
            ints = int_ok[taken]
            self._keys[at] = keys_arr[taken]
            self._occupied[at] = True
            self._int_ok[at] = ints
            self._int_values[at[ints]] = int_values[taken[ints]]
            store = self._values
            for slot, row in zip(slots, rows):
                store[slot] = values[row]
            self._len += len(rows)
            rows.clear()
            slots.clear()

        for row, (inserted, first, second) in enumerate(zip(
            via_insert.tolist(), buckets[0].tolist(), buckets[1].tolist()
        )):
            if not inserted:
                slot = occupied.find(0, first, first + SLOTS_PER_BUCKET)
                if slot < 0:
                    slot = occupied.find(0, second, second + SLOTS_PER_BUCKET)
                if slot < 0:
                    inserted = True
                else:
                    occupied[slot] = 1
                    rows.append(row)
                    slots.append(slot)
            if inserted:
                # ``insert`` reads the arrays, and its BFS may move
                # occupants: write what is pending, re-read the fill.
                flush()
                self.insert(int(keys_arr[row]), values[row])
                occupied = bytearray(self._occupied)
        flush()

    def lookup(self, key: Key) -> Optional[Any]:
        slot = self._find(key)[1]
        if slot < 0:
            return None
        # The separated value array costs exactly one extra indexed read.
        return self._values[slot]

    def lookup_slots(self, keys) -> np.ndarray:
        """Vectorised slot resolution: each key's slot id, ``-1`` on miss.

        Candidate buckets, tags and slot comparisons for the whole batch
        are computed as NumPy array operations — the software analogue of
        the prefetch pipelining CuckooSwitch uses (§5.1).  Both batch
        lookup shapes build on this.  The FIB hash and the tag's
        alternate-bucket offset are the batch's FIB columns
        (:class:`repro.core.hashfamily.HashedKeys`: hashed here for raw
        keys, read from a pre-hashed batch); masking them onto this
        table's buckets is done here.
        """
        slots, hit = self._probe(keys)
        return np.where(hit, slots, _MISS)

    def _probe(self, keys) -> Tuple[np.ndarray, np.ndarray]:
        """``(slots, hit)``: each key's first candidate slot holding it,
        or, where ``hit`` is False, its first candidate (a real slot, so
        a gather by ``slots`` needs no mask).  A key whose two buckets
        coincide has each slot twice among its candidates."""
        batch = (
            keys if isinstance(keys, hashfamily.HashedKeys)
            else hashfamily.prehash(keys)
        )
        # Row 0 the primary bucket, row 1 the alternate.
        buckets = batch.fib & self._bucket_mask
        buckets[1] ^= buckets[0]
        # All 8 candidate slots per key, primary bucket first: (n, 8)
        # (below 2**63, so the int64 view reads the same numbers).
        slots = buckets.T.dot(_EXPAND).view(np.int64)
        slots += _SLOT_OFFSETS
        match = self._keys[slots] == batch.keys[:, None]
        match &= self._occupied[slots]
        # Each key's first matching candidate (0 on a miss), as a flat
        # index: row ``j`` starts at ``8 * j``.
        first = match.argmax(axis=1)
        first += np.arange(0, match.size, 2 * SLOTS_PER_BUCKET)
        return slots.ravel()[first], match.ravel()[first]

    def lookup_batch(self, keys) -> List[Optional[Any]]:
        """Vectorised multi-key lookup (the PFE's batched fast path).

        Slot resolution is fully vectorised (:meth:`lookup_slots`); only
        the final value fetches for hits touch Python objects.
        """
        slots = self.lookup_slots(keys)
        out: List[Optional[Any]] = [None] * len(slots)
        for row in np.nonzero(slots >= 0)[0].tolist():
            out[row] = self._values[int(slots[row])]
        return out

    def lookup_batch_array(self, keys, missing: int = -1):
        """Array-native batch lookup: ``(found, int64 values)``.

        Stays entirely in NumPy when every hit value is an integer (the
        FIB's TEID case) by gathering from the integer sidecar; raises
        :class:`TypeError` as the interface contract requires otherwise.
        An integer key outside ``[0, 2**64)`` is a ``ValueError`` naming
        the first bad row (:func:`~repro.hashtables.interface.checked_keys`).
        """
        if not isinstance(keys, hashfamily.HashedKeys):
            keys = checked_keys(keys)
        slots, found = self._probe(keys)
        # Every hit's slot holds an integer (``found`` implies ``int_ok``).
        if self._held_non_int and not np.logical_and.reduce(
            self._int_ok[slots] >= found
        ):
            raise TypeError(
                "CuckooHashTable holds non-integer values; use lookup_batch()"
            )
        return found, np.where(found, self._int_values[slots], missing)

    def delete(self, key: Key) -> bool:
        slot = self._find(key)[1]
        if slot < 0:
            return False
        self._occupied_view[slot] = False
        self._key_view[slot] = 0
        self._values[slot] = None
        self._int_ok_view[slot] = False
        self._len -= 1
        return True

    def __len__(self) -> int:
        return self._len

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _bfs_path(self, b1: int, b2: int) -> Optional[List[int]]:
        """Shortest chain of slots ending at an empty slot.

        Returns slot ids ``[s0, s1, ..., empty]`` where each occupant of
        ``s_i`` moves to ``s_{i+1}``; ``s0`` is freed for the new key.
        """
        occupied, keys = self._occupied_view, self._key_view
        # Each queue entry: (slot, path-of-slots-to-reach-it).
        queue: Deque[Tuple[int, Tuple[int, ...]]] = deque()
        visited = {b1, b2}
        for bucket in (b1, b2):
            start = bucket * SLOTS_PER_BUCKET
            for slot in range(start, start + SLOTS_PER_BUCKET):
                queue.append((slot, (slot,)))
        steps = 0
        while queue and steps < 4096:
            steps += 1
            slot, path = queue.popleft()
            if not occupied[slot]:
                return list(path)
            if len(path) > MAX_BFS_DEPTH:
                continue
            alt = self._alt_bucket(slot // SLOTS_PER_BUCKET, keys[slot])
            if alt in visited:
                continue
            visited.add(alt)
            start = alt * SLOTS_PER_BUCKET
            for nxt in range(start, start + SLOTS_PER_BUCKET):
                queue.append((nxt, path + (nxt,)))
        return None

    def _shift_along(self, path: List[int]) -> None:
        """Move occupants backwards along the path, values included."""
        keys, occupied = self._key_view, self._occupied_view
        ints, int_ok, values = self._int_view, self._int_ok_view, self._values
        for i in range(len(path) - 1, 0, -1):
            src, dst = path[i - 1], path[i]
            keys[dst] = keys[src]
            values[dst] = values[src]  # value moves with the key
            ints[dst] = ints[src]
            int_ok[dst] = int_ok[src]
            occupied[dst] = True
            occupied[src] = False
            values[src] = None
            int_ok[src] = False
            self._relocations += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def load_factor(self) -> float:
        """Fraction of slots in use."""
        return self._len / (self._num_buckets * SLOTS_PER_BUCKET)

    @property
    def num_buckets(self) -> int:
        """Bucket count (power of two)."""
        return self._num_buckets

    @property
    def relocations(self) -> int:
        """Total cuckoo moves performed (insertion-cost metric)."""
        return self._relocations

    def size_bytes(self) -> int:
        """Keys + tags region plus the separated value array."""
        num_slots = self._num_buckets * SLOTS_PER_BUCKET
        key_region = num_slots * (8 + TAG_BITS // 8)
        value_region = num_slots * self._value_size
        return key_region + value_region
