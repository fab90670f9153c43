"""A functional model of DPDK's ``rte_hash`` (paper Figures 8–10 comparator).

DPDK's ``rte_hash`` is a bucketised hash table: fixed-capacity buckets of 8
entries, each entry summarised by a 32-bit signature; keys whose primary
bucket overflows are placed in a secondary bucket derived from the
signature.  If both buckets of a key are full the insert fails (the real
library optionally chains an extendable bucket; the paper benchmarked the
cuckoo table against the plain configuration, which this model follows).

Compared to the 4-way cuckoo table, the 8-entry buckets mean more key
comparisons per lookup and a lower safe occupancy — the structural reasons
the paper's extended cuckoo table beats ``rte_hash`` by ~50%.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core import hashfamily
from repro.core.setsep import Key
from repro.hashtables.interface import (
    FibTable,
    TableFullError,
    canonical,
    canonical_many,
    checked_keys,
)

#: Entries per bucket (rte_hash's RTE_HASH_BUCKET_ENTRIES).
BUCKET_ENTRIES = 8


class RteHashTable(FibTable):
    """Two-choice bucketised signature hash table in the rte_hash mould.

    Args:
        capacity: expected entries; sized for ~50% occupancy.  Without
            cuckoo-style displacement a bucketised table must be provisioned
            well below full, which is exactly the memory disadvantage versus
            the >95%-occupancy cuckoo FIB that the paper exploits.
        value_size: bytes charged per value by the size accounting.
    """

    def __init__(self, capacity: int, value_size: int = 8) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        buckets_needed = max(1, int(capacity / (BUCKET_ENTRIES * 0.5)) + 1)
        self._num_buckets = 1 << (buckets_needed - 1).bit_length()
        self._mask = self._num_buckets - 1
        num_slots = self._num_buckets * BUCKET_ENTRIES
        self._keys = np.zeros(num_slots, dtype=np.uint64)
        self._sigs = np.zeros(num_slots, dtype=np.uint32)
        self._occupied = np.zeros(num_slots, dtype=bool)
        self._values: List[Any] = [None] * num_slots
        self._value_size = value_size
        self._len = 0

    def _sig_and_buckets(self, ckey: int) -> Tuple[int, int, int]:
        arr = np.asarray([ckey], dtype=np.uint64)
        h = int(hashfamily.fib_hash(arr)[0])
        sig = h & 0xFFFFFFFF or 1
        primary = (h >> 32) & self._mask
        secondary = (primary ^ (sig * 0x5BD1E995 & 0xFFFFFFFF)) & self._mask
        return sig, primary, secondary

    def _slots_of(self, bucket: int) -> range:
        start = bucket * BUCKET_ENTRIES
        return range(start, start + BUCKET_ENTRIES)

    def insert(self, key: Key, value: Any) -> None:
        ckey = canonical(key)
        sig, b1, b2 = self._sig_and_buckets(ckey)

        # Overwrite when present (signature pre-filter, then key compare).
        for bucket in (b1, b2):
            for slot in self._slots_of(bucket):
                if (
                    self._occupied[slot]
                    and int(self._sigs[slot]) == sig
                    and int(self._keys[slot]) == ckey
                ):
                    self._values[slot] = value
                    return

        # Place into the emptier of the two buckets (two-choice balancing),
        # which postpones overflow in lieu of displacement.
        def free_slots(bucket: int) -> list:
            return [s for s in self._slots_of(bucket) if not self._occupied[s]]

        free1, free2 = free_slots(b1), free_slots(b2)
        chosen = max((free1, free2), key=len)
        if not chosen:
            raise TableFullError("both rte_hash buckets full")
        slot = chosen[0]
        self._keys[slot] = ckey
        self._sigs[slot] = sig
        self._occupied[slot] = True
        self._values[slot] = value
        self._len += 1

    def lookup(self, key: Key) -> Optional[Any]:
        ckey = canonical(key)
        sig, b1, b2 = self._sig_and_buckets(ckey)
        for bucket in (b1, b2):
            for slot in self._slots_of(bucket):
                if (
                    self._occupied[slot]
                    and int(self._sigs[slot]) == sig
                    and int(self._keys[slot]) == ckey
                ):
                    return self._values[slot]
        return None

    def lookup_slots(self, keys: Union[Sequence[Key], np.ndarray]) -> np.ndarray:
        """Vectorised slot resolution; ``-1`` marks absent keys.

        Probes both candidate buckets of every key at once — the array
        analogue of the scalar double-bucket scan, preserving its
        primary-before-secondary match order.
        """
        ckeys = canonical_many(keys)
        n = ckeys.size
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        h = hashfamily.fib_hash(ckeys)
        sigs = (h & np.uint64(0xFFFFFFFF)).astype(np.uint64)
        sigs[sigs == 0] = 1
        mask = np.uint64(self._mask)
        primary = (h >> np.uint64(32)) & mask
        with np.errstate(over="ignore"):
            secondary = (primary ^ (sigs * np.uint64(0x5BD1E995) & np.uint64(0xFFFFFFFF))) & mask
        base = np.concatenate(
            [primary[:, None], secondary[:, None]], axis=1
        ) * np.uint64(BUCKET_ENTRIES)
        # (n, 2 * BUCKET_ENTRIES) candidate slots, primary bucket first.
        slots = (
            base[:, :, None] + np.arange(BUCKET_ENTRIES, dtype=np.uint64)
        ).reshape(n, 2 * BUCKET_ENTRIES).astype(np.int64)
        match = (
            self._occupied[slots]
            & (self._sigs[slots].astype(np.uint64) == sigs[:, None])
            & (self._keys[slots] == ckeys[:, None])
        )
        any_hit = match.any(axis=1)
        first = match.argmax(axis=1)
        return np.where(
            any_hit, slots[np.arange(n), first], np.int64(-1)
        ).astype(np.int64)

    def lookup_batch(
        self, keys: Union[Sequence[Key], np.ndarray]
    ) -> List[Optional[Any]]:
        """Batch lookup via the vectorised slot probe."""
        slots = self.lookup_slots(keys)
        results: List[Optional[Any]] = [None] * slots.size
        for i in np.nonzero(slots >= 0)[0]:
            results[int(i)] = self._values[int(slots[i])]
        return results

    def lookup_batch_array(
        self,
        keys: Union[Sequence[Key], np.ndarray],
        missing: int = -1,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Array-native batch lookup (see :meth:`FibTable.lookup_batch_array`)."""
        slots = self.lookup_slots(checked_keys(keys))
        found = slots >= 0
        values = np.full(slots.size, missing, dtype=np.int64)
        for i in np.nonzero(found)[0]:
            value = self._values[int(slots[i])]
            if not isinstance(value, (int, np.integer)) or isinstance(
                value, bool
            ):
                raise TypeError(
                    f"{type(self).__name__} holds non-integer values; "
                    "use lookup_batch()"
                )
            values[i] = int(value)
        return found, values

    def delete(self, key: Key) -> bool:
        ckey = canonical(key)
        sig, b1, b2 = self._sig_and_buckets(ckey)
        for bucket in (b1, b2):
            for slot in self._slots_of(bucket):
                if (
                    self._occupied[slot]
                    and int(self._sigs[slot]) == sig
                    and int(self._keys[slot]) == ckey
                ):
                    self._occupied[slot] = False
                    self._keys[slot] = 0
                    self._sigs[slot] = 0
                    self._values[slot] = None
                    self._len -= 1
                    return True
        return False

    def __len__(self) -> int:
        return self._len

    def load_factor(self) -> float:
        """Fraction of slots in use."""
        return self._len / (self._num_buckets * BUCKET_ENTRIES)

    def size_bytes(self) -> int:
        """Keys + signatures + values (interleaved layout, as in DPDK)."""
        num_slots = self._num_buckets * BUCKET_ENTRIES
        return num_slots * (8 + 4 + self._value_size)
