"""CHD-style perfect hashing (compress, hash and displace; paper §8).

Belazzougui, Botelho & Dietzfelbinger's CHD builds a perfect hash by
assigning each key to a small bucket and searching, per bucket in
descending-size order, for a displacement that lands all of the bucket's
keys on unused slots.  The paper cites CHD (and ECT) as the compressed
perfect-hashing relatives of SetSep: ~2.5 bits/key for the index, but the
values still have to be stored in a separate table and lookups are slower.

This implementation provides both the perfect hash (key -> distinct slot)
and a value-table wrapper so the ablation benchmark can compare bits/key
and lookup behaviour against SetSep on the same workload.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.core import hashfamily
from repro.core.setsep import Key

#: Average keys per CHD bucket (lambda); 4–5 is the usual sweet spot.
KEYS_PER_BUCKET = 4

#: Slot head-room factor (alpha = n/m slots utilisation ~0.95).
SLOT_FACTOR = 1.05

#: Displacement search limit per bucket.
MAX_DISPLACEMENT = 1 << 16


class ChdBuildError(RuntimeError):
    """Raised when no displacement works for some bucket."""


class ChdPerfectHash:
    """Minimal-ish perfect hash over a static key set."""

    def __init__(
        self,
        keys: Union[Sequence[Key], np.ndarray],
        max_seed_attempts: int = 8,
    ) -> None:
        keys_arr = hashfamily.canonical_keys(keys)
        if len(np.unique(keys_arr)) != len(keys_arr):
            raise ValueError("keys must be distinct")
        self.num_keys = len(keys_arr)
        self.num_buckets = max(1, self.num_keys // KEYS_PER_BUCKET)
        self.num_slots = max(
            self.num_keys + 1, int(self.num_keys * SLOT_FACTOR) + 1
        )
        for seed in range(max_seed_attempts):
            if self._try_build(keys_arr, seed):
                self._seed = seed
                return
        raise ChdBuildError(
            f"no displacement assignment found for {self.num_keys} keys"
        )

    def _bucket_of(self, keys: np.ndarray, seed: int) -> np.ndarray:
        stream = hashfamily.derive_stream(f"chd-bucket-{seed}")
        return hashfamily.reduce_range(
            hashfamily.keyed_hash(keys, stream), self.num_buckets
        )

    def _slot_of(self, keys: np.ndarray, displacement: int, seed: int) -> np.ndarray:
        """Slot for each key under a bucket displacement value."""
        stream = hashfamily.derive_stream(f"chd-slot-{seed}")
        g1, g2 = hashfamily.base_hashes(
            hashfamily.keyed_hash(keys, stream)
        )
        return hashfamily.positions(
            hashfamily.family_values(g1, g2, displacement), self.num_slots
        )

    def _base_hashes(self, keys: np.ndarray, seed: int):
        stream = hashfamily.derive_stream(f"chd-slot-{seed}")
        return hashfamily.base_hashes(hashfamily.keyed_hash(keys, stream))

    def _try_build(self, keys: np.ndarray, seed: int) -> bool:
        buckets = self._bucket_of(keys, seed)
        order = np.argsort(np.bincount(buckets, minlength=self.num_buckets))[::-1]
        taken = np.zeros(self.num_slots, dtype=bool)
        displacements = np.zeros(self.num_buckets, dtype=np.uint32)
        g1_all, g2_all = self._base_hashes(keys, seed)

        chunk = 64
        for bucket in order:
            member_mask = buckets == bucket
            if not member_mask.any():
                continue
            g1, g2 = g1_all[member_mask], g2_all[member_mask]
            placed = False
            for start in range(0, MAX_DISPLACEMENT, chunk):
                pos = hashfamily.chunk_slots(
                    g1, g2, start, chunk, self.num_slots
                )
                # A column works iff its slots are distinct and all free.
                free = ~taken[pos]
                all_free = free.all(axis=0)
                for col in np.nonzero(all_free)[0]:
                    slots = pos[:, col]
                    if len(np.unique(slots)) == len(slots):
                        taken[slots] = True
                        displacements[bucket] = start + int(col)
                        placed = True
                        break
                if placed:
                    break
            if not placed:
                return False
        self._displacements = displacements
        return True

    def slot(self, key: Key) -> int:
        """Perfect-hash slot of a key (collision-free over the build set)."""
        return int(self.slot_batch([key])[0])

    def slot_batch(self, keys: Union[Sequence[Key], np.ndarray]) -> np.ndarray:
        """Vectorised slot computation."""
        keys_arr = hashfamily.canonical_keys(keys)
        if keys_arr.size == 0:
            return np.zeros(0, dtype=np.int64)
        buckets = self._bucket_of(keys_arr, self._seed)
        displacements = self._displacements[buckets]
        out = np.zeros(len(keys_arr), dtype=np.int64)
        # Displacements vary per key, so evaluate per distinct displacement.
        for d in np.unique(displacements):
            mask = displacements == d
            out[mask] = self._slot_of(keys_arr[mask], int(d), self._seed)
        return out

    def index_bits_per_key(self) -> float:
        """Bits/key for the displacement index at a plain 16-bit encoding.

        Real CHD arithmetic-codes the displacements down to ~2.5 bits/key;
        we report the entropy estimate alongside the raw encoding so the
        comparison brackets both.
        """
        return self.num_buckets * 16 / max(1, self.num_keys)

    def index_entropy_bits_per_key(self) -> float:
        """Empirical entropy of the displacement distribution, per key."""
        counts = np.bincount(self._displacements)
        probs = counts[counts > 0] / self.num_buckets
        entropy = float(-(probs * np.log2(probs)).sum())
        return entropy * self.num_buckets / max(1, self.num_keys)


class ChdValueTable:
    """Key-to-value map: CHD perfect hash + a dense value array.

    This is the "perfect hashing still stores the values" architecture the
    paper contrasts with SetSep: the index is compact, but every slot holds
    a full value and unknown keys read an arbitrary slot.
    """

    def __init__(
        self,
        keys: Union[Sequence[Key], np.ndarray],
        values: Sequence[int],
        value_bits: int,
    ) -> None:
        keys_arr = hashfamily.canonical_keys(keys)
        values_arr = np.asarray(values, dtype=np.uint32)
        if keys_arr.shape != values_arr.shape:
            raise ValueError("keys and values must have equal length")
        self.value_bits = value_bits
        self.phf = ChdPerfectHash(keys_arr)
        self._table = np.zeros(self.phf.num_slots, dtype=np.uint32)
        self._table[self.phf.slot_batch(keys_arr)] = values_arr

    def lookup(self, key: Key) -> int:
        """Value for ``key`` (arbitrary slot's value for unknown keys)."""
        return int(self._table[self.phf.slot(key)])

    def lookup_batch(
        self, keys: Union[Sequence[Key], np.ndarray]
    ) -> np.ndarray:
        """Vectorised lookup."""
        return self._table[self.phf.slot_batch(keys)]

    def size_bits(self) -> int:
        """Displacement index (16-bit encoding) + value table."""
        index = self.phf.num_buckets * 16
        table = self.phf.num_slots * self.value_bits
        return index + table
