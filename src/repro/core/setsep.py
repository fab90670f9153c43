"""SetSep: compact set separation over billions of keys (paper §4).

SetSep stores a mapping from arbitrary 64-bit keys to small values (cluster
node ids) *without storing the keys*.  Keys flow through two levels of
hashing into ~16-key groups; each group stores, per value bit, a brute-force
found hash-function index plus an m-bit array (see :mod:`repro.core.group`).
Storage is ~1.5 bits/key/value-bit + 0.5 bits/key for the group mapping.

The price of compactness is one-sided error: a lookup for a key that was
never inserted returns an arbitrary value — SetSep cannot say "not found".
ScaleBricks tolerates this because the handling node's exact FIB rejects
unknown keys (§3.2).

Construction lives in :mod:`repro.core.builder`; this module is the queryable
structure plus in-place delta updates (§4.5).
"""

from __future__ import annotations

import bisect
import operator
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core import group as group_search
from repro.core import hashfamily, twolevel
from repro.core.delta import GroupDelta
from repro.core.fallback import FallbackTable
from repro.core.hashfamily import Key
from repro.core.params import (
    BUCKETS_PER_BLOCK,
    CHOICE_BITS,
    GROUPS_PER_BLOCK,
    SetSepParams,
)
from repro.obs.metrics import MetricsRegistry, resolve_registry


class SetSep:
    """The queryable set-separation structure.

    Instances are normally created with :func:`repro.core.builder.build`.
    The constructor takes pre-assembled state so that builders (serial,
    parallel, distributed across RIB nodes) can produce slices independently.
    """

    #: Registry name under :mod:`repro.core.separator`.
    backend = "setsep"

    def __init__(
        self,
        params: SetSepParams,
        num_blocks: int,
        choices: np.ndarray,
        indices: np.ndarray,
        arrays: np.ndarray,
        failed_groups: np.ndarray,
        fallback: Optional[FallbackTable] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        num_buckets = num_blocks * BUCKETS_PER_BLOCK
        num_groups = num_blocks * GROUPS_PER_BLOCK
        if choices.shape != (num_buckets,):
            raise ValueError("choices shape does not match num_blocks")
        if indices.shape != (num_groups, params.value_bits):
            raise ValueError("indices shape does not match num_blocks/params")
        if arrays.shape != (num_groups, params.value_bits):
            raise ValueError("arrays shape does not match num_blocks/params")
        if failed_groups.shape != (num_groups,):
            raise ValueError("failed_groups shape does not match num_blocks")
        self.params = params
        self.num_blocks = num_blocks
        #: Second-level groups (64 per block): fixed, as ``num_blocks`` is.
        self.num_groups = num_groups
        #: ``2**b`` for each value bit ``b``: a lookup's bits dotted with
        #: these are its value.
        self._bit_weights = np.left_shift(
            1, np.arange(params.value_bits, dtype=arrays.dtype)
        )
        # Fixed at construction (the two-level assignment is never
        # redone in place), so what is derived from it never goes stale.
        self._choices = choices.view()
        self._choices.flags.writeable = False
        #: group id -> its buckets (:meth:`buckets_of_group`), on first use.
        self._group_buckets: Dict[int, Tuple[int, ...]] = {}
        self.indices = indices
        self.arrays = arrays
        self.failed_groups = failed_groups
        # ``apply_delta``'s way in (the arrays are written in place, never
        # replaced): flat views, a group's row ``value_bits`` items from
        # ``group * value_bits``; a few memoryview item writes cost about
        # two thirds of a NumPy row assignment.
        self._index_view = memoryview(indices).cast("B").cast(indices.dtype.char)
        self._array_view = memoryview(arrays).cast("B").cast(arrays.dtype.char)
        self._failed_view = memoryview(failed_groups)
        self.fallback = fallback if fallback is not None else FallbackTable()
        self.bind_registry(registry)

    def bind_registry(self, registry: Optional[MetricsRegistry]) -> None:
        """Attach a metrics registry (``None`` selects the null registry).

        Instrument handles are cached here so the lookup path pays one
        method call per *batch*, a no-op under the null registry.
        """
        self.registry = resolve_registry(registry)
        self._m_lookups = self.registry.counter(
            "setsep.lookups", "keys looked up (batch or scalar)"
        )
        self._m_fallback_hits = self.registry.counter(
            "setsep.fallback_hits", "lookups answered by the exact fallback"
        )
        self._m_rebuilds = self.registry.counter(
            "setsep.group_rebuilds", "groups recomputed by the update path"
        )
        self._m_bits_kept = self.registry.counter(
            "setsep.incumbent_bits_kept",
            "value bits whose index a rebuild kept (array recomputed)",
        )
        self._m_bits_searched = self.registry.counter(
            "setsep.bits_searched",
            "value bits a rebuild did not keep: searched, or spilled",
        )
        self._m_rebuild_failures = self.registry.counter(
            "setsep.group_rebuild_failures",
            "group recomputes that spilled to the fallback",
        )
        self._m_deltas_applied = self.registry.counter(
            "setsep.deltas_applied", "broadcast group deltas applied"
        )

    # ------------------------------------------------------------------
    # Shape properties
    # ------------------------------------------------------------------

    @property
    def choices(self) -> np.ndarray:
        """Each first-level bucket's choice of group, 2 bits in a uint8:
        a read-only view, fixed at construction."""
        return self._choices

    @property
    def num_buckets(self) -> int:
        """First-level buckets (256 per block)."""
        return self.num_blocks * BUCKETS_PER_BLOCK

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def lookup(self, key: Key) -> int:
        """Map one key to its value.

        Never raises for unknown keys — it returns an arbitrary value
        instead (the structure's defining one-sided error).
        """
        return int(self.lookup_batch([key])[0])

    def lookup_batch(self, keys: Union[Sequence[Key], np.ndarray]) -> np.ndarray:
        """Vectorised lookup of many keys at once (paper Alg. 1).

        The three stages of the paper's batched lookup (bucket id, bucket to
        group, array probe) appear here as three vectorised passes; NumPy
        plays the role of the explicit prefetch pipeline.  All value bits of
        a key are probed in one fused ``(keys, value_bits)`` broadcast
        gather — the per-bit Python loop this replaced cost one full pass
        over the batch per value bit.

        The key-only hashes are the batch's separator columns
        (:class:`repro.core.hashfamily.HashedKeys`): raw keys are hashed
        here in one stacked pass, a pre-hashed batch is read.  What depends
        on *this* replica (its geometry, contents and fallback) stays here.
        """
        batch = (
            keys if isinstance(keys, hashfamily.HashedKeys)
            else hashfamily.prehash(keys)
        )
        keys = batch.keys
        if keys.size == 0:
            return np.zeros(0, dtype=np.uint32)
        self._m_lookups.inc(keys.size)
        bucket_hashes, g1, g2 = batch.separator
        groups = twolevel.groups_from_choices(
            hashfamily.reduce_range(
                bucket_hashes, self.num_blocks * BUCKETS_PER_BLOCK
            ),
            self._choices,
        )
        # (n, value_bits) gathers: every group row at once (``take``
        # costs a third of the equivalent fancy index on a few rows).
        pos = hashfamily.index_slots(
            g1, g2, self.indices.take(groups, axis=0),
            self.params.array_bits,
        )
        # Each array word shifted by its own slot, in place (a slot is
        # below the word's width), and its low bit kept.
        bits = self.arrays.take(groups, axis=0)
        bits >>= pos
        bits &= 1
        # Value bit ``b`` is column ``b``: weighted by ``2**b`` and summed.
        values = bits.dot(self._bit_weights).astype(np.uint32, copy=False)
        if len(self.fallback):
            self._apply_fallback(keys, groups, values)
        return values

    def _apply_fallback(
        self, keys: np.ndarray, groups: np.ndarray, values: np.ndarray
    ) -> None:
        """Overwrite results for keys whose group lives in the fallback."""
        failed_idx = np.nonzero(self.failed_groups[groups])[0]
        if failed_idx.size == 0:
            return
        fkeys, fvalues = self.fallback.sorted_arrays()
        probes = keys[failed_idx]
        pos = np.searchsorted(fkeys, probes)
        in_range = pos < fkeys.size
        hit = np.zeros(failed_idx.size, dtype=bool)
        hit[in_range] = fkeys[pos[in_range]] == probes[in_range]
        hits = int(hit.sum())
        if hits:
            values[failed_idx[hit]] = fvalues[pos[hit]]
            self._m_fallback_hits.inc(hits)

    def buckets_of(self, keys: np.ndarray) -> np.ndarray:
        """Global bucket id of each (canonical or pre-hashed) key."""
        return twolevel.bucket_ids(keys, self.num_blocks)

    def groups_of(self, keys: np.ndarray) -> np.ndarray:
        """Global group id of each (canonical or pre-hashed) key."""
        buckets = self.buckets_of(keys)
        return twolevel.groups_from_choices(buckets, self._choices)

    def bucket_of(self, key: Key) -> int:
        """Global bucket id of a single key, hashed in plain ints."""
        return twolevel.bucket_id(key, self.num_blocks)

    def group_of(self, key: Key) -> int:
        """Global group id of a single key."""
        return self.group_of_bucket(self.bucket_of(key))

    def group_of_bucket(self, bucket: int) -> int:
        """Global group id of every key of one global bucket."""
        return twolevel.group_of_bucket(bucket, self._choices)

    def buckets_of_group(self, group_id: int) -> Tuple[int, ...]:
        """Global ids of the buckets mapped to ``group_id``, ascending, as
        Python ints: listed from the choices on the group's first call
        and remembered (the owner reads a group's RIB records by them)."""
        buckets = self._group_buckets.get(group_id)
        if buckets is None:
            if not 0 <= group_id < self.num_groups:
                raise ValueError(f"group id {group_id} out of range")
            buckets = self._group_buckets[group_id] = tuple(
                twolevel.buckets_of_group(group_id, self._choices).tolist()
            )
        return buckets

    def block_of(self, key: Key) -> int:
        """Block id of a single key — the RIB partitioning unit (§4.5)."""
        return self.bucket_of(key) // BUCKETS_PER_BLOCK

    # ------------------------------------------------------------------
    # Updates (paper §4.5)
    # ------------------------------------------------------------------

    def rebuild_group(
        self,
        group_id: int,
        keys: Union[Sequence[Key], np.ndarray],
        values: Sequence[int],
        removed_keys: Iterable[Key] = (),
    ) -> GroupDelta:
        """Recompute one group and return the delta to broadcast.

        Called by the RIB node that owns the group's block.  ``keys`` and
        ``values`` are the group's *complete* new contents — ``keys`` a
        :class:`~repro.core.hashfamily.HashedKeys` batch, whose separator
        columns are read (what the owner's RIB hands over), or raw keys,
        hashed here; ``removed_keys`` are keys that left the group
        (deletions) so stale fallback entries can be dropped cluster-wide.

        The delta is applied locally before being returned, so the owning
        node and its peers converge on identical state.

        Raises:
            ValueError: for a group id out of range, or a value that does
                not fit in ``value_bits`` (naming the first bad position),
                before any counter or state changes.
        """
        return self.rebuild_groups(
            [(group_id, keys, values, removed_keys)]
        )[0]

    def rebuild_groups(self, jobs: Sequence[tuple]) -> List[GroupDelta]:
        """Recompute several groups in one pass; one delta each, in order.

        Each job is ``(group_id, keys, values, removed_keys)`` as
        :meth:`rebuild_group` takes them, and the result equals calling it
        once per job, in job order: the same deltas, state and counters.
        Every job's G1 and G2 come from its keys' separator columns (read,
        or hashed once for raw keys) and every incumbent is tested in one
        step (:func:`repro.core.group.search_groups`);
        only a bit that broke is searched, over its own group's keys.  A
        group's inputs are only its own row and keys, so the jobs must
        name distinct groups — the owner's §4.5 batch gives this one
        *wave* of groups at a time (:func:`repro.cluster.owner.owner_batch`).

        Raises:
            ValueError: for a group id out of range or named twice, a value
                that does not fit in ``value_bits`` (naming the group and
                the first bad position), or keys and values of unequal
                length — before any counter or state changes.
        """
        params = self.params
        vb = params.value_bits
        num_groups = self.num_groups
        groups: List[int] = []
        batches: List[hashfamily.HashedKeys] = []
        columns: List[np.ndarray] = []
        removals: List[list] = []
        bounds = [0]
        for group_id, keys, values, removed_keys in jobs:
            if not 0 <= group_id < num_groups:
                raise ValueError(f"group id {group_id} out of range")
            if group_id in groups:
                raise ValueError(f"group {group_id} is named twice")
            batch = hashfamily.prehash(keys)
            values_arr = np.asarray(values)
            if not values_arr.size:  # ``[]`` would be a float array
                values_arr = values_arr.astype(np.uint32)
            if batch.keys.shape != values_arr.shape:
                raise ValueError("keys and values must have equal length")
            groups.append(int(group_id))
            batches.append(batch)
            columns.append(values_arr)
            removals.append(list(map(hashfamily.canonical_key, removed_keys)))
            bounds.append(bounds[-1] + len(values_arr))
        if not groups:
            return []
        # The separator columns: read from a pre-hashed batch (the
        # owner's RIB carries them), hashed here otherwise.
        if len(groups) == 1:
            hashes, all_values = batches[0].separator, columns[0]
        else:
            hashes = np.concatenate(
                [batch.separator for batch in batches], axis=1
            )
            all_values = np.concatenate(columns)
        # A value that fits sets no bit above vb, and a negative one sets
        # the sign: either shows in the OR of them all.
        if bounds[-1] and int(np.bitwise_or.reduce(all_values)) >> vb:
            first = int(np.flatnonzero(all_values >> vb)[0])
            job = bisect.bisect_right(bounds, first) - 1
            raise ValueError(
                f"values of group {groups[job]} must fit in {vb} bits; "
                f"position {first - bounds[job]} holds {all_values[first]}"
            )
        # Incumbent first: a separator that survived the change is kept,
        # so indices depend on this replica's history; failure does not.
        # A failed group has nothing to keep: its row is the sentinel.
        incumbents = self.indices.take(groups, axis=0)
        was_failed = list(map(self._failed_view.__getitem__, groups))
        if True in was_failed:
            incumbents[was_failed] = (1 << params.index_bits) - 1
        found = group_search.search_groups(
            hashes[1], hashes[2], all_values, bounds, params, incumbents
        )
        deltas = []
        failures = kept_bits = 0
        for job, (functions, incumbent) in enumerate(
            zip(found, incumbents.tolist())
        ):
            group_id, removed = groups[job], removals[job]
            if functions is None:
                failures += 1
                delta = GroupDelta._of(
                    group_id, True, (0,) * vb, (0,) * vb,
                    tuple(zip(
                        batches[job].keys.tolist(), columns[job].tolist()
                    )),
                    tuple(removed),
                )
            else:
                indices, arrays, _ = zip(*functions)
                kept_bits += sum(map(operator.eq, indices, incumbent))
                if was_failed[job]:  # the group leaves the fallback
                    removed += batches[job].keys.tolist()
                delta = GroupDelta._of(
                    group_id, False, indices, arrays, (), tuple(removed)
                )
            self.apply_delta(delta)
            deltas.append(delta)
        # Counted once per call, a zero not at all: the totals per job.
        self._m_rebuilds.inc(len(groups))
        if failures:
            self._m_rebuild_failures.inc(failures)
        if kept_bits:
            self._m_bits_kept.inc(kept_bits)
        if kept_bits < vb * len(groups):
            self._m_bits_searched.inc(vb * len(groups) - kept_bits)
        return deltas

    def apply_delta(self, delta: GroupDelta) -> None:
        """Apply a broadcast delta: a few memory writes, no recomputation."""
        g = delta.group_id
        if not 0 <= g < self.num_groups:
            raise ValueError(f"group id {g} out of range")
        vb = self.params.value_bits
        if not len(delta.indices) == len(delta.arrays) == vb:
            raise ValueError("delta does not match params.value_bits")
        self._m_deltas_applied.inc()
        index_view, array_view = self._index_view, self._array_view
        indices, arrays = delta.indices, delta.arrays
        start = g * vb
        for bit in range(vb):
            index_view[start + bit] = indices[bit]
            array_view[start + bit] = arrays[bit]
        self._failed_view[g] = delta.failed
        for key in delta.fallback_removals:
            self.fallback.remove(key)
        for key, value in delta.fallback_upserts:
            self.fallback.insert(key, value)

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------

    def size_bits(self, include_fallback: bool = True) -> int:
        """Logical structure size in bits.

        Charges 2 bits per bucket choice and (index_bits + array_bits) per
        value bit per group — the paper's accounting, independent of NumPy's
        in-memory padding.
        """
        bits = self.num_buckets * CHOICE_BITS
        bits += self.num_groups * self.params.group_bits
        if include_fallback:
            bits += self.fallback.size_bits()
        return bits

    def size_bytes(self) -> int:
        """Logical size rounded up to bytes (used by the cache model)."""
        return (self.size_bits() + 7) // 8

    def bits_per_key(self, num_keys: int) -> float:
        """Measured bits/key for a structure holding ``num_keys`` keys."""
        if num_keys <= 0:
            raise ValueError("num_keys must be positive")
        return self.size_bits() / num_keys

    # ------------------------------------------------------------------
    # Introspection / (de)serialisation
    # ------------------------------------------------------------------

    def state(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Raw state arrays (choices, indices, arrays, failed_groups)."""
        return self.choices, self.indices, self.arrays, self.failed_groups

    def copy(self) -> "SetSep":
        """Deep copy — used to replicate the GPT to every cluster node."""
        clone = SetSep(
            params=self.params,
            num_blocks=self.num_blocks,
            choices=self.choices.copy(),
            indices=self.indices.copy(),
            arrays=self.arrays.copy(),
            failed_groups=self.failed_groups.copy(),
            registry=self.registry,
        )
        clone.fallback.insert_many(self.fallback.items())
        return clone

    def __repr__(self) -> str:
        return (
            f"SetSep(config={self.params.name}, value_bits="
            f"{self.params.value_bits}, blocks={self.num_blocks}, "
            f"groups={self.num_groups}, fallback={len(self.fallback)})"
        )
