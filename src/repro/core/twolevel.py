"""Two-level hashing: balanced key-to-group assignment (paper §4.4, Fig. 5).

Brute-force group search is exponential in group size, so SetSep cannot
tolerate the load variance of hashing keys directly into 16-key groups
(direct hashing puts >40 keys in the worst group when the average is 16).
Instead:

1. Keys hash into small *buckets* — 256 per block, average size 4.
2. Each consecutive run of 256 buckets forms a *1024-key block* that feeds
   64 groups (average size 16).
3. Every bucket has 4 pre-assigned candidate groups; a greedy, randomised
   algorithm picks one candidate per bucket to minimise the maximum group
   load, storing only the 2-bit choice — 0.5 bits per key.

The candidate table is a fixed constant shared by writers and readers: each
group is a candidate of exactly ``256 * 4 / 64 = 16`` buckets, and the four
candidates of any bucket are distinct.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core import hashfamily
from repro.core.params import (
    BUCKETS_PER_BLOCK,
    CANDIDATES_PER_BUCKET,
    GROUPS_PER_BLOCK,
    KEYS_PER_BLOCK,
)


def _build_candidate_table(seed: int = 0xB10C) -> np.ndarray:
    """Build the fixed (256, 4) bucket-to-candidate-group table.

    Constraints: every group appears exactly ``256 * 4 / 64 = 16`` times in
    the table, and each bucket's four candidates are distinct.  The
    bucket-to-group graph must also be well mixed — a structured table whose
    candidate sets form closed cliques traps load inside a heavy clique and
    defeats the balancing.

    Construction: shuffle the balanced multiset (each group 16 times) into a
    256 x 4 table, then repair rows containing duplicates by swapping a
    duplicated entry with an entry from another row whenever the swap leaves
    both rows duplicate-free.  Deterministic given the seed, so every node
    derives the same table.
    """
    rng = np.random.default_rng(seed)
    table = rng.permutation(
        np.repeat(
            np.arange(GROUPS_PER_BLOCK, dtype=np.int16),
            BUCKETS_PER_BLOCK * CANDIDATES_PER_BUCKET // GROUPS_PER_BLOCK,
        )
    ).reshape(BUCKETS_PER_BLOCK, CANDIDATES_PER_BUCKET)

    def row_has_duplicate(row: np.ndarray) -> bool:
        return len(np.unique(row)) != CANDIDATES_PER_BUCKET

    for _ in range(100_000):
        bad_rows = [r for r in range(BUCKETS_PER_BLOCK) if row_has_duplicate(table[r])]
        if not bad_rows:
            return table
        r = bad_rows[0]
        row = table[r]
        # Locate one duplicated entry in the bad row.
        seen = set()
        dup_col = next(
            c
            for c in range(CANDIDATES_PER_BUCKET)
            if row[c] in seen or seen.add(row[c])
        )
        # Swap with a random entry elsewhere if both rows stay clean.
        for _ in range(1_000):
            other = int(rng.integers(BUCKETS_PER_BLOCK))
            col = int(rng.integers(CANDIDATES_PER_BUCKET))
            if other == r:
                continue
            a, b = int(table[r, dup_col]), int(table[other, col])
            if a == b:
                continue
            if b in table[r] or a in table[other]:
                continue
            table[r, dup_col], table[other, col] = b, a
            break
        else:
            raise RuntimeError("candidate-table repair failed to converge")
    raise RuntimeError("candidate-table repair failed to converge")


#: The shared bucket-to-candidate-group table (256 buckets x 4 candidates).
CANDIDATE_TABLE: np.ndarray = _build_candidate_table()

#: The largest integer key that is already canonical.
_KEY_MAX = (1 << 64) - 1

#: :data:`CANDIDATE_TABLE` as nested lists, for plain-int loops.
_CANDIDATE_ROWS = CANDIDATE_TABLE.tolist()

#: The table inverted: for each local group, the 16 local buckets that list
#: it (ascending) and the candidate number under which each does.
_GROUP_CANDIDATES = [
    np.nonzero(CANDIDATE_TABLE == group) for group in range(GROUPS_PER_BLOCK)
]


#: :data:`CANDIDATE_TABLE` row-major and flat: candidate ``c`` of local
#: bucket ``b`` is entry ``(b << _CANDIDATE_SHIFT) + c``.
_CANDIDATES_FLAT = CANDIDATE_TABLE.ravel().astype(np.int64)

#: log2 of the candidates per bucket, buckets per block and groups per
#: block, and the local-bucket mask; 0-d arrays, which a ufunc takes at
#: an array's cost (a Python or NumPy scalar costs up to twice that).
_CANDIDATE_SHIFT, _BUCKET_SHIFT, _GROUP_SHIFT, _LOCAL_BUCKET_MASK = (
    np.array(value, dtype=np.int64)
    for value in (
        CANDIDATES_PER_BUCKET.bit_length() - 1,
        BUCKETS_PER_BLOCK.bit_length() - 1,
        GROUPS_PER_BLOCK.bit_length() - 1,
        BUCKETS_PER_BLOCK - 1,
    )
)
assert (
    1 << int(_CANDIDATE_SHIFT),
    1 << int(_BUCKET_SHIFT),
    1 << int(_GROUP_SHIFT),
) == (CANDIDATES_PER_BUCKET, BUCKETS_PER_BLOCK, GROUPS_PER_BLOCK)


def num_blocks_for(num_keys: int) -> int:
    """Blocks needed so the average group holds ~16 keys."""
    return max(1, (num_keys + KEYS_PER_BLOCK - 1) // KEYS_PER_BLOCK)


def bucket_ids(keys: np.ndarray, num_blocks: int) -> np.ndarray:
    """First-level mapping: each key's global bucket in ``[0, blocks*256)``.

    Keys in the same block stay together under RIB partitioning (§4.5), so
    the block id is simply ``bucket_id // 256``.
    """
    hashes = hashfamily.bucket_hash(keys)
    return hashfamily.reduce_range(hashes, num_blocks * BUCKETS_PER_BLOCK)


def bucket_id(key: hashfamily.Key, num_blocks: int) -> int:
    """:func:`bucket_ids` of one key, in plain ints (an int already in
    the key space skips canonicalisation, and the range reduction is
    inlined)."""
    if type(key) is not int or not 0 <= key <= _KEY_MAX:
        key = hashfamily.canonical_key(key)
    return (
        (hashfamily.bucket_hash_int(key) >> 32)
        * (num_blocks * BUCKETS_PER_BLOCK)
    ) >> 32


def block_of_buckets(buckets: np.ndarray) -> np.ndarray:
    """Block id of each global bucket id."""
    return np.asarray(buckets) // BUCKETS_PER_BLOCK


def assign_block(
    bucket_sizes: np.ndarray,
    rng: np.random.Generator,
    trials: int = 1,
    target_max: int = 18,
) -> Tuple[np.ndarray, int]:
    """Greedy bucket-to-group assignment for one block (paper §4.4).

    Buckets are processed in descending size order; each takes the candidate
    group with the fewest keys so far, breaking ties at random.  The
    randomised run repeats ``trials`` times and the assignment with the
    smallest maximum group load wins.

    Args:
        bucket_sizes: length-256 array of key counts per local bucket.
        rng: random generator for tie-breaking.
        trials: independent greedy runs to attempt.
        target_max: refinement stops once the maximum group load reaches
            this value (and further greedy trials are skipped).  The default
            of 18 sits safely below the brute-force feasibility cliff at
            ~21 keys per group for the production m=8 configuration; pass 0
            to minimise outright.

    Returns:
        ``(choices, max_load)``: a length-256 uint8 array of candidate
        choices in [0, 4) and the winning assignment's maximum group load.
    """
    if len(bucket_sizes) != BUCKETS_PER_BLOCK:
        raise ValueError(f"expected {BUCKETS_PER_BLOCK} bucket sizes")
    order = np.argsort(bucket_sizes, kind="stable")[::-1].tolist()
    sizes = np.asarray(bucket_sizes).tolist()
    best_choices: np.ndarray = np.zeros(BUCKETS_PER_BLOCK, dtype=np.uint8)
    best_max = np.iinfo(np.int64).max

    for _ in range(trials):
        # The greedy pass in plain ints.  ``tied[rng.integers(k)]`` draws
        # what ``rng.choice`` of a k-element array draws.
        group_loads = [0] * GROUPS_PER_BLOCK
        picks = [0] * BUCKETS_PER_BLOCK
        for bucket in order:
            candidates = _CANDIDATE_ROWS[bucket]
            candidate_loads = [group_loads[group] for group in candidates]
            least = min(candidate_loads)
            tied = [
                pick for pick, load in enumerate(candidate_loads)
                if load == least
            ]
            pick = tied[0] if len(tied) == 1 else tied[rng.integers(len(tied))]
            picks[bucket] = pick
            group_loads[candidates[pick]] += sizes[bucket]
        choices = np.array(picks, dtype=np.uint8)
        loads = np.array(group_loads, dtype=np.int64)
        _refine(bucket_sizes, choices, loads, target_max=target_max)
        max_load = int(loads.max())
        if max_load < best_max:
            best_max = max_load
            best_choices = choices
        if best_max <= target_max:
            break

    return best_choices, best_max


def _refine(
    bucket_sizes: np.ndarray,
    choices: np.ndarray,
    loads: np.ndarray,
    target_max: int = 0,
    move_budget: int = 512,
) -> None:
    """Local search after the greedy pass: shrink the heaviest groups.

    Greedy alone leaves a few keys of headroom on the worst group of heavy
    blocks, and the brute-force search cost explodes past ~21 keys per group
    (the paper's balance target, §4.4).  Two move types are tried for every
    group at the current maximum load:

    * *shift*: reassign one of its buckets to another candidate group when
      that strictly lowers the block maximum;
    * *swap*: push a bucket into a fuller candidate group while evicting one
      of that group's buckets to a third group, when the chain lowers the
      maximum.

    Refinement stops when the maximum reaches ``target_max``, the move
    budget runs out, or no move helps.  ``choices`` and ``loads`` are
    updated in place.
    """
    if int(loads.max()) <= target_max:
        return
    assignment = CANDIDATE_TABLE[np.arange(BUCKETS_PER_BLOCK), choices]
    occupied = [b for b in range(BUCKETS_PER_BLOCK) if bucket_sizes[b] > 0]

    def members_of(group: int) -> list:
        found = [b for b in occupied if assignment[b] == group]
        found.sort(key=lambda b: -int(bucket_sizes[b]))
        return found

    def reassign(bucket: int, cand: int) -> None:
        size = int(bucket_sizes[bucket])
        loads[assignment[bucket]] -= size
        choices[bucket] = cand
        assignment[bucket] = CANDIDATE_TABLE[bucket, cand]
        loads[assignment[bucket]] += size

    for _ in range(move_budget):
        worst = int(loads.max())
        if worst <= target_max:
            return
        improved = False
        for group in np.nonzero(loads == worst)[0]:
            for bucket in members_of(int(group)):
                size = int(bucket_sizes[bucket])
                # Shift: direct move to a lighter candidate group.
                for cand in range(CANDIDATES_PER_BUCKET):
                    target = int(CANDIDATE_TABLE[bucket, cand])
                    if target != group and loads[target] + size < worst:
                        reassign(bucket, cand)
                        improved = True
                        break
                if improved:
                    break
                # Swap: move into a candidate group while evicting one of
                # its buckets to that bucket's own lighter alternative.
                for cand in range(CANDIDATES_PER_BUCKET):
                    target = int(CANDIDATE_TABLE[bucket, cand])
                    if target == group:
                        continue
                    for other in members_of(target):
                        other_size = int(bucket_sizes[other])
                        if loads[target] + size - other_size >= worst:
                            continue
                        for other_cand in range(CANDIDATES_PER_BUCKET):
                            third = int(CANDIDATE_TABLE[other, other_cand])
                            if third in (target, group):
                                continue
                            if loads[third] + other_size < worst:
                                reassign(other, other_cand)
                                reassign(bucket, cand)
                                improved = True
                                break
                        if improved:
                            break
                    if improved:
                        break
                if improved:
                    break
            if improved:
                break
        if not improved:
            return


def groups_from_choices(buckets: np.ndarray, choices: np.ndarray) -> np.ndarray:
    """Second-level mapping: global group id (int64) for each key's bucket.

    ``choices`` is the concatenated per-bucket choice array over all blocks.
    Block sizes are powers of two, so the split into block and local
    bucket is two shifts and a mask, and the candidate is read from the
    flat table: no division and no 2-D fancy index.
    """
    buckets = np.asarray(buckets, dtype=np.int64)
    row = buckets & _LOCAL_BUCKET_MASK
    row <<= _CANDIDATE_SHIFT
    row += choices[buckets]
    groups = buckets >> _BUCKET_SHIFT
    groups <<= _GROUP_SHIFT
    groups += _CANDIDATES_FLAT[row]
    return groups


def group_of_bucket(bucket: int, choices: np.ndarray) -> int:
    """:func:`groups_from_choices` of one global bucket id."""
    block, local_bucket = divmod(bucket, BUCKETS_PER_BLOCK)
    return block * GROUPS_PER_BLOCK + int(
        CANDIDATE_TABLE[local_bucket, choices[bucket]]
    )


def buckets_of_group(group_id: int, choices: np.ndarray) -> np.ndarray:
    """Global ids of the buckets whose choice is ``group_id``, ascending.

    The inverse of :func:`groups_from_choices` for one group: only the 16
    buckets that list the group as a candidate are read, not the block.
    """
    block, local_group = divmod(group_id, GROUPS_PER_BLOCK)
    local_buckets, candidates = _GROUP_CANDIDATES[local_group]
    buckets = local_buckets + block * BUCKETS_PER_BLOCK
    return buckets[choices[buckets] == candidates]


def direct_group_ids(keys: np.ndarray, num_groups: int) -> np.ndarray:
    """The §4.4 strawman: hash keys straight into groups (no balancing).

    Exists to reproduce the paper's comparison (worst group >40 keys with
    direct hashing vs ~21 with two-level hashing, at average load 16).
    """
    hashes = hashfamily.bucket_hash(keys)
    return hashfamily.reduce_range(hashes, num_groups)


def max_group_load(group_ids: np.ndarray, num_groups: int) -> int:
    """Largest group size under an assignment (the Fig. 5 balance metric)."""
    counts = np.bincount(np.asarray(group_ids), minlength=num_groups)
    return int(counts.max())
