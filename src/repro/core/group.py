"""Brute-force search for per-group hash functions (paper §4.1–§4.3).

A group holds ~16 keys.  For every bit of the output value, SetSep searches
the family ``H_i(x) = G1(x) + i*G2(x)`` for an index ``i`` such that writing
each key's value bit into slot ``H_i(x)`` of an m-bit array never conflicts:
two keys may share a slot only if their value bits agree.  The array is then
stored alongside ``i``, and lookup is simply ``array[H_i(x)]``.

The search is vectorised: a chunk of candidate indices is evaluated as an
``(n_keys, chunk)`` matrix of one-hot slot masks (one byte each at m <= 8),
and a candidate column is accepted iff the OR-reduced slot masks of the
value-0 keys and the value-1 keys are disjoint — exactly the paper's
"taken" bit-array semantics, without the per-key Python loop.  The first
accepted column is the first fit, so the result never depends on the
chunk size.
"""

from __future__ import annotations

import functools
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from repro.core import hashfamily
from repro.core.params import SetSepParams


class GroupFunction(NamedTuple):
    """A found separator for one value bit of one group (a tuple: an
    owner recompute makes one per value bit, so construction is cheap).

    Attributes:
        index: the hash-family index ``i`` that worked.
        array: the m-bit array packed into a uint32 (bit ``p`` of ``array``
            is the value stored in slot ``p``; untaken slots are 0).
        iterations: how many candidate functions were tested, including the
            winner (the paper's construction-speed metric, Figures 3a / 4).
    """

    index: int
    array: int
    iterations: int


#: ``GroupFunction((index, array, iterations))`` with no Python frame
#: (the namedtuple's ``__new__`` is one): the incumbent test makes one per
#: kept value bit.
_function_of = functools.partial(tuple.__new__, GroupFunction)

#: Right shifts that split a value into its bits (``value_bits <= 16``),
#: as wide as the slot masks the bits multiply.
_BIT_SHIFTS = np.arange(16, dtype=np.uint64)

_ONE = np.uint64(1)


@functools.lru_cache(maxsize=None)
def _value_sides(value_bits: int) -> np.ndarray:
    """What the incumbent test shifts by each bit's slot, per value: row
    ``v`` holds ``1 << 32`` at each bit set in ``v`` and 1 elsewhere, so
    indexing it by a group's values is one gather and the one-hot masks
    one shift (``2**value_bits`` rows: 16 KiB at 8 value bits, 8 MiB at
    the widest, 16)."""
    values = np.arange(1 << value_bits, dtype=np.uint64)[:, None]
    sides = (values >> _BIT_SHIFTS[:value_bits] & _ONE) << np.uint64(5)
    return np.left_shift(_ONE, sides)


class GroupSearchFailure(Exception):
    """Raised internally when no index below the limit separates a group."""


def _search_targets(
    g1: np.ndarray,
    g2: np.ndarray,
    targets: Sequence[np.ndarray],
    m: int,
    max_index: int,
    chunk: int,
) -> List[Optional[GroupFunction]]:
    """The first separating index of every 0/1 target over the same keys.

    Each chunk of the family is evaluated once, as one matrix of narrow
    slot masks (:func:`hashfamily.scan_masks`), and every still-unsolved
    target is tested against it; a target's result is what searching it
    alone returns (``None`` when no index below ``max_index`` works).
    With one target, the keys are reordered once so the value-0 keys come
    first: each class is then a row slice, reduced without a gather.
    """
    if len(g1) == 0:
        return [GroupFunction(index=0, array=0, iterations=0)] * len(targets)
    found: List[Optional[GroupFunction]] = [None] * len(targets)
    classes = [np.asarray(bits).astype(bool) for bits in targets]
    if len(classes) == 1:
        order = np.argsort(classes[0], kind="stable")
        g1, g2 = g1[order], g2[order]
        split = len(order) - int(np.count_nonzero(classes[0]))
        pending = [(0, slice(0, split), slice(split, None))]
    else:
        pending = [
            (slot, (~ones).nonzero()[0], ones.nonzero()[0])
            for slot, ones in enumerate(classes)
        ]

    scan = hashfamily.scan_masks(g1, g2, m, chunk, max_index)
    for start, slot_masks in scan:
        unsolved = []
        for slot, zeros, ones in pending:
            mask1 = _or_reduce(slot_masks, ones)
            clash = _or_reduce(slot_masks, zeros)
            clash &= mask1
            col = int(clash.argmin())
            if clash[col] == 0:
                found[slot] = GroupFunction(
                    index=start + col,
                    array=int(mask1[col]),  # value-1 keys' slots hold 1
                    iterations=start + col + 1,
                )
            else:
                unsolved.append((slot, zeros, ones))
        pending = unsolved
        if not pending:
            break
    return found


def _or_reduce(slot_masks: np.ndarray, rows) -> np.ndarray:
    """OR-reduce the per-key slot masks over a subset of keys (a row
    slice or row ids; no rows reduce to all-zero masks)."""
    return np.bitwise_or.reduce(slot_masks[rows], axis=0)


def search_bit(
    g1: np.ndarray,
    g2: np.ndarray,
    bits: np.ndarray,
    m: int,
    max_index: int,
    chunk: int = SetSepParams.search_chunk,
) -> Optional[GroupFunction]:
    """Find one hash function separating ``bits`` over an m-slot array.

    Args:
        g1, g2: per-key base hashes (uint64 arrays of equal length n).
        bits: per-key target bit (0/1 array of length n).
        m: bit-array size.
        max_index: exclusive upper bound on the family index.
        chunk: candidate indices evaluated per vectorised step (default:
            the :class:`SetSepParams` default).

    Returns:
        The winning :class:`GroupFunction`, or ``None`` if no index below
        ``max_index`` works (the caller then falls back to an exact table).
    """
    return _search_targets(g1, g2, [bits], m, max_index, chunk)[0]


def search_group(
    g1: np.ndarray,
    g2: np.ndarray,
    values: np.ndarray,
    params: SetSepParams,
    incumbent: Optional[np.ndarray] = None,
) -> Optional[List[GroupFunction]]:
    """Find the per-value-bit functions for one group (paper §4.3).

    A V-valued mapping is decomposed into ``value_bits`` independent binary
    separations, one per bit — searching ``log2 V`` binary functions instead
    of one V-ary function, which is exponentially faster (Figure 4).  The
    bits share one candidate matrix per chunk of the family.

    ``incumbent`` holds the index each value bit has now (the owner's
    §4.5 recompute passes its replica's).  All of them are evaluated
    against the new contents in one ``(n_keys, value_bits)`` step; a bit
    whose index still separates keeps it, with the array the new contents
    give, and only the bits that broke are searched, from index 0 as a
    bit searched alone is.  A bit therefore fails only when no index
    below ``max_index`` separates it, whatever the incumbents were.

    Returns a list of ``value_bits`` :class:`GroupFunction`, or ``None`` if
    any bit fails (the whole group then goes to the fallback table).
    This is the one-group case of :func:`search_groups`.
    """
    if incumbent is not None:
        incumbent = np.asarray(incumbent).reshape(1, -1)
    return search_groups(g1, g2, values, [0, len(g1)], params, incumbent)[0]


def search_groups(
    g1: np.ndarray,
    g2: np.ndarray,
    values: np.ndarray,
    bounds: Sequence[int],
    params: SetSepParams,
    incumbents: Optional[np.ndarray] = None,
) -> List[Optional[List[GroupFunction]]]:
    """:func:`search_group` of several groups whose keys share one array.

    Group ``i`` is rows ``bounds[i]`` up to ``bounds[i + 1]`` (ascending;
    a group may be empty), and ``incumbents[i]`` is its row of indices
    (``max_index`` in a row means "nothing to keep": the test never
    keeps that index).  The incumbent test runs once over every key, the
    rows of each group OR-reduced on their own; a bit that broke is
    searched over its group's keys alone, as :func:`search_group` would.
    So each result is what :func:`search_group` returns for that group.

    The test is one OR-reduce: each (key, bit) becomes the one-hot mask
    of its slot, moved up 32 bits when the key's bit is 1 (``m <= 32``),
    so a group's reduced word holds the value-1 keys' slots — the array —
    above the value-0 keys' slots, and the incumbent separates iff the
    two halves share no slot.
    """
    vb = params.value_bits
    max_index = (1 << params.index_bits) - 1
    values = np.asarray(values, dtype=np.uint32)
    found: List[Optional[list]] = []
    for _ in range(len(bounds) - 1):
        found.append([None] * vb)
    if incumbents is not None and bounds[-1]:
        _keep_incumbents(g1, g2, values, bounds, params, incumbents, found)
    for group, functions in enumerate(found):
        if None not in functions:
            continue
        broken = [bit for bit, kept in enumerate(functions) if kept is None]
        start, end = bounds[group], bounds[group + 1]
        searched = _search_targets(
            g1[start:end],
            g2[start:end],
            [values[start:end] >> bit & 1 for bit in broken],
            params.array_bits,
            max_index,
            params.search_chunk,
        )
        if None in searched:
            found[group] = None
            continue
        for bit, function in zip(broken, searched):
            functions[bit] = function
    return found


def _keep_incumbents(g1, g2, values, bounds, params, incumbents, found):
    """The incumbent test of :func:`search_groups`: fill ``found`` with
    the functions whose incumbent index still separates its group.

    One ``(n_keys, value_bits)`` matrix of one-hot slot masks, each moved
    up 32 bits for a key whose bit is 1, OR-reduced per group: seven
    NumPy calls for one group (the slots, the value sides, the one-hot
    shift, the reduce and its list), two more for a wave's rows."""
    rows = np.asarray(incumbents)
    listed = rows.tolist()
    if len(found) > 1:
        rows = np.repeat(rows, np.diff(bounds), axis=0)
    slots = hashfamily.index_slots(g1, g2, rows, params.array_bits)
    masks = _value_sides(params.value_bits).take(values, axis=0)
    np.left_shift(masks, slots, out=masks)
    # The rows of an empty group would reduce its successor's first row:
    # reduce only where rows are, each up to the next start.  One group
    # has rows (the caller saw some).
    if len(found) == 1:
        held = [0]
    else:
        held = [
            group for group, start in enumerate(bounds[:-1])
            if start < bounds[group + 1]
        ]
    if len(held) == 1:
        reduced = np.bitwise_or.reduce(masks, axis=0, keepdims=True)
    else:
        offsets = [bounds[group] for group in held]
        reduced = np.bitwise_or.reduceat(masks, offsets, axis=0)
    max_index = (1 << params.index_bits) - 1
    for group, words in zip(held, reduced.tolist()):
        functions = found[group]
        for bit, (index, word) in enumerate(zip(listed[group], words)):
            array = word >> 32
            if not array & word and index < max_index:
                functions[bit] = _function_of((index, array, 1))


def search_joint(
    g1: np.ndarray,
    g2: np.ndarray,
    values: np.ndarray,
    value_bits: int,
    m: int,
    max_index: int,
    chunk: int = SetSepParams.search_chunk,
) -> Optional[GroupFunction]:
    """The *rejected* §4.3 alternative: one function to multi-bit values.

    Searches a single index whose array of ``value_bits``-wide cells maps
    every key to its full value.  Expected cost is ``O(V^n)`` trials, which
    is why the paper splits values into bits; this implementation exists to
    reproduce Figure 4's comparison.

    The array packs ``m`` cells of ``value_bits`` bits into the returned
    integer (cell ``p`` occupies bits ``[p*value_bits, (p+1)*value_bits)``).
    """
    n = len(g1)
    if n == 0:
        return GroupFunction(index=0, array=0, iterations=0)
    values = np.asarray(values, dtype=np.uint64)
    cell_mask = int((1 << value_bits) - 1)
    classes = [(values == v).nonzero()[0] for v in np.unique(values)]

    scan = hashfamily.scan_masks(g1, g2, m, chunk, max_index)
    for start, slot_masks in scan:
        # Two keys sharing a slot must share the *whole* value, so a column
        # is good iff the per-value-class slot masks are pairwise disjoint.
        class_masks = [_or_reduce(slot_masks, rows) for rows in classes]
        good = np.ones(slot_masks.shape[1], dtype=bool)
        for a in range(len(class_masks)):
            for b in range(a + 1, len(class_masks)):
                good &= (class_masks[a] & class_masks[b]) == 0
        hits = np.nonzero(good)[0]
        if hits.size:
            index = start + int(hits[0])
            slots = hashfamily.positions(
                hashfamily.family_values(g1, g2, index), m
            )
            array = 0
            for slot, value in zip(slots.tolist(), values.tolist()):
                array |= (int(value) & cell_mask) << (int(slot) * value_bits)
            return GroupFunction(index=index, array=array, iterations=index + 1)
    return None


def lookup_bit(g1: int, g2: int, function_index: int, array: int, m: int) -> int:
    """Scalar lookup of one value bit: ``array[H_index(x)]``."""
    h = (g1 + function_index * g2) & 0xFFFFFFFFFFFFFFFF
    slot = ((h >> 32) * m) >> 32
    return (array >> slot) & 1


def expected_iterations(n: int, m: int, trials: int = 200, seed: int = 1) -> float:
    """Empirical mean trials to separate ``n`` random keys over ``m`` slots.

    Drives the Figure 3a / 4 reproductions: for each trial a fresh random
    group of n keys with random bits is searched and the winner's iteration
    count recorded.
    """
    rng = np.random.default_rng(seed)
    total = 0
    done = 0
    for _ in range(trials):
        keys = rng.integers(0, 2**63, size=n, dtype=np.uint64)
        bits = rng.integers(0, 2, size=n)
        g1, g2 = hashfamily.base_hashes(keys)
        found = search_bit(g1, g2, bits, m, max_index=1 << 24, chunk=1024)
        if found is not None:
            total += found.iterations
            done += 1
    if done == 0:
        raise GroupSearchFailure(f"no group of {n} keys separable with m={m}")
    return total / done


def index_entropy_bits(n: int, m: int, trials: int = 200, seed: int = 1) -> float:
    """Empirical bits needed for a variable-length index encoding.

    Approximated as ``log2(mean iterations)`` + 1 (geometric-like index
    distribution), used by the Figure 3b space-breakdown reproduction.
    """
    mean = expected_iterations(n, m, trials=trials, seed=seed)
    return float(np.log2(max(mean, 1.0))) + 1.0
