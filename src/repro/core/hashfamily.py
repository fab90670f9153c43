"""The parameterised hash-function family at the heart of SetSep (paper §4.1).

SetSep needs, per group of keys, a family ``{H_i(x)}`` that can be iterated
cheaply during the brute-force search.  Following Kirsch & Mitzenmacher
("less hashing, same performance"), the paper derives the whole family from
two base hashes::

    H_i(x) = G1(x) + i * G2(x)        (mod 2**64)

and uses only the *most significant* bits of the sum, because the family has
a short period in its low bits.  This module provides:

* ``splitmix64`` — a vectorised 64-bit finaliser used as the "strong hash"
  building block (keys are already 64-bit flat identifiers in ScaleBricks),
  and ``splitmix64_int`` — the same function on one Python int, for the
  single-key update path where a 1-element array costs more than the hash;
* ``canonical_key`` / ``canonical_keys`` — canonicalisation of ints, bytes
  and strings into the uint64 key space, and ``canonical_key_rows`` — the
  same digest of every row of a byte matrix (a batch's 5-tuples);
* ``base_hashes`` — the (G1, G2) pair per key, with G2 forced odd so that
  ``i -> G1 + i*G2`` walks a full-period sequence mod 2**64;
* ``positions`` — map ``H_i`` values onto ``[0, m)`` bit-array slots using
  the multiply-shift range reduction on the top 32 bits (respecting the
  paper's use-the-MSBs rule); ``index_slots`` — the
  same reduction for many family indices at once, one shift when m is a
  power of two (``chunk_slots`` for a run of consecutive ones), which
  the owner's incumbent test and the batched lookup evaluate; and
  ``scan_masks`` — the narrow one-hot candidate matrices, chunk by
  chunk, that every brute-force search tests its candidates against;
* independent hash streams for the two-level bucket mapping and the cuckoo
  FIB, derived from distinct mixing constants;
* ``HashedKeys`` / ``prehash`` — a batch of canonical keys carrying the
  hashes that depend on the key alone, so the tables a batch visits
  (one GPT replica per ingress node, one FIB per handler) read columns
  instead of each hashing the same keys again (Alg. 1 hashes a key once).
"""

from __future__ import annotations

import hashlib
from collections import deque
from itertools import repeat
from typing import Iterable, Iterator, List, Tuple, Union

import numpy as np

Key = Union[int, bytes, str]

_U64 = np.uint64
_MASK64 = 0xFFFFFFFFFFFFFFFF
_ONE = np.uint64(1)
#: Every shift count 0..64 as a 0-d uint64 array: a ufunc takes a 0-d
#: operand at about an array's cost and a NumPy scalar at up to twice it,
#: which shows on the handful of keys a per-node lookup carries.
_SHIFTS = tuple(np.array(count, dtype=_U64) for count in range(65))
_SHIFT32 = _SHIFTS[32]

# Distinct stream constants.  Each derived hash XORs the key with one of
# these before mixing, giving approximately independent hash functions from
# one mixer (the G1/G2 trick from the paper applied once more).  The plain
# ints feed the scalar hashes, the uint64 twins the vectorised ones.
_BUCKET_INT = 0x165667B19E3779F9
_FIB_INT = 0x27D4EB2F165667C5
_TAG_INT = 0x94D049BB133111EB
_G1_INT = 0x9E3779B97F4A7C15
_G2_INT = 0xC2B2AE3D27D4EB4F
_SEPARATOR_INTS = (_BUCKET_INT, _G1_INT, _G2_INT)
_STREAM_G1 = np.uint64(_G1_INT)
_STREAM_G2 = np.uint64(_G2_INT)
_STREAM_BUCKET = np.uint64(_BUCKET_INT)
_STREAM_FIB = np.uint64(_FIB_INT)
_STREAM_TAG = np.uint64(_TAG_INT)
#: The FIB and tag streams as plain ints, for the cuckoo FIB's scalar
#: ops, which inline their rounds (one call per op, not one per round).
FIB_STREAM_INT = _FIB_INT
TAG_STREAM_INT = _TAG_INT

#: Width of the cuckoo FIB's partial-key tag (MemC3); the tag, never zero,
#: derives a key's alternate bucket.
TAG_BITS = 16

# The rows of the two column sets of :class:`HashedKeys`, and of both.
_SEPARATOR_STREAMS = np.array([_STREAM_BUCKET, _STREAM_G1, _STREAM_G2])
_FIB_STREAMS = np.array([_STREAM_FIB, _STREAM_TAG])
_BOTH_STREAMS = np.concatenate((_SEPARATOR_STREAMS, _FIB_STREAMS))
_TAG_MASK = np.uint64((1 << TAG_BITS) - 1)


# The mixer's constants, made once: a NumPy scalar costs more to build
# than the operation it feeds on a group-sized array.
_MIX_ADD = np.uint64(0x9E3779B97F4A7C15)
_MIX_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_MUL2 = np.uint64(0x94D049BB133111EB)
_MIX_30, _MIX_27, _MIX_31 = np.uint64(30), np.uint64(27), np.uint64(31)


def _mix(x: np.ndarray) -> np.ndarray:
    """:func:`splitmix64` of a uint64 array this call owns, in place:
    in-place ufuncs on an ``ndarray`` wrap mod 2**64 unchecked (only
    NumPy *scalar* arithmetic warns), so no ``errstate`` is needed."""
    x += _MIX_ADD
    x ^= x >> _MIX_30
    x *= _MIX_MUL1
    x ^= x >> _MIX_27
    x *= _MIX_MUL2
    x ^= x >> _MIX_31
    return x


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finaliser over a uint64 array.

    This is the standard avalanche mixer from Steele et al.'s SplitMix; it is
    a bijection on 64-bit integers with full avalanche, which is all SetSep
    requires of its "standard hashing methods".
    """
    return _mix(np.array(x, dtype=_U64))


def _stacked(keys: np.ndarray, streams: np.ndarray) -> np.ndarray:
    """One mixer pass over every (stream, key) pair: row ``r`` of the
    ``(len(streams), n)`` result is ``splitmix64(keys ^ streams[r])``."""
    return _mix(np.bitwise_xor.outer(streams, keys))


def splitmix64_int(x: int) -> int:
    """:func:`splitmix64` of one value in plain ``int`` arithmetic."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


#: An empty BLAKE2b-64 state.  A digest starts from a copy of it: the
#: constructor's keyword parsing costs as much as hashing a 13-byte
#: 5-tuple does.
_BLAKE2B_64 = hashlib.blake2b(digest_size=8)
_BLAKE2B = type(_BLAKE2B_64)


def canonical_key(key: Key) -> int:
    """Map an int / bytes / str key into the canonical uint64 key space.

    Integers are taken mod 2**64 (ScaleBricks keys are flat 64-bit flow IDs);
    byte strings and text are digested with BLAKE2b-64 so that arbitrary
    identifiers (5-tuples, MAC addresses, URLs) can be used as keys.
    """
    if type(key) is not bytes:
        if isinstance(key, (int, np.integer)):
            return int(key) & 0xFFFFFFFFFFFFFFFF
        if isinstance(key, str):
            key = key.encode("utf-8")
        elif isinstance(key, (bytearray, memoryview)):
            key = bytes(key)
        else:
            raise TypeError(f"unsupported key type: {type(key).__name__}")
    state = _BLAKE2B_64.copy()
    state.update(key)
    return int.from_bytes(state.digest(), "little")


def canonical_key_rows(rows: np.ndarray) -> np.ndarray:
    """:func:`canonical_key` of each row's bytes of a 2-D uint8 matrix.

    The rows become ``bytes`` through one void view, and the state
    copies, updates and digests run as ``map`` over the BLAKE2b methods:
    no Python frame per row.  The digests are read as one little-endian
    uint64 column.
    """
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    count, width = rows.shape
    states = list(map(_BLAKE2B.copy, repeat(_BLAKE2B_64, count)))
    deque(
        map(_BLAKE2B.update, states, rows.view(f"V{width}").ravel().tolist()),
        maxlen=0,
    )
    digests = b"".join(map(_BLAKE2B.digest, states))
    return np.frombuffer(digests, dtype="<u8").astype(_U64)


def canonical_keys(keys: Iterable[Key]) -> np.ndarray:
    """Vector version of :func:`canonical_key` returning a uint64 array.

    A :class:`HashedKeys` batch is unwrapped to the keys it carries, so a
    table that reads none of its columns takes it like any other batch.
    """
    if isinstance(keys, np.ndarray) and keys.dtype == _U64:
        return keys
    if isinstance(keys, HashedKeys):
        return keys.keys
    return np.fromiter(
        (canonical_key(k) for k in keys), dtype=_U64, count=_length_hint(keys)
    )


def _length_hint(keys: Iterable[Key]) -> int:
    try:
        return len(keys)  # type: ignore[arg-type]
    except TypeError:
        return -1


def base_hashes(keys: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Compute the (G1, G2) base hash pair for each key.

    G2 is forced odd: ``G1 + i*G2`` then enumerates all 2**64 residues as
    ``i`` increases, so no candidate index is wasted on a repeated function.
    """
    g1, g2 = _stacked(np.asarray(keys, dtype=_U64), _SEPARATOR_STREAMS[1:])
    g2 |= _ONE
    return g1, g2


class HashedKeys:
    """A batch of canonical keys with its key-only hash columns.

    Two column sets, each hashed in one stacked pass the first time it is
    read and carried by every slice taken afterwards (a slice taken
    before hashes its own rows): :attr:`separator`, what a SetSep lookup
    needs of a key, and :attr:`fib`, the cuckoo FIB's primary bucket and
    the offset to its alternate one.  Whatever depends on one table's
    geometry or contents (range reduction onto its buckets, its choices,
    indices, arrays, slots) is left to that table: replicas may differ.
    Build with :func:`prehash` (or :meth:`both`); ``len()`` and indexing
    by a slice or an integer index array (not a mask) work as on the key
    array.
    """

    __slots__ = ("keys", "_separator", "_fib")

    def __init__(self, keys: np.ndarray, separator=None, fib=None) -> None:
        self.keys, self._separator, self._fib = keys, separator, fib

    @classmethod
    def both(cls, keys: np.ndarray) -> "HashedKeys":
        """Canonical ``keys`` with both column sets, hashed in one stacked
        pass: for a batch that visits a separator and a FIB."""
        hashes = _stacked(keys, _BOTH_STREAMS)
        return cls(
            keys, _separator_columns(hashes[:3]), _fib_columns(hashes[3:])
        )

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, rows) -> "HashedKeys":
        if isinstance(rows, slice):
            return HashedKeys(
                self.keys[rows],
                None if self._separator is None else self._separator[:, rows],
                None if self._fib is None else self._fib[:, rows],
            )
        # An index array: ``take`` gathers the columns at a third of a
        # fancy index's cost on a few rows.
        return HashedKeys(
            self.keys[rows],
            None if self._separator is None
            else self._separator.take(rows, axis=1),
            None if self._fib is None else self._fib.take(rows, axis=1),
        )

    @property
    def separator(self) -> np.ndarray:
        """The ``(3, n)`` separator columns: bucket hash, G1, G2|1."""
        if self._separator is None:
            self._separator = _separator_columns(
                _stacked(self.keys, _SEPARATOR_STREAMS)
            )
        return self._separator

    @property
    def fib(self) -> np.ndarray:
        """The ``(2, n)`` FIB columns: FIB hash, and ``tag_hash`` of the
        key's non-zero ``TAG_BITS``-bit tag (the alternate-bucket offset)."""
        if self._fib is None:
            self._fib = _fib_columns(_stacked(self.keys, _FIB_STREAMS))
        return self._fib


def _separator_columns(hashes: np.ndarray) -> np.ndarray:
    """The separator rows of a stacked pass, G2 made odd in place."""
    hashes[2] |= _ONE
    return hashes


def _fib_columns(hashes: np.ndarray) -> np.ndarray:
    """The FIB rows of a stacked pass, the tag row turned in place into
    ``tag_hash`` of the key's non-zero ``TAG_BITS``-bit tag."""
    tags = hashes[1]
    tags &= _TAG_MASK
    np.maximum(tags, _ONE, out=tags)
    tags ^= _STREAM_TAG
    _mix(tags)
    return hashes


def prehash(keys: Union[HashedKeys, Iterable[Key]]) -> HashedKeys:
    """``keys`` as a :class:`HashedKeys` batch (itself, if it is one)."""
    if isinstance(keys, HashedKeys):
        return keys
    return HashedKeys(canonical_keys(keys))


def family_values(
    g1: np.ndarray, g2: np.ndarray, index: int
) -> np.ndarray:
    """Evaluate ``H_index = G1 + index*G2`` (mod 2**64) for each key."""
    with np.errstate(over="ignore"):
        return g1 + np.uint64(index) * g2


def positions(hashes: np.ndarray, m: int) -> np.ndarray:
    """Reduce 64-bit hash values onto bit-array slots in ``[0, m)``.

    Uses the multiply-shift ("fastrange") reduction on the *top* 32 bits,
    honouring the paper's observation that only the most significant bits of
    ``G1 + i*G2`` behave well.
    """
    if m <= 0:
        raise ValueError("m must be positive")
    # A 32-bit value times m < 2**32 cannot overflow 64 bits.
    return (((hashes >> _SHIFT32) * np.uint64(m)) >> _SHIFT32).astype(np.int64)


def _reduce(h: np.ndarray, m: int, out=None) -> np.ndarray:
    """Multiply-shift family values ``h`` onto slots in ``[0, m)``.

    For ``m = 2**k`` the reduction ``((h >> 32) * 2**k) >> 32`` is exactly
    ``h >> (64 - k)``: one pass instead of three (``m = 1`` shifts by 64,
    which NumPy defines as 0).  ``out`` may be ``h`` (in place).
    """
    power_of_two = m & (m - 1) == 0 and m <= 1 << 32
    shift = _SHIFTS[65 - int(m).bit_length() if power_of_two else 32]
    out = np.right_shift(h, shift, out=out)
    if not power_of_two:
        out *= m
        out >>= shift
    return out


def index_slots(
    g1: np.ndarray, g2: np.ndarray, indices: np.ndarray, m: int
) -> np.ndarray:
    """Slots for *every* (key, family index) pair of ``indices`` at once.

    Returns an ``(n_keys, len(indices))`` uint64 matrix: entry ``[j, c]``
    is the slot in ``[0, m)`` that ``H_{indices[c]}`` assigns to key ``j``,
    equal to ``positions(family_values(g1, g2, indices[c]), m)[j]``.  A
    2-D ``indices`` gives each key its own row of indices (the batched
    lookup: ``indices[j, c]`` is value bit ``c`` of key ``j``'s group).
    With :func:`scan_masks` this is the one home of the multiply-shift
    reduction over many members of the hash family; the owner's incumbent
    test and the lookup evaluate it in place on one matrix (unsigned
    array arithmetic wraps mod 2**64 without warning).
    """
    if m <= 0:
        raise ValueError("m must be positive")
    # The multiply reads any integer ``indices`` as uint64 in its loop:
    # no separate cast of the index matrix.
    h = np.multiply(indices, g2[:, None], dtype=_U64, casting="unsafe")
    h += g1[:, None]
    return _reduce(h, m, out=h)


def chunk_slots(
    g1: np.ndarray, g2: np.ndarray, start: int, count: int, m: int
) -> np.ndarray:
    """:func:`index_slots` of the chunk ``start .. start + count - 1``."""
    return index_slots(
        g1, g2, np.arange(start, start + count, dtype=_U64), m
    )


def scan_masks(
    g1: np.ndarray, g2: np.ndarray, m: int, chunk: int, stop: int
) -> Iterator[Tuple[int, np.ndarray]]:
    """The candidate matrices of a brute-force search, one chunk at a time.

    Yields ``(start, masks)`` for the chunks ``0 .. chunk - 1``,
    ``chunk .. 2 * chunk - 1``, ... below ``stop``: ``masks[j, c]`` is
    ``1 << slot`` of key ``j`` under ``H_{start + c}``, in the narrowest
    unsigned dtype that holds ``m <= 64`` bits (``uint8`` at ``m = 8``).
    The family is linear in its index, so a chunk's values are the last
    chunk's plus ``chunk * G2``: one add per chunk, not a multiply and an
    add.  The step is spread to the chunk's full ``(n, chunk)`` shape
    once, before the second chunk: adding two whole arrays costs about
    half the same add broadcasting a column.  A search stops consuming as
    soon as every target is solved.
    """
    if not 0 < m <= 64:
        raise ValueError("m must be in [1, 64]")
    dtype = np.min_scalar_type((1 << m) - 1)
    h = np.arange(min(chunk, stop), dtype=_U64) * g2[:, None]
    h += g1[:, None]
    step = None
    for start in range(0, stop, chunk):
        slots = _reduce(h[:, : stop - start], m).astype(dtype)
        yield start, np.left_shift(dtype.type(1), slots, out=slots)
        if step is None:
            step = np.empty_like(h)
            np.multiply(g2[:, None], np.uint64(chunk), out=step)
        h += step


def bucket_hash(keys: Union[np.ndarray, HashedKeys]) -> np.ndarray:
    """Independent hash stream for the first-level key-to-bucket mapping
    (read, not recomputed, from a :class:`HashedKeys` batch)."""
    if isinstance(keys, HashedKeys):
        return keys.separator[0]
    return _mix(np.asarray(keys, dtype=_U64) ^ _STREAM_BUCKET)


def fib_hash(keys: np.ndarray) -> np.ndarray:
    """Independent hash stream used by the cuckoo FIB's primary bucket."""
    return _mix(np.asarray(keys, dtype=_U64) ^ _STREAM_FIB)


def tag_hash(keys: np.ndarray) -> np.ndarray:
    """Independent hash stream used for cuckoo partial-key tags."""
    return _mix(np.asarray(keys, dtype=_U64) ^ _STREAM_TAG)


def bucket_hash_int(key: int) -> int:
    """:func:`bucket_hash` of one canonical key (:func:`splitmix64_int`
    inlined: every update hashes its key with it)."""
    x = (key ^ _BUCKET_INT) + 0x9E3779B97F4A7C15 & _MASK64
    x = (x ^ x >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ x >> 27) * 0x94D049BB133111EB & _MASK64
    return x ^ x >> 31


def separator_int(key: int) -> List[int]:
    """:attr:`HashedKeys.separator` of one canonical key, in plain ints:
    its bucket hash, G1 and G2|1 (:func:`splitmix64_int` of each stream,
    inlined: the owner hashes each inserted key with it)."""
    hashes = []
    for stream in _SEPARATOR_INTS:
        x = (key ^ stream) + 0x9E3779B97F4A7C15 & _MASK64
        x = (x ^ x >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
        x = (x ^ x >> 27) * 0x94D049BB133111EB & _MASK64
        hashes.append(x ^ x >> 31)
    hashes[2] |= 1
    return hashes


def fib_hash_int(key: int) -> int:
    """:func:`fib_hash` of one canonical key."""
    return splitmix64_int(key ^ _FIB_INT)


def tag_hash_int(key: int) -> int:
    """:func:`tag_hash` of one canonical key."""
    return splitmix64_int(key ^ _TAG_INT)


def reduce_range_int(value: int, n: int) -> int:
    """:func:`reduce_range` of one 64-bit hash."""
    return ((value >> 32) * n) >> 32


def reduce_range(hashes: np.ndarray, n: int) -> np.ndarray:
    """Map 64-bit hashes uniformly onto ``[0, n)`` (multiply-shift)."""
    if n <= 0:
        raise ValueError("range size must be positive")
    top = np.asarray(hashes, dtype=_U64) >> _SHIFT32
    top *= n
    top >>= _SHIFT32
    return top.view(np.int64)  # below 2**32: the same bits either way


def derive_stream(name: str) -> np.uint64:
    """Derive a new stream constant from a label (for baselines and tests)."""
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return np.uint64(int.from_bytes(digest, "little") | 1)


def keyed_hash(keys: np.ndarray, stream: np.uint64) -> np.ndarray:
    """Hash ``keys`` under the stream constant from :func:`derive_stream`."""
    return _mix(np.asarray(keys, dtype=_U64) ^ stream)
