"""Common interface for the exact FIB tables.

Every FIB design the paper compares (cuckoo, chaining, rte_hash) offers the
same contract: exact key-to-value lookup with a real "not found" answer —
the property the compact GPT deliberately gives up, and the reason the
handling node can reject packets the GPT misroutes (§3.2).
"""

from __future__ import annotations

import abc
from typing import Any, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.hashfamily import HashedKeys, canonical_key, canonical_keys
from repro.core.setsep import Key


class TableFullError(RuntimeError):
    """Raised when an insert cannot be placed (table at capacity)."""


class FibTable(abc.ABC):
    """Exact key/value table with size accounting for the cache model."""

    @abc.abstractmethod
    def insert(self, key: Key, value: Any) -> None:
        """Insert or overwrite an entry.

        Raises:
            TableFullError: if no slot can be found for the key.
        """

    @abc.abstractmethod
    def lookup(self, key: Key) -> Optional[Any]:
        """Exact lookup; returns ``None`` when the key is absent."""

    @abc.abstractmethod
    def delete(self, key: Key) -> bool:
        """Remove an entry; returns whether it existed."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of resident entries."""

    @abc.abstractmethod
    def size_bytes(self) -> int:
        """Memory footprint charged to this table (cache-model input)."""

    def __contains__(self, key: Key) -> bool:
        return self.lookup(key) is not None

    def lookup_batch(
        self, keys: Union[Sequence[Key], np.ndarray]
    ) -> List[Optional[Any]]:
        """Look up many keys; subclasses may vectorise."""
        return [self.lookup(k) for k in canonical_many(keys).tolist()]

    def lookup_batch_array(
        self,
        keys: Union[Sequence[Key], np.ndarray],
        missing: int = -1,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Array-native batch lookup for integer-valued tables.

        Returns ``(found, values)`` where ``found`` is a boolean array and
        ``values`` an ``int64`` array carrying ``missing`` for absent keys.
        This is the shape the batched forwarding fast path consumes — no
        per-key Python objects cross the boundary.  Tables holding
        non-integer values raise :class:`TypeError` (read those with
        :meth:`lookup_batch`).  An integer key outside ``[0, 2**64)`` is a
        ``ValueError`` (:func:`checked_keys`), not a miss.
        """
        results = self.lookup_batch(checked_keys(keys))
        n = len(results)
        found = np.zeros(n, dtype=bool)
        values = np.full(n, missing, dtype=np.int64)
        for i, value in enumerate(results):
            if value is None:
                continue
            if not isinstance(value, (int, np.integer)):
                raise TypeError(
                    f"{type(self).__name__} holds non-integer values; "
                    "use lookup_batch()"
                )
            found[i] = True
            values[i] = int(value)
        return found, values

    def insert_many(
        self,
        keys: Union[Sequence[Key], np.ndarray],
        values: Sequence[Any],
    ) -> None:
        """Insert or overwrite a column of keys with a column of values.

        Leaves the state a loop of :meth:`insert` over the rows, in order,
        leaves (subclasses may place the batch in bulk).  An integer key
        outside ``[0, 2**64)`` (:func:`checked_keys`) or columns of
        different lengths refuse the whole batch before any change.
        """
        keys = canonical_many(checked_keys(keys)).tolist()
        values = list(values)
        if len(values) != len(keys):
            raise ValueError("keys and values lengths differ")
        for key, value in zip(keys, values):
            self.insert(key, value)


def canonical(key: Key) -> int:
    """Shared key canonicalisation (same space as SetSep keys) of every
    table's scalar ops.

    An integer key must lie in ``[0, 2**64)``: one outside is a
    ``ValueError``, as it is to :func:`checked_keys` for the batch ops,
    never a different key taken mod ``2**64``.  Byte and text keys are
    digested, so they have no range.
    """
    if isinstance(key, (int, np.integer)) and not 0 <= key < 1 << 64:
        raise ValueError(f"key {int(key)} is outside [0, 2**64)")
    return canonical_key(key)


def checked_keys(keys):
    """``keys``, refusing an integer key outside ``[0, 2**64)``.

    The ``ValueError`` names the first bad row.  A pre-hashed
    :class:`~repro.core.hashfamily.HashedKeys` batch or an unsigned array
    is in range by construction and passes for one type test; a signed
    array costs one vectorised sign test.  Byte and text keys are
    digested, so they have no range.  A one-shot iterable comes back as a
    list.
    """
    if isinstance(keys, HashedKeys):
        return keys
    if isinstance(keys, np.ndarray):
        if keys.dtype.kind == "u":
            return keys
        if keys.dtype.kind == "i":
            if keys.size and keys.min() < 0:
                first = int(np.argmax(keys < 0))
                _refuse_key(first, int(keys[first]))
            return keys
    elif not isinstance(keys, (list, tuple)):
        keys = list(keys)
    for row, key in enumerate(keys):
        if isinstance(key, (int, np.integer)) and not 0 <= key < 1 << 64:
            _refuse_key(row, int(key))
    return keys


def _refuse_key(row: int, key: int) -> None:
    raise ValueError(f"row {row}: key {key} is outside [0, 2**64)")


def canonical_many(keys: Union[Sequence[Key], np.ndarray]) -> np.ndarray:
    """Vector key canonicalisation."""
    return canonical_keys(keys)
