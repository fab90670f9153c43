"""TEID -> row indexes for the per-bearer column stores (paper §2).

The DPE keeps each node's bearers, and the charging ledger every TEID it
has billed, as rows of NumPy columns.  A packet batch arrives as a
column of TEIDs, so both need the rows of many TEIDs at once, and the
rows of one TEID at a time on the control plane.  :class:`TeidIndex`
answers both for any 32-bit TEID.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Optional, Tuple

import numpy as np

#: The largest TEID: the GTP-U header carries 32 bits.
MAX_TEID = 0xFFFFFFFF


def is_teid(value: object) -> bool:
    """An integer in ``0..MAX_TEID``; a NumPy integer is one, a ``bool``
    or a float is not."""
    if type(value) is not int and (
        not isinstance(value, np.integer) or isinstance(value, bool)
    ):
        return False
    return 0 <= value <= MAX_TEID  # type: ignore[operator]


class TeidIndex:
    """TEID -> row, read one TEID at a time or a column at once.

    Each TEID has one slot in two int64 columns (key, row): slot ``teid %
    size``, ``size`` odd.  Entries are added to an overflow dict and
    moved into their slots by one vectorised rebuild once the overflow
    holds more than half of them, or, when a column read comes, a
    sixteenth more than the last rebuild left; an entry whose slot
    another holds stays behind.  A column read (:meth:`rows`) is five
    array operations plus a dict read for each TEID that missed its slot
    (absent, or in the overflow); a read of a few TEIDs (:meth:`rows_of`,
    :meth:`get`) goes through memoryviews of the columns.  The columns
    are three times the entries: the arithmetic progression of TEIDs a
    round-robin controller hands one node has a step prime to ``size``
    and fills slots of its own, random TEIDs leave about a seventh
    behind.  Memory is a few words per entry whatever the TEIDs' values.
    """

    def __init__(self) -> None:
        self._overflow: Dict[int, int] = {}
        self._slotted = 0  # entries in the columns
        self._settled = 0  # the overflow the last rebuild left
        self._new_columns(1)

    def _new_columns(self, size: int) -> None:
        """Empty columns: an empty slot's key and row are -1."""
        self._keys = np.full(size, -1, dtype=np.int64)
        self._rows = np.full(size, -1, dtype=np.int64)
        self._key_view = memoryview(self._keys)
        self._row_view = memoryview(self._rows)

    def __len__(self) -> int:
        return self._slotted + len(self._overflow)

    def get(self, teid: object) -> Optional[int]:
        """The row of ``teid``; ``None`` if absent or not a TEID."""
        if not is_teid(teid):
            return None
        teid = int(teid)  # type: ignore[call-overload]
        slot = teid % self._keys.size
        if self._key_view[slot] == teid:
            return self._row_view[slot]
        return self._overflow.get(teid)

    def rows_of(self, teids: List[int]) -> List[int]:
        """Each plain-int TEID's row, -1 where absent: a slot read and,
        for a TEID not in its slot, a dict read."""
        overflow, keys, rows = self._overflow, self._key_view, self._row_view
        size = self._keys.size
        out = []
        append = out.append
        for teid in teids:
            # An empty slot's key and row are -1: a -1 finds row -1.
            slot = teid % size
            append(rows[slot] if keys[slot] == teid
                   else overflow.get(teid, -1))
        return out

    def add(self, teid: int, row: int) -> bool:
        """Index ``teid`` (a plain-int TEID, checked by the caller) at
        ``row``; False, changing nothing, if it is indexed already."""
        overflow = self._overflow
        if teid in overflow or self._key_view[teid % self._keys.size] == teid:
            return False
        overflow[teid] = row
        if len(overflow) > 16 and len(overflow) > self._slotted:
            self._settle()
        return True

    def add_many(self, teids: np.ndarray, rows: np.ndarray) -> None:
        """:meth:`add` of a column of distinct TEIDs, checked by the
        caller, none in the index yet."""
        overflow = self._overflow
        overflow.update(zip(teids.tolist(), rows.tolist()))
        if len(overflow) > 16 and len(overflow) > self._slotted:
            self._settle()

    def pop(self, teid: object) -> Optional[int]:
        """Remove ``teid``; returns its row, ``None`` if it was absent."""
        if not is_teid(teid):
            return None
        row = self._overflow.pop(teid, None)  # type: ignore[arg-type]
        if row is None:
            slot = teid % self._keys.size  # type: ignore[operator]
            if self._key_view[slot] == teid:
                row = self._row_view[slot]
                self._key_view[slot] = self._row_view[slot] = -1
                self._slotted -= 1
        return row

    def items(self) -> List[Tuple[int, int]]:
        """Every ``(teid, row)``, in no particular order."""
        held = self._keys >= 0
        return [
            *zip(self._keys[held].tolist(), self._rows[held].tolist()),
            *self._overflow.items(),
        ]

    def rows(self, teids: np.ndarray) -> np.ndarray:
        """Each TEID's row (an int64 column in, one out), -1 where
        absent."""
        if len(self._overflow) > self._settled + 16 + self._slotted // 16:
            self._settle()
        slots = teids % self._keys.size
        rows = self._rows.take(slots)
        hit = self._keys.take(slots) == teids
        if not np.logical_and.reduce(hit):
            # An empty slot's row is -1 already; a held one is another's.
            missed = (~hit).nonzero()[0]
            rows[missed] = list(map(
                self._overflow.get, teids[missed].tolist(), repeat(-1)
            ))
        return rows

    def _settle(self) -> None:
        """Rebuild: columns three times the entries, each entry in its
        slot but where keys share one (one of them wins it)."""
        overflow = self._overflow
        held = self._keys >= 0
        keys = np.concatenate([
            self._keys[held],
            np.fromiter(overflow, dtype=np.int64, count=len(overflow)),
        ])
        rows = np.concatenate([
            self._rows[held],
            np.fromiter(overflow.values(), dtype=np.int64, count=len(overflow)),
        ])
        size = 3 * keys.size | 1
        self._new_columns(size)
        slots = keys % size
        self._keys[slots] = keys
        won = self._keys.take(slots) == keys
        self._rows[slots[won]] = rows[won]
        self._slotted = int(np.add.reduce(won))
        lost = ~won
        overflow.clear()
        overflow.update(zip(keys[lost].tolist(), rows[lost].tolist()))
        self._settled = len(overflow)
