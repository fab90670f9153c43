"""Per-epoch append-only delta log for rejoin catch-up (scale tier).

Before this module, a daemon that died and came back could only be
re-seeded with a full snapshot — O(structure) bytes on the wire even if
only a handful of groups changed while it was gone.  The controller now
keeps, per state epoch:

* a **floor**: the serialised snapshot every live replica started the
  epoch from (the same bytes published to the shared-memory segment);
* an append-only **log** of the update records broadcast since — the
  exact ``GroupDelta``/``OthelloUpdate`` wire bytes the §4.5 owner
  protocol produced, in owner-application order.

``floor + replay(log)`` reconstructs the current replica state
byte-identically (records are group-local absolute writes, so the
per-owner-batch order the log preserves commutes across groups exactly
like live broadcast application does).  A rejoining daemon therefore
attaches the floor (by shm reference or wire) and replays the log —
O(changes), not O(structure).

When the log outgrows the floor, :meth:`DeltaLog.compact` cuts over: the
records are replayed onto the floor once, the result becomes the new
floor, and the log restarts empty.  The controller republishes the new
floor as a fresh shm generation at that point.

The log is reset (new floor, empty log) whenever every replica receives
brand-new state — bootstrap and membership swaps — because a resize
rebuilds the structure and records from the old shape don't apply.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster.owner import apply_records
from repro.core import serialize


class DeltaLog:
    """Snapshot floor + appended update records for one state epoch."""

    def __init__(self, floor: bytes) -> None:
        self.reset(floor)
        #: Compactions performed over this instance's lifetime.
        self.compactions = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def floor(self) -> bytes:
        """The epoch's base snapshot bytes."""
        return self._floor

    @property
    def floor_fingerprint(self) -> int:
        """Trailing-CRC fingerprint of the floor snapshot."""
        return serialize.fingerprint_bytes(self._floor)

    @property
    def floor_bytes(self) -> int:
        return len(self._floor)

    @property
    def log_bytes(self) -> int:
        """Total appended record bytes since the floor."""
        return self._log_bytes

    @property
    def record_count(self) -> int:
        """Appended wire records since the floor."""
        return self._record_count

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def reset(self, floor: bytes) -> None:
        """Start a new epoch from ``floor`` (bootstrap / membership swap)."""
        self._floor = bytes(floor)
        self._chunks: List[bytes] = []
        self._log_bytes = 0
        self._record_count = 0

    def append(self, wire: bytes, records: int = 1) -> None:
        """Append one broadcast chunk (``records`` concatenated records)."""
        if not wire:
            return
        self._chunks.append(bytes(wire))
        self._log_bytes += len(wire)
        self._record_count += records

    def records(self) -> bytes:
        """The concatenated log — a valid ``MSG_DELTA``-style stream."""
        return b"".join(self._chunks)

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def should_compact(self) -> bool:
        """Whether the log has outgrown the floor snapshot."""
        return self._log_bytes > self.floor_bytes

    def compact(self) -> bytes:
        """Fold the log into the floor; returns the new floor bytes.

        Replays every record onto a private load of the floor and re-dumps
        it.  After this the log is empty and a catch-up is just the (new)
        floor — callers publishing shm segments push the returned bytes as
        a fresh generation.
        """
        if not self._chunks:
            return self._floor
        separator = serialize.loads(self._floor)
        apply_records(separator, self.records())
        self.reset(serialize.dumps(separator))
        self.compactions += 1
        return self._floor

    def maybe_compact(self) -> Optional[bytes]:
        """Compact iff the cutover threshold is reached; new floor or None."""
        if self.should_compact():
            return self.compact()
        return None

    def __repr__(self) -> str:
        return (
            f"DeltaLog(floor={self.floor_bytes}B, log={self._log_bytes}B, "
            f"records={self._record_count}, compactions={self.compactions})"
        )
