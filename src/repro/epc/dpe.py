"""The Data Plane Engine: per-flow processing at the handling node (§2).

The paper leaves the DPE untouched ("we change only the Packet Forwarding
Engine"), but its presence is why flows must be *pinned*: the handling
node keeps per-flow state.  This module implements a functional DPE so
the reproduction exercises that state end to end:

* charging: byte/packet counters per direction, which move with a
  re-homed bearer (§7), and a Charging Data Record (CDR) on bearer close;
* the charging ledger, bytes per TEID (:class:`ChargingLedger`): the
  gateway's and each node daemon's.

A CDR's times are explicit (callers pass ``now`` in seconds to open and
close a bearer) so tests and the chaos soak stay deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.epc.teid_index import MAX_TEID, TeidIndex, is_teid
from repro.obs.metrics import MetricsRegistry
from repro.utils import DATACLASS_SLOTS


def check_batch_columns(**columns: List) -> None:
    """Refuse a packet batch whose columns disagree in length or whose
    ``sizes`` column holds a negative byte count.

    The columns are lists: the callers' loops read them as lists, and
    at the few packets of a node's share of a batch Python's builtins
    test them faster than one NumPy reduction would.  The ``ValueError``
    names the first bad row: the first negative size, or the first row
    some column lacks, whichever comes first.  Callers run this before
    they move any state or counter.
    """
    lengths = [len(column) for column in columns.values()]
    rows = min(lengths)
    ragged = max(lengths) != rows
    sizes = columns["sizes"]
    if sizes and min(sizes) < 0:
        first = next(row for row, size in enumerate(sizes) if size < 0)
        if first < rows or not ragged:
            raise ValueError(f"row {first}: size {sizes[first]} is negative")
    if ragged:
        counts = ", ".join(
            f"{name} has {length}"
            for name, length in zip(columns, lengths)
        )
        raise ValueError(f"row {rows}: columns disagree in length ({counts})")


@dataclass(**DATACLASS_SLOTS)
class ChargingRecord:
    """A CDR emitted when a bearer closes."""

    teid: int
    uplink_bytes: int
    downlink_bytes: int
    uplink_packets: int
    downlink_packets: int
    opened_at: float
    closed_at: float

    @property
    def duration(self) -> float:
        """Bearer lifetime in seconds."""
        return self.closed_at - self.opened_at


@dataclass(**DATACLASS_SLOTS)
class FlowContext:
    """One bearer's data-plane state, as a record.

    The engine keeps its bearers' state in columns; a ``FlowContext`` is
    a snapshot of one row (:meth:`DataPlaneEngine.context`,
    :meth:`~DataPlaneEngine.open_bearer`) and the transfer record a
    re-homing carries (:meth:`~DataPlaneEngine.export_context` /
    :meth:`~DataPlaneEngine.import_context`).  Writing to a snapshot
    changes nothing in the engine.
    """

    teid: int
    uplink_bytes: int = 0
    downlink_bytes: int = 0
    uplink_packets: int = 0
    downlink_packets: int = 0
    opened_at: float = 0.0


#: Rows of the counter block: bytes, then packets, each uplink then
#: downlink (``+ downlink``).
_BYTES, _PACKETS = 0, 2
#: A batch of fewer packets (or, in the ledger, rows) is accounted one by
#: one, through memoryviews of the columns: below it NumPy's fixed cost per
#: operation is more than the packets' work.  Traced in the gateway, the
#: 8 packets a node gets of a 32-frame batch cost 2.3x as array
#: operations what they cost in the loop, and the 64 of a 256-frame batch
#: cost 0.43x; a 32-frame batch's ledger call stays in the loop.
LOOP_BELOW = 40


class DataPlaneEngine:
    """Per-node DPE: the bearers' charging counters, and a CDR for each
    bearer it closes.

    Bearer state lives in dense row columns (bytes and packets per
    direction, ``opened_at``) behind a
    :class:`~repro.epc.teid_index.TeidIndex`, so a batch of packets is
    accounted with a few array operations and any 32-bit TEID costs a few
    index words.  A closed bearer's row is zeroed and reused.
    """

    def __init__(self) -> None:
        self._index = TeidIndex()
        self._free_rows: List[int] = []
        self._rows_used = 0  # rows ever handed out, free ones included
        self._columns(
            np.zeros((4, 0), dtype=np.int64), np.zeros(0, dtype=np.float64)
        )

    # ------------------------------------------------------------------
    # Rows
    # ------------------------------------------------------------------

    def _columns(self, counts: np.ndarray, opened: np.ndarray) -> None:
        self._counts, self._opened = counts, opened
        # The packet loop's way in: a memoryview item costs a third of a
        # NumPy scalar.
        self._count_views = [memoryview(row) for row in counts]
        self._opened_view = memoryview(opened)

    def _new_row(self) -> int:
        """A free row, growing the columns by half when none is left."""
        if self._free_rows:
            return self._free_rows.pop()
        row = self._rows_used
        self._rows_used += 1
        size = self._opened.size
        if row == size:
            grown = size + size // 2 + 8
            counts = np.zeros((4, grown), dtype=np.int64)
            counts[:, :size] = self._counts
            opened = np.zeros(grown, dtype=np.float64)
            opened[:size] = self._opened
            self._columns(counts, opened)
        return row

    def _claim_row(self, teid: int) -> int:
        """A row indexed under ``teid``; ``ValueError`` if that is not a
        TEID or is open already."""
        if type(teid) is not int or not 0 <= teid <= MAX_TEID:
            if not is_teid(teid):
                raise ValueError(f"TEID {teid!r} is not a 32-bit TEID")
            teid = int(teid)
        row = self._new_row()
        if not self._index.add(teid, row):
            self._free_rows.append(row)
            raise ValueError(f"bearer {teid} already open")
        return row

    def _read(self, teid: int, row: int) -> FlowContext:
        up_bytes, down_bytes, up_packets, down_packets = self._count_views
        # Positional: a slotted record takes keywords at over twice the
        # cost, and a snapshot is made per bearer event.
        return FlowContext(
            teid, up_bytes[row], down_bytes[row], up_packets[row],
            down_packets[row], self._opened_view[row],
        )

    def _release(self, teid: int) -> FlowContext:
        """Remove a bearer, returning its last snapshot."""
        row = self._index.pop(teid)
        if row is None:
            raise KeyError(f"bearer {teid} is not open")
        context = self._read(teid, row)
        for view in self._count_views:
            view[row] = 0
        self._free_rows.append(row)
        return context

    # ------------------------------------------------------------------
    # Bearer lifecycle
    # ------------------------------------------------------------------

    def open_bearer(self, teid: int, now: float = 0.0) -> FlowContext:
        """Create the data-plane state for a bearer, opened at ``now``;
        returns its snapshot."""
        now = float(now)
        row = self._claim_row(teid)
        # A free row reads zero counters already.
        self._opened_view[row] = now
        return FlowContext(teid, 0, 0, 0, 0, now)

    def close_bearer(self, teid: int, now: float = 0.0) -> ChargingRecord:
        """Tear a bearer down; returns its CDR, closed at ``now``.  The
        engine keeps no CDR: whoever wants one takes it from here."""
        context = self._release(teid)
        return ChargingRecord(
            teid, context.uplink_bytes, context.downlink_bytes,
            context.uplink_packets, context.downlink_packets,
            context.opened_at, now,
        )

    def context(self, teid: int) -> Optional[FlowContext]:
        """A snapshot of the bearer's state, if open."""
        row = self._index.get(teid)
        return None if row is None else self._read(teid, row)

    def contexts(self) -> Dict[int, FlowContext]:
        """Snapshots of every open bearer, in row order."""
        return {
            teid: self._read(teid, row)
            for teid, row in sorted(self._index.items(), key=itemgetter(1))
        }

    def __len__(self) -> int:
        return len(self._index)

    # ------------------------------------------------------------------
    # Packet processing
    # ------------------------------------------------------------------

    def process(self, teid: int, size: int, downlink: bool) -> bool:
        """Account one packet against its bearer.

        Returns False (drop) when the bearer is unknown; True otherwise.
        A negative ``size`` is a ``ValueError``.
        """
        if size < 0:
            raise ValueError(f"size {size} is negative")
        row = self._index.get(teid)
        if row is None:
            return False
        self._account_each([row], [size], downlink)
        return True

    def process_batch(
        self, teids: np.ndarray, sizes: np.ndarray, downlink: bool
    ) -> None:
        """Account many packets at once; a packet of an unknown bearer is
        skipped.

        :meth:`process` per packet, as column operations: one column read
        of the TEID index finds the rows, and the known bearers' counters
        are added with ``np.add.at`` (a bearer may repeat).  Fewer than
        :data:`LOOP_BELOW` packets take :meth:`process`'s own loop
        instead.  Columns of different lengths or a negative size are a
        ``ValueError`` naming the first bad row
        (:func:`check_batch_columns`), raised before anything is
        accounted.
        """
        teids = np.asarray(teids, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        count = teids.size
        if count < LOOP_BELOW:
            teid_list, size_list = teids.tolist(), sizes.tolist()
            # The checker's test, inline: it is called only to name the
            # bad row.
            if count != len(size_list) or (size_list and min(size_list) < 0):
                check_batch_columns(teids=teid_list, sizes=size_list)
            self._account_each(
                self._index.rows_of(teid_list), size_list, downlink
            )
            return
        if count != sizes.size or np.minimum.reduce(sizes) < 0:
            check_batch_columns(teids=teids.tolist(), sizes=sizes.tolist())
        rows = self._index.rows(teids)
        ok = rows >= 0
        if not np.logical_and.reduce(ok):
            rows, sizes = rows[ok], sizes[ok]
        direction = 1 if downlink else 0
        np.add.at(self._counts[_BYTES + direction], rows, sizes)
        np.add.at(self._counts[_PACKETS + direction], rows, 1)

    def _account_each(
        self, rows: List[int], sizes: List[int], downlink: bool
    ) -> None:
        """:meth:`process`'s work for each packet in turn (row -1: an
        unknown bearer, skipped)."""
        direction = 1 if downlink else 0
        nbytes = self._count_views[_BYTES + direction]
        npackets = self._count_views[_PACKETS + direction]
        for row, size in zip(rows, sizes):
            if row >= 0:
                nbytes[row] += size
                npackets[row] += 1

    # ------------------------------------------------------------------
    # State migration (flow re-homing between nodes)
    # ------------------------------------------------------------------

    def export_context(self, teid: int) -> FlowContext:
        """Remove a bearer and return its state for transfer to a peer.

        Counters travel with the context, so charging stays continuous
        across a re-homing (no double-billing, no lost bytes).
        """
        return self._release(teid)

    def import_context(self, context: FlowContext) -> None:
        """Adopt a context exported by a peer node."""
        row = self._claim_row(context.teid)
        up_bytes, down_bytes, up_packets, down_packets = self._count_views
        try:
            up_bytes[row] = context.uplink_bytes
            down_bytes[row] = context.downlink_bytes
            up_packets[row] = context.uplink_packets
            down_packets[row] = context.downlink_packets
            self._opened_view[row] = context.opened_at
        except (TypeError, ValueError):
            self._release(context.teid)  # a bad field changes nothing
            raise

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def total_bytes(self) -> int:
        """All accounted bytes across open bearers (free rows hold 0)."""
        return int(self._counts[_BYTES:_BYTES + 2].sum())


class ChargingLedger:
    """Per-bearer byte accounting (``EpcGateway.stats``, ``NodeDaemon.ledger``).

    Bytes per TEID are an int64 column, a row per TEID in the order each
    was first charged, behind a :class:`~repro.epc.teid_index.TeidIndex`.
    ``bytes_charged`` is a read-only ``{teid: bytes}`` view of it, built
    when read — real state the audits compare, not a metrics view; the
    registry tracks only the cluster-wide total as
    ``gateway.bytes_charged``.  Packet and drop counts live exclusively
    in the gateway's metrics registry (``gateway.downstream.packets_in``,
    ``gateway.drops.acl``, ...).

    A TEID is an integer in ``0..MAX_TEID``: both entries refuse
    anything else (a negative, a float, a ``bool``) with a
    ``ValueError`` before the ledger or its counter moves.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._registry = (
            registry if registry is not None else MetricsRegistry()
        )
        self._index = TeidIndex()
        self._charged = 0  # rows in use: TEIDs charged so far
        self._columns(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        self._c_bytes = self._registry.counter(
            "gateway.bytes_charged", "bytes charged across all bearers"
        )

    def _columns(self, teids: np.ndarray, charged: np.ndarray) -> None:
        self._teids, self._bytes = teids, charged
        # The row loop's way in: a memoryview item costs a third of a
        # NumPy scalar.
        self._bytes_view = memoryview(charged)

    @property
    def bytes_charged(self) -> Mapping[int, int]:
        """``{teid: bytes}`` for every TEID charged, in first-charge
        order (a read-only copy)."""
        charged = self._charged
        return MappingProxyType(dict(zip(
            self._teids[:charged].tolist(), self._bytes[:charged].tolist()
        )))

    def bytes_of(self, teid: int) -> int:
        """Bytes charged to one TEID (0 if none)."""
        row = self._index.get(teid)
        return 0 if row is None else self._bytes_view[row]

    def _add_rows(self, teids: List[int]) -> Dict[int, int]:
        """Give each of ``teids`` (none charged before, repeats allowed)
        the next row, in first-occurrence order, growing the columns by
        half when full; returns TEID -> row for them."""
        first = dict.fromkeys(teids)
        start = self._charged
        stop = self._charged = start + len(first)
        if stop > self._bytes.size:
            grown = stop + stop // 2 + 8
            columns = np.zeros((2, grown), dtype=np.int64)
            columns[0, :start] = self._teids[:start]
            columns[1, :start] = self._bytes[:start]
            self._columns(*columns)
        added = np.fromiter(first, dtype=np.int64, count=len(first))
        rows = np.arange(start, stop)
        self._teids[start:stop] = added
        self._index.add_many(added, rows)
        first.update(zip(first, range(start, stop)))
        return first

    def charge(self, teid: int, size: int) -> None:
        """DPE charging function: account bytes to a bearer."""
        if not is_teid(teid):
            raise ValueError(f"TEID {teid!r} is not an integer 0..{MAX_TEID}")
        if size < 0:
            raise ValueError(f"size {size} is negative")
        self._charge_each([int(teid)], [size])
        self._c_bytes.inc(size)

    def charge_many(self, teids: np.ndarray, sizes: np.ndarray) -> None:
        """Batched :meth:`charge`: one column read of the TEID index and
        one ``np.add.at``, one counter add; fewer than :data:`LOOP_BELOW`
        rows take :meth:`charge`'s own loop instead.

        Columns of different lengths or a negative size, then anything
        that is not a TEID, is a ``ValueError`` naming the first bad row,
        raised before the ledger or the counter moves.
        """
        sizes = np.asarray(sizes, dtype=np.int64)
        if len(teids) < LOOP_BELOW:
            size_list = sizes.tolist()
            if len(teids) != len(size_list) or (
                size_list and min(size_list) < 0
            ):
                check_batch_columns(teids=list(teids), sizes=size_list)
            self._charge_each(checked_teids(teids), size_list)
            self._c_bytes.inc(sum(size_list))
            return
        if len(teids) != sizes.size or np.minimum.reduce(sizes) < 0:
            check_batch_columns(teids=list(teids), sizes=sizes.tolist())
        if isinstance(teids, np.ndarray) and teids.dtype.kind in "iu" and (
            np.minimum.reduce(teids) >= 0
            and np.maximum.reduce(teids) <= MAX_TEID
        ):
            teids = teids.astype(np.int64, copy=False)
        else:
            teids = np.array(checked_teids(teids), dtype=np.int64)
        rows = self._index.rows(teids)
        new = (rows < 0).nonzero()[0]
        if new.size:
            new_teids = teids[new].tolist()
            first = self._add_rows(new_teids)
            rows[new] = list(map(first.__getitem__, new_teids))
        np.add.at(self._bytes, rows, sizes)
        self._c_bytes.inc(int(np.add.reduce(sizes)))

    def _charge_each(self, teids: List[int], sizes: List[int]) -> None:
        """Charge row by row through a memoryview of the column."""
        rows = self._index.rows_of(teids)
        if -1 in rows:
            first = self._add_rows(
                [teid for teid, row in zip(teids, rows) if row < 0]
            )
            rows = list(map(first.get, teids, rows))
        view = self._bytes_view
        for row, size in zip(rows, sizes):
            view[row] += size

    def __repr__(self) -> str:
        return (
            f"ChargingLedger(bearers={self._charged}, "
            f"total={self._c_bytes.value})"
        )


def checked_teids(teids: object) -> List[int]:
    """``teids`` as plain ints, or a ``ValueError`` naming the first row
    that is not a TEID.  An integer array is checked by its range; any
    other column value by value (NumPy would turn ``True`` into 1)."""
    if isinstance(teids, np.ndarray) and teids.dtype.kind in "iu":
        values = teids.tolist()
        if not values or 0 <= min(values) and max(values) <= MAX_TEID:
            return values
    else:
        values = list(teids.tolist() if isinstance(teids, np.ndarray)
                      else teids)  # type: ignore[call-overload]
        if all(map(is_teid, values)):
            return [int(teid) for teid in values]
    bad = next(row for row, teid in enumerate(values) if not is_teid(teid))
    raise ValueError(
        f"row {bad}: TEID {values[bad]!r} is not an integer 0..{MAX_TEID}"
    )
