"""The Data Plane Engine: per-flow processing at the handling node (§2).

The paper leaves the DPE untouched ("we change only the Packet Forwarding
Engine"), but its presence is why flows must be *pinned*: the handling
node keeps per-flow state.  This module implements a functional DPE so
the reproduction exercises that state end to end:

* a per-bearer state machine (IDLE -> ACTIVE -> IDLE on inactivity);
* charging: byte/packet counters per direction and Charging Data Record
  (CDR) generation on bearer close;
* policing: an optional token-bucket rate limiter per bearer (the
  "administrative functions such as charging and access control" of §2).

Time is explicit (callers pass ``now`` in seconds) so tests and the
chaos soak stay deterministic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

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


class BearerState(enum.Enum):
    """Lifecycle of a bearer's data-plane context."""

    IDLE = "idle"
    ACTIVE = "active"
    CLOSED = "closed"


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
class TokenBucket:
    """Classic token-bucket policer.

    Attributes:
        rate_bytes_per_s: sustained rate.
        burst_bytes: bucket depth.
    """

    rate_bytes_per_s: float
    burst_bytes: float
    _tokens: float = field(default=-1.0, repr=False)
    _last: float = field(default=0.0, repr=False)

    def allow(self, size: int, now: float) -> bool:
        """Consume ``size`` bytes if the bucket permits; refills lazily."""
        if self._tokens < 0:
            self._tokens = self.burst_bytes
            self._last = now
        elapsed = max(0.0, now - self._last)
        # A late packet gets no credit and winds the clock back by none:
        # the time up to ``_last`` has been credited already.
        self._last = max(self._last, now)
        self._tokens = min(
            self.burst_bytes, self._tokens + elapsed * self.rate_bytes_per_s
        )
        if self._tokens >= size:
            self._tokens -= size
            return True
        return False


@dataclass(**DATACLASS_SLOTS)
class FlowContext:
    """Per-bearer data-plane state held at the handling node."""

    teid: int
    state: BearerState = BearerState.IDLE
    uplink_bytes: int = 0
    downlink_bytes: int = 0
    uplink_packets: int = 0
    downlink_packets: int = 0
    opened_at: float = 0.0
    last_activity: float = 0.0
    policer: Optional[TokenBucket] = None


class DataPlaneEngine:
    """Per-node DPE: charging, policing and bearer state.

    Args:
        idle_timeout_s: inactivity after which an ACTIVE bearer returns
            to IDLE (checked lazily and by :meth:`expire_idle`).
    """

    def __init__(self, idle_timeout_s: float = 30.0) -> None:
        self.idle_timeout_s = idle_timeout_s
        self._flows: Dict[int, FlowContext] = {}
        self.records: List[ChargingRecord] = []
        self.policed_drops = 0

    # ------------------------------------------------------------------
    # Bearer lifecycle
    # ------------------------------------------------------------------

    def open_bearer(
        self,
        teid: int,
        now: float = 0.0,
        rate_limit_bytes_per_s: Optional[float] = None,
        burst_bytes: Optional[float] = None,
    ) -> FlowContext:
        """Create the data-plane context for a bearer."""
        if teid in self._flows:
            raise ValueError(f"bearer {teid} already open")
        policer = None
        if rate_limit_bytes_per_s is not None:
            policer = TokenBucket(
                rate_bytes_per_s=rate_limit_bytes_per_s,
                burst_bytes=burst_bytes or rate_limit_bytes_per_s,
            )
        context = FlowContext(
            teid=teid, opened_at=now, last_activity=now, policer=policer
        )
        self._flows[teid] = context
        return context

    def close_bearer(self, teid: int, now: float = 0.0) -> ChargingRecord:
        """Tear a bearer down and emit its CDR."""
        context = self._flows.pop(teid, None)
        if context is None:
            raise KeyError(f"bearer {teid} is not open")
        context.state = BearerState.CLOSED
        record = ChargingRecord(
            teid=teid,
            uplink_bytes=context.uplink_bytes,
            downlink_bytes=context.downlink_bytes,
            uplink_packets=context.uplink_packets,
            downlink_packets=context.downlink_packets,
            opened_at=context.opened_at,
            closed_at=now,
        )
        self.records.append(record)
        return record

    def context(self, teid: int) -> Optional[FlowContext]:
        """The bearer's live context, if open."""
        return self._flows.get(teid)

    def __len__(self) -> int:
        return len(self._flows)

    # ------------------------------------------------------------------
    # Packet processing
    # ------------------------------------------------------------------

    def process(
        self, teid: int, size: int, downlink: bool, now: float = 0.0
    ) -> bool:
        """Account one packet against its bearer.

        Returns False (drop) when the bearer is unknown or the policer
        rejects the packet; True otherwise.  A negative ``size`` is a
        ``ValueError``.
        """
        if size < 0:
            raise ValueError(f"size {size} is negative")
        context = self._flows.get(teid)
        if context is None:
            return False
        if context.policer is not None and not context.policer.allow(size, now):
            self.policed_drops += 1
            return False
        context.state = BearerState.ACTIVE
        context.last_activity = now
        if downlink:
            context.downlink_bytes += size
            context.downlink_packets += 1
        else:
            context.uplink_bytes += size
            context.uplink_packets += 1
        return True

    def process_batch(
        self,
        teids: np.ndarray,
        sizes: np.ndarray,
        downlink: bool,
        nows: np.ndarray,
    ) -> np.ndarray:
        """Account many packets at once; returns per-packet accept flags.

        :meth:`process` per packet, in input order, with its body inlined
        into one Python pass over the columns: at the few packets a
        handling node gets per gateway batch, that costs less than any
        NumPy grouping by bearer would, and a call per packet costs more
        than the packet's work (both measured up to 256).  Columns
        of different lengths or a negative size are a ``ValueError``
        naming the first bad row (:func:`check_batch_columns`), raised
        before anything is accounted.
        """
        teids = np.asarray(teids, dtype=np.int64).tolist()
        sizes = np.asarray(sizes, dtype=np.int64).tolist()
        nows = np.asarray(nows, dtype=np.float64).tolist()
        # The checker's test, inline: its call alone is a fifth of an
        # 8-packet batch, so it runs only to name the bad row.
        if not len(teids) == len(sizes) == len(nows) or (
            sizes and min(sizes) < 0
        ):
            check_batch_columns(teids=teids, sizes=sizes, nows=nows)
        flows = self._flows
        active = BearerState.ACTIVE
        ok: List[bool] = []
        append = ok.append
        for teid, size, now in zip(teids, sizes, nows):
            context = flows.get(teid)
            if context is None:
                append(False)
                continue
            if context.policer is not None and not context.policer.allow(
                size, now
            ):
                self.policed_drops += 1
                append(False)
                continue
            context.state = active
            context.last_activity = now
            if downlink:
                context.downlink_bytes += size
                context.downlink_packets += 1
            else:
                context.uplink_bytes += size
                context.uplink_packets += 1
            append(True)
        return np.array(ok, dtype=bool)

    def expire_idle(self, now: float) -> int:
        """Demote bearers inactive for longer than the idle timeout."""
        demoted = 0
        for context in self._flows.values():
            if (
                context.state is BearerState.ACTIVE
                and now - context.last_activity > self.idle_timeout_s
            ):
                context.state = BearerState.IDLE
                demoted += 1
        return demoted

    # ------------------------------------------------------------------
    # State migration (flow re-homing between nodes)
    # ------------------------------------------------------------------

    def export_context(self, teid: int) -> FlowContext:
        """Remove and return a bearer's context for transfer to a peer.

        Counters travel with the context, so charging stays continuous
        across a re-homing (no double-billing, no lost bytes).
        """
        context = self._flows.pop(teid, None)
        if context is None:
            raise KeyError(f"bearer {teid} is not open here")
        return context

    def import_context(self, context: FlowContext) -> None:
        """Adopt a context exported by a peer node."""
        if context.teid in self._flows:
            raise ValueError(f"bearer {context.teid} already open here")
        self._flows[context.teid] = context

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def active_bearers(self) -> int:
        """Bearers currently in ACTIVE state."""
        return sum(
            1
            for c in self._flows.values()
            if c.state is BearerState.ACTIVE
        )

    def total_bytes(self) -> int:
        """All accounted bytes across open bearers."""
        return sum(
            c.uplink_bytes + c.downlink_bytes for c in self._flows.values()
        )
