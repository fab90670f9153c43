"""The EPC controller: bearers, TEIDs and flow pinning (paper §2).

When a mobile opens a connection the controller allocates a GTP-U tunnel
(TEID) and assigns the flow to one cluster node — its *handling node*.  The
assignment obeys LTE-specific constraints (e.g. geographic proximity: all
mobiles of a region land on the same node), which is exactly why ScaleBricks
must treat the partitioning as externally fixed rather than hash-chosen
(§2, §7 "Skewed Forwarding Table Distribution").
"""

from __future__ import annotations

import enum
import operator
import struct
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.core import hashfamily
from repro.epc.packets import FlowTuple
from repro.epc.tunnels import TeidAllocator
from repro.utils import DATACLASS_SLOTS


class AssignmentPolicy(enum.Enum):
    """How the controller pins new flows to handling nodes."""

    #: Uniform spread (the paper's "ideal case" where ScaleBricks scales).
    ROUND_ROBIN = "round_robin"
    #: Hash of the mobile's region: all flows of a region share a node —
    #: realistic, and the source of skew §7 discusses.
    GEOGRAPHIC = "geographic"
    #: Hash of the flow key (what a system *free* to choose would do).
    HASH = "hash"


@dataclass(frozen=True, **DATACLASS_SLOTS)
class FlowRecord:
    """Controller state for one bearer's downstream flow."""

    flow: FlowTuple
    key: int
    teid: int
    handling_node: int
    base_station_ip: int
    region: int


class BearerMismatchError(RuntimeError):
    """The FIB answered a frame with a TEID that is not its flow's bearer.

    The FIB and the controller are written together (``EpcGateway.connect``,
    ``rehome_flow``, ``disconnect``), so this means one of them was changed
    behind the other's back.  Both downstream paths raise it before the
    frame is charged.
    """

    def __init__(self, frame: int, key: int, teid: int) -> None:
        super().__init__(
            f"frame {frame}: the FIB answered TEID {teid} for flow key "
            f"{key}, which is not that flow's live bearer"
        )
        self.frame, self.key, self.teid = frame, key, teid


#: What a free TEID's row holds in the controller's egress columns: flow
#: key, handling node, base-station address.  A live row's node is >= 0.
FREE_ROW = (0, -1, 0)

#: A row's cold fields, which only a :class:`FlowRecord` reads: the flow's
#: 5-tuple (it packs as ``!IIBHH``) and its region.  A free row keeps its
#: last bearer's values.
COLD_FIELDS = np.dtype([
    ("src_ip", np.uint32), ("dst_ip", np.uint32), ("protocol", np.uint8),
    ("sport", np.uint16), ("dport", np.uint16), ("region", np.int64),
])
#: The same row as bytes (native order, packed), for the scalar paths.
_COLD_ROW = struct.Struct("=IIBHHq")


def check_node_id(value, num_nodes: int, name: str) -> int:
    """``value`` as an int if it is a Python or NumPy integer node id."""
    integral = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integral and 0 <= value < num_nodes):
        raise ValueError(f"{name} = {value!r} is not a node id")
    return int(value)


def _require_int(value, name: str, low: int, high: int) -> int:
    """``value`` as an int if it is an integer in ``low..high``: in a
    column a wider value would wrap into another one (a tunnel's far end
    into another base station's address) and a fraction be cut off."""
    try:
        number = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} {value!r} is not an integer") from None
    if not low <= number <= high:
        raise ValueError(f"{name} {number} is outside {low}..{high}")
    return number


class EpcController:
    """Allocates bearers and keeps the authoritative flow table.

    The flow table is columns indexed by TEID — flow key, handling node
    and base-station address, which :meth:`egress` reads per batch, and
    the cold :data:`COLD_FIELDS` — plus one dict from each live flow key
    to its TEID, in establishment order.  Its own :class:`TeidAllocator`
    hands TEIDs out densely from 1, so the columns grow (doubling) with
    the TEID cursor; in the hot columns row 0, every free TEID's row and
    every row past the cursor hold :data:`FREE_ROW`.  A
    :class:`FlowRecord` is a snapshot of one row, built when read.

    Args:
        num_nodes: cluster size.
        policy: node-assignment policy.
        seed: randomness for ROUND_ROBIN's starting offset.
    """

    def __init__(
        self,
        num_nodes: int,
        policy: AssignmentPolicy = AssignmentPolicy.ROUND_ROBIN,
        seed: int = 0,
    ) -> None:
        if num_nodes < 1:
            raise ValueError("num_nodes must be positive")
        self.num_nodes = num_nodes
        self.policy = policy
        self.teids = TeidAllocator()
        self._teid_of: Dict[int, int] = {}  # flow key -> TEID
        self._keys = np.zeros(0, dtype=np.uint64)
        self._nodes = np.zeros(0, dtype=np.int32)
        self._base_stations = np.zeros(0, dtype=np.uint32)
        self._cold = np.zeros(0, dtype=COLD_FIELDS)
        self._grow(64)
        self._next_node = int(np.random.default_rng(seed).integers(num_nodes))

    def _grow(self, rows: int) -> None:
        """Make room for ``rows`` rows; new rows are free."""
        for name, free in zip(
            ("_keys", "_nodes", "_base_stations", "_cold"), (*FREE_ROW, 0)
        ):
            old = getattr(self, name)
            column = np.full(rows, free, dtype=old.dtype)
            column[: len(old)] = old
            setattr(self, name, column)
        # Scalar reads and writes: a memoryview item is a tenth of item().
        self._key_view, self._node_view, self._bs_view = map(
            memoryview, (self._keys, self._nodes, self._base_stations)
        )
        self._cold_view = memoryview(self._cold.view(np.uint8))

    def _record(self, key: int, teid: int,
                flow: Optional[FlowTuple] = None) -> FlowRecord:
        """A snapshot of a live bearer's row (``flow``: its 5-tuple)."""
        row = teid * _COLD_ROW.size
        *five, region = _COLD_ROW.unpack_from(self._cold_view, row)
        return FlowRecord(
            FlowTuple(*five) if flow is None else flow, key, teid,
            self._node_view[teid], self._bs_view[teid], region,
        )

    def _assign_node(self, flow: FlowTuple, region: int) -> int:
        if self.policy is AssignmentPolicy.ROUND_ROBIN:
            # Reduce before use: num_nodes may have shrunk since the
            # counter was last advanced (membership drain).
            node = self._next_node % self.num_nodes
            self._next_node = (node + 1) % self.num_nodes
            return node
        if self.policy is AssignmentPolicy.GEOGRAPHIC:
            return region % self.num_nodes
        keys = np.asarray([flow.key()], dtype=np.uint64)
        return int(
            hashfamily.reduce_range(
                hashfamily.keyed_hash(keys, hashfamily.derive_stream("ctrl")),
                self.num_nodes,
            )[0]
        )

    def establish_bearer(
        self,
        flow: FlowTuple,
        base_station_ip: int,
        region: int = 0,
    ) -> FlowRecord:
        """Create a bearer: TEID + handling node for a downstream flow.

        The TEID is allocated last, after every check and the node
        assignment, so a refused bearer leaves no TEID behind.

        Raises:
            ValueError: if the flow already has a bearer,
                ``base_station_ip`` is not an integer 32-bit address, or
                ``region`` is not a 64-bit integer.
        """
        base_station_ip = _require_int(
            base_station_ip, "base_station_ip", 0, 0xFFFFFFFF
        )
        region = _require_int(region, "region", -(1 << 63), (1 << 63) - 1)
        key = flow.key()
        if key in self._teid_of:
            raise ValueError(f"flow already established: {flow}")
        handling_node = self._assign_node(flow, region)
        teid = self._teid_of[key] = self.teids.allocate()
        if teid >= len(self._keys):
            self._grow(max(2 * len(self._keys), teid + 1))
        self._key_view[teid] = key
        self._node_view[teid] = handling_node
        self._bs_view[teid] = base_station_ip
        _COLD_ROW.pack_into(
            self._cold_view, teid * _COLD_ROW.size, flow.src_ip, flow.dst_ip,
            flow.protocol, flow.sport, flow.dport, region,
        )
        return FlowRecord(flow, key, teid, handling_node, base_station_ip, region)

    def teardown_bearer(self, flow: FlowTuple) -> Optional[FlowRecord]:
        """Release a bearer and its TEID; returns the removed record."""
        key = flow.key()
        teid = self._teid_of.pop(key, None)
        if teid is None:
            return None
        record = self._record(key, teid, flow)
        self.teids.release(teid)
        self._key_view[teid], self._node_view[teid], self._bs_view[teid] = (
            FREE_ROW
        )
        return record

    def _live_teid(self, flow: FlowTuple) -> Tuple[int, int]:
        """``(key, TEID)`` of a flow's bearer; ``KeyError`` if none."""
        key = flow.key()
        teid = self._teid_of.get(key)
        if teid is None:
            raise KeyError(f"no bearer for flow {flow}")
        return key, teid

    def rehome(
        self, flow: Union[FlowTuple, FlowRecord], new_node: int
    ) -> FlowRecord:
        """Re-pin a bearer to another handling node (same TEID).

        ``flow`` is the bearer's 5-tuple, or a record of it, whose key is
        read instead of hashed again.

        Raises:
            ValueError: if ``new_node`` is not an integer node id below
                ``num_nodes`` (a ``bool`` is not).
            KeyError: if the flow has no bearer.
        """
        new_node = check_node_id(new_node, self.num_nodes, "new_node")
        if type(flow) is FlowRecord:
            key, flow = flow.key, flow.flow
            teid = self._teid_of.get(key)
            if teid is None:
                raise KeyError(f"no bearer for flow {flow}")
        else:
            key, teid = self._live_teid(flow)
        self._node_view[teid] = new_node
        return self._record(key, teid, flow)

    def handover(self, flow: FlowTuple, new_base_station_ip: int) -> FlowRecord:
        """S1 handover: the mobile moved to another base station.

        Only the tunnel's far end changes — TEID, handling node and all
        per-flow state stay put, which is exactly why the EPC keeps flows
        pinned rather than re-assigning them on mobility.

        Raises:
            ValueError: if ``new_base_station_ip`` is not an integer
                32-bit address.
            KeyError: if the flow has no bearer.
        """
        new_base_station_ip = _require_int(
            new_base_station_ip, "base_station_ip", 0, 0xFFFFFFFF
        )
        key, teid = self._live_teid(flow)
        self._bs_view[teid] = new_base_station_ip
        return self._record(key, teid, flow)

    @property
    def flows(self) -> Mapping[int, FlowRecord]:
        """``{flow key: record}`` for every live bearer in establishment
        order: a read-only view whose records are built when read."""
        return _FlowView(self)

    def record_for_key(self, key: int) -> Optional[FlowRecord]:
        """Controller record by canonical flow key."""
        teid = self._teid_of.get(key)
        return None if teid is None else self._record(key, teid)

    def record_for_teid(self, teid: int) -> Optional[FlowRecord]:
        """Controller record by tunnel endpoint identifier.

        ``None`` for anything that is not a live TEID: a free one, one
        past the columns, a negative one, and any non-``int`` (a ``bool``
        or a float is not a TEID, as :class:`TeidAllocator` says).
        """
        if (type(teid) is not int or not 0 < teid < len(self._keys)
                or self._node_view[teid] < 0):
            return None
        return self._record(self._key_view[teid], teid)

    def bearers(self) -> Tuple[List[int], List[int], np.ndarray, np.ndarray]:
        """Every live bearer in establishment order, as columns: flow keys
        and TEIDs (the key -> TEID dict's own ints, for a table built from
        them to share), handling nodes and base-station addresses."""
        teids = list(self._teid_of.values())
        rows = np.array(teids, dtype=np.int64)
        return (list(self._teid_of), teids, self._nodes[rows],
                self._base_stations[rows])

    def egress(
        self,
        keys: np.ndarray,
        teids: np.ndarray,
        frames: np.ndarray,
        handlers: np.ndarray,
    ) -> np.ndarray:
        """Base-station address per TEID the FIB answered.

        ``keys[i]`` is the flow key of the frame numbered ``frames[i]``
        and ``teids[i]`` the TEID the FIB of node ``handlers[i]`` answered
        for it.  One vector compare checks that each TEID is its flow's
        live bearer, handled at that node (its context is in that node's
        DPE); of the rows that are not, the one of the lowest frame
        number raises :class:`BearerMismatchError` naming its frame.
        """
        rows = teids.astype(np.uint64)  # a negative TEID wraps past the end
        if rows.size and np.maximum.reduce(rows) >= len(self._keys):
            rows[rows >= len(self._keys)] = 0  # row 0 is never a live TEID
        bad = self._keys[rows] != keys
        bad |= self._nodes[rows] != handlers  # a free row's node is -1
        if np.logical_or.reduce(bad):
            wrong = bad.nonzero()[0]
            i = int(wrong[frames[wrong].argmin()])
            raise BearerMismatchError(
                int(frames[i]), int(keys[i]), int(teids[i])
            )
        return self._base_stations[rows]

    def __len__(self) -> int:
        return len(self._teid_of)


class _FlowView(Mapping):
    """:attr:`EpcController.flows`: the key -> TEID dict, read as records."""

    def __init__(self, controller: EpcController) -> None:
        self._teid_of, self._record = controller._teid_of, controller._record

    def __getitem__(self, key: int) -> FlowRecord:
        return self._record(key, self._teid_of[key])

    def __iter__(self) -> Iterator[int]:
        return iter(self._teid_of)

    def __len__(self) -> int:
        return len(self._teid_of)
