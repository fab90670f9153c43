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
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

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


def check_node_id(value, num_nodes: int, name: str) -> int:
    """``value`` as an int if it is a Python or NumPy integer node id."""
    integral = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integral and 0 <= value < num_nodes):
        raise ValueError(f"{name} = {value!r} is not a node id")
    return int(value)


def _require_ipv4(base_station_ip) -> int:
    """``base_station_ip`` as an int.  A tunnel's far end goes into a
    32-bit header field, where a wider value would wrap into another base
    station's address and a fraction would be cut off."""
    try:
        address = operator.index(base_station_ip)
    except TypeError:
        raise ValueError(
            f"base_station_ip {base_station_ip!r} is not an integer"
        ) from None
    if not 0 <= address <= 0xFFFFFFFF:
        raise ValueError(
            f"base_station_ip {address} is outside 0..0xFFFFFFFF"
        )
    return address


class EpcController:
    """Allocates bearers and keeps the authoritative flow table.

    Besides the records by flow key, the controller keeps three egress
    columns indexed by TEID — flow key, handling node and base-station
    address — which is what the downstream batch path reads for each
    TEID the FIB answers.  Its own :class:`TeidAllocator` hands TEIDs out
    densely from 1, so the columns grow (doubling) with the TEID cursor;
    row 0, every free TEID's row and every row past the cursor hold
    :data:`FREE_ROW`.

    Args:
        num_nodes: cluster size.
        policy: node-assignment policy.
        num_regions: geographic regions (``GEOGRAPHIC`` policy granularity).
        seed: randomness for ROUND_ROBIN's starting offset.
    """

    def __init__(
        self,
        num_nodes: int,
        policy: AssignmentPolicy = AssignmentPolicy.ROUND_ROBIN,
        num_regions: int = 64,
        seed: int = 0,
    ) -> None:
        if num_nodes < 1:
            raise ValueError("num_nodes must be positive")
        self.num_nodes = num_nodes
        self.policy = policy
        self.num_regions = num_regions
        self.teids = TeidAllocator()
        self.flows: Dict[int, FlowRecord] = {}
        self._keys = np.zeros(0, dtype=np.uint64)
        self._nodes = np.zeros(0, dtype=np.int32)
        self._base_stations = np.zeros(0, dtype=np.uint32)
        self._grow(64)
        self._next_node = int(np.random.default_rng(seed).integers(num_nodes))

    def _grow(self, rows: int) -> None:
        """Make room for ``rows`` rows; new rows are free."""
        for name, free in zip(("_keys", "_nodes", "_base_stations"), FREE_ROW):
            old = getattr(self, name)
            column = np.full(rows, free, dtype=old.dtype)
            column[: len(old)] = old
            setattr(self, name, column)

    def _write_row(self, record: FlowRecord) -> None:
        teid = record.teid
        if teid >= len(self._keys):
            self._grow(max(2 * len(self._keys), teid + 1))
        self._keys[teid] = record.key
        self._nodes[teid] = record.handling_node
        self._base_stations[teid] = record.base_station_ip

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
                ``region`` is not an integer.
        """
        base_station_ip = _require_ipv4(base_station_ip)
        try:
            operator.index(region)
        except TypeError:
            raise ValueError(f"region {region!r} is not an integer") from None
        key = flow.key()
        if key in self.flows:
            raise ValueError(f"flow already established: {flow}")
        handling_node = self._assign_node(flow, region)
        record = FlowRecord(
            flow=flow,
            key=key,
            teid=self.teids.allocate(),
            handling_node=handling_node,
            base_station_ip=base_station_ip,
            region=region,
        )
        self.flows[key] = record
        self._write_row(record)
        return record

    def teardown_bearer(self, flow: FlowTuple) -> Optional[FlowRecord]:
        """Release a bearer and its TEID; returns the removed record."""
        record = self.flows.pop(flow.key(), None)
        if record is not None:
            self.teids.release(record.teid)
            teid = record.teid
            self._keys[teid], self._nodes[teid], self._base_stations[teid] = (
                FREE_ROW
            )
        return record

    def rehome(self, flow: FlowTuple, new_node: int) -> FlowRecord:
        """Re-pin a bearer to another handling node (same TEID).

        Raises:
            ValueError: if ``new_node`` is not an integer node id below
                ``num_nodes`` (a ``bool`` is not).
            KeyError: if the flow has no bearer.
        """
        new_node = check_node_id(new_node, self.num_nodes, "new_node")
        record = self.flows.get(flow.key())
        if record is None:
            raise KeyError(f"no bearer for flow {flow}")
        moved = replace(record, handling_node=new_node)
        self.flows[moved.key] = moved
        self._nodes[moved.teid] = new_node
        return moved

    def handover(self, flow: FlowTuple, new_base_station_ip: int) -> FlowRecord:
        """S1 handover: the mobile moved to another base station.

        Only the tunnel's far end changes — TEID, handling node and all
        per-flow state stay put, which is exactly why the EPC keeps flows
        pinned rather than re-assigning them on mobility.

        Raises:
            ValueError: if ``new_base_station_ip`` is not an integer
                32-bit address.
        """
        new_base_station_ip = _require_ipv4(new_base_station_ip)
        record = self.flows.get(flow.key())
        if record is None:
            raise KeyError(f"no bearer for flow {flow}")
        moved = replace(record, base_station_ip=new_base_station_ip)
        self.flows[moved.key] = moved
        self._base_stations[moved.teid] = new_base_station_ip
        return moved

    def record_for_key(self, key: int) -> Optional[FlowRecord]:
        """Controller record by canonical flow key."""
        return self.flows.get(key)

    def record_for_teid(self, teid: int) -> Optional[FlowRecord]:
        """Controller record by tunnel endpoint identifier.

        ``None`` for anything that is not a live TEID: a free one, one
        past the columns, a negative one, and any non-``int`` (a ``bool``
        or a float is not a TEID, as :class:`TeidAllocator` says).
        """
        if type(teid) is not int or not 0 < teid < len(self._keys):
            return None
        if self._nodes[teid] < 0:
            return None
        return self.flows[int(self._keys[teid])]

    def egress(
        self, keys: np.ndarray, teids: np.ndarray, frames: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Handling node and base-station address per TEID the FIB answered.

        ``keys[i]`` is the flow key of the frame numbered ``frames[i]``
        and ``teids[i]`` the TEID the FIB answered for it.  One vector
        compare checks that each TEID is its flow's live bearer; the
        first row that is not raises :class:`BearerMismatchError` naming
        its frame.
        """
        rows = teids.astype(np.uint64)  # a negative TEID wraps past the end
        if rows.size and np.maximum.reduce(rows) >= len(self._keys):
            rows[rows >= len(self._keys)] = 0  # row 0 is never a live TEID
        nodes = self._nodes[rows]
        bad = self._keys[rows] != keys
        bad |= nodes < 0
        if np.logical_or.reduce(bad):
            i = int(bad.argmax())
            raise BearerMismatchError(
                int(frames[i]), int(keys[i]), int(teids[i])
            )
        return nodes, self._base_stations[rows]

    def __len__(self) -> int:
        return len(self.flows)
