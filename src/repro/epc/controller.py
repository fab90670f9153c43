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
from typing import Dict, List, Optional, Sequence

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


def _require_ipv4(base_station_ip: int) -> None:
    """A tunnel's far end goes into a 32-bit header field, where a wider
    value would wrap into another base station's address."""
    if not 0 <= base_station_ip <= 0xFFFFFFFF:
        raise ValueError(
            f"base_station_ip {base_station_ip} is outside 0..0xFFFFFFFF"
        )


class EpcController:
    """Allocates bearers and keeps the authoritative flow table.

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
        self._by_teid: Dict[int, int] = {}
        self._next_node = int(np.random.default_rng(seed).integers(num_nodes))

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
                ``base_station_ip`` is not a 32-bit address, or
                ``region`` is not an integer.
        """
        _require_ipv4(base_station_ip)
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
        self._by_teid[record.teid] = key
        return record

    def teardown_bearer(self, flow: FlowTuple) -> Optional[FlowRecord]:
        """Release a bearer and its TEID; returns the removed record."""
        record = self.flows.pop(flow.key(), None)
        if record is not None:
            self.teids.release(record.teid)
            self._by_teid.pop(record.teid, None)
        return record

    def rehome(self, flow: FlowTuple, new_node: int) -> FlowRecord:
        """Re-pin a bearer to another handling node (same TEID)."""
        if not 0 <= new_node < self.num_nodes:
            raise ValueError("new_node out of range")
        record = self.flows.get(flow.key())
        if record is None:
            raise KeyError(f"no bearer for flow {flow}")
        moved = replace(record, handling_node=new_node)
        self.flows[moved.key] = moved
        return moved

    def handover(self, flow: FlowTuple, new_base_station_ip: int) -> FlowRecord:
        """S1 handover: the mobile moved to another base station.

        Only the tunnel's far end changes — TEID, handling node and all
        per-flow state stay put, which is exactly why the EPC keeps flows
        pinned rather than re-assigning them on mobility.

        Raises:
            ValueError: if ``new_base_station_ip`` is not a 32-bit address.
        """
        _require_ipv4(new_base_station_ip)
        record = self.flows.get(flow.key())
        if record is None:
            raise KeyError(f"no bearer for flow {flow}")
        moved = replace(record, base_station_ip=new_base_station_ip)
        self.flows[moved.key] = moved
        return moved

    def record_for_key(self, key: int) -> Optional[FlowRecord]:
        """Controller record by canonical flow key."""
        return self.flows.get(key)

    def record_for_teid(self, teid: int) -> Optional[FlowRecord]:
        """Controller record by tunnel endpoint identifier."""
        key = self._by_teid.get(teid)
        return self.flows.get(key) if key is not None else None

    def __len__(self) -> int:
        return len(self.flows)

    # ------------------------------------------------------------------
    # Bulk synthesis (benchmark population)
    # ------------------------------------------------------------------

    def establish_many(
        self,
        flows: Sequence[FlowTuple],
        base_station_ips: Sequence[int],
        regions: Optional[Sequence[int]] = None,
    ) -> List[FlowRecord]:
        """Vector bearer setup for benchmark-scale populations."""
        if regions is None:
            regions = [0] * len(flows)
        return [
            self.establish_bearer(flow, bs_ip, region)
            for flow, bs_ip, region in zip(flows, base_station_ips, regions)
        ]

    def node_loads(self) -> List[int]:
        """Flows pinned per node (skew visibility, §7)."""
        loads = [0] * self.num_nodes
        for record in self.flows.values():
            loads[record.handling_node] += 1
        return loads
