"""A cluster node: Packet Forwarding Engine state and counters (§2, §3.2).

Each node runs a PFE (the component this paper optimises) in front of a
Data Plane Engine.  Depending on the cluster's FIB architecture the node
holds a full FIB replica, a hash-partitioned slice, or — under
ScaleBricks — a GPT replica plus the partial FIB of the flows it handles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.cluster.architectures import Architecture
from repro.core.hashfamily import HashedKeys
from repro.core.setsep import Key
from repro.gpt.gpt import GlobalPartitionTable
from repro.hashtables.interface import FibTable

#: Low bits of a baseline FIB entry that hold its handling node.
NODE_BITS = 16
_NODE_MASK = (1 << NODE_BITS) - 1


@dataclass
class NodeCounters:
    """Per-node PFE accounting."""

    external_rx: int = 0
    internal_rx: int = 0
    gpt_lookups: int = 0
    fib_lookups: int = 0
    fib_misses: int = 0
    handled: int = 0
    forwarded: int = 0
    dropped: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        for name in vars(self):
            setattr(self, name, 0)


class ClusterNode:
    """One node's forwarding state.

    Args:
        node_id: position in the cluster.
        architecture: the cluster-wide FIB architecture.
        fib: this node's exact FIB table (contents depend on the
            architecture: full replica, hash slice, or handling-node slice).
        gpt: the replicated Global Partition Table (ScaleBricks only).
    """

    def __init__(
        self,
        node_id: int,
        architecture: Architecture,
        fib: FibTable,
        gpt: Optional[GlobalPartitionTable] = None,
    ) -> None:
        if architecture.uses_gpt and gpt is None:
            raise ValueError("ScaleBricks nodes need a GPT replica")
        self.node_id = node_id
        self.architecture = architecture
        self.fib = fib
        self.gpt = gpt
        self.counters = NodeCounters()

    # ------------------------------------------------------------------
    # FIB maintenance
    # ------------------------------------------------------------------

    def install_route(self, key: Key, node: int, value: int) -> None:
        """Install a FIB entry on this node.

        Under ScaleBricks the entry is the value (this node *is* the
        handling node); under full duplication, VLB and hash partitioning
        it is the handling node and the value packed into one int
        (``value << NODE_BITS | node``), which only this class decodes:
        :meth:`locate_batch` the node, :meth:`handle_batch` the value.
        """
        if self.architecture is Architecture.SCALEBRICKS:
            self.fib.insert(key, value)
        else:
            self.fib.insert(key, value << NODE_BITS | node)

    def install_routes(
        self, keys: np.ndarray, nodes: List[int], values: List[int]
    ) -> None:
        """:meth:`install_route` of each row, in order, as one bulk
        insert (:meth:`~repro.hashtables.interface.FibTable.insert_many`)."""
        if self.architecture is Architecture.SCALEBRICKS:
            self.fib.insert_many(keys, values)
        else:
            self.fib.insert_many(keys, [
                value << NODE_BITS | node for node, value in zip(nodes, values)
            ])

    def remove_route(self, key: Key) -> bool:
        """Drop a FIB entry; returns whether it existed."""
        return self.fib.delete(key)

    # ------------------------------------------------------------------
    # Lookup paths
    # ------------------------------------------------------------------

    def locate_batch(self, keys: HashedKeys) -> Tuple[np.ndarray, np.ndarray]:
        """The baselines' lookup stage: ``(found, handlers)``, each key's
        handling node by this node's FIB, ``-1`` for a key unknown here.
        Each key counts one FIB lookup; a miss also a drop here."""
        found, entries = self.fib.lookup_batch_array(keys)
        count = len(keys)
        misses = count - int(np.add.reduce(found))
        self.counters.fib_lookups += count
        self.counters.fib_misses += misses
        self.counters.dropped += misses
        return found, np.where(found, entries & _NODE_MASK, -1)

    def handle_batch(self, keys: HashedKeys) -> Tuple[np.ndarray, np.ndarray]:
        """Terminal processing at the handling node: ``(found, values)``,
        ``-1`` for a key unknown here — the exact-FIB rejection that makes
        the GPT's one-sided error safe (§3.2).  Counted as
        :meth:`locate_batch` is, each hit also as handled."""
        found, entries = self.fib.lookup_batch_array(keys)
        count = len(keys)
        hits = int(np.add.reduce(found))
        counters = self.counters
        counters.fib_lookups += count
        counters.fib_misses += count - hits
        counters.dropped += count - hits
        counters.handled += hits
        if self.architecture is Architecture.SCALEBRICKS:
            return found, entries
        # A miss reads -1, which the arithmetic shift keeps.
        return found, entries >> NODE_BITS

    # ------------------------------------------------------------------
    # Memory accounting
    # ------------------------------------------------------------------

    def fib_bytes(self) -> int:
        """Exact-FIB footprint on this node."""
        return self.fib.size_bytes()

    def gpt_bytes(self) -> int:
        """GPT replica footprint (zero when the design has none)."""
        return self.gpt.size_bytes() if self.gpt is not None else 0

    def total_table_bytes(self) -> int:
        """All forwarding state on this node."""
        return self.fib_bytes() + self.gpt_bytes()

    def __repr__(self) -> str:
        return (
            f"ClusterNode(id={self.node_id}, "
            f"arch={self.architecture.value}, fib_entries={len(self.fib)})"
        )
