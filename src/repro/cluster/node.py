"""A cluster node: Packet Forwarding Engine state and counters (§2, §3.2).

Each node runs a PFE (the component this paper optimises) in front of a
Data Plane Engine.  Depending on the cluster's FIB architecture the node
holds a full FIB replica, a hash-partitioned slice, or — under
ScaleBricks — a GPT replica plus the partial FIB of the flows it handles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.cluster.architectures import Architecture
from repro.core.hashfamily import HashedKeys, canonical_keys
from repro.core.setsep import Key
from repro.gpt.gpt import GlobalPartitionTable
from repro.hashtables.interface import FibTable


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

        Under full duplication / VLB the entry carries the handling node and
        value; under ScaleBricks only the value is needed (this node *is*
        the handling node); the hash-partitioned slice stores both.
        """
        if self.architecture is Architecture.SCALEBRICKS:
            self.fib.insert(key, value)
        else:
            self.fib.insert(key, (node, value))

    def install_routes(
        self, keys: np.ndarray, nodes: List[int], values: List[int]
    ) -> None:
        """:meth:`install_route` of each row, in order, as one bulk
        insert (:meth:`~repro.hashtables.interface.FibTable.insert_many`)."""
        if self.architecture is Architecture.SCALEBRICKS:
            self.fib.insert_many(keys, values)
        else:
            self.fib.insert_many(keys, list(zip(nodes, values)))

    def remove_route(self, key: Key) -> bool:
        """Drop a FIB entry; returns whether it existed."""
        return self.fib.delete(key)

    # ------------------------------------------------------------------
    # Lookup paths
    # ------------------------------------------------------------------

    def gpt_lookup(self, key: Key) -> int:
        """ScaleBricks ingress path: compact GPT, never says "not found"."""
        if self.gpt is None:
            raise RuntimeError("node has no GPT replica")
        self.counters.gpt_lookups += 1
        return self.gpt.lookup(key)

    def fib_lookup(self, key: Key) -> Optional[object]:
        """Exact FIB lookup with miss accounting."""
        self.counters.fib_lookups += 1
        found = self.fib.lookup(key)
        if found is None:
            self.counters.fib_misses += 1
        return found

    def handle(self, key: Key) -> Optional[int]:
        """Terminal processing at the handling node.

        Returns the application value (e.g. the flow's TEID) or ``None``
        when the key is unknown here — the exact-FIB rejection that makes
        the GPT's one-sided error safe (§3.2).
        """
        found = self.fib_lookup(key)
        if found is None:
            self.counters.dropped += 1
            return None
        self.counters.handled += 1
        if self.architecture is Architecture.SCALEBRICKS:
            return found  # type: ignore[return-value]
        _, value = found  # type: ignore[misc]
        return value

    def handle_batch(self, keys: HashedKeys) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`handle` of a ScaleBricks batch: ``(found, values)``,
        ``-1`` for a key unknown here, counters as ``len(keys)`` calls."""
        try:
            found, values = self.fib.lookup_batch_array(keys)
        except TypeError:  # non-integer values: per key, from plain keys
            raw = self.fib.lookup_batch(canonical_keys(keys))
            found = np.asarray([v is not None for v in raw], dtype=bool)
            values = np.asarray(
                [-1 if v is None else int(v) for v in raw], dtype=np.int64
            )
        hits = int(found.sum())
        self.counters.fib_lookups += len(keys)
        self.counters.fib_misses += len(keys) - hits
        self.counters.dropped += len(keys) - hits
        self.counters.handled += hits
        return found, values

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
