"""Global Partition Table: flow key -> handling node (paper §3.2).

The GPT is the fully replicated, extremely compact table every ingress node
consults to forward a packet straight to its handling node.  It wraps a
separator — SetSep (the paper's choice) or Othello hashing
(arXiv:1608.05699), selected via :mod:`repro.core.separator` — whose
values are node ids, adding:

* cluster-aware sizing (``value_bits = ceil(log2 num_nodes)``);
* an update interface in terms of (key, node) pairs backed by SetSep group
  deltas (§4.5) — the node that owns a key's block recomputes the group and
  every replica applies the broadcast delta;
* size accounting used by the FIB-scaling analytics (Fig. 11).

One-sided error is inherited from the separator: looking up an unknown key
returns *some* node id.  ScaleBricks relies on the handling node's exact
FIB to reject such packets, so the GPT never needs to say "not found".

The attribute holding the separator is named ``setsep`` for historical
reasons (and API stability); it may be any registered backend.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core import separator as separator_registry
from repro.core.builder import ConstructionStats
from repro.core.hashfamily import HashedKeys, Key, canonical_keys
from repro.core.separator import Separator, SeparatorParams


class GlobalPartitionTable:
    """Compact key-to-node mapping replicated on every cluster node."""

    def __init__(self, num_nodes: int, setsep: Separator) -> None:
        if num_nodes < 1:
            raise ValueError("cluster must have at least one node")
        max_value = (1 << setsep.params.value_bits) - 1
        if num_nodes - 1 > max_value:
            raise ValueError(
                f"{setsep.params.value_bits}-bit values cannot index "
                f"{num_nodes} nodes"
            )
        self.num_nodes = num_nodes
        self.setsep = setsep
        #: Whether every ``value_bits``-bit value already names a node.
        self._values_are_nodes = num_nodes == max_value + 1

    @property
    def backend(self) -> str:
        """Registry name of the separator backend ("setsep", "othello")."""
        return separator_registry.backend_of(self.setsep)

    @classmethod
    def build(
        cls,
        keys: Union[Sequence[Key], np.ndarray],
        nodes: Sequence[int],
        num_nodes: int,
        params: Optional[SeparatorParams] = None,
        workers: int = 1,
        backend: Optional[str] = None,
    ) -> Tuple["GlobalPartitionTable", ConstructionStats]:
        """Build a GPT mapping each key to its handling node id.

        ``backend`` picks the separator implementation (``None`` uses the
        process default from :mod:`repro.core.separator`).  ``params`` of
        the other backend's type are converted, preserving ``value_bits``.
        """
        backend = separator_registry.resolve_backend(backend)
        if params is None:
            params = separator_registry.params_for_cluster(num_nodes, backend)
        nodes_arr = np.asarray(nodes, dtype=np.uint32)
        if len(nodes_arr) and int(nodes_arr.max()) >= num_nodes:
            raise ValueError("node id out of range")
        sep, stats = separator_registry.build(
            keys, nodes_arr, params, backend=backend, workers=workers
        )
        return cls(num_nodes, sep), stats

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def lookup(self, key: Key) -> int:
        """Handling node for ``key`` (arbitrary node for unknown keys)."""
        return self.setsep.lookup(key) % self.num_nodes

    def lookup_batch(self, keys: Union[Sequence[Key], np.ndarray]) -> np.ndarray:
        """Vectorised handling-node lookup.

        Raw SetSep values are reduced mod ``num_nodes`` so that the
        arbitrary answers produced for unknown keys still name a real node —
        the switch fabric can always deliver the packet somewhere, and the
        receiving node's FIB rejects it (§3.2's one-sided error contract).
        """
        values = self.setsep.lookup_batch(keys)
        return values if self._values_are_nodes else self._to_nodes(values)

    def _to_nodes(self, values: np.ndarray) -> np.ndarray:
        if self.num_nodes & (self.num_nodes - 1) == 0:
            return values & np.uint32(self.num_nodes - 1)
        return values % np.uint32(self.num_nodes)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def block_of(self, key: Key) -> int:
        """The RIB partition (block id) that owns ``key`` (§4.5)."""
        return self.setsep.block_of(key)

    def rebuild_group(
        self,
        group_id: int,
        keys: Union[Sequence[Key], np.ndarray],
        nodes: Sequence[int],
        removed_keys: Iterable[Key] = (),
    ):
        """Recompute one group after a RIB change; returns the record.

        The record type matches the backend: a ``GroupDelta`` for SetSep,
        an ``OthelloUpdate`` for Othello — both self-framing wire peers.
        Each in-process update makes this call (``owner.owner_step``).
        """
        return self.rebuild_groups([(group_id, keys, nodes, removed_keys)])[0]

    def rebuild_groups(self, jobs: Sequence[tuple]) -> list:
        """Recompute a wave of distinct groups; one record each, in order.

        ``jobs`` are ``(group_id, keys, nodes, removed_keys)``; the
        separator's ``rebuild_groups`` does the work (``owner.owner_batch``).
        """
        return self.setsep.rebuild_groups(jobs)

    def apply_delta(self, delta) -> None:
        """Apply a broadcast update record from the owning RIB node."""
        self.setsep.apply_delta(delta)

    def group_of(self, key: Key) -> int:
        """Global separator group id of ``key``."""
        return self.setsep.group_of(key)

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------

    def size_bits(self) -> int:
        """Replicated GPT size in bits."""
        return self.setsep.size_bits()

    def size_bytes(self) -> int:
        """Replicated GPT size in bytes (cache-model input)."""
        return self.setsep.size_bytes()

    def bits_per_key(self, num_keys: int) -> float:
        """Measured bits per key."""
        return self.setsep.bits_per_key(num_keys)

    def copy(self) -> "GlobalPartitionTable":
        """Replica for another cluster node."""
        return GlobalPartitionTable(self.num_nodes, self.setsep.copy())

    def __repr__(self) -> str:
        return f"GlobalPartitionTable(nodes={self.num_nodes}, {self.setsep!r})"


def rib_view(
    keys: Union[Sequence[Key], np.ndarray],
    nodes: Sequence[int],
    gpt: GlobalPartitionTable,
) -> Dict[int, Tuple[HashedKeys, np.ndarray]]:
    """Each group's contents as its owner reads them (helper for update
    tests and examples).

    Returns ``{group_id: (hashed keys, nodes)}`` for every group holding
    one of ``keys``: what ``RoutingInformationBase.group_contents`` gives
    for a RIB of these records, and so what ``rebuild_group`` takes.
    """
    # The cluster package imports this module: its RIB is imported late.
    from repro.cluster.rib import RoutingInformationBase

    rib = RoutingInformationBase(gpt.num_nodes, gpt.setsep.num_blocks)
    rib.insert_many(keys, nodes, [0] * len(nodes))
    groups = gpt.setsep.groups_of(canonical_keys(keys))
    return {
        group: rib.group_contents(group, gpt.setsep)
        for group in dict.fromkeys(groups.tolist())
    }
