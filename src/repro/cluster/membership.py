"""Cluster membership changes: growing and shrinking (paper §6.3).

Figure 11 is about what happens *when you add nodes*; this module makes
that an executable operation rather than a formula.  Growing or shrinking
a ScaleBricks cluster is a structural event:

* the GPT's value width may change (``ceil(log2 N)`` bits), which means a
  full SetSep rebuild — updates-by-delta only cover same-shape changes;
* flows handled by removed nodes must be re-pinned first;
* the RIB re-partitions across the new member set.

``resize`` performs the whole transition from the authoritative RIB and
returns a fresh cluster plus a report of what moved, preserving every
surviving flow's (handling node, value) mapping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import Cluster
from repro.core import separator as separator_registry


@dataclass(frozen=True)
class ResizeReport:
    """What a membership change did."""

    old_nodes: int
    new_nodes: int
    total_flows: int
    repinned_flows: int
    old_value_bits: int
    new_value_bits: int

    @property
    def gpt_rebuilt_wider(self) -> bool:
        """Whether the value width changed (the §6.3 log2 N term)."""
        return self.old_value_bits != self.new_value_bits


def resize(
    cluster: Cluster, new_num_nodes: int
) -> "tuple[Cluster, ResizeReport]":
    """Rebuild a cluster with a different node count from its RIB.

    The new cluster keeps the old one's architecture, separator backend,
    FIB factory, fabric backend, ingress policy and metrics registry.  A
    flow whose handling node no longer exists is re-spread over the
    surviving nodes by key hash (``key % new_num_nodes``).

    Returns:
        ``(new_cluster, report)``.  Flows pinned to surviving nodes keep
        their handling node and value verbatim.
    """
    if new_num_nodes < 1:
        raise ValueError("new_num_nodes must be positive")
    old_num_nodes = len(cluster.nodes)
    keys, nodes, values = cluster.rib.columns()
    gone = nodes >= new_num_nodes
    nodes[gone] = keys[gone] % np.uint64(new_num_nodes)

    old_bits = _value_bits(cluster, old_num_nodes)
    gpt_params = None
    backend = None
    if cluster.architecture.uses_gpt:
        # Preserve the running cluster's separator backend across resizes.
        if cluster.nodes[0].gpt is not None:
            backend = separator_registry.backend_of(cluster.nodes[0].gpt.setsep)
        gpt_params = separator_registry.params_for_cluster(
            new_num_nodes, backend
        )

    new_cluster = Cluster.build(
        cluster.architecture,
        new_num_nodes,
        keys,
        nodes.tolist(),
        values.tolist(),
        fib_factory=cluster.fib_factory,
        gpt_params=gpt_params,
        registry=cluster.registry,
        backend=backend,
        fabric_backend=cluster.fabric.backend,
        ingress_policy=cluster.ingress_policy,
    )
    report = ResizeReport(
        old_nodes=old_num_nodes,
        new_nodes=new_num_nodes,
        total_flows=len(keys),
        repinned_flows=int(np.count_nonzero(gone)),
        old_value_bits=old_bits,
        new_value_bits=_value_bits(new_cluster, new_num_nodes),
    )
    return new_cluster, report


def _value_bits(cluster: Cluster, num_nodes: int) -> int:
    """The GPT's value width (or the would-be width for non-GPT designs)."""
    if cluster.architecture.uses_gpt and cluster.nodes[0].gpt is not None:
        return cluster.nodes[0].gpt.setsep.params.value_bits
    return max(1, (num_nodes - 1).bit_length())


def capacity_after_resize(
    memory_bits: float, old_nodes: int, new_nodes: int, entry_bits: int = 64
) -> "tuple[float, float]":
    """Figure 11 deltas for an operator deciding whether to grow.

    Returns (old capacity, new capacity) in total FIB entries.  Growth is
    not always positive: crossing a power-of-two boundary widens the GPT
    and can *shrink* capacity (§6.3's non-monotonicity).
    """
    from repro.model.scaling import entries_scalebricks

    return (
        entries_scalebricks(memory_bits, old_nodes, entry_bits),
        entries_scalebricks(memory_bits, new_nodes, entry_bits),
    )
