"""Failure impact per architecture (paper §7 "Isolation of Failure").

ScaleBricks' failure story rests on fate sharing: a node's partial FIB
holds exactly the flows it handles, so losing the node loses only those
flows — forwarding between the survivors continues untouched.  A
hash-partitioned cluster lacks this property: a dead *lookup* node breaks
flows that are handled elsewhere.

:func:`impact_report` quantifies exactly which flows a failure affects
under each architecture (the §7 comparison, measurable).  The operational
side lives on the gateway: ``EpcGateway.down_nodes`` is the one liveness
set (packets whose path touches a down node drop as ``node_down``), and
``EpcGateway.evacuate`` re-homes a dead node's flows onto survivors
through the §4.5 update path without touching any other flow.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.architectures import Architecture
from repro.cluster.cluster import Cluster


@dataclass(frozen=True)
class FailureImpact:
    """Which flows a single node failure takes down."""

    failed_node: int
    total_flows: int
    lost_own_flows: int
    lost_collateral_flows: int

    @property
    def lost_total(self) -> int:
        """All flows that stop forwarding."""
        return self.lost_own_flows + self.lost_collateral_flows

    @property
    def isolation(self) -> bool:
        """§7's property: only the failed node's own flows are lost."""
        return self.lost_collateral_flows == 0


def impact_report(cluster: Cluster, failed_node: int) -> FailureImpact:
    """Classify every RIB flow as unaffected / own-loss / collateral.

    *Own* losses are flows handled by the failed node (unavoidable in
    any design — the state lives there).  *Collateral* losses are
    flows handled elsewhere that stop forwarding anyway; ScaleBricks
    and full duplication have none, hash partitioning loses every
    flow whose lookup node failed.
    """
    keys, handlers, _ = cluster.rib.columns()
    own = handlers == failed_node
    collateral = 0
    if cluster.architecture is Architecture.HASH_PARTITION:
        lookup_nodes = cluster.lookup_nodes_batch(keys)
        collateral = int(((lookup_nodes == failed_node) & ~own).sum())
    return FailureImpact(
        failed_node=failed_node,
        total_flows=len(keys),
        lost_own_flows=int(own.sum()),
        lost_collateral_flows=collateral,
    )
