"""Fabric backend selection: crossbar vs fat-tree behind one protocol.

The paper's §3.1 interconnect argument assumes an ideal one-hop switch
(exactly one transit between any node pair, internal bandwidth R).  This
package names the surface the cluster actually relies on
(:class:`Fabric`), registers the concrete topologies — the flat crossbar
(:class:`repro.cluster.fabric.SwitchFabric`) and a two-layer leaf/spine
fat-tree with per-link capacities and deterministic ECMP
(:class:`repro.fabric.fattree.FatTreeFabric`, after *Automated Design of
Two-Layer Fat-Tree Networks*, arXiv:1301.6179) — and holds the
process-wide default that the CLI's ``--fabric`` flag and the
``REPRO_FABRIC_BACKEND`` environment variable select.

The selection mechanism is :mod:`repro.core.separator`'s
(:class:`repro.utils.backends.BackendRegistry`): a process-wide default
rather than a parameter threaded through every constructor, explicit
``fabric=`` / ``fabric_backend=`` arguments on ``Cluster.build``
overriding it per call, and lazy backend imports so crossbar-only
workloads never pay for the fat-tree module.
"""

from __future__ import annotations

from typing import Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from repro.cluster.fabric import FabricLoss, FabricStats, Link
from repro.utils.backends import BackendRegistry

#: Names of the available fabric backends.
BACKENDS = ("crossbar", "fattree")

#: Environment variable consulted for the initial default backend.
BACKEND_ENV = "REPRO_FABRIC_BACKEND"


@runtime_checkable
class Fabric(Protocol):
    """The surface a fabric backend must provide.

    Extracted from the implicit :class:`~repro.cluster.fabric.SwitchFabric`
    contract the cluster, gateway and chaos harness already rely on:
    per-packet and batched delivery with latency modelling and
    :class:`~repro.cluster.fabric.FabricStats` accounting, the
    ``fault_hook`` transit-verdict surface, VLB indirect selection — plus
    the link-level surface the fat-tree work added: link enumeration and
    fail/degrade/heal for chaos, per-node ingress costs for the
    utilization-aware ingress policy, and a conservation check
    (:meth:`verify_accounting`) for the "no accounting leaks" gate.
    """

    #: Registry name of the backend ("crossbar", "fattree", ...).
    backend: str

    num_nodes: int
    transit_latency_us: float
    stats: FabricStats
    fault_hook: Optional[object]

    def deliver(self, src: int, dst: int, size: int = 64) -> float: ...

    def deliver_batch(
        self, srcs: np.ndarray, dsts: np.ndarray, size: int = 64
    ) -> np.ndarray: ...

    def pick_indirect(self, src: int, dst: int) -> int: ...

    def links(self) -> Tuple[Link, ...]: ...

    def pick_fault_link(
        self, rng: np.random.Generator
    ) -> Optional[Link]: ...

    def fail_link(self, link: Link) -> None: ...

    def degrade_link(self, link: Link, factor: float = 4.0) -> None: ...

    def heal_links(self) -> None: ...

    def has_link_faults(self) -> bool: ...

    def down_links(self) -> Tuple[Link, ...]: ...

    def ingress_costs(self) -> np.ndarray: ...

    def note_ingress(self, node: int) -> None: ...

    def verify_accounting(self) -> bool: ...

    def reset_stats(self) -> None: ...


_registry = BackendRegistry("fabric", BACKENDS, BACKEND_ENV)
default_backend = _registry.default_backend
set_default_backend = _registry.set_default_backend
resolve_backend = _registry.resolve_backend
backend_of = _registry.backend_of


def create(
    num_nodes: int,
    backend: Optional[str] = None,
    transit_latency_us: float = 0.6,
    seed: int = 0,
    **backend_options,
) -> Fabric:
    """Build a fabric on the chosen backend (front door for both).

    ``backend_options`` are passed through to the backend constructor —
    the fat-tree accepts ``num_leaves``, ``num_spines``,
    ``oversubscription``, ``window`` and friends; the crossbar accepts
    none.
    """
    backend = resolve_backend(backend)
    if backend == "fattree":
        from repro.fabric.fattree import FatTreeFabric

        return FatTreeFabric(
            num_nodes,
            transit_latency_us=transit_latency_us,
            seed=seed,
            **backend_options,
        )
    from repro.cluster.fabric import SwitchFabric

    if backend_options:
        unexpected = ", ".join(sorted(backend_options))
        raise TypeError(
            f"crossbar fabric accepts no topology options (got {unexpected})"
        )
    return SwitchFabric(
        num_nodes, transit_latency_us=transit_latency_us, seed=seed
    )


__all__ = [
    "BACKENDS",
    "BACKEND_ENV",
    "Fabric",
    "FabricLoss",
    "FabricStats",
    "Link",
    "backend_of",
    "create",
    "default_backend",
    "resolve_backend",
    "set_default_backend",
]
