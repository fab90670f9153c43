"""Deterministic fault injection and differential oracle checking.

ScaleBricks' correctness claims live exactly where testing is hardest:
node failure (§7), FIB update churn (§4.5) and the one-sided-error
windows a stale SetSep replica produces (§3.4).  This package turns those
scenarios into a repeatable harness:

* :class:`FaultPlan` / :class:`FaultInjector` — a seeded schedule of
  discrete fault events (node crash & rejoin, fabric partition,
  transit drop/duplication/reorder, lost/duplicated/delayed GPT deltas,
  replayed FIB updates, malformed packets, bearer churn and re-homing)
  applied to a live :class:`~repro.epc.gateway.EpcGateway` through the
  hooks the production objects expose;
* :class:`DifferentialOracle` — shadows every mutation into a plain-dict
  reference FIB and a single-node reference gateway, and after each
  injected event asserts the cluster-visible invariants: known keys
  route to their owner (one-sided under declared staleness), unknown
  keys are never delivered, the per-packet handoff count stays within
  the architecture's bound, GTP-U re-encapsulation is byte-identical to
  the reference, and per-bearer charging never diverges.

Everything is deterministic in its seed — a failing episode reproduces
from ``(seed, episode)`` alone (see ``docs/chaos.md``).  The episode
driver lives in :mod:`repro.chaos.soak`; the CLI front end is
``repro chaos``.  The soak is imported by its module path and not
re-exported here: every node daemon imports this package (through
:mod:`repro.chaos.transport`), and its start-up should not load the
soak driver.
"""

from repro.chaos.drills import run_failover_drill, run_fence_drill
from repro.chaos.faults import (
    CONTROLLER_FAULT_KINDS,
    DEFAULT_FAULT_KINDS,
    LINK_FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
)
from repro.chaos.oracle import (
    DifferentialOracle,
    Expectation,
    OracleViolation,
    ReferenceGateway,
)
from repro.chaos.transport import (
    DELAY,
    DELIVER,
    DROP,
    DUPLICATE,
    TransportFaultBudgets,
)

__all__ = [
    "CONTROLLER_FAULT_KINDS",
    "DEFAULT_FAULT_KINDS",
    "LINK_FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "DifferentialOracle",
    "Expectation",
    "OracleViolation",
    "ReferenceGateway",
    "DELAY",
    "DELIVER",
    "DROP",
    "DUPLICATE",
    "TransportFaultBudgets",
    "run_failover_drill",
    "run_fence_drill",
]
