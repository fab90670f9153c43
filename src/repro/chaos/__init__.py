"""Deterministic fault injection and differential oracle checking.

ScaleBricks' correctness claims live exactly where testing is hardest:
node failure (§7), FIB update churn (§4.5) and the one-sided-error
windows a stale SetSep replica produces (§3.4).  This package turns those
scenarios into a repeatable harness:

* :class:`~repro.chaos.faults.FaultPlan` /
  :class:`~repro.chaos.faults.FaultInjector` — a seeded schedule of
  discrete fault events (node crash & rejoin, fabric partition,
  transit drop/duplication/reorder, lost/duplicated/delayed GPT deltas,
  replayed FIB updates, malformed packets, bearer churn and re-homing)
  applied to a live :class:`~repro.epc.gateway.EpcGateway` through the
  hooks the production objects expose;
* :class:`~repro.chaos.oracle.DifferentialOracle` — shadows every
  mutation into a plain-dict reference FIB and a single-node reference
  gateway, and after each
  injected event asserts the cluster-visible invariants: known keys
  route to their owner (one-sided under declared staleness), unknown
  keys are never delivered, the per-packet handoff count stays within
  the architecture's bound, GTP-U re-encapsulation is byte-identical to
  the reference, and per-bearer charging never diverges.

Everything is deterministic in its seed — a failing episode reproduces
from ``(seed, episode)`` alone (see ``docs/chaos.md``).  The CLI front
end is ``repro chaos``.

Modules (import each by its path; the package re-exports nothing,
because every node daemon imports it through
:mod:`~repro.chaos.transport` and must not load the oracle or the
gateway):

* :mod:`~repro.chaos.faults` — fault kinds (``DEFAULT_FAULT_KINDS``,
  ``LINK_FAULT_KINDS``, ``CONTROLLER_FAULT_KINDS``), plans and the
  injector;
* :mod:`~repro.chaos.oracle` — the differential oracle and its reference
  gateway;
* :mod:`~repro.chaos.soak` — the seeded episode driver and its gates;
* :mod:`~repro.chaos.drills` — the failover and fence drills run through
  the operator API;
* :mod:`~repro.chaos.transport` — per-link transport fault budgets for
  the multi-process runtime.
"""
