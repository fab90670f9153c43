"""Chaos soak episodes: seeded fault schedules with differential checking.

A *soak* is N independent episodes.  Each episode stands up a fresh
gateway, mirrors it into a :class:`~repro.chaos.oracle.DifferentialOracle`,
then alternates injected faults (from a :class:`~repro.chaos.faults.FaultPlan`)
with differential traffic bursts and seeded audits, ending with the
oracle's strict every-key, every-byte final audit.

Everything is a pure function of ``(seed, episode)``: the flow
population, the fault schedule, every victim/ingress/corruption choice,
the audit sampling.  Two runs of the same soak therefore produce
byte-identical JSON reports — which is both the reproduction contract
("re-run the failing episode from its seed", see ``docs/chaos.md``) and
an acceptance test in ``tests/test_chaos.py``.  The reports carry only
event counters and modelled values; wall-clock span histograms are
deliberately excluded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.chaos.faults import (
    LINK_FAULT_KINDS,
    FaultInjector,
    FaultKind,
    FaultPlan,
)
from repro.chaos.oracle import DifferentialOracle
from repro.cluster.architectures import Architecture
from repro.epc.gateway import EpcGateway
from repro.epc.packets import parse_ip
from repro.epc.traffic import FlowGenerator

#: Large odd multipliers keep per-episode seed streams disjoint without
#: touching wall clock or global randomness.
_EPISODE_STRIDE = 1_000_003
_INJECTOR_SALT = 0x9E37_79B9
_AUDIT_SALT = 0x85EB_CA6B


@dataclass
class EpisodeReport:
    """Everything one episode did and observed (JSON-ready, deterministic)."""

    episode: int
    seed: int
    steps: int
    flows: int
    fault_kinds: List[str]
    faults_applied: Dict[str, int]
    outcomes: Dict[str, int]
    checks: int
    transit_losses: int
    violations: List[Dict[str, object]] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    fabric: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether the oracle saw no divergence."""
        return not self.violations

    def to_dict(self) -> Dict[str, object]:
        return {
            "episode": self.episode,
            "seed": self.seed,
            "steps": self.steps,
            "flows": self.flows,
            "fault_kinds": self.fault_kinds,
            "faults_applied": self.faults_applied,
            "outcomes": self.outcomes,
            "checks": self.checks,
            "transit_losses": self.transit_losses,
            "violations": self.violations,
            "counters": self.counters,
            "fabric": self.fabric,
            "ok": self.ok,
        }


@dataclass
class SoakReport:
    """Aggregate over a soak's episodes."""

    seed: int
    architecture: str
    num_nodes: int
    episodes: List[EpisodeReport] = field(default_factory=list)

    @property
    def total_checks(self) -> int:
        return sum(e.checks for e in self.episodes)

    @property
    def total_violations(self) -> int:
        return sum(len(e.violations) for e in self.episodes)

    @property
    def fault_kinds(self) -> List[str]:
        """Distinct fault kinds exercised anywhere in the soak."""
        kinds = set()
        for episode in self.episodes:
            kinds.update(episode.faults_applied)
        return sorted(kinds)

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.episodes)

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "architecture": self.architecture,
            "num_nodes": self.num_nodes,
            "episodes": [e.to_dict() for e in self.episodes],
            "summary": {
                "episodes": len(self.episodes),
                "total_checks": self.total_checks,
                "total_violations": self.total_violations,
                "fault_kinds": self.fault_kinds,
                "ok": self.ok,
            },
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Canonical JSON: sorted keys, so equal reports are equal bytes."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def soak_gates(
    report: Dict[str, object], link_faults: bool = False
) -> Dict[str, bool]:
    """Every hard gate on a soak report (:meth:`SoakReport.to_dict`).

    The one definition ``repro chaos`` enforces (its exit code is their
    conjunction): the oracle saw no divergence (exactly-once delivery and
    loss attribution held across reroutes), every episode's fabric
    accounting balanced (per-link counts vs crossings vs hops), and —
    only when ``link_faults`` asked for them — the soak exercised a link
    fault kind.
    """
    summary = report["summary"]
    link_kinds = {kind.value for kind in LINK_FAULT_KINDS}
    return {
        "oracle_clean": bool(summary["ok"]),
        "fabric_accounting_balanced": all(
            episode["fabric"]["accounting_ok"]
            for episode in report["episodes"]
        ),
        "link_faults_exercised": (
            not link_faults
            or bool(link_kinds & set(summary["fault_kinds"]))
        ),
    }


#: Registry counter prefixes worth reporting per episode.  Only event
#: counters appear — never span histograms, whose values are wall clock.
_COUNTER_PREFIXES = ("gateway.", "update.", "chaos.", "cluster.")


class SoakRunner:
    """Drives N seeded chaos episodes and collects their reports.

    Args:
        seed: base seed; episode ``i`` derives its own seed stream from it.
        episodes: number of independent episodes to run.
        architecture: FIB architecture under test.
        num_nodes: cluster size (>= 3 so crash + partition leave a live
            majority to route through).
        flows: initial bearer population per episode.
        steps: fault events per episode.
        packets_per_burst: differential packets offered after each event.
        kinds: restrict the fault pool (default: every applicable kind).
        fabric_backend: fabric topology under test ("crossbar",
            "fattree"); ``None`` uses the process default
            (:mod:`repro.fabric`).
    """

    def __init__(
        self,
        seed: int,
        episodes: int,
        architecture: Architecture = Architecture.SCALEBRICKS,
        num_nodes: int = 4,
        flows: int = 32,
        steps: int = 8,
        packets_per_burst: int = 12,
        kinds: Optional[Sequence[FaultKind]] = None,
        fabric_backend: Optional[str] = None,
    ) -> None:
        if episodes < 1:
            raise ValueError("need at least one episode")
        if num_nodes < 3:
            raise ValueError("chaos soaks need >= 3 nodes")
        self.seed = seed
        self.episodes = episodes
        self.architecture = architecture
        self.num_nodes = num_nodes
        self.flows = flows
        self.steps = steps
        self.packets_per_burst = packets_per_burst
        self.kinds = tuple(kinds) if kinds is not None else None
        self.fabric_backend = fabric_backend

    def _episode_seed(self, episode: int) -> int:
        return self.seed * _EPISODE_STRIDE + episode

    def run_episode(self, episode: int) -> EpisodeReport:
        """Run one fully seeded episode and report it."""
        episode_seed = self._episode_seed(episode)
        flowgen = FlowGenerator(seed=episode_seed)
        gateway = EpcGateway(
            self.architecture, self.num_nodes, parse_ip("192.0.2.1"),
            fabric_backend=self.fabric_backend,
        )
        flowgen.populate(gateway, self.flows)
        gateway.start()

        oracle = DifferentialOracle(gateway)
        for record in gateway.controller.flows.values():
            oracle.note_connect(record)

        plan = FaultPlan.generate(
            seed=episode_seed,
            steps=self.steps,
            architecture=self.architecture,
            kinds=self.kinds,
        )
        injector = FaultInjector(
            gateway, oracle, flowgen, seed=episode_seed + _INJECTOR_SALT
        )
        audit_rng = np.random.default_rng(episode_seed + _AUDIT_SALT)
        for event in plan.events:
            injector.apply(event)
            injector.burst(event.step, self.packets_per_burst)
            # Budgets must be spent (or dropped) before auditing: an
            # audit probe lost to a leftover drop budget is
            # indistinguishable from a routing bug.
            injector.disarm_fabric_budgets()
            oracle.audit(event.step, audit_rng, sample=16, unknown_probes=4)
        injector.finish()
        oracle.final_audit(plan.steps)

        snapshot = gateway.registry.snapshot()
        counters = {
            name: int(value)
            for name, value in snapshot["counters"].items()
            if name.startswith(_COUNTER_PREFIXES)
        }
        # Fabric accounting for the episode: every field is an int or
        # bool so the JSON report stays byte-deterministic.
        fabric = gateway.cluster.fabric
        fabric_report = {
            "backend": fabric.backend,
            "packets": int(fabric.stats.packets),
            "dropped": int(fabric.stats.dropped),
            "reroutes": int(fabric.stats.reroutes),
            "capacity_exceeded": int(fabric.stats.capacity_exceeded),
            "switch_hops": int(fabric.stats.switch_hops),
            "link_crossings": int(fabric.stats.link_crossings),
            "max_link_packets": int(fabric.stats.max_link_packets()),
            "accounting_ok": bool(fabric.verify_accounting()),
        }
        return EpisodeReport(
            episode=episode,
            seed=episode_seed,
            steps=plan.steps,
            flows=self.flows,
            fault_kinds=plan.kinds_used(),
            faults_applied=dict(sorted(injector.applied.items())),
            outcomes=dict(sorted(injector.outcomes.items())),
            checks=oracle.checks,
            transit_losses=oracle.transit_losses,
            violations=[v.to_dict() for v in oracle.violations],
            counters=dict(sorted(counters.items())),
            fabric=fabric_report,
        )

    def run(self) -> SoakReport:
        """Run every episode."""
        report = SoakReport(
            seed=self.seed,
            architecture=self.architecture.value,
            num_nodes=self.num_nodes,
        )
        for episode in range(self.episodes):
            report.episodes.append(self.run_episode(episode))
        return report
