"""Tests for the fault-injection harness (repro.chaos, repro.chaos.soak).

Three families:

* determinism — the same seed yields byte-identical soak reports;
* health — the default plan over every architecture produces zero
  oracle violations while exercising a wide fault mix;
* sensitivity — a deliberately corrupted cluster *must* trip the oracle
  (a differential checker that can't fail is not checking anything), and
  a doctored report must trip the soak's gates.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro import fabric as fabric_registry
from repro.chaos.faults import (
    DEFAULT_FAULT_KINDS,
    LINK_FAULT_KINDS,
    FaultInjector,
    FaultKind,
    FaultPlan,
)
from repro.chaos.oracle import DifferentialOracle
from repro.chaos.soak import SoakRunner, soak_gates
from repro.cli import main as cli_main
from repro.cluster.architectures import Architecture
from repro.core import separator as separator_registry
from repro.epc.gateway import EpcGateway
from repro.epc.packets import parse_ip
from repro.epc.traffic import FlowGenerator

from tests.conftest import needs_setsep

SMOKE = dict(episodes=2, num_nodes=4, flows=24, steps=6, packets_per_burst=8)


def small_soak(seed, **overrides):
    kwargs = dict(SMOKE)
    kwargs.update(overrides)
    return SoakRunner(seed=seed, **kwargs)


class TestFaultPlan:
    def test_same_seed_same_plan(self):
        a = FaultPlan.generate(seed=5, steps=12)
        b = FaultPlan.generate(seed=5, steps=12)
        assert a.events == b.events

    def test_different_seeds_differ(self):
        a = FaultPlan.generate(seed=5, steps=12)
        b = FaultPlan.generate(seed=6, steps=12)
        assert a.events != b.events

    def test_crash_and_partition_always_heal(self):
        for seed in range(20):
            plan = FaultPlan.generate(seed=seed, steps=10)
            open_windows = 0
            for event in plan.events:
                if event.kind in (FaultKind.NODE_CRASH, FaultKind.PARTITION):
                    open_windows += 1
                elif event.kind in (FaultKind.NODE_REJOIN,
                                    FaultKind.PARTITION_HEAL):
                    open_windows -= 1
                assert open_windows in (0, 1)  # never overlapping
            assert open_windows == 0  # every window closed in-plan

    def test_every_fault_kind_is_reachable(self):
        """Each kind is in a pool a plan draws from or is a heal
        ``FaultPlan.generate`` schedules, plans do schedule every one,
        and the injector has its handler."""
        heals = {
            FaultKind.NODE_REJOIN, FaultKind.PARTITION_HEAL,
            FaultKind.LINK_HEAL,
        }
        pools = set(DEFAULT_FAULT_KINDS) | set(LINK_FAULT_KINDS)
        assert set(FaultKind) == pools | heals
        scheduled = {
            event.kind
            for seed in range(20)
            for event in FaultPlan.generate(
                seed=seed, steps=20,
                kinds=DEFAULT_FAULT_KINDS + LINK_FAULT_KINDS,
            ).events
        }
        assert scheduled == set(FaultKind)
        for kind in FaultKind:
            assert callable(getattr(FaultInjector, f"_apply_{kind.value}", None))

    def test_non_gpt_architectures_get_no_delta_faults(self):
        plan = FaultPlan.generate(
            seed=3, steps=40, architecture=Architecture.FULL_DUPLICATION
        )
        kinds = {event.kind for event in plan.events}
        assert not kinds & {
            FaultKind.DELTA_LOST,
            FaultKind.DELTA_DELAYED,
            FaultKind.DELTA_DUPLICATED,
        }


class TestSoakDeterminism:
    def test_same_seed_byte_identical_json(self):
        first = small_soak(seed=11).run().to_json()
        second = small_soak(seed=11).run().to_json()
        assert first == second

    def test_different_seed_differs(self):
        first = small_soak(seed=11).run().to_json()
        second = small_soak(seed=12).run().to_json()
        assert first != second

    def test_episode_seeds_are_disjoint_streams(self):
        report = small_soak(seed=11).run()
        seeds = [episode.seed for episode in report.episodes]
        assert len(set(seeds)) == len(seeds)


class TestSoakHealth:
    def test_default_plan_is_violation_free(self):
        report = small_soak(seed=42, episodes=3).run()
        assert report.ok, report.to_json()
        assert report.total_checks > 200

    def test_exercises_many_fault_kinds(self):
        report = small_soak(seed=42, episodes=3).run()
        assert len(report.fault_kinds) >= 6, report.fault_kinds

    @pytest.mark.parametrize(
        "arch",
        [
            Architecture.FULL_DUPLICATION,
            Architecture.HASH_PARTITION,
            Architecture.ROUTEBRICKS_VLB,
        ],
    )
    def test_other_architectures_violation_free(self, arch):
        report = small_soak(seed=9, episodes=1, architecture=arch).run()
        assert report.ok, report.to_json()

    def test_report_counts_are_consistent(self):
        report = small_soak(seed=13, episodes=1).run()
        episode = report.episodes[0]
        counters = episode.counters
        assert counters["chaos.oracle.checks"] == episode.checks
        assert counters["chaos.transit_losses"] == episode.transit_losses
        assert counters["chaos.oracle.violations"] == len(episode.violations)
        assert sum(episode.faults_applied.values()) \
            == counters["chaos.faults_injected"]


def started_gateway(flows=24, nodes=4, seed=77):
    flowgen = FlowGenerator(seed=seed)
    gateway = EpcGateway(
        Architecture.SCALEBRICKS, nodes, parse_ip("192.0.2.1")
    )
    flowgen.populate(gateway, flows)
    gateway.start()
    oracle = DifferentialOracle(gateway)
    for record in gateway.controller.flows.values():
        oracle.note_connect(record)
    return gateway, oracle


def assert_every_packet_accounted(counters):
    """Offered = delivered + the sum of every ``gateway.drops.*`` reason."""
    offered = (
        counters["gateway.downstream.packets_in"]
        + counters["gateway.upstream.packets_in"]
    )
    delivered = (
        counters["gateway.downstream.tunnelled"]
        + counters["gateway.upstream.forwarded"]
    )
    drops = sum(
        count for name, count in counters.items()
        if name.startswith("gateway.drops.")
    )
    assert offered == delivered + drops


class TestDropAccounting:
    """Every packet the gateway is offered is delivered or counted under
    one ``gateway.drops.*`` reason, a lost fabric transit included."""

    @pytest.mark.parametrize("arch", list(Architecture), ids=lambda a: a.value)
    def test_offered_is_delivered_plus_drops_under_transit_faults(self, arch):
        report = small_soak(
            seed=3, episodes=1, architecture=arch,
            kinds=[FaultKind.FABRIC_DROP, FaultKind.PARTITION,
                   FaultKind.NODE_CRASH, FaultKind.PACKET_MALFORMED,
                   FaultKind.TUNNEL_CORRUPT],
        ).run()
        assert report.ok
        counters = report.episodes[0].counters
        assert counters["gateway.drops.fabric_loss"] > 0
        assert_every_packet_accounted(counters)


    def test_an_acl_drop_is_one_drop_in_either_direction(self):
        """A source blocked before the downstream batch drops there; one
        blocked after it drops its tunnelled packets upstream.  Each
        dropped packet is counted under ``acl`` once."""
        flowgen = FlowGenerator(seed=5)
        gateway = EpcGateway(Architecture.SCALEBRICKS, 4, parse_ip("192.0.2.1"))
        flows = flowgen.populate(gateway, 30)
        gateway.start()
        gateway.acl_blocked_sources.add(flows[0].src_ip)
        results = gateway.process_downstream_batch(
            flowgen.packet_stream(flows, 600)
        )
        acl_down = gateway.registry.counters()["gateway.drops.acl"]
        assert acl_down > 0
        gateway.acl_blocked_sources.add(flows[1].src_ip)
        blocked_up = 0
        for result, packet in results:
            if packet is None:
                continue
            blocked = gateway.process_upstream(packet) is None
            assert blocked == (result.key == flows[1].key())
            blocked_up += blocked
        counters = gateway.registry.counters()
        assert blocked_up > 0
        assert counters["gateway.drops.acl"] == acl_down + blocked_up
        assert counters["gateway.upstream.forwarded"] > 0
        assert_every_packet_accounted(counters)


class TestOracleSensitivity:
    """Sabotage the cluster behind the oracle's back: it must notice."""

    def test_silently_removed_fib_entry_is_caught(self):
        gateway, oracle = started_gateway()
        key = sorted(oracle.reference.flows)[0]
        owner = oracle.reference.flows[key].node
        gateway.cluster.nodes[owner].remove_route(key)
        oracle.final_audit(step=0)
        assert any(v.invariant == "ownership" for v in oracle.violations)

    def test_charging_divergence_is_caught(self):
        gateway, oracle = started_gateway()
        gateway.stats.charge(4242, 100)  # phantom billing
        oracle.final_audit(step=0)
        assert any(v.invariant == "charging" for v in oracle.violations)

    def test_undeclared_rib_entry_is_caught(self):
        gateway, oracle = started_gateway()
        rng = np.random.default_rng(5)
        gateway.updates.insert_flow(123456789, 0, 999)  # behind the back
        oracle.audit(step=0, rng=rng)
        assert any(v.invariant == "bookkeeping" for v in oracle.violations)

    def test_final_audit_requires_repaired_cluster(self):
        _gateway, oracle = started_gateway()
        oracle.note_fail(0)
        with pytest.raises(RuntimeError, match="repaired"):
            oracle.final_audit(step=0)


class TestChaosCli:
    def test_json_smoke(self, capsys):
        code = cli_main([
            "chaos", "--seed", "3", "--episodes", "1",
            "--flows", "24", "--steps", "5", "--json",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["ok"] is True
        assert report["summary"]["total_violations"] == 0

    def test_text_smoke(self, capsys):
        code = cli_main([
            "chaos", "--seed", "3", "--episodes", "1",
            "--flows", "24", "--steps", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict      : OK" in out


def test_daemon_start_up_does_not_load_the_soak():
    code = ("import sys, repro.runtime.daemon; "
            "print('repro.chaos.soak' in sys.modules)")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


@needs_setsep
class TestSoakDigest:
    """The soak report's bytes, pinned: a digest that moves means the
    soak now does (or reports) something else for the same seed."""

    @pytest.mark.parametrize("extra, digest", [
        (["--fabric", "crossbar"],
         "4abbe54f5d9de05dc04dc679242f7e0870efa550df21e3536ff41ad98d8dc1d5"),
        (["--link-faults", "--fabric", "fattree"],
         "983dd66f42eba8664f69862e6d7809dd0280e3d2f4ea8f11671d03fe45b1a095"),
    ], ids=["crossbar", "fattree-link-faults"])
    def test_seed_7_report_digest(self, capsys, monkeypatch, extra, digest):
        # --fabric sets the process-wide default and its env var: both
        # are put back for the tests that follow.
        monkeypatch.setattr(fabric_registry._registry, "chosen",
                            fabric_registry._registry.chosen)
        monkeypatch.delenv(fabric_registry.BACKEND_ENV, raising=False)
        argv = ["chaos", "--seed", "7", "--episodes", "2", "--json"]
        assert cli_main(argv + extra) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


#: ``repro chaos --seed 9 --episodes 3`` crashes node 0 with §7 recovery
#: and re-homes its 9 bearers on either separator backend.  CI's chaos
#: determinism step runs the same seed, so it exercises recovery too.
CRASH_SEED = 9


class TestCrashRecoverySoak:
    @pytest.mark.parametrize("backend", separator_registry.BACKENDS)
    def test_recovering_crash_passes_the_gates(self, monkeypatch, backend):
        monkeypatch.setattr(separator_registry._registry, "chosen", backend)
        evacuations = []
        evacuate = EpcGateway.evacuate

        def recorded(gateway, node, survivors):
            moved = evacuate(gateway, node, survivors)
            evacuations.append((node, len(moved)))
            return moved

        monkeypatch.setattr(EpcGateway, "evacuate", recorded)
        report = SoakRunner(seed=CRASH_SEED, episodes=3).run().to_dict()
        assert evacuations == [(0, 9)]
        assert "node_crash" in report["summary"]["fault_kinds"]
        assert all(soak_gates(report).values()), report["summary"]


class TestSoakGates:
    """``soak_gates`` against a real link-fault soak, then doctored copies."""

    @pytest.fixture(scope="class")
    def report(self):
        return small_soak(
            seed=11, kinds=DEFAULT_FAULT_KINDS + LINK_FAULT_KINDS
        ).run().to_dict()

    @staticmethod
    def doctored(report, edit):
        copy = json.loads(json.dumps(report))
        edit(copy)
        return copy

    @staticmethod
    def failing(gates):
        return sorted(name for name, passed in gates.items() if not passed)

    def test_clean_link_soak_passes_every_gate(self, report):
        assert set(report["summary"]["fault_kinds"]) & {
            "link_down", "link_degraded"
        }
        assert self.failing(soak_gates(report, link_faults=True)) == []

    def test_oracle_violation_fails(self, report):
        def edit(doc):
            doc["summary"]["ok"] = False
            doc["summary"]["total_violations"] = 1

        gates = soak_gates(self.doctored(report, edit), link_faults=True)
        assert self.failing(gates) == ["oracle_clean"]

    def test_leaked_fabric_accounting_fails(self, report):
        def edit(doc):
            doc["episodes"][-1]["fabric"]["accounting_ok"] = False

        gates = soak_gates(self.doctored(report, edit))
        assert self.failing(gates) == ["fabric_accounting_balanced"]

    def test_link_coverage_required_only_when_asked(self, report):
        def edit(doc):
            doc["summary"]["fault_kinds"] = [
                kind for kind in doc["summary"]["fault_kinds"]
                if not kind.startswith("link_")
            ]

        doc = self.doctored(report, edit)
        assert self.failing(soak_gates(doc, link_faults=True)) == [
            "link_faults_exercised"
        ]
        assert self.failing(soak_gates(doc, link_faults=False)) == []

    def test_cli_exit_code_follows_the_gates(self, capsys):
        # Seed 0 with two steps draws no link fault even from the
        # link-fault pool: the report is clean, the coverage gate is not.
        argv = ["chaos", "--seed", "0", "--episodes", "1", "--steps", "2",
                "--flows", "16", "--json"]
        assert cli_main(argv) == 0
        plain = capsys.readouterr()
        assert cli_main(argv + ["--link-faults"]) == 1
        linked = capsys.readouterr()
        assert json.loads(linked.out)["summary"]["ok"] is True
        assert "gate FAIL    : link_faults_exercised" in linked.err
        assert plain.err == ""
        assert cli_main(argv[:-1] + ["--link-faults"]) == 1
        text = capsys.readouterr().out
        assert "verdict      : FAILED link_faults_exercised" in text
