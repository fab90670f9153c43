"""Tests for the fabric backend registry and the fat-tree topology
(the promises every topology keeps are ``tests/test_fabric_contract.py``)."""

import numpy as np
import pytest

from repro import fabric as fabric_registry
from repro.cluster import Architecture, Cluster
from repro.fabric import FabricLoss
from repro.fabric.crossbar import SwitchFabric
from repro.fabric.fattree import FatTreeFabric


@pytest.fixture(autouse=True)
def _isolate_default_backend():
    """Keep the process-wide default backend out of cross-test state."""
    before = fabric_registry._registry.chosen
    yield
    fabric_registry._registry.chosen = before


def build_cluster(num_nodes=6, flows=240, **kwargs):
    keys = np.arange(1, flows + 1, dtype=np.uint64)
    nodes = [int(k) % num_nodes for k in keys]
    values = [int(k) * 10 for k in keys]
    return Cluster.build(
        Architecture.SCALEBRICKS, num_nodes, keys, nodes, values, **kwargs
    )


class TestRegistry:
    def test_backends_and_default(self):
        assert fabric_registry.BACKENDS == ("crossbar", "fattree")
        assert fabric_registry.resolve_backend(None) == "crossbar"
        assert fabric_registry.resolve_backend("fattree") == "fattree"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown fabric backend"):
            fabric_registry.resolve_backend("torus")
        with pytest.raises(ValueError, match="unknown fabric backend"):
            fabric_registry.set_default_backend("torus")

    def test_set_default_backend(self):
        fabric_registry.set_default_backend("fattree")
        assert fabric_registry.resolve_backend(None) == "fattree"
        fabric = fabric_registry.create(6)
        assert fabric.backend == "fattree"

    def test_env_var_selects_default(self, monkeypatch):
        monkeypatch.setenv(fabric_registry.BACKEND_ENV, "fattree")
        fabric_registry._registry.chosen = None
        assert fabric_registry.default_backend() == "fattree"

    def test_crossbar_rejects_topology_options(self):
        with pytest.raises(TypeError, match="no topology options"):
            fabric_registry.create(4, "crossbar", num_leaves=2)

    def test_fattree_options_pass_through(self):
        fabric = fabric_registry.create(
            8, "fattree", num_leaves=4, num_spines=3, oversubscription=2.0
        )
        assert fabric.num_leaves == 4
        assert fabric.num_spines == 3
        assert fabric.oversubscription == 2.0


class TestFatTreeTopology:
    def test_contiguous_leaf_attachment(self):
        fabric = FatTreeFabric(8, num_leaves=4)
        assert [fabric.leaf_of(n) for n in range(8)] == [
            0, 0, 1, 1, 2, 2, 3, 3
        ]

    def test_hop_counts(self):
        fabric = FatTreeFabric(8, num_leaves=4)
        assert fabric.hop_count(0, 0) == 0
        assert fabric.hop_count(0, 1) == 1  # same leaf
        assert fabric.hop_count(0, 7) == 3  # leaf -> spine -> leaf

    def test_single_leaf_degenerates_to_one_hop(self):
        fabric = FatTreeFabric(4, num_leaves=1)
        assert fabric.hop_count(0, 3) == 1
        fabric.deliver(0, 3)
        assert fabric.stats.switch_hops == 1
        assert fabric.verify_accounting()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FatTreeFabric(4, oversubscription=0)
        with pytest.raises(ValueError):
            FatTreeFabric(4, window=0)
        with pytest.raises(ValueError):
            FatTreeFabric(4, num_leaves=9)

    def test_oversubscription_shrinks_uplink_capacity(self):
        full = FatTreeFabric(8, num_leaves=4, oversubscription=1.0)
        over = FatTreeFabric(8, num_leaves=4, oversubscription=4.0)
        assert over.uplink_capacity < full.uplink_capacity

    def test_links_enumeration(self):
        fabric = FatTreeFabric(4, num_leaves=2, num_spines=2)
        links = fabric.links()
        assert ("up", 0) in links
        assert ("down", 3) in links
        assert ("uplink", 0, 1) in links
        assert ("downlink", 1, 1) in links
        assert len(links) == 4 * 2 + 2 * 2 * 2


class TestFatTreeDelivery:
    def test_latency_scales_with_hops(self):
        fabric = FatTreeFabric(8, num_leaves=4)
        intra = fabric.deliver(0, 1)
        inter = fabric.deliver(0, 7)
        assert intra == pytest.approx(fabric.transit_latency_us)
        assert inter == pytest.approx(3 * fabric.transit_latency_us)

    def test_accounting_invariant(self):
        fabric = FatTreeFabric(9, num_leaves=3, seed=1)
        rng = np.random.default_rng(5)
        for _ in range(200):
            fabric.deliver(int(rng.integers(9)), int(rng.integers(9)))
        s = fabric.stats
        assert s.link_crossings == s.switch_hops + s.packets
        assert sum(s.per_link_packets.values()) == s.link_crossings
        assert fabric.verify_accounting()

    def test_capacity_exceeded_adds_queueing(self):
        fabric = FatTreeFabric(
            4, num_leaves=2, window=1000, edge_capacity=5
        )
        # Hammer one edge link past its per-window capacity.
        latencies = [fabric.deliver(0, 1) for _ in range(8)]
        assert fabric.stats.capacity_exceeded > 0
        assert latencies[-1] > latencies[0]

    def test_window_reset_clears_congestion(self):
        fabric = FatTreeFabric(4, num_leaves=2, window=8, edge_capacity=4)
        for _ in range(8):
            fabric.deliver(0, 1)
        exceeded = fabric.stats.capacity_exceeded
        assert exceeded > 0
        # A fresh window starts clean: the first delivery is fast again.
        assert fabric.deliver(0, 1) == pytest.approx(
            fabric.transit_latency_us
        )
        assert fabric.stats.capacity_exceeded == exceeded


class TestFatTreeEcmpAndFaults:
    def test_ecmp_is_deterministic_and_spread(self):
        fabric = FatTreeFabric(16, num_leaves=4, num_spines=4)
        spines = {
            fabric.ecmp_spine(s, d)
            for s in range(16) for d in range(16)
        }
        assert spines == set(range(4))  # every spine carries some pair
        assert fabric.ecmp_spine(0, 15) == fabric.ecmp_spine(0, 15)

    def test_downed_trunk_reroutes_deterministically(self):
        fabric = FatTreeFabric(16, num_leaves=4, num_spines=4)
        src, dst = 0, 15
        preferred = fabric.ecmp_spine(src, dst)
        fabric.fail_link(("uplink", fabric.leaf_of(src), preferred))
        latency = fabric.deliver(src, dst)
        assert latency == pytest.approx(3 * fabric.transit_latency_us)
        assert fabric.stats.reroutes == 1
        assert fabric.stats.dropped == 0
        assert fabric.verify_accounting()

    def test_all_trunks_down_loses_the_transit(self):
        fabric = FatTreeFabric(4, num_leaves=2, num_spines=2)
        for spine in range(2):
            fabric.fail_link(("uplink", 0, spine))
        with pytest.raises(FabricLoss):
            fabric.deliver(0, 3)
        assert fabric.stats.dropped == 1

    def test_edge_link_down_has_no_reroute(self):
        fabric = FatTreeFabric(8, num_leaves=4)
        fabric.fail_link(("up", 2))
        with pytest.raises(FabricLoss):
            fabric.deliver(2, 7)
        fabric.heal_links()
        fabric.deliver(2, 7)
        assert fabric.stats.packets == 1

    def test_pick_fault_link_prefers_trunks(self):
        fabric = FatTreeFabric(8, num_leaves=4)
        for seed in range(20):
            link = fabric.pick_fault_link(np.random.default_rng(seed))
            assert link[0] in ("uplink", "downlink")
        assert FatTreeFabric(3, num_leaves=1).pick_fault_link(
            np.random.default_rng(0)
        ) is None

    def test_degraded_trunk_slows_crossing_transits(self):
        fabric = FatTreeFabric(4, num_leaves=2, num_spines=2)
        spine = fabric.ecmp_spine(0, 3)
        fabric.degrade_link(("uplink", 0, spine), factor=3.0)
        slow = fabric.deliver(0, 3)
        assert slow > 3 * fabric.transit_latency_us
        assert fabric.stats.degraded == 1


class TestIngressPolicies:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown ingress policy"):
            build_cluster(ingress_policy="hottest")

    def test_roundrobin_cycles(self):
        cluster = build_cluster(num_nodes=4, ingress_policy="roundrobin")
        assert [cluster.pick_ingress() for _ in range(6)] == [
            0, 1, 2, 3, 0, 1
        ]
        assert cluster.pick_ingress_batch(4).tolist() == [2, 3, 0, 1]

    def test_random_policy_stream_unchanged(self):
        # The random policy must keep consuming the cluster RNG exactly
        # as before the policy knob existed (trajectory identity).
        a = build_cluster(num_nodes=4)
        b = build_cluster(num_nodes=4, ingress_policy="random")
        assert a.pick_ingress_batch(32).tolist() == \
            b.pick_ingress_batch(32).tolist()

    def test_utilization_spreads_projected_load(self):
        cluster = build_cluster(
            num_nodes=6, fabric_backend="fattree",
            ingress_policy="utilization",
        )
        picks = cluster.pick_ingress_batch(12)
        # With no traffic yet, the argmin+feedback loop must spread
        # picks evenly instead of dog-piling node 0.
        counts = np.bincount(picks, minlength=6)
        assert counts.max() - counts.min() <= 1

    def test_utilization_beats_roundrobin_on_busiest_link(self):
        # Zipf-skewed destinations at 2:1 oversubscription: steering
        # ingress by fabric utilization must reduce the busiest-link
        # packet count vs blind round-robin (the ISSUE acceptance bar).
        def run(policy):
            cluster = build_cluster(
                num_nodes=8, flows=400,
                fabric_backend="fattree", ingress_policy=policy,
            )
            rng = np.random.default_rng(13)
            ranks = rng.zipf(1.3, size=2000) % 400
            keys = np.arange(1, 401, dtype=np.uint64)[ranks]
            for chunk in np.array_split(keys, 16):
                cluster.route_batch(chunk)
            return cluster.fabric.stats.max_link_packets()

        assert run("utilization") < run("roundrobin")


class TestClusterFabricWiring:
    def test_default_backend_is_crossbar(self):
        cluster = build_cluster()
        assert cluster.fabric.backend == "crossbar"

    def test_fabric_backend_knob(self):
        cluster = build_cluster(fabric_backend="fattree")
        assert cluster.fabric.backend == "fattree"

    def test_explicit_fabric_and_backend_conflict(self):
        keys = np.arange(1, 9, dtype=np.uint64)
        with pytest.raises(ValueError, match="not both"):
            Cluster.build(
                Architecture.SCALEBRICKS, 4, keys,
                [int(k) % 4 for k in keys], [1] * 8,
                fabric=SwitchFabric(4), fabric_backend="fattree",
            )

    def test_routing_works_on_fattree(self):
        cluster = build_cluster(num_nodes=6, fabric_backend="fattree")
        keys = np.arange(1, 241, dtype=np.uint64)
        result = cluster.route_batch(keys)
        assert result.delivered_count == 240
        assert cluster.fabric.verify_accounting()
        assert cluster.fabric.stats.switch_hops > cluster.fabric.stats.packets

    def test_route_batch_falls_back_under_link_faults(self):
        cluster = build_cluster(num_nodes=6, fabric_backend="fattree")
        link = cluster.fabric.pick_fault_link(np.random.default_rng(3))
        cluster.fabric.fail_link(link)
        keys = np.arange(1, 101, dtype=np.uint64)
        result = cluster.route_batch(keys)  # scalar path, no crash
        assert result.delivered_count == 100  # trunks reroute, no loss
        assert cluster.fabric.verify_accounting()

    def test_fabric_gauges_surface_in_registry(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        cluster = build_cluster(
            num_nodes=6, fabric_backend="fattree", registry=registry
        )
        cluster.route_batch(np.arange(1, 101, dtype=np.uint64))
        cluster.sync_fabric_gauges()
        gauges = registry.snapshot()["gauges"]
        assert gauges["fabric.packets"] == cluster.fabric.stats.packets
        assert gauges["fabric.max_link"] == \
            cluster.fabric.stats.max_link_packets()
        assert gauges["fabric.switch_hops"] == \
            cluster.fabric.stats.switch_hops
        assert gauges["fabric.dropped"] == 0


class TestLinkChaosSoak:
    @pytest.mark.parametrize("backend", ["crossbar", "fattree"])
    def test_link_fault_episodes_pass_oracle(self, backend):
        from repro.chaos import DEFAULT_FAULT_KINDS, LINK_FAULT_KINDS
        from repro.sim.soak import SoakRunner

        runner = SoakRunner(
            seed=21, episodes=2, num_nodes=5, flows=24, steps=10,
            kinds=DEFAULT_FAULT_KINDS + LINK_FAULT_KINDS,
            fabric_backend=backend,
        )
        report = runner.run()
        assert report.ok, [
            v for e in report.episodes for v in e.violations
        ]
        for episode in report.episodes:
            assert episode.fabric["backend"] == backend
            assert episode.fabric["accounting_ok"]

    def test_link_only_soak_is_deterministic(self):
        from repro.chaos import LINK_FAULT_KINDS
        from repro.sim.soak import SoakRunner

        def run():
            return SoakRunner(
                seed=4, episodes=2, num_nodes=5, flows=16, steps=8,
                kinds=LINK_FAULT_KINDS, fabric_backend="fattree",
            ).run()

        first, second = run(), run()
        assert first.to_json() == second.to_json()
        assert first.ok
        kinds = set()
        for episode in first.episodes:
            kinds.update(episode.faults_applied)
        assert kinds & {"link_down", "link_degraded"}

    def test_reroute_within_one_poll(self):
        # Downing a fat-tree trunk must not lose a single transit: the
        # very next delivery over that pair already takes the surviving
        # spine (reroute "within one poll" of the failure).
        fabric = FatTreeFabric(8, num_leaves=4, num_spines=2)
        src, dst = 0, 7
        preferred = fabric.ecmp_spine(src, dst)
        fabric.fail_link(("uplink", fabric.leaf_of(src), preferred))
        fabric.deliver(src, dst)
        assert fabric.stats.reroutes == 1
        assert fabric.stats.dropped == 0


class TestCli:
    def test_stats_json_reports_fabric(self, capsys):
        import json

        from repro.cli import main

        assert main([
            "stats", "--flows", "64", "--packets", "64",
            "--fabric", "fattree", "--ingress-policy", "roundrobin",
            "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fabric_backend"] == "fattree"
        assert doc["gauges"]["fabric.packets"] > 0
        assert "fabric.max_link" in doc["gauges"]

    def test_chaos_link_faults_flag(self, capsys):
        import json

        from repro.cli import main

        # Seed 5 draws a link fault within eight steps, so the exit code
        # (which requires one under --link-faults) is 0.
        assert main([
            "chaos", "--seed", "5", "--episodes", "1", "--steps", "8",
            "--nodes", "4", "--link-faults", "--fabric", "fattree", "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["ok"]
        assert "link_degraded" in doc["summary"]["fault_kinds"]
        assert doc["episodes"][0]["fabric"]["backend"] == "fattree"
