"""Tests for cluster routing under each FIB architecture (Figure 2)."""

import copy
import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Architecture, Cluster, UpdateEngine
from repro.cluster.cluster import RouteResult
from repro.core import separator as separator_registry
from repro.fabric import DELAY, DELIVER
from repro.hashtables import (
    ChainingHashTable,
    CuckooHashTable,
    RteHashTable,
)
from repro.obs import MetricsRegistry
from tests.conftest import unique_keys

NUM_NODES = 4
NUM_FLOWS = 1_500


@pytest.fixture(scope="module")
def population():
    keys = unique_keys(NUM_FLOWS, seed=100)
    handlers = (keys % NUM_NODES).astype(np.int64)
    values = np.arange(NUM_FLOWS) + 10_000
    return keys, handlers, values


def build_cluster(arch, population, **kwargs):
    keys, handlers, values = population
    return Cluster.build(arch, NUM_NODES, keys, handlers, values, **kwargs)


@pytest.fixture(scope="module", params=list(Architecture))
def any_cluster(request, population):
    return build_cluster(request.param, population), population


class TestDeliveryCorrectness:
    def test_known_keys_reach_their_handler_with_value(self, any_cluster):
        cluster, (keys, handlers, values) = any_cluster
        for i in range(0, 400, 7):
            result = cluster.route(int(keys[i]), ingress=i % NUM_NODES)
            assert result.delivered
            assert result.handled_by == handlers[i]
            assert result.value == values[i]

    def test_unknown_keys_always_dropped(self, any_cluster):
        cluster, _ = any_cluster
        unknown = unique_keys(300, seed=101, low=2**62, high=2**63)
        results = cluster.route_batch(unknown)
        assert all(r.dropped for r in results)
        assert all(r.value is None for r in results)

    def test_route_batch_matches_route(self, any_cluster):
        cluster, (keys, handlers, values) = any_cluster
        ingress = [i % NUM_NODES for i in range(50)]
        results = cluster.route_batch(keys[:50], ingress)
        for i, result in enumerate(results):
            assert result.value == values[i]


class TestHopCounts:
    def test_one_hop_architectures(self, population):
        for arch in (Architecture.FULL_DUPLICATION, Architecture.SCALEBRICKS):
            cluster = build_cluster(arch, population)
            keys, handlers, _ = population
            for i in range(100):
                result = cluster.route(int(keys[i]), ingress=0)
                expected = 0 if handlers[i] == 0 else 1
                assert result.internal_hops == expected

    def test_hash_partition_up_to_two_hops(self, population):
        cluster = build_cluster(Architecture.HASH_PARTITION, population)
        keys, _, _ = population
        hops = [cluster.route(int(k), ingress=0).internal_hops for k in keys[:200]]
        assert max(hops) == 2
        assert min(hops) >= 0

    def test_vlb_detours_via_indirect(self, population):
        cluster = build_cluster(Architecture.ROUTEBRICKS_VLB, population)
        keys, handlers, _ = population
        remote = [
            int(k) for k, h in zip(keys[:200], handlers[:200]) if h != 0
        ]
        results = [cluster.route(k, ingress=0) for k in remote]
        assert all(r.internal_hops == 2 for r in results)
        # The indirect node is neither ingress nor handler.
        for r in results:
            assert r.path[1] not in (r.path[0], r.path[-1])

    def test_mean_hops_ordering(self, population):
        """ScaleBricks and full duplication beat the 2-hop designs."""
        keys, _, _ = population
        means = {}
        for arch in Architecture:
            cluster = build_cluster(arch, population)
            results = cluster.route_batch(keys[:400])
            means[arch] = np.mean([r.internal_hops for r in results])
        assert means[Architecture.SCALEBRICKS] < means[Architecture.HASH_PARTITION]
        assert means[Architecture.SCALEBRICKS] < means[Architecture.ROUTEBRICKS_VLB]
        assert means[Architecture.FULL_DUPLICATION] == pytest.approx(
            means[Architecture.SCALEBRICKS], abs=0.05
        )


class TestStatePlacement:
    def test_scalebricks_stores_each_entry_once(self, population):
        cluster = build_cluster(Architecture.SCALEBRICKS, population)
        assert cluster.total_fib_entries() == NUM_FLOWS

    def test_full_duplication_replicates_everything(self, population):
        cluster = build_cluster(Architecture.FULL_DUPLICATION, population)
        assert cluster.total_fib_entries() == NUM_FLOWS * NUM_NODES

    def test_scalebricks_entries_live_at_their_handler(self, population):
        cluster = build_cluster(Architecture.SCALEBRICKS, population)
        keys, handlers, values = population
        for i in range(0, 300, 11):
            node = cluster.nodes[int(handlers[i])]
            assert node.fib.lookup(int(keys[i])) == values[i]

    def test_hash_partition_lookup_node_has_entry(self, population):
        cluster = build_cluster(Architecture.HASH_PARTITION, population)
        keys, handlers, _ = population
        for i in range(0, 300, 13):
            lookup_node = cluster.lookup_node_of(int(keys[i]))
            found, handler = cluster.nodes[lookup_node].locate_batch(
                [int(keys[i])]
            )
            assert found[0] and handler[0] == handlers[i]

    def test_gpt_only_on_scalebricks(self, population):
        for arch in Architecture:
            cluster = build_cluster(arch, population)
            has_gpt = all(n.gpt is not None for n in cluster.nodes)
            assert has_gpt == (arch is Architecture.SCALEBRICKS)

    def test_memory_report_shows_gpt_savings(self, population):
        full = build_cluster(Architecture.FULL_DUPLICATION, population)
        sb = build_cluster(Architecture.SCALEBRICKS, population)
        full_node = full.memory_report()[0]
        sb_node = sb.memory_report()[0]
        # GPT (bits/key) is far smaller than the replicated FIB it replaces.
        assert sb_node["gpt_bytes"] < full_node["fib_bytes"] / 10
        assert sb_node["fib_bytes"] < full_node["fib_bytes"]


class TestCounters:
    def test_counters_track_traffic(self, population):
        cluster = build_cluster(Architecture.SCALEBRICKS, population)
        keys, _, _ = population
        cluster.reset_stats()
        cluster.route_batch(keys[:100], ingress=[0] * 100)
        assert cluster.nodes[0].counters.external_rx == 100
        assert cluster.nodes[0].counters.gpt_lookups == 100
        total_handled = sum(n.counters.handled for n in cluster.nodes)
        assert total_handled == 100

    def test_fabric_stats_accumulate(self, population):
        cluster = build_cluster(Architecture.SCALEBRICKS, population)
        cluster.reset_stats()
        keys, handlers, _ = population
        remote = [int(k) for k, h in zip(keys, handlers) if h != 0][:50]
        for key in remote:
            cluster.route(key, ingress=0)
        assert cluster.fabric.stats.packets == 50


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Cluster.build(Architecture.SCALEBRICKS, 2, [1, 2], [0], [5, 6])

    def test_handler_out_of_range(self):
        with pytest.raises(ValueError):
            Cluster.build(Architecture.SCALEBRICKS, 2, [1, 2], [0, 2], [5, 6])

    def test_custom_fib_factory(self, population):
        cluster = build_cluster(
            Architecture.FULL_DUPLICATION,
            population,
            fib_factory=lambda cap: RteHashTable(cap),
        )
        keys, _, values = population
        result = cluster.route(int(keys[0]))
        assert result.value == values[0]
        assert isinstance(cluster.nodes[0].fib, RteHashTable)


def moving_parts(cluster):
    """Everything a route may move: node counters, fabric accounting,
    registry counters and the ingress generator's position."""
    cluster.sync_fabric_gauges()
    return copy.deepcopy((
        [dataclasses.asdict(node.counters) for node in cluster.nodes],
        dataclasses.asdict(cluster.fabric.stats),
        cluster.registry.snapshot(),
        cluster._rng.bit_generator.state,
        cluster._ingress_rr,
    ))


class TestIngressValidation:
    """A bad ``ingress`` is one ``ValueError`` before anything moves:
    it used to leave a batch partly applied (nodes 0-2 counted, then an
    ``IndexError`` at node 7) or index ``nodes[-1]``."""

    BAD_BATCHES = [
        ([0, 1, 2, 7], "ingress[3]"),
        ([-1, 0, 1, 2], "ingress[0]"),
        ([0, 1, 2], "4 keys"),
        ([0, 1, 2, 3, 0], "4 keys"),
        ([[0, 1], [2, 3]], "4 keys"),
        ([0.7, 1.2, 2.0, 3.0], "ingress[0]"),
        ([0, 1.0, 2, 3], "ingress[0]"),
        ([0, None, 1, 2], "ingress[1]"),
        ([0, 1, "2", 3], "ingress[0]"),
        (np.array([0, 1, 2, NUM_NODES], dtype=np.uint64), "ingress[3]"),
    ]

    @pytest.fixture(
        scope="class", params=["vectorised", "per-packet", "hash-partition"]
    )
    def cluster(self, request, population):
        arch = (
            Architecture.HASH_PARTITION
            if request.param == "hash-partition" else Architecture.SCALEBRICKS
        )
        cluster = build_cluster(arch, population, registry=MetricsRegistry())
        if request.param == "per-packet":
            cluster.fabric.fault_hook = lambda src, dst, size: DELIVER
        return cluster

    @pytest.mark.parametrize("ingress, named", BAD_BATCHES)
    def test_route_batch_rejects_before_anything_moves(
        self, cluster, population, ingress, named
    ):
        keys, _, _ = population
        before = moving_parts(cluster)
        with pytest.raises(ValueError, match=named.replace("[", r"\[")):
            cluster.route_batch(keys[:4], ingress)
        assert moving_parts(cluster) == before

    @pytest.mark.parametrize(
        "ingress", [7, NUM_NODES, -1, 0.7, 1.0, "1", np.int64(-2), [0]]
    )
    def test_route_rejects_before_anything_moves(
        self, cluster, population, ingress
    ):
        keys, _, _ = population
        before = moving_parts(cluster)
        with pytest.raises(ValueError, match="ingress"):
            cluster.route(int(keys[0]), ingress)
        assert moving_parts(cluster) == before

    def test_every_integer_spelling_of_a_node_routes_alike(
        self, cluster, population
    ):
        keys, _, values = population
        spellings = [
            [0, 1, 2, 3],
            np.array([0, 1, 2, 3], dtype=np.int32),
            np.array([0, 1, 2, 3], dtype=np.uint64),
            np.array([0, 1, 2, 3], dtype=object),
            (np.int64(0), 1, np.uint8(2), 3),
        ]
        routed = [cluster.route_batch(keys[:4], ing) for ing in spellings]
        assert all(list(batch) == list(routed[0]) for batch in routed)
        assert routed[0].values.tolist() == values[:4].tolist()
        assert cluster.route(int(keys[1]), np.int64(1)) == routed[0][1]
        assert len(cluster.route_batch([], [])) == 0


FIB_BACKENDS = {
    "cuckoo": CuckooHashTable,
    "rtehash": RteHashTable,
    "chaining": lambda capacity: ChainingHashTable(max(16, capacity // 4)),
}


class TestNoSilentSlowPath:
    """Every FIB backend under every separator answers a batch through
    ``lookup_batch_array`` of the pre-hashed batch, never per key."""

    @pytest.mark.parametrize("separator", separator_registry.BACKENDS)
    @pytest.mark.parametrize("fib", sorted(FIB_BACKENDS))
    def test_a_batch_takes_the_array_path_and_equals_scalar_routes(
        self, population, monkeypatch, fib, separator
    ):
        keys, _, _ = population
        unknown = unique_keys(56, seed=177, low=2**62, high=2**63)
        probe = np.concatenate([keys[:200], unknown])
        ingress = [(3 * i) % NUM_NODES for i in range(len(probe))]
        assert len(probe) == 256
        batched, scalar = (
            build_cluster(
                Architecture.SCALEBRICKS, population, backend=separator,
                fib_factory=FIB_BACKENDS[fib],
            )
            for _ in range(2)
        )
        fib_type = type(batched.nodes[0].fib)
        array_calls, fallbacks = [], []
        array_path = fib_type.lookup_batch_array

        @functools.wraps(array_path)
        def counted(*args, **kwargs):
            array_calls.append(len(args[1]))
            try:
                return array_path(*args, **kwargs)
            except TypeError:
                fallbacks.append(len(args[1]))
                raise

        monkeypatch.setattr(fib_type, "lookup_batch_array", counted)
        batch = batched.route_batch(probe, ingress)
        monkeypatch.undo()

        assert not fallbacks
        assert sum(array_calls) == 256
        assert len(array_calls) == len(set(batch.handler_nodes.tolist()))
        assert list(batch) == [
            scalar.route(key, node)
            for key, node in zip(probe.tolist(), ingress)
        ]
        assert [n.counters for n in batched.nodes] == [
            n.counters for n in scalar.nodes
        ]
        assert batched.fabric.stats == scalar.fabric.stats
        assert batch.dropped.tolist() == [False] * 200 + [True] * 56


class TestReplicasAreConsultedPerPacket:
    """Replicas may differ (a delta in flight): each packet's handler is
    its *own* ingress replica's answer.  Hoisting any replica-specific
    gather out of the per-replica lookup breaks this."""

    @pytest.mark.parametrize("separator", separator_registry.BACKENDS)
    def test_a_stale_replica_routes_its_own_packets_its_own_way(
        self, population, separator
    ):
        keys, handlers, _ = population
        clusters = [
            build_cluster(
                Architecture.SCALEBRICKS, population, backend=separator
            )
            for _ in range(2)
        ]
        moved = keys[:120]
        stale = 2
        for cluster in clusters:
            engine = UpdateEngine(cluster)
            engine.delta_interceptor = (
                lambda owner, peer: DELAY if peer == stale else DELIVER
            )
            for key, handler in zip(moved.tolist(), handlers.tolist()):
                engine.insert_flow(key, (handler + 1) % NUM_NODES, key % 977)
            assert engine.stats.deltas_delayed
        batched, scalar = clusters
        fresh_view = batched.nodes[0].gpt.lookup_batch(moved)
        stale_view = batched.nodes[stale].gpt.lookup_batch(moved)
        assert (fresh_view != stale_view).any()

        probe = np.concatenate([moved, keys[500:600]])
        ingress = [i % NUM_NODES for i in range(len(probe))]
        batch = batched.route_batch(probe, ingress)
        assert list(batch) == [
            scalar.route(key, node)
            for key, node in zip(probe.tolist(), ingress)
        ]
        assert [n.counters for n in batched.nodes] == [
            n.counters for n in scalar.nodes
        ]
        # Packets that entered at the stale node went where *it* said.
        at_stale = np.array(ingress[: len(moved)]) == stale
        assert (
            batch.handler_nodes[: len(moved)][at_stale].tolist()
            == stale_view[at_stale].tolist()
        )
        assert (
            batch.handler_nodes[: len(moved)][~at_stale].tolist()
            == fresh_view[~at_stale].tolist()
        )
        assert batch.dropped[: len(moved)][at_stale].any()

    @pytest.mark.parametrize("n", [1, 2, 300])
    def test_the_route_path_needs_no_silenced_overflow(self, population, n):
        keys, _, values = population
        cluster = build_cluster(Architecture.SCALEBRICKS, population)
        with np.errstate(all="raise"):
            batch = cluster.route_batch(
                keys[:n], [i % NUM_NODES for i in range(n)]
            )
        assert batch.values.tolist() == values[:n].tolist()


class TestObservability:
    def test_registry_counts_routing(self, population):
        registry = MetricsRegistry()
        cluster = build_cluster(
            Architecture.SCALEBRICKS, population, registry=registry
        )
        keys, _, _ = population
        cluster.route_batch(keys[:100], ingress=[0] * 100)
        counters = registry.snapshot()["counters"]
        assert counters["cluster.scalebricks.routed"] == 100
        assert counters["cluster.scalebricks.delivered"] == 100
        assert counters["setsep.lookups"] >= 100
        hops = registry.histogram("cluster.scalebricks.hops")
        assert hops.count == 100

    def test_default_registry_is_null(self, population):
        cluster = build_cluster(Architecture.SCALEBRICKS, population)
        assert not cluster.registry.enabled
        keys, _, _ = population
        cluster.route(int(keys[0]))
        assert cluster.registry.snapshot()["counters"] == {}

    def test_reset_stats_clears_registry_and_nodes(self, population):
        registry = MetricsRegistry()
        cluster = build_cluster(
            Architecture.SCALEBRICKS, population, registry=registry
        )
        keys, _, _ = population
        cluster.route(int(keys[0]), ingress=0)
        cluster.reset_stats()
        assert registry.counter("cluster.scalebricks.routed").value == 0
        assert cluster.nodes[0].counters.external_rx == 0


class TestBatchQuerySurface:
    def test_lookup_nodes_batch_matches_scalar(self, population):
        cluster = build_cluster(Architecture.HASH_PARTITION, population)
        keys, _, _ = population
        batch = cluster.lookup_nodes_batch(keys[:50])
        assert batch.dtype == np.int64
        assert batch.shape == (50,)
        assert all(
            int(batch[i]) == cluster.lookup_node_of(int(keys[i]))
            for i in range(50)
        )

    def test_route_batch_typed_result(self, population):
        cluster = build_cluster(Architecture.SCALEBRICKS, population)
        keys, handlers, _ = population
        batch = cluster.route_batch(keys[:64], ingress=[0] * 64)
        assert len(batch) == 64
        assert batch.egress_nodes.shape == (64,)
        assert batch.hop_counts.dtype == np.int64
        assert batch.dropped.dtype == np.bool_
        assert not batch.dropped.any()
        assert batch.delivered_count == 64
        np.testing.assert_array_equal(
            batch.egress_nodes, handlers[:64]
        )
        np.testing.assert_array_equal(
            batch.indirections, batch.hop_counts >= 2
        )
        # Sequence protocol: iteration, indexing and slicing still work.
        assert [r.key for r in batch][0] == batch[0].key
        assert len(batch[10:20]) == 10
        assert batch.mean_hops == pytest.approx(
            batch.hop_counts.mean()
        )

    def test_route_batch_marks_drops(self, population):
        cluster = build_cluster(Architecture.FULL_DUPLICATION, population)
        keys, _, _ = population
        unknown = unique_keys(8, seed=321)
        batch = cluster.route_batch(unknown)
        assert batch.dropped.all()
        assert (batch.egress_nodes == -1).all()
        assert batch.delivered_count == 0


def columns_from_results(results):
    """Every ``RouteBatchResult`` column, re-derived the slow way."""
    return {
        "ingress_nodes": [r.ingress for r in results],
        "indirect_nodes": [
            r.path[1] if len(r.path) == 3 else -1 for r in results
        ],
        "handler_nodes": [r.path[-1] for r in results],
        "egress_nodes": [
            -1 if r.handled_by is None else r.handled_by for r in results
        ],
        "hop_counts": [r.internal_hops for r in results],
        "indirections": [r.internal_hops >= 2 for r in results],
        "dropped": [r.dropped for r in results],
        "lost": [r.reason == "fabric_loss" for r in results],
        "values": [-1 if r.value is None else r.value for r in results],
        "latencies_us": [r.latency_us for r in results],
    }


def assert_handler_split(batch):
    """The handler split is the accepted packets by accepting node, batch
    order within one."""
    order, runs = batch.handler_split
    assert [
        (node, order[start:stop].tolist()) for node, start, stop in runs
    ] == [
        (node, [i for i, r in enumerate(batch.results) if r.handled_by == node])
        for node in sorted(
            {r.handled_by for r in batch.results if not r.dropped}
        )
    ]


class TestRouteBatchColumns:
    """The columns a batch carries are the columns its results spell."""

    @pytest.fixture(scope="class")
    def clusters(self, population):
        vectorised = build_cluster(Architecture.SCALEBRICKS, population)
        hooked = build_cluster(Architecture.SCALEBRICKS, population)
        # A hook sends every transit through the per-transit fabric path.
        hooked.fabric.fault_hook = lambda src, dst, size: DELIVER
        return vectorised, hooked

    @given(
        picks=st.lists(
            st.tuples(
                st.one_of(
                    st.integers(0, NUM_FLOWS - 1),       # a known key
                    st.integers(2**62, 2**63 - 1),       # an unknown one
                ),
                st.integers(0, NUM_NODES - 1),
            ),
            min_size=1, max_size=40,
        ).map(lambda picks: picks + picks[: len(picks) // 3]),
    )
    @settings(max_examples=40, deadline=None)
    def test_columns_equal_results_on_both_paths(
        self, population, clusters, picks
    ):
        keys, _, _ = population
        probe = [
            int(keys[pick]) if pick < NUM_FLOWS else pick
            for pick, _ in picks
        ]
        ingress = [node for _, node in picks]
        batches = [
            cluster.route_batch(probe, ingress) for cluster in clusters
        ]
        assert list(batches[0]) == list(batches[1])
        for batch in batches:
            expected = columns_from_results(batch.results)
            assert set(expected) | {"results", "handler_split"} == set(
                batch.__slots__
            )
            for name, column in expected.items():
                assert getattr(batch, name).tolist() == column, name
            assert_handler_split(batch)
            assert batch.dropped.dtype == np.bool_
            assert batch.latencies_us.dtype == np.float64
            tail = batch[len(batch) // 2:]
            assert tail.values.tolist() == expected["values"][
                len(batch) // 2:
            ]
            assert_handler_split(tail)

    def test_touches_reads_detour_nodes_on_multi_hop_paths(self, population):
        keys, _, _ = population
        for arch in Architecture:
            cluster = build_cluster(arch, population)
            batch = cluster.route_batch(
                keys[:200], [i % NUM_NODES for i in range(200)]
            )
            for down in ({0}, {1, 3}, set()):
                assert batch.touches(down).tolist() == [
                    any(node in down for node in r.path) for r in batch
                ]

    @given(
        key=st.integers(0, 2**64 - 1),
        ingress=st.integers(0, 7),
        handler=st.integers(0, 7),
        latency=st.floats(0, 50, allow_nan=False),
        value=st.one_of(st.none(), st.integers(0, 2**32)),
    )
    def test_a_result_is_a_named_tuple_of_nine_fields(
        self, key, ingress, handler, latency, value
    ):
        fields = dict(
            key=key, ingress=ingress,
            path=(ingress,) if handler == ingress else (ingress, handler),
            internal_hops=int(handler != ingress), latency_us=latency,
            handled_by=None if value is None else handler, value=value,
            dropped=value is None,
            reason="unknown_key" if value is None else "handled",
        )
        by_keyword = RouteResult(**fields)
        positional = RouteResult(*fields.values())
        made_in_c = tuple.__new__(RouteResult, fields.values())
        assert RouteResult._fields == tuple(fields)
        for result in (positional, made_in_c):
            assert result == by_keyword and hash(result) == hash(by_keyword)
            assert repr(result) == repr(by_keyword) == (
                "RouteResult(" + ", ".join(
                    f"{name}={field!r}" for name, field in fields.items()
                ) + ")"
            )
        assert by_keyword._replace(reason="x") == RouteResult(
            **{**fields, "reason": "x"}
        )
        assert dataclasses.replace(by_keyword, reason="x") == (
            by_keyword._replace(reason="x")
        )
        with pytest.raises(AttributeError):
            by_keyword.key = 0
        assert by_keyword.delivered is (value is not None)
        refused = by_keyword.dropped_as("node_down")
        assert type(refused) is RouteResult and refused == RouteResult(**{
            **fields, "handled_by": None, "value": None, "dropped": True,
            "reason": "node_down",
        })
        assert not refused.delivered
        early = RouteResult.drop(key, ingress, "acl")
        assert type(early) is RouteResult and early == RouteResult(
            key=key, ingress=ingress, path=(), internal_hops=0,
            latency_us=0.0, handled_by=None, value=None, dropped=True,
            reason="acl",
        )
