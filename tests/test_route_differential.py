"""``Cluster.route_batch`` against a per-key walker of Figure 2's routes.

The walker below is the per-packet routing the cluster had before every
architecture went through ``route_batch``: one packet at a time, one
fabric transit at a time, in path order.  Its only change is that a lost
transit ends the packet as a ``fabric_loss`` drop where the packet was
(the fabric reports losses in ``deliver_batch``'s mask, never raises).

Batches of one must equal the walker in every case: each
``RouteResult``, every node counter and every ``FabricStats`` field, for
all four architectures, on the crossbar and the fat tree, healthy, under
a drop-budget fault hook, and with a downed link.  A full batch takes its
transits leg by leg, so it must equal the walker wherever transit order
cannot matter: single-leg architectures, and any architecture on a
crossbar with no hook.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from repro import fabric as fabric_registry
from repro.cluster import Architecture, Cluster
from repro.cluster.cluster import RouteResult
from repro.cluster.node import NODE_BITS
from repro.core import hashfamily
from repro.fabric import DELIVER, DROP
from tests.conftest import deliver, unique_keys

NUM_NODES = 6
NUM_FLOWS = 600

CONDITIONS = ("healthy", "drop_budget", "link_down")


class Walker:
    """Per-packet routing of one cluster (the reference)."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self.nodes = cluster.nodes
        self.fabric = cluster.fabric

    def route(self, key, ingress: int, size: int = 64) -> RouteResult:
        ckey = hashfamily.canonical_key(key)
        arch = self.cluster.architecture
        if arch is Architecture.SCALEBRICKS:
            return self._scalebricks(ckey, ingress, size)
        if arch is Architecture.HASH_PARTITION:
            return self._hash_partition(ckey, ingress, size)
        if arch is Architecture.ROUTEBRICKS_VLB:
            return self._vlb(ckey, ingress, size)
        return self._full_duplication(ckey, ingress, size)

    def _lookup(self, node_id: int, ckey: int):
        """The node's exact FIB entry as ``(handler, value)``, or
        ``None``; counts a lookup, and a miss."""
        node = self.nodes[node_id]
        node.counters.fib_lookups += 1
        entry = node.fib.lookup(ckey)
        if entry is None:
            node.counters.fib_misses += 1
            return None
        if self.cluster.architecture is Architecture.SCALEBRICKS:
            return node_id, entry
        return entry & ((1 << NODE_BITS) - 1), entry >> NODE_BITS

    @staticmethod
    def _refused(ckey, ingress, reason, path, latency=0.0) -> RouteResult:
        """A packet dropped where ``path`` ends."""
        return RouteResult(
            key=ckey, ingress=ingress, path=tuple(path),
            internal_hops=len(path) - 1, latency_us=latency,
            handled_by=None, value=None, dropped=True, reason=reason,
        )

    def _lost(self, ckey, ingress, path, latency) -> RouteResult:
        return self._refused(ckey, ingress, "fabric_loss", path, latency)

    def _finish(self, ckey, ingress, path, latency, handler) -> RouteResult:
        node = self.nodes[handler]
        found = self._lookup(handler, ckey)
        if found is None:
            node.counters.dropped += 1
        else:
            node.counters.handled += 1
        dropped = found is None
        return RouteResult(
            key=ckey, ingress=ingress, path=tuple(path),
            internal_hops=len(path) - 1, latency_us=latency,
            handled_by=None if dropped else handler,
            value=None if dropped else found[1], dropped=dropped,
            reason="unknown_key" if dropped else "handled",
        )

    def _full_duplication(self, ckey, ingress, size) -> RouteResult:
        node = self.nodes[ingress]
        node.counters.external_rx += 1
        found = self._lookup(ingress, ckey)
        if found is None:
            node.counters.dropped += 1
            return self._refused(ckey, ingress, "unknown_at_ingress", [ingress])
        handler, _ = found
        latency = deliver(self.fabric, ingress, handler, size)
        if latency is None:
            return self._lost(ckey, ingress, [ingress], 0.0)
        path = [ingress] if handler == ingress else [ingress, handler]
        if handler != ingress:
            self.nodes[handler].counters.internal_rx += 1
            node.counters.forwarded += 1
        return self._finish(ckey, ingress, path, latency, handler)

    def _vlb(self, ckey, ingress, size) -> RouteResult:
        node = self.nodes[ingress]
        node.counters.external_rx += 1
        found = self._lookup(ingress, ckey)
        if found is None:
            node.counters.dropped += 1
            return self._refused(ckey, ingress, "unknown_at_ingress", [ingress])
        handler, _ = found
        path = [ingress]
        latency = 0.0
        if handler != ingress:
            indirect = int(self.fabric.pick_indirect([ingress], [handler])[0])
            leg = deliver(self.fabric, ingress, indirect, size)
            if leg is None:
                return self._lost(ckey, ingress, path, latency)
            latency += leg
            self.nodes[indirect].counters.internal_rx += 1
            self.nodes[indirect].counters.forwarded += 1
            path.append(indirect)
            leg = deliver(self.fabric, indirect, handler, size)
            if leg is None:
                return self._lost(ckey, ingress, path, latency)
            latency += leg
            self.nodes[handler].counters.internal_rx += 1
            node.counters.forwarded += 1
            path.append(handler)
        return self._finish(ckey, ingress, path, latency, handler)

    def _hash_partition(self, ckey, ingress, size) -> RouteResult:
        node = self.nodes[ingress]
        node.counters.external_rx += 1
        lookup_node_id = self.cluster.lookup_node_of(ckey)
        path = [ingress]
        latency = 0.0
        if lookup_node_id != ingress:
            leg = deliver(self.fabric, ingress, lookup_node_id, size)
            if leg is None:
                return self._lost(ckey, ingress, path, latency)
            latency += leg
            self.nodes[lookup_node_id].counters.internal_rx += 1
            node.counters.forwarded += 1
            path.append(lookup_node_id)
        lookup_node = self.nodes[lookup_node_id]
        found = self._lookup(lookup_node_id, ckey)
        if found is None:
            lookup_node.counters.dropped += 1
            return self._refused(
                ckey, ingress, "unknown_at_lookup_node", path, latency
            )
        handler, _ = found
        if handler != lookup_node_id:
            leg = deliver(self.fabric, lookup_node_id, handler, size)
            if leg is None:
                return self._lost(ckey, ingress, path, latency)
            latency += leg
            self.nodes[handler].counters.internal_rx += 1
            lookup_node.counters.forwarded += 1
            path.append(handler)
        return self._finish(ckey, ingress, path, latency, handler)

    def _scalebricks(self, ckey, ingress, size) -> RouteResult:
        node = self.nodes[ingress]
        node.counters.external_rx += 1
        node.counters.gpt_lookups += 1
        handler = node.gpt.lookup(ckey)
        path = [ingress]
        latency = 0.0
        if handler != ingress:
            latency = deliver(self.fabric, ingress, handler, size)
            if latency is None:
                return self._lost(ckey, ingress, path, 0.0)
            self.nodes[handler].counters.internal_rx += 1
            node.counters.forwarded += 1
            path.append(handler)
        return self._finish(ckey, ingress, path, latency, handler)


@pytest.fixture(scope="module")
def population():
    keys = unique_keys(NUM_FLOWS, seed=61)
    handlers = np.random.default_rng(62).integers(NUM_NODES, size=NUM_FLOWS)
    values = np.arange(NUM_FLOWS) * 7 + 3
    unknown = unique_keys(40, seed=63, low=2**62, high=2**63)
    probe = np.concatenate([keys[:200], unknown])
    np.random.default_rng(64).shuffle(probe)
    ingress = np.random.default_rng(65).integers(NUM_NODES, size=probe.size)
    return keys, handlers, values, probe, ingress


def drop_budget_hook(every: int = 4):
    """Drop every ``every``-th transit the hook is asked about."""
    turn = itertools.count(1)
    return lambda src, dst, size: DROP if next(turn) % every == 0 else DELIVER


def build(arch, backend, condition, population):
    keys, handlers, values, _, _ = population
    options = {"window": 32} if backend == "fattree" else {}
    fabric = fabric_registry.create(NUM_NODES, backend, **options)
    cluster = Cluster.build(
        arch, NUM_NODES, keys, handlers, values, fabric=fabric
    )
    if condition == "drop_budget":
        fabric.fault_hook = drop_budget_hook()
    elif condition == "link_down":
        # An edge link (no alternate) and, on the fat tree, a trunk that
        # reroutes.
        fabric.fail_link((1, 4) if backend == "crossbar" else ("up", 1))
        if backend == "fattree":
            fabric.fail_link(fabric.pick_fault_link(np.random.default_rng(2)))
    return cluster


def state(cluster):
    return (
        [dataclasses.asdict(node.counters) for node in cluster.nodes],
        dataclasses.asdict(cluster.fabric.stats),
    )


def walked(arch, backend, condition, population):
    _, _, _, probe, ingress = population
    cluster = build(arch, backend, condition, population)
    walker = Walker(cluster)
    results = [
        walker.route(key, node)
        for key, node in zip(probe.tolist(), ingress.tolist())
    ]
    return results, state(cluster)


@pytest.mark.parametrize("condition", CONDITIONS)
@pytest.mark.parametrize("backend", fabric_registry.BACKENDS)
@pytest.mark.parametrize("arch", list(Architecture), ids=lambda a: a.value)
def test_batches_of_one_equal_the_walker(arch, backend, condition, population):
    _, _, _, probe, ingress = population
    expected, expected_state = walked(arch, backend, condition, population)
    cluster = build(arch, backend, condition, population)
    got = [
        cluster.route_batch([key], [node])[0]
        for key, node in zip(probe.tolist(), ingress.tolist())
    ]
    assert got == expected
    assert state(cluster) == expected_state
    reasons = {result.reason for result in got}
    assert {"handled"} < reasons
    assert ("fabric_loss" in reasons) == (condition != "healthy")
    assert cluster.fabric.verify_accounting()


def order_free(arch, backend, condition):
    """Whether a whole batch must equal the walker: one leg per packet,
    or a crossbar that no hook consults."""
    return arch in (Architecture.SCALEBRICKS, Architecture.FULL_DUPLICATION) \
        or (backend == "crossbar" and condition != "drop_budget")


CASES = [
    case for case in itertools.product(
        Architecture, fabric_registry.BACKENDS, CONDITIONS
    )
    if order_free(*case)
]


@pytest.mark.parametrize(
    "arch, backend, condition", CASES,
    ids=["-".join((a.value, b, c)) for a, b, c in CASES],
)
def test_a_whole_batch_equals_the_walker_where_order_is_free(
    arch, backend, condition, population
):
    _, _, _, probe, ingress = population
    expected, expected_state = walked(arch, backend, condition, population)
    cluster = build(arch, backend, condition, population)
    batch = cluster.route_batch(probe, ingress)
    assert list(batch) == expected
    assert state(cluster) == expected_state
    assert batch.lost.tolist() == [
        result.reason == "fabric_loss" for result in expected
    ]
    assert batch.touches({2}).tolist() == [
        2 in result.path for result in expected
    ]


@pytest.mark.parametrize(
    "arch", [Architecture.ROUTEBRICKS_VLB, Architecture.HASH_PARTITION],
    ids=lambda a: a.value,
)
def test_a_batch_on_a_sixteen_node_fat_tree_equals_the_walker(arch):
    """Two-hop paths and drops over 16 nodes, made by one batch: each
    result equals the walker's field for field and type for type, and a
    drop has no handler and no value.  No link reaches its capacity, so
    no latency depends on transit order."""
    nodes = 16
    keys = unique_keys(NUM_FLOWS, seed=71)
    handlers = np.random.default_rng(72).integers(nodes, size=NUM_FLOWS)
    values = np.arange(NUM_FLOWS) * 5 + 1
    probe = np.concatenate([
        keys[:300], unique_keys(60, seed=73, low=2**62, high=2**63)
    ])
    np.random.default_rng(74).shuffle(probe)
    ingress = np.random.default_rng(75).integers(nodes, size=probe.size)

    def build_16():
        fabric = fabric_registry.create(nodes, "fattree", edge_capacity=10**6)
        return Cluster.build(arch, nodes, keys, handlers, values, fabric=fabric)

    reference = build_16()
    walker = Walker(reference)
    expected = [
        walker.route(key, node)
        for key, node in zip(probe.tolist(), ingress.tolist())
    ]
    cluster = build_16()
    batch = cluster.route_batch(probe, ingress)
    assert list(batch) == expected
    assert [tuple(map(type, result)) for result in batch] == [
        tuple(map(type, result)) for result in expected
    ]
    assert state(cluster) == state(reference)
    assert any(len(result.path) == 3 for result in batch)
    drops = [result for result in batch if result.dropped]
    assert drops and all(
        result.handled_by is None and result.value is None
        and not result.delivered for result in drops
    )
    assert {result.reason for result in batch} == {
        "handled", "unknown_at_ingress" if arch is Architecture.ROUTEBRICKS_VLB
        else "unknown_at_lookup_node",
    }
