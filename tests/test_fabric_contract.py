"""One contract over every fabric topology in ``repro.fabric.BACKENDS``.

Whatever a topology supplies (its route, link set and ingress cost), the
base class decides the rest, and every topology must keep these promises:
a ``deliver_batch`` equals the same packets delivered one batch of one at
a time — in latencies, in which transits are lost and in every
``FabricStats`` field — under a fault hook that cycles through all four
verdicts and with one failed and one degraded link; the accounting
balances; bad batches are refused before anything moves; VLB indirect
picks replay from the seed.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from repro import fabric as fabric_registry
from repro.fabric import (
    DELAY,
    DELIVER,
    DROP,
    DUPLICATE,
    BACKENDS,
    Fabric,
)
from tests.conftest import deliver

NUM_NODES = 8

#: A small fat-tree window so capacity queueing (order-dependent latency)
#: is part of what batch and scalar delivery must agree on.
OPTIONS = {"crossbar": {}, "fattree": {"window": 64}}

#: The first link of the ``1 -> 3`` transit on each topology.
FIRST_LINK = {"crossbar": (1, 3), "fattree": ("up", 1)}


def make(backend, seed=5):
    return fabric_registry.create(
        NUM_NODES, backend, seed=seed, **OPTIONS[backend]
    )


def cycling_hook(verdicts=(DELIVER, DUPLICATE, DELAY, DROP)):
    """A scripted fault hook: the verdicts in turn, one per transit."""
    turn = itertools.cycle(verdicts)
    return lambda src, dst, size: next(turn)


def faulted(backend):
    """A fabric under the cycling hook with one failed, one degraded link."""
    fabric = make(backend)
    failed = fabric.pick_fault_link(np.random.default_rng(1))
    degraded = fabric.links()[-1]
    assert failed != degraded
    fabric.fail_link(failed)
    fabric.degrade_link(degraded, factor=3.0)
    fabric.fault_hook = cycling_hook()
    return fabric


def traffic(count=400, seed=11):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(NUM_NODES, size=count),
        rng.integers(NUM_NODES, size=count),
    )


def deliver_each(fabric, srcs, dsts, size):
    """Per-packet delivery: a latency per packet, ``None`` where lost."""
    return [
        deliver(fabric, s, d, size)
        for s, d in zip(srcs.tolist(), dsts.tolist())
    ]


@pytest.mark.parametrize("backend", BACKENDS)
class TestFabricContract:
    def test_registry_builds_a_fabric(self, backend):
        fabric = make(backend)
        assert isinstance(fabric, Fabric)
        assert fabric.backend == backend
        assert fabric_registry.backend_of(fabric) == backend

    @pytest.mark.parametrize("faults", [False, True])
    def test_batch_is_scalar_elementwise(self, backend, faults):
        srcs, dsts = traffic()
        scalar = faulted(backend) if faults else make(backend)
        batch = faulted(backend) if faults else make(backend)
        expected = deliver_each(scalar, srcs, dsts, 80)
        losses = [i for i, lat in enumerate(expected) if lat is None]
        assert bool(losses) == faults
        # One batch: a loss is a row of the mask, never an exception, and
        # every packet after it is still delivered.
        latencies, lost = batch.deliver_batch(srcs, dsts, 80)
        assert np.flatnonzero(lost).tolist() == losses
        np.testing.assert_array_equal(
            latencies, [0.0 if lat is None else lat for lat in expected]
        )
        assert dataclasses.asdict(batch.stats) == dataclasses.asdict(
            scalar.stats
        )
        stats = batch.stats
        if faults:
            assert stats.duplicated and stats.delayed and stats.degraded
            assert stats.dropped == len(losses)
        assert batch.verify_accounting() and scalar.verify_accounting()

    def test_duplicate_over_degraded_link_counts_each_copy(self, backend):
        fabric = make(backend)
        fabric.degrade_link(FIRST_LINK[backend])
        fabric.fault_hook = cycling_hook((DUPLICATE,))
        deliver(fabric, 1, 3)
        assert fabric.stats.duplicated == 1
        assert fabric.stats.degraded == 2
        assert fabric.stats.packets == 2
        assert fabric.verify_accounting()

    def test_delay_scales_latency(self, backend):
        healthy = deliver(make(backend), 1, 3)
        fabric = make(backend)
        fabric.fault_hook = cycling_hook((DELAY,))
        assert deliver(fabric, 1, 3) == healthy * fabric_registry.DELAY_FACTOR
        assert fabric.stats.delayed == 1

    def test_drop_counts_and_records_nothing(self, backend):
        fabric = make(backend)
        fabric.fault_hook = cycling_hook((DROP,))
        assert deliver(fabric, 1, 3) is None
        assert fabric.stats.dropped == 1
        assert fabric.stats.packets == fabric.stats.link_crossings == 0

    def test_self_delivery_is_free(self, backend):
        fabric = make(backend)
        fabric.fault_hook = cycling_hook((DROP,))
        assert deliver(fabric, 2, 2) == 0.0
        latencies, lost = fabric.deliver_batch([2, 4], [2, 4])
        assert latencies.tolist() == [0.0, 0.0]
        assert lost.tolist() == [False, False]
        assert dataclasses.asdict(fabric.stats) == dataclasses.asdict(
            make(backend).stats
        )

    def test_bad_batches_refused_before_anything_moves(self, backend):
        fabric = make(backend)
        with pytest.raises(ValueError, match="equal length"):
            fabric.deliver_batch(np.array([0, 1, 2]), np.array([1, 2]))
        with pytest.raises(ValueError, match="node 9 not attached"):
            fabric.deliver_batch(np.array([0, 9]), np.array([1, 2]))
        with pytest.raises(ValueError, match="node -1 not attached"):
            fabric.deliver_batch(np.array([0, 1]), np.array([1, -1]))
        with pytest.raises(ValueError, match="not attached"):
            deliver(fabric, 0, NUM_NODES)
        assert fabric.stats.packets == 0
        latencies, lost = fabric.deliver_batch(np.array([]), np.array([]))
        assert latencies.size == lost.size == 0
        with pytest.raises(ValueError):
            fabric_registry.create(0, backend)

    def test_heal_restores_the_healthy_fabric(self, backend):
        fabric = faulted(backend)
        fabric.fault_hook = None
        assert fabric.has_link_faults()
        fabric.heal_links()
        assert not fabric.has_link_faults()
        assert fabric.down_links() == ()
        srcs, dsts = traffic(seed=3)
        np.testing.assert_array_equal(
            fabric.deliver_batch(srcs, dsts)[0],
            make(backend).deliver_batch(srcs, dsts)[0],
        )

    def test_reset_stats_keeps_fault_state(self, backend):
        fabric = faulted(backend)
        deliver_each(fabric, *traffic(), 64)
        fabric.reset_stats()
        assert dataclasses.asdict(fabric.stats) == dataclasses.asdict(
            make(backend).stats
        )
        assert fabric.has_link_faults()

    def test_pick_indirect_is_seed_deterministic(self, backend):
        pairs = [(i % NUM_NODES, (i + 3) % NUM_NODES) for i in range(64)]

        def picks(seed):
            fabric = make(backend, seed=seed)
            return [int(fabric.pick_indirect([s], [d])[0]) for s, d in pairs]

        assert picks(123) == picks(123)
        assert picks(124) != picks(123)
        assert all(m not in pair for m, pair in zip(picks(123), pairs))
        # One column draw is the per-pair draws, in order.
        srcs, dsts = np.array(pairs).T
        assert make(backend, seed=123).pick_indirect(
            srcs, dsts
        ).tolist() == picks(123)
        two = fabric_registry.create(2, backend)
        assert two.pick_indirect([0], [1]).tolist() == [1]  # go direct

    def test_pick_fault_link_is_seeded_and_real(self, backend):
        fabric = make(backend)
        links = fabric.links()
        assert len(set(links)) == len(links)
        for seed in range(10):
            link = fabric.pick_fault_link(np.random.default_rng(seed))
            assert link == fabric.pick_fault_link(
                np.random.default_rng(seed)
            )
            assert link in links


def test_fabric_package_imports_nothing_from_the_cluster():
    """``repro.cluster`` imports ``repro.fabric``, never the reverse: the
    interconnect knows nothing of the nodes routed over it."""
    import ast
    import pathlib

    package = pathlib.Path(fabric_registry.__file__).parent
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            assert not any(n.startswith("repro.cluster") for n in names), path


@pytest.mark.parametrize("batch_size", [1, 8, 64, 400])
def test_crossbar_batch_link_stats_are_per_packet_deliver_in_link_order(
    batch_size,
):
    """The crossbar accounts a lossless batch with one count per link:
    its per-link map, key order included, is what batches of one leave
    after taking each batch's packets in ``(src, dst)`` order (in input
    order, they record a link at its first packet)."""
    srcs, dsts = traffic()
    batch, scalar = make("crossbar"), make("crossbar")
    for start in range(0, len(srcs), batch_size):
        rows = slice(start, start + batch_size)
        batch.deliver_batch(srcs[rows], dsts[rows], 80)
        for src, dst in sorted(zip(srcs[rows].tolist(), dsts[rows].tolist())):
            deliver(scalar, src, dst, 80)
        assert list(batch.stats.per_link_packets.items()) == list(
            scalar.stats.per_link_packets.items()
        )
    assert len(batch.stats.per_link_packets) == NUM_NODES * (NUM_NODES - 1)
    assert dataclasses.asdict(batch.stats) == dataclasses.asdict(scalar.stats)


@pytest.mark.parametrize("backend", BACKENDS)
def test_routed_batch_leaves_plain_int_stats_and_a_json_snapshot(backend):
    """After a ``route_batch`` every ``FabricStats`` counter is a Python
    ``int`` (a NumPy scalar there breaks ``json.dumps`` of the synced
    ``fabric.*`` gauges, and so ``repro stats --json``)."""
    import json

    from repro.cluster.architectures import Architecture
    from repro.cluster.cluster import Cluster
    from repro.obs.metrics import MetricsRegistry

    rng = np.random.default_rng(3)
    keys = rng.choice(1 << 40, size=200, replace=False).astype(np.uint64)
    cluster = Cluster.build(
        Architecture.SCALEBRICKS, NUM_NODES, keys,
        rng.integers(NUM_NODES, size=keys.size).tolist(),
        list(range(1, keys.size + 1)), fabric_backend=backend,
        registry=MetricsRegistry(),
    )
    batch = cluster.route_batch(keys, rng.integers(NUM_NODES, size=keys.size))
    assert not batch.dropped.any()
    stats = cluster.fabric.stats
    assert stats.packets > 0
    for name in (f.name for f in dataclasses.fields(stats)):
        value = getattr(stats, name)
        if name == "per_link_packets":
            assert all(type(c) is int for c in value.values()), name
        else:
            assert type(value) is int, (name, type(value))
    cluster.sync_fabric_gauges()
    snapshot = json.loads(json.dumps(cluster.registry.snapshot()))
    assert snapshot["gauges"]["fabric.packets"] == stats.packets
