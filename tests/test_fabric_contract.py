"""One contract over every fabric topology in ``repro.fabric.BACKENDS``.

Whatever a topology supplies (its route, link set and ingress cost), the
base class decides the rest, and every topology must keep these promises:
``deliver_batch`` is ``deliver`` element-wise — in latencies, in where a
``FabricLoss`` is raised and in every ``FabricStats`` field — under a
fault hook that cycles through all four verdicts and with one failed and
one degraded link; the accounting balances; bad batches are refused
before anything moves; VLB indirect picks replay from the seed.
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
    FabricLoss,
)

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
    out = []
    for s, d in zip(srcs.tolist(), dsts.tolist()):
        try:
            out.append(fabric.deliver(s, d, size))
        except FabricLoss:
            out.append(None)
    return out


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
        # Batch up to each loss, then the lost packet alone: it must
        # raise exactly there, having delivered everything before it.
        start = 0
        for stop in losses + [len(srcs)]:
            got = batch.deliver_batch(srcs[start:stop], dsts[start:stop], 80)
            np.testing.assert_array_equal(got, expected[start:stop])
            if stop < len(srcs):
                with pytest.raises(FabricLoss) as lost:
                    batch.deliver_batch(srcs[stop:stop + 1],
                                        dsts[stop:stop + 1], 80)
                assert (lost.value.src, lost.value.dst) == (
                    srcs[stop], dsts[stop]
                )
            start = stop + 1
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
        fabric.deliver(1, 3)
        assert fabric.stats.duplicated == 1
        assert fabric.stats.degraded == 2
        assert fabric.stats.packets == 2
        assert fabric.verify_accounting()

    def test_delay_scales_latency(self, backend):
        healthy = make(backend).deliver(1, 3)
        fabric = make(backend)
        fabric.fault_hook = cycling_hook((DELAY,))
        assert fabric.deliver(1, 3) == healthy * fabric_registry.DELAY_FACTOR
        assert fabric.stats.delayed == 1

    def test_drop_counts_and_records_nothing(self, backend):
        fabric = make(backend)
        fabric.fault_hook = cycling_hook((DROP,))
        with pytest.raises(FabricLoss):
            fabric.deliver(1, 3)
        assert fabric.stats.dropped == 1
        assert fabric.stats.packets == fabric.stats.link_crossings == 0

    def test_self_delivery_is_free(self, backend):
        fabric = make(backend)
        fabric.fault_hook = cycling_hook((DROP,))
        assert fabric.deliver(2, 2) == 0.0
        assert fabric.deliver_batch([2, 4], [2, 4]).tolist() == [0.0, 0.0]
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
            fabric.deliver(0, NUM_NODES)
        assert fabric.stats.packets == 0
        assert fabric.deliver_batch(np.array([]), np.array([])).size == 0
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
            fabric.deliver_batch(srcs, dsts),
            make(backend).deliver_batch(srcs, dsts),
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
            return [fabric.pick_indirect(s, d) for s, d in pairs]

        assert picks(123) == picks(123)
        assert picks(124) != picks(123)
        assert all(m not in pair for m, pair in zip(picks(123), pairs))
        two = fabric_registry.create(2, backend)
        assert two.pick_indirect(0, 1) == 1  # degenerate VLB: go direct

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
