"""Othello vs SetSep: the GPT backend head-to-head.

Othello hashing (arXiv:1608.05699) competes for the paper's §3.2 GPT
slot on the opposite end of SetSep's trade: ~4x the memory per value bit
(two u32 cells per key-slot instead of a fractional-bit encoding) buys
O(1)-expected incremental updates — an insert XOR-corrects one connected
component of a small block graph instead of brute-forcing a 16-key group
recompute.  This bench measures all four sides of that trade on shared
workloads: bits/key, construction time, scalar + batch lookup
throughput, and the §6.2 sustained update rate through the full owner
pipeline (:class:`repro.cluster.update.UpdateEngine`) on both backends.
"""

import time

import numpy as np
import pytest

from repro.cluster import Architecture, Cluster, UpdateEngine
from repro.core import separator as separator_registry
from repro.obs import MetricsRegistry
from repro import perflab
from benchmarks.conftest import bench_keys, bench_scale, print_header

NUM_NODES = 4
N_KEYS = 30_000 * bench_scale()


def _build(keys, nodes, backend):
    """Build one backend with cluster-sized parameters."""
    return separator_registry.build(
        keys, nodes,
        params=separator_registry.params_for_cluster(NUM_NODES, backend),
        backend=backend,
    )


@pytest.fixture(scope="module")
def workload():
    keys = bench_keys(N_KEYS, seed=90)
    nodes = (keys % np.uint64(NUM_NODES)).astype(np.uint32)
    return keys, nodes


def test_othello_vs_setsep_structure(benchmark, workload):
    """Build + query both backends on one workload; check the trade."""
    keys, nodes = workload

    def build_both():
        built = {}
        for backend in separator_registry.BACKENDS:
            started = time.perf_counter()
            sep, _stats = _build(keys, nodes, backend)
            built[backend] = (sep, time.perf_counter() - started)
        return built

    built = benchmark.pedantic(build_both, rounds=1, iterations=1)
    probe = keys[:20_000]
    expect = nodes[:20_000]
    print_header(
        f"othello vs setsep: {N_KEYS} keys -> {NUM_NODES} nodes"
    )
    print(f"  {'backend':10} {'bits/key':>9} {'build s':>9} "
          f"{'batch Mops':>11} {'correct':>8}")
    bits = {}
    for backend, (sep, build_seconds) in built.items():
        started = time.perf_counter()
        out = sep.lookup_batch(probe)
        elapsed = time.perf_counter() - started
        correct = float(np.mean(out == expect))
        bits[backend] = sep.size_bits() / N_KEYS
        print(f"  {backend:10} {bits[backend]:>9.2f} {build_seconds:>9.3f} "
              f"{len(probe) / elapsed / 1e6:>11.2f} {correct * 100:>7.1f}%")
        assert correct == 1.0
    # The memory side of the trade: Othello pays for its O(1) updates.
    assert bits["setsep"] < bits["othello"]
    benchmark.extra_info["bits_per_key"] = {
        k: round(v, 2) for k, v in bits.items()
    }


def _update_storm(backend, keys, handlers, values, n_updates, registry,
                  warmup=0):
    """Updates/s through the full owner pipeline on one backend.

    ``warmup`` further updates run untimed first, on either backend.
    """
    cluster = Cluster.build(
        Architecture.SCALEBRICKS, NUM_NODES, keys, handlers, values,
        backend=backend,
    )
    engine = UpdateEngine(cluster, registry=registry)
    for node in cluster.nodes:
        node.gpt.setsep.bind_registry(registry)

    def rehome(i):
        engine.insert_flow(
            int(keys[i]), (int(handlers[i]) + 1) % NUM_NODES, int(values[i])
        )

    for i in range(n_updates, n_updates + warmup):
        rehome(i)
    started = time.perf_counter()
    for i in range(n_updates):
        rehome(i)
    elapsed = time.perf_counter() - started
    return n_updates / elapsed, engine.stats.mean_delta_bits


def test_othello_update_rate_exceeds_setsep(workload):
    """The point of the backend: incremental updates beat recompute.

    The claim is about the sustained rate, so a warm-up pass reaches every
    block first: an Othello owner's first update to a block bootstraps the
    block's graph from its whole contents, and over ~30 blocks those
    one-off bootstraps would otherwise be most of the timed storm.
    """
    keys, nodes = workload
    handlers = nodes.astype(np.int64)
    values = np.arange(N_KEYS)
    n_updates = 400 * bench_scale()
    rates = {}
    for backend in separator_registry.BACKENDS:
        rates[backend], delta_bits = _update_storm(
            backend, keys, handlers, values, n_updates, MetricsRegistry(),
            warmup=n_updates,
        )
        print(f"  {backend:10} {rates[backend]:>12,.0f} updates/s "
              f"(mean delta {delta_bits:.0f} bits)")
    assert rates["othello"] > rates["setsep"]


# -- perf lab registration (repro.perflab; see EXPERIMENTS.md) -----------

@perflab.benchmark(
    "othello.build", figure="othello head-to-head", repeats=1
)
def perflab_othello_build(ctx):
    """Construction time + bits/key, both backends on one workload."""
    n_keys = 8_000 * ctx.scale
    keys = bench_keys(n_keys, seed=90)
    nodes = (keys % np.uint64(NUM_NODES)).astype(np.uint32)
    ctx.set_params(n_keys=n_keys, num_nodes=NUM_NODES)

    othello, _ = ctx.timeit(lambda: _build(keys, nodes, "othello"))
    started = time.perf_counter()
    setsep, _ = _build(keys, nodes, "setsep")
    setsep_seconds = time.perf_counter() - started
    ctx.record(
        othello_bits_per_key=othello.size_bits() / n_keys,
        setsep_bits_per_key=setsep.size_bits() / n_keys,
        setsep_build_seconds=setsep_seconds,
    )


@perflab.benchmark(
    "othello.lookup", figure="othello head-to-head", repeats=3
)
def perflab_othello_lookup(ctx):
    """Scalar + batch lookup throughput on both backends."""
    n_keys = 20_000 * ctx.scale
    keys = bench_keys(n_keys, seed=91)
    nodes = (keys % np.uint64(NUM_NODES)).astype(np.uint32)
    othello, _ = _build(keys, nodes, "othello")
    setsep, _ = _build(keys, nodes, "setsep")
    ctx.set_params(n_keys=n_keys, num_nodes=NUM_NODES)

    def batch_mops(sep):
        started = time.perf_counter()
        sep.lookup_batch(keys)
        return n_keys / (time.perf_counter() - started) / 1e6

    def scalar_kops(sep):
        sample = keys[:500]
        started = time.perf_counter()
        for key in sample:
            sep.lookup(int(key))
        return len(sample) / (time.perf_counter() - started) / 1e3

    ctx.timeit(lambda: othello.lookup_batch(keys))
    ctx.record(
        othello_batch_mops=batch_mops(othello),
        setsep_batch_mops=batch_mops(setsep),
        othello_scalar_kops=scalar_kops(othello),
        setsep_scalar_kops=scalar_kops(setsep),
    )


@perflab.benchmark(
    "othello.update_rate", figure="othello head-to-head", repeats=1
)
def perflab_othello_update_rate(ctx):
    """§6.2 sustained update rate, Othello vs SetSep, same storm.

    The headline number of the backend: the committed baseline shows
    ``othello_updates_per_second`` above ``setsep_updates_per_second``.
    """
    n_flows = 2_000 * ctx.scale
    n_updates = 200 * ctx.scale
    keys = bench_keys(n_flows, seed=70)
    handlers = (keys % np.uint64(NUM_NODES)).astype(np.int64)
    values = np.arange(n_flows)
    ctx.set_params(n_flows=n_flows, n_updates=n_updates)

    rates = {}

    def run():
        rates["othello"], rates["delta_bits"] = _update_storm(
            "othello", keys, handlers, values, n_updates, ctx.registry
        )

    ctx.timeit(run)
    setsep_registry = MetricsRegistry()
    rates["setsep"], _ = _update_storm(
        "setsep", keys, handlers, values, n_updates, setsep_registry
    )
    # What SetSep's side of the storm kept and searched, as exact counts.
    for name in ("setsep.incumbent_bits_kept", "setsep.bits_searched"):
        ctx.registry.counter(name).inc(setsep_registry.counter(name).value)
    ctx.record(
        othello_updates_per_second=rates["othello"],
        setsep_updates_per_second=rates["setsep"],
        othello_mean_delta_bits=rates["delta_bits"],
    )
