"""Construction scalability: Table 1's linearity claims, measured.

§6.1.1: "The per-thread construction rate (or throughput) is nearly
constant; construction time increases linearly with the number of keys and
decreases linearly with the number of concurrent threads."  This bench
measures both axes on this implementation: key-count scaling (rate should
be flat across sizes) and worker scaling (wall time should shrink).
"""

import time

import numpy as np
import pytest

from repro.cluster import membership
from repro.cluster.architectures import Architecture
from repro.cluster.cluster import Cluster
from repro.core import SetSepParams, build
from repro import perflab
from benchmarks.conftest import bench_keys, bench_scale, print_header

SIZES = [10_000, 20_000, 40_000, 80_000]


def test_construction_linear_in_keys(benchmark):
    params = SetSepParams(value_bits=2)

    def run():
        rows = []
        for n in SIZES:
            keys = bench_keys(n * bench_scale(), seed=n)
            values = (keys % np.uint64(4)).astype(np.uint32)
            started = time.perf_counter()
            _, stats = build(keys, values, params)
            rows.append((len(keys), time.perf_counter() - started,
                         stats.keys_per_second))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("Table 1 linearity: construction rate vs key count")
    print(f"  {'keys':>10} {'seconds':>9} {'Kkeys/s':>9}")
    for n, seconds, rate in rows:
        print(f"  {n:>10,} {seconds:>9.2f} {rate / 1e3:>9.1f}")

    # Nearly-constant per-key rate: the largest/smallest rate ratio stays
    # within ~2.5x across an 8x size range (Python startup overheads make
    # tiny inputs noisy; in C the band is tighter).
    rates = [rate for _, _, rate in rows]
    assert max(rates) / min(rates) < 2.5


def test_construction_worker_speedup(benchmark):
    n = 60_000 * bench_scale()
    keys = bench_keys(n, seed=9)
    values = (keys % np.uint64(2)).astype(np.uint32)
    params = SetSepParams()

    def timed(workers):
        started = time.perf_counter()
        build(keys, values, params, workers=workers)
        return time.perf_counter() - started

    serial = benchmark.pedantic(lambda: timed(1), rounds=1, iterations=1)
    quad = timed(4)
    print_header("Table 1 linearity: multi-process construction")
    print(f"  1 worker : {serial:6.2f}s")
    print(f"  4 workers: {quad:6.2f}s ({serial / quad:.2f}x speedup)")
    # Process startup costs bound the speedup at this scale; it must at
    # least not regress and should show real parallelism at scale >= 1.
    assert quad < serial * 1.2


# -- perf lab registration (repro.perflab; see EXPERIMENTS.md) -----------

@perflab.benchmark(
    "construction.rate_linearity", figure="Table 1 linearity",
    suites=("full",), repeats=1,
)
def perflab_rate_linearity(ctx):
    """Construction rate across a 4x key-count range (should stay flat)."""
    sizes = [10_000 * ctx.scale, 20_000 * ctx.scale, 40_000 * ctx.scale]
    params = SetSepParams(value_bits=2)
    ctx.set_params(sizes=",".join(str(s) for s in sizes))

    def run():
        rates = []
        for n in sizes:
            keys = bench_keys(n, seed=n)
            values = (keys % np.uint64(4)).astype(np.uint32)
            _, stats = build(keys, values, params)
            rates.append(stats.keys_per_second)
        return rates

    rates = ctx.timeit(run)
    ctx.registry.counter("construction.total_keys").inc(sum(sizes))
    ctx.record(
        rate_spread=max(rates) / min(rates),
        slowest_keys_per_second=min(rates),
    )


BUILD_COST_FLOWS = 20_000
BUILD_COST_NODES = 4


@perflab.benchmark("cluster.build_cost", figure="§6.3", repeats=3)
def perflab_cluster_build_cost(ctx):
    """Cost per flow of ``Cluster.build`` and of ``membership.resize``.

    A ScaleBricks cluster of 20,000 flows on 4 nodes is built, then
    resized to 5 (one more GPT value bit, so a full rebuild).  The counts
    of both clusters repeat exactly per checkout and CI gates them
    (``repro.perflab.gates.build_cost_gate``): RIB entries, each node's
    FIB entries, cuckoo relocations and GPT fallback keys.  The
    population is fixed, not scaled, so the gated counts hold at any
    ``--scale``; the times are warn-only.
    """
    keys = bench_keys(BUILD_COST_FLOWS, seed=36)
    rng = np.random.default_rng(36)
    nodes = rng.integers(0, BUILD_COST_NODES, BUILD_COST_FLOWS).tolist()
    values = rng.integers(1, 2**32, BUILD_COST_FLOWS).tolist()
    resized_to = BUILD_COST_NODES + 1
    ctx.set_params(
        flows=BUILD_COST_FLOWS, nodes=BUILD_COST_NODES, resized_to=resized_to
    )
    seconds = {"build": [], "resize": []}

    def run():
        started = time.perf_counter()
        cluster = Cluster.build(
            Architecture.SCALEBRICKS, BUILD_COST_NODES, keys, nodes, values
        )
        built = time.perf_counter()
        resized, _ = membership.resize(cluster, resized_to)
        seconds["build"].append(built - started)
        seconds["resize"].append(time.perf_counter() - built)
        return {"build": cluster, "resize": resized}

    clusters = ctx.timeit(run)
    for stage, cluster in clusters.items():
        prefix = f"cluster.build_cost.{stage}"
        counter = ctx.registry.counter
        counter(f"{prefix}.rib_entries").inc(len(cluster.rib))
        for node in cluster.nodes:
            counter(f"{prefix}.fib_entries.node{node.node_id}").inc(
                len(node.fib)
            )
        counter(f"{prefix}.relocations").inc(
            sum(node.fib.relocations for node in cluster.nodes)
        )
        counter(f"{prefix}.gpt_fallback_keys").inc(
            len(cluster.nodes[0].gpt.setsep.fallback)
        )
    ctx.record(**{
        f"{stage}_us_per_flow": min(times) / BUILD_COST_FLOWS * 1e6
        for stage, times in seconds.items()
    })
