"""Figure 10: end-to-end latency of the six §6.2 designs.

Paper (RFC 2544, 1 M static tunnels): ScaleBricks cuts average latency by
up to 10% vs full duplication (smaller tables answer from cache) and by up
to 34% vs hash partitioning (no extra hop), for both rte_hash and the
extended cuckoo table.

Reproduced as (1) the latency model under a 15 MiB *shared* L3 (the DPE
competes for cache — the paper's own explanation of the effect), and
(2) a functional hop-count audit on a real simulated cluster.
"""

import numpy as np
import pytest

from repro.cluster import Architecture, Cluster
from repro.model.cache import XEON_E5_2697V2
from repro.model.perf import Rfc2544Bench, cuckoo_model, rte_hash_model
from repro import perflab
from benchmarks.conftest import bench_keys, bench_scale, print_header

NUM_TUNNELS = 1_000_000  # the paper's latency-test population
MIB = 1024 * 1024


def test_fig10_modelled_latency(benchmark):
    shared_cache = XEON_E5_2697V2.with_l3(15 * MIB)

    def run():
        out = {}
        for table in (rte_hash_model(), cuckoo_model()):
            bench = Rfc2544Bench(shared_cache, table)
            out[table.name] = bench.compare(NUM_TUNNELS)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header("Figure 10 (modelled): average latency, 1 M tunnels")
    print(f"  {'table':12} {'full dup':>9} {'ScaleBricks':>12} {'hash part.':>11}")
    for name, row in results.items():
        print(
            f"  {name:12} {row['full_duplication']:>8.1f}u "
            f"{row['scalebricks']:>11.1f}u {row['hash_partition']:>10.1f}u"
        )
        vs_full = 1 - row["scalebricks"] / row["full_duplication"]
        vs_hash = 1 - row["scalebricks"] / row["hash_partition"]
        print(
            f"  {'':12} ScaleBricks vs full dup: -{vs_full * 100:.1f}%   "
            f"vs hash partitioning: -{vs_hash * 100:.1f}%"
        )

    for name, row in results.items():
        # The two Figure 10 claims, per table type.
        assert row["scalebricks"] < row["full_duplication"]
        assert row["scalebricks"] < row["hash_partition"]
    cuckoo_row = results["cuckoo_hash"]
    reduction = 1 - cuckoo_row["scalebricks"] / cuckoo_row["full_duplication"]
    assert 0.02 < reduction < 0.25  # "up to 10%" territory


def test_fig10_functional_hop_audit(benchmark):
    """Latency's architectural component: hops actually taken."""
    n = 4_000 * bench_scale()
    keys = bench_keys(n, seed=50)
    handlers = (keys % np.uint64(4)).astype(np.int64)
    values = np.arange(n)

    def mean_hops(arch):
        cluster = Cluster.build(arch, 4, keys, handlers, values)
        results = cluster.route_batch(keys[:1_500])
        return float(np.mean([r.internal_hops for r in results]))

    hops = benchmark.pedantic(
        lambda: {
            arch.value: mean_hops(arch)
            for arch in (
                Architecture.FULL_DUPLICATION,
                Architecture.SCALEBRICKS,
                Architecture.HASH_PARTITION,
            )
        },
        rounds=1,
        iterations=1,
    )
    print_header("Figure 10 (functional): mean internal hops per packet")
    for name, value in hops.items():
        print(f"  {name:18}: {value:.3f}")

    # ScaleBricks matches full duplication ((N-1)/N = 0.75) and saves the
    # hash-partition detour (~1.5 at N=4).
    assert hops["scalebricks"] == pytest.approx(0.75, abs=0.08)
    assert hops["full_duplication"] == pytest.approx(0.75, abs=0.08)
    assert hops["hash_partition"] > 1.3


# -- perf lab registration (repro.perflab; see EXPERIMENTS.md) -----------

@perflab.benchmark(
    "fig10.latency_model", figure="Figure 10", repeats=3
)
def perflab_fig10(ctx):
    """RFC 2544 latency comparison on the paper's 1 M-tunnel point."""
    shared_cache = XEON_E5_2697V2.with_l3(15 * MIB)
    ctx.set_params(num_tunnels=NUM_TUNNELS)

    def run():
        out = {}
        for table in (rte_hash_model(), cuckoo_model()):
            bench = Rfc2544Bench(shared_cache, table)
            out[table.name] = bench.compare(NUM_TUNNELS)
        return out

    results = ctx.timeit(run)
    row = results["cuckoo_hash"]
    ctx.record(
        vs_full_dup_pct=100 * (1 - row["scalebricks"] / row["full_duplication"]),
        vs_hash_part_pct=100 * (1 - row["scalebricks"] / row["hash_partition"]),
    )
