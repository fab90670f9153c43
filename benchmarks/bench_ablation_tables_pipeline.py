"""Ablations: measured FIB-table lookup rates.

Complements the model-driven Figure 8: these are *measured* Python rates
for the three FIB designs on identical workloads (shape target: cuckoo >=
rte_hash >> chaining at high load).
"""

import time

import pytest

from repro.hashtables import ChainingHashTable, CuckooHashTable, RteHashTable
from repro import perflab
from benchmarks.conftest import bench_keys, bench_scale, print_header

N_KEYS = 20_000 * bench_scale()


@pytest.fixture(scope="module")
def workload():
    keys = bench_keys(N_KEYS, seed=120)
    return keys


def test_measured_fib_lookup_rates(benchmark, workload):
    keys = workload

    def build_tables():
        tables = {
            "cuckoo_hash": CuckooHashTable(capacity=N_KEYS),
            "rte_hash": RteHashTable(capacity=N_KEYS),
            # Chaining at heavy load: 8 keys per bucket on average.
            "chaining(8x)": ChainingHashTable(num_buckets=N_KEYS // 8),
        }
        for table in tables.values():
            for i, key in enumerate(keys):
                table.insert(int(key), i)
        return tables

    tables = benchmark.pedantic(build_tables, rounds=1, iterations=1)

    probe = keys[: min(5_000, N_KEYS)]
    print_header(f"Measured FIB lookup rates ({N_KEYS} entries, Python)")
    rates = {}
    for name, table in tables.items():
        started = time.perf_counter()
        if name == "cuckoo_hash":
            out = table.lookup_batch(probe)  # the vectorised fast path
        else:
            out = [table.lookup(int(k)) for k in probe]
        elapsed = time.perf_counter() - started
        rates[name] = len(probe) / elapsed
        assert all(v is not None for v in out)
        print(f"  {name:14}: {rates[name] / 1e3:9.1f} Klookups/s")

    # Shape: the chaining baseline degrades at load (the §6.2 motivation).
    assert rates["cuckoo_hash"] > rates["chaining(8x)"]
    benchmark.extra_info["rates"] = {
        k: round(v) for k, v in rates.items()
    }


# -- perf lab registration (repro.perflab; see EXPERIMENTS.md) -----------

@perflab.benchmark(
    "ablation.fib.cuckoo_lookup", figure="§5.2", repeats=3
)
def perflab_cuckoo_lookup(ctx):
    """The cuckoo FIB's vectorised batch lookup (the PFE fast path)."""
    n_keys = 5_000 * ctx.scale
    keys = bench_keys(n_keys, seed=120)
    table = CuckooHashTable(capacity=n_keys)
    for i, key in enumerate(keys):
        table.insert(int(key), i)
    probe = keys[: min(4_000, n_keys)]
    ctx.set_params(n_keys=n_keys, probe=len(probe))

    out = ctx.timeit(lambda: table.lookup_batch(probe))
    ctx.registry.counter("fib.lookups").inc(
        len(probe) * len(ctx.samples)
    )
    assert all(v is not None for v in out)
