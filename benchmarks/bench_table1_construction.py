"""Table 1: SetSep construction throughput across configurations.

Paper (64 M keys, Xeon E5-2680):

    config  value  threads  keys/s      fallback  total size  bits/key
    16+8    1-bit  1        0.54 M      0.00%     16.00 MB    2.00
    8+16    1-bit  1        2.42 M      1.15%     16.64 MB    2.08
    16+16   1-bit  1        2.47 M      0.00%     20.00 MB    2.50
    16+8    2-bit  1        0.24 M      0.00%     28.00 MB    3.50
    16+8    3-bit  1        0.18 M      0.00%     40.00 MB    5.00
    16+8    4-bit  1        0.14 M      0.00%     52.00 MB    6.50
    16+8    1-bit  2..16    0.93 -> 2.97 M        (thread scaling)

Reproduced at ``50k x REPRO_BENCH_SCALE`` keys.  Python absolute rates are
~10-50x below the paper's C; the *relative* shape is the target: 8+16
builds faster but falls back more, larger values cost proportionally more,
bits/key matches exactly, and multi-process construction scales.
"""

import os

import numpy as np
import pytest

from repro import perflab
from repro.core import SetSepParams, build
from benchmarks.conftest import bench_keys, bench_scale, print_header

N_KEYS = 50_000 * bench_scale()


def run_construction(n_keys, params, workers=1, value_bits=1, seed=10):
    """The module's measured path: one SetSep build at ``n_keys``.

    Shared by the pytest benchmarks below and the perf-lab registrations,
    so both measure the identical code path.
    """
    keys = bench_keys(n_keys, seed=seed)
    values = np.random.default_rng(11).integers(
        0, 1 << value_bits, size=n_keys
    ).astype(np.uint32)
    return build(keys, values, params, workers=workers)


@pytest.fixture(scope="module")
def population():
    keys = bench_keys(N_KEYS, seed=10)
    rng = np.random.default_rng(11)
    values = {
        bits: rng.integers(0, 1 << bits, size=N_KEYS).astype(np.uint32)
        for bits in (1, 2, 3, 4)
    }
    return keys, values


def _row(name, stats, setsep):
    bits_per_key = setsep.bits_per_key(stats.num_keys)
    print(
        f"  {name:22} {stats.keys_per_second / 1e3:8.1f} Kkeys/s   "
        f"fallback {stats.fallback_ratio * 100:6.3f}%   "
        f"size {setsep.size_bits() / 8 / 1e6:7.3f} MB   "
        f"bits/key {bits_per_key:5.2f}"
    )
    return bits_per_key


@pytest.mark.parametrize(
    "config", [(16, 8), (8, 16), (16, 16)], ids=["16+8", "8+16", "16+16"]
)
def test_construction_configs(benchmark, population, config):
    """Table 1 block 1: the x+y configuration trade-off (1-bit values)."""
    index_bits, array_bits = config
    keys, values = population
    params = SetSepParams(index_bits=index_bits, array_bits=array_bits)

    setsep, stats = benchmark.pedantic(
        lambda: build(keys, values[1], params), rounds=1, iterations=1
    )
    print_header(f"Table 1 (configs): {params.name}, 1-bit values")
    bits = _row(f"{params.name} 1-bit 1-proc", stats, setsep)
    benchmark.extra_info.update(
        keys_per_second=stats.keys_per_second,
        fallback_ratio=stats.fallback_ratio,
        bits_per_key=bits,
    )
    # Paper shape: 16+8 and 16+16 have ~0 fallback; 8+16 falls back more.
    if config == (8, 16):
        assert stats.fallback_ratio >= 0.0
    else:
        assert stats.fallback_ratio < 0.005
    assert np.array_equal(setsep.lookup_batch(keys), values[1])


@pytest.mark.parametrize("value_bits", [1, 2, 3, 4])
def test_construction_value_sizes(benchmark, population, value_bits):
    """Table 1 block 2: value size scales cost and space linearly."""
    keys, values = population
    params = SetSepParams(value_bits=value_bits)
    setsep, stats = benchmark.pedantic(
        lambda: build(keys, values[value_bits], params), rounds=1, iterations=1
    )
    print_header(f"Table 1 (value sizes): 16+8, {value_bits}-bit values")
    bits = _row(f"16+8 {value_bits}-bit 1-proc", stats, setsep)
    benchmark.extra_info.update(
        keys_per_second=stats.keys_per_second, bits_per_key=bits
    )
    # Paper: 2.0 / 3.5 / 5.0 / 6.5 bits per key (plus block rounding).
    expected = params.bits_per_key()
    assert bits == pytest.approx(expected, rel=0.12)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_construction_worker_scaling(benchmark, population, workers):
    """Table 1 block 3: construction parallelises across processes."""
    keys, values = population
    params = SetSepParams()
    _, stats = benchmark.pedantic(
        lambda: build(keys, values[1], params, workers=workers),
        rounds=1,
        iterations=1,
    )
    print_header(f"Table 1 (parallel): 16+8, 1-bit, {workers} workers")
    print(
        f"  {workers} workers: {stats.keys_per_second / 1e3:8.1f} Kkeys/s"
    )
    benchmark.extra_info.update(
        workers=workers, keys_per_second=stats.keys_per_second
    )


# -- perf lab registrations (repro.perflab; see EXPERIMENTS.md) ----------

def _construction_bench(ctx, params, workers):
    n_keys = 20_000 * ctx.scale
    ctx.set_params(
        n_keys=n_keys, config=params.name,
        value_bits=params.value_bits, workers=workers,
    )
    _, stats = ctx.timeit(
        lambda: run_construction(n_keys, params, workers=workers)
    )
    ctx.registry.counter("construction.keys").inc(stats.num_keys)
    ctx.registry.counter("construction.groups").inc(stats.num_groups)
    ctx.registry.counter("construction.fallback_keys").inc(
        stats.fallback_keys
    )
    ctx.record(
        keys_per_second=stats.keys_per_second,
        fallback_ratio=stats.fallback_ratio,
        max_group_load=stats.max_group_load,
        # More processes than cores: the row times contention, not the
        # paper's thread scaling, and must not be read as a speed-up.
        oversubscribed=workers > (os.cpu_count() or 1),
    )
    return stats


@perflab.benchmark(
    "table1.construction.16+8", figure="Table 1", repeats=2
)
def perflab_construction_16_8(ctx):
    """Table 1 headline: one 16+8 build, 1-bit values."""
    _construction_bench(ctx, SetSepParams(), workers=1)


@perflab.benchmark(
    "table1.construction.16+16", figure="Table 1", suites=("full",),
    repeats=2,
)
def perflab_construction_16_16(ctx):
    """Table 1: the fast-and-clean 16+16 configuration."""
    _construction_bench(
        ctx, SetSepParams(index_bits=16, array_bits=16), workers=1
    )


@perflab.benchmark(
    "table1.construction.workers.1", figure="Table 1", repeats=2
)
def perflab_construction_workers_1(ctx):
    """Table 1 thread scaling, serial leg (before of the before/after)."""
    _construction_bench(ctx, SetSepParams(), workers=1)


@perflab.benchmark(
    "table1.construction.workers.4", figure="Table 1", repeats=2
)
def perflab_construction_workers_4(ctx):
    """Table 1 thread scaling, 4-process leg (after of the before/after)."""
    _construction_bench(ctx, SetSepParams(), workers=4)
