"""Figure 7: SetSep (GPT) local lookup throughput vs size and batching.

Paper (16 threads, Xeon E5-2680, 2-bit values): ~520 Mops at 64 M entries
with batch 17; batching stops helping past ~17; small structures (500 K)
are fastest *without* batching; throughput drops sharply between 32 M and
64 M entries when the structure outgrows the 20 MiB L3.

Two reproductions:

1. *Measured*: this implementation's actual batched ``lookup_batch``
   rate at reproduction scale (NumPy, single process — absolute Mops are
   far below C+DPDK, reported for transparency).
2. *Modelled*: the calibrated cache model projected onto the paper's key
   counts and batch sizes, which regenerates the figure's shape.
"""

import time

import numpy as np
import pytest

from repro.core import SetSepParams, build, hashfamily
from repro.gpt.gpt import GlobalPartitionTable
from repro.hashtables import CuckooHashTable
from repro.model.cache import XEON_E5_2680
from repro.model.perf import SetSepLookupModel
from repro.obs import MetricsRegistry, span_histogram_name
from repro import perflab
from benchmarks.conftest import bench_keys, bench_scale, print_header

MEASURE_KEYS = 200_000 * bench_scale()
PAPER_SIZES = [500_000, 1_000_000, 2_000_000, 4_000_000, 8_000_000,
               16_000_000, 32_000_000, 64_000_000]
BATCHES = [1, 2, 3, 9, 17, 32]


@pytest.fixture(scope="module")
def built():
    keys = bench_keys(MEASURE_KEYS, seed=30)
    values = (keys % np.uint64(4)).astype(np.uint32)
    setsep, _ = build(keys, values, SetSepParams(value_bits=2))
    return setsep, keys


def test_fig7_measured_lookup_rate(benchmark, built):
    """Measured batched lookup throughput, read from the metrics registry.

    The structure is bound to a live registry and each timed round runs
    under a ``fig7_lookup`` span, so throughput comes out of the registry
    itself: keys looked up (``setsep.lookups``) over the span histogram's
    total microseconds — keys/us is Mops by construction.
    """
    setsep, keys = built
    probe = keys[:100_000]
    registry = MetricsRegistry()
    setsep.bind_registry(registry)
    lookups = registry.counter("setsep.lookups")

    def probe_once():
        with registry.span("fig7_lookup"):
            return setsep.lookup_batch(probe)

    try:
        result = benchmark(probe_once)
    finally:
        setsep.bind_registry(None)
    # The fused broadcast gather must agree with one-key-at-a-time reads.
    assert list(result[:256]) == [setsep.lookup(int(k)) for k in probe[:256]]
    span_us = registry.histogram(span_histogram_name("fig7_lookup"))
    mops = lookups.value / span_us.sum
    print_header(
        f"Figure 7 (measured): SetSep lookup, {MEASURE_KEYS} entries, "
        "vectorised batch"
    )
    print(f"  measured: {mops:8.2f} Mops (single Python process, "
          f"{span_us.count} timed rounds)")
    benchmark.extra_info["measured_mops"] = round(mops, 2)
    assert lookups.value == span_us.count * len(probe)
    assert len(result) == len(probe)


def test_fig7_modelled_shape(benchmark):
    """The figure's shape on the paper's machine, from the cache model."""
    model = SetSepLookupModel(XEON_E5_2680, value_bits=2, threads=16)
    rows = benchmark.pedantic(
        lambda: [
            (n, [model.throughput_mops(n, b) for b in BATCHES])
            for n in PAPER_SIZES
        ],
        rounds=1,
        iterations=1,
    )
    print_header("Figure 7 (modelled): Mops vs #entries x batch size")
    print(f"  {'entries':>12} " + " ".join(f"b={b:<3}" for b in BATCHES))
    for n, series in rows:
        print(f"  {n:>12,} " + " ".join(f"{v:5.0f}" for v in series))

    by_size = dict(rows)
    # Small structures: batching does not help (batch 1 beats batch 17).
    assert by_size[500_000][0] > by_size[500_000][BATCHES.index(17)]
    # Large structures: batching is a big win.
    assert by_size[64_000_000][BATCHES.index(17)] > \
        2 * by_size[64_000_000][0]
    # The 32 M -> 64 M cliff (structure exceeds the 20 MiB L3).
    assert by_size[64_000_000][BATCHES.index(17)] < \
        by_size[32_000_000][BATCHES.index(17)]
    # Batch sizes beyond 17 stop helping (paper: "larger than 17 do not
    # further improve performance").
    assert by_size[64_000_000][BATCHES.index(32)] <= \
        by_size[64_000_000][BATCHES.index(17)] * 1.05
    # Magnitudes land near the paper's ~520 Mops at 64 M / batch 17.
    assert 300 < by_size[64_000_000][BATCHES.index(17)] < 800


# -- perf lab registration (repro.perflab; see EXPERIMENTS.md) -----------

@perflab.benchmark(
    "fig7.lookup_batch", figure="Figure 7", repeats=5
)
def perflab_fig7(ctx):
    """Measured vectorised SetSep lookups; ops come from the obs registry."""
    n_keys = 50_000 * ctx.scale
    keys = bench_keys(n_keys, seed=30)
    values = (keys % np.uint64(4)).astype(np.uint32)
    setsep, _ = build(keys, values, SetSepParams(value_bits=2))
    probe = keys[: min(40_000, n_keys)]
    ctx.set_params(n_keys=n_keys, probe=len(probe))

    setsep.bind_registry(ctx.registry)
    try:
        ctx.timeit(lambda: setsep.lookup_batch(probe))
    finally:
        setsep.bind_registry(None)
    lookups = ctx.registry.counter("setsep.lookups").value
    total_s = sum(ctx.samples)
    ctx.record(measured_mops=lookups / total_s / 1e6)


# -- the batch-size cost curve (ROADMAP item 7) --------------------------
#
# fig7 above reads the per-key cost at one large batch; a 32-frame
# gateway batch split four ways pays the *fixed* cost of a lookup call
# eight times.  These rows time the two tables of the packet path at
# the batch sizes the data path really hands them, on raw keys (hashed
# inside the call) and on a pre-hashed batch (columns read).

BATCH_COST_SIZES = (8, 64, 256, 4_096, 40_000)


def _batch_cost(ctx, lookup, probe, columns):
    """Best-of cost of ``lookup`` per batch size, raw and pre-hashed.

    ``fixed_us`` / ``per_key_ns`` are the intercept and slope of the
    least-squares line ``cost = fixed + per_key * n`` through the five
    sizes, each point weighted by 1/cost so the fit minimises *relative*
    error (unweighted, the 40,000-key point alone would set both).
    """
    best = {
        kind: dict.fromkeys(BATCH_COST_SIZES, float("inf"))
        for kind in ("raw", "prehashed")
    }

    def sweep():
        for n in BATCH_COST_SIZES:
            raw = probe[:n]
            hashed = hashfamily.prehash(raw)
            getattr(hashed, columns)
            for kind, batch in (("raw", raw), ("prehashed", hashed)):
                calls = max(3, 2_048 // n)
                started = time.perf_counter()
                for _ in range(calls):
                    lookup(batch)
                cost = (time.perf_counter() - started) / calls * 1e6
                best[kind][n] = min(best[kind][n], cost)

    ctx.timeit(sweep)
    sizes = np.array(BATCH_COST_SIZES, dtype=np.float64)
    for kind, prefix in (("raw", ""), ("prehashed", "prehashed_")):
        costs = np.array([best[kind][n] for n in BATCH_COST_SIZES])
        per_key_us, fixed_us = np.polyfit(sizes, costs, 1, w=1.0 / costs)
        ctx.record(**{
            f"{prefix}fixed_us": fixed_us,
            f"{prefix}per_key_ns": per_key_us * 1e3,
            **{f"{prefix}us_at_{n}": best[kind][n] for n in BATCH_COST_SIZES},
        })
    ctx.record(
        prehashed_over_raw_at_8=best["prehashed"][8] / best["raw"][8]
    )


def _batch_cost_population(ctx):
    n_keys = 50_000 * ctx.scale
    keys = bench_keys(n_keys, seed=31)
    ctx.set_params(
        n_keys=n_keys, sizes="/".join(map(str, BATCH_COST_SIZES))
    )
    return keys


@perflab.benchmark("lookup.batch_cost.gpt", figure="Figure 7", repeats=5)
def perflab_batch_cost_gpt(ctx):
    """Fixed and per-key cost of ``GlobalPartitionTable.lookup_batch``."""
    keys = _batch_cost_population(ctx)
    nodes = (keys % np.uint64(4)).astype(np.int64)
    gpt, _ = GlobalPartitionTable.build(keys, nodes, 4, backend="setsep")
    _batch_cost(ctx, gpt.lookup_batch, keys, "separator")
    assert np.array_equal(gpt.lookup_batch(keys[:4_096]), nodes[:4_096])


@perflab.benchmark("lookup.batch_cost.fib", figure="Figure 7", repeats=5)
def perflab_batch_cost_fib(ctx):
    """Fixed and per-key cost of the cuckoo FIB's ``lookup_batch_array``."""
    keys = _batch_cost_population(ctx)
    fib = CuckooHashTable(len(keys))
    for value, key in enumerate(keys.tolist()):
        fib.insert(key, value)
    _batch_cost(ctx, fib.lookup_batch_array, keys, "fib")
    found, values = fib.lookup_batch_array(keys[:4_096])
    assert found.all() and values.tolist() == list(range(4_096))
