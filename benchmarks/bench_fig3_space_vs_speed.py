"""Figures 3a / 3b: space vs construction speed as a function of m.

Paper (n = 16 keys per group):

* Fig. 3a — average iterations to find one hash function falls from
  >10 000 at m=2 to <100 at m>=12 (a 100x speedup for ~4 extra bits).
* Fig. 3b — total space per 16 keys (index bits + array bits) is nearly
  increasing in m: 16 bits minimum, ~20 bits at m=12.

Reproduced exactly (the experiment is hardware-independent): empirical mean
iterations over random 16-key groups, and the variable-length index cost
estimated from the iteration distribution's entropy.  The perf-lab row
``fig3.search_cost`` prices the same search in wall time, as the owner's
§4.5 recompute runs it.
"""

import time

import numpy as np
import pytest

from repro.core import hashfamily
from repro.core.group import expected_iterations, index_entropy_bits, search_group
from repro.core.params import SetSepParams
from repro import perflab
from benchmarks.conftest import print_header

M_SWEEP = [2, 4, 6, 8, 12, 16, 20, 24, 30]
GROUP_SIZE = 16
TRIALS = 120


@pytest.fixture(scope="module")
def sweep_results():
    rows = []
    for m in M_SWEEP:
        iters = expected_iterations(GROUP_SIZE, m, trials=TRIALS, seed=3)
        index_bits = index_entropy_bits(GROUP_SIZE, m, trials=TRIALS, seed=3)
        rows.append((m, iters, index_bits, index_bits + m))
    return rows


def test_fig3a_iterations_vs_m(benchmark, sweep_results):
    """Fig. 3a: construction iterations collapse as m grows."""
    benchmark.pedantic(
        lambda: expected_iterations(GROUP_SIZE, 8, trials=30, seed=5),
        rounds=3,
        iterations=1,
    )
    print_header("Figure 3a: avg iterations to find one hash function (n=16)")
    print(f"  {'m':>4} {'avg iterations':>16}")
    for m, iters, _, _ in sweep_results:
        print(f"  {m:>4} {iters:>16.1f}")

    by_m = {m: iters for m, iters, _, _ in sweep_results}
    assert by_m[2] > 10 * by_m[8] > 10 * by_m[30] / 10  # steep decline
    assert by_m[2] > 2_000  # the paper's >10k at m=2 (order of magnitude)
    assert by_m[12] < 150   # the paper's <100 trials at m>=12
    benchmark.extra_info["iterations_by_m"] = {
        str(m): round(i, 1) for m, i, _, _ in sweep_results
    }


def test_fig3b_space_breakdown_vs_m(benchmark, sweep_results):
    """Fig. 3b: total bits per 16 keys = shrinking index + growing array."""
    benchmark.pedantic(
        lambda: index_entropy_bits(GROUP_SIZE, 8, trials=30, seed=6),
        rounds=3,
        iterations=1,
    )
    print_header("Figure 3b: space per 16 keys (bits for index + array)")
    print(f"  {'m':>4} {'index bits':>11} {'array bits':>11} {'total':>7}")
    for m, _, index_bits, total in sweep_results:
        print(f"  {m:>4} {index_bits:>11.1f} {m:>11} {total:>7.1f}")

    # The index shrinks with m while the array grows; the total is nearly
    # increasing and stays modest (paper: ~20 bits at m=12).
    index = [row[2] for row in sweep_results]
    assert index == sorted(index, reverse=True)
    totals = {m: t for m, _, _, t in sweep_results}
    assert totals[12] < 26
    assert totals[30] > totals[8]
    benchmark.extra_info["total_bits_by_m"] = {
        str(m): round(t, 1) for m, _, _, t in sweep_results
    }


# -- perf lab registration (repro.perflab; see EXPERIMENTS.md) -----------

@perflab.benchmark(
    "fig3.search_iterations", figure="Figure 3a", repeats=1
)
def perflab_fig3(ctx):
    """Mean brute-force iterations at the production m=8 point."""
    trials = 40 * ctx.scale
    ctx.set_params(group_size=GROUP_SIZE, m=8, trials=trials)
    iters = ctx.timeit(
        lambda: expected_iterations(GROUP_SIZE, 8, trials=trials, seed=5)
    )
    ctx.registry.counter("fig3.trials").inc(trials)
    ctx.record(mean_iterations=iters)


#: The search-cost replay: inserts into 15-key groups at the production
#: 16+8 point with 2 value bits (a 4-node GPT); only the inserts that break
#: an incumbent index are kept, since only those search.
SEARCH_PARAMS = SetSepParams(value_bits=2)
SEARCH_GROUPS = 200
#: A 28-key group no index below 2**16 - 1 separates: the full scan a
#: spilling group costs (the tail ``gpt.rebuild_tail_share`` shows).
FAILED_GROUP_SIZE = 28


def search_replay(count: int, seed: int = 11):
    """``count`` seeded ``(g1, g2, values, incumbent)`` owner recomputes,
    each an insert whose new key breaks at least one incumbent index."""
    rng = np.random.default_rng(seed)
    replay = []
    while len(replay) < count:
        keys = rng.integers(1, 2**63, size=GROUP_SIZE, dtype=np.uint64)
        values = rng.integers(0, 4, size=GROUP_SIZE).astype(np.uint32)
        g1, g2 = hashfamily.base_hashes(keys)
        before = search_group(g1[1:], g2[1:], values[1:], SEARCH_PARAMS)
        if before is None:
            continue
        incumbent = np.array([f.index for f in before], dtype=np.uint16)
        after = search_group(g1, g2, values, SEARCH_PARAMS, incumbent)
        if after is not None and [f.index for f in after] != incumbent.tolist():
            replay.append((g1, g2, values, incumbent))
    return replay


@perflab.benchmark("fig3.search_cost", figure="Figure 3a", repeats=3)
def perflab_fig3_search_cost(ctx):
    """Cost of the owner's first-fit search, and of a spilling group's scan."""
    replay = search_replay(SEARCH_GROUPS * ctx.scale)
    rng = np.random.default_rng(12)
    failed_g1, failed_g2 = hashfamily.base_hashes(
        rng.integers(1, 2**63, size=FAILED_GROUP_SIZE, dtype=np.uint64)
    )
    failed_values = rng.integers(0, 4, size=FAILED_GROUP_SIZE).astype(np.uint32)
    ctx.set_params(
        config=SEARCH_PARAMS.name, value_bits=SEARCH_PARAMS.value_bits,
        group_size=GROUP_SIZE, searches=len(replay),
        failed_group_size=FAILED_GROUP_SIZE,
    )
    best = {"replay": float("inf"), "failed": float("inf")}
    found = []

    def run():
        started = time.perf_counter()
        found[:] = [
            search_group(g1, g2, values, SEARCH_PARAMS, incumbent)
            for g1, g2, values, incumbent in replay
        ]
        best["replay"] = min(best["replay"], time.perf_counter() - started)
        started = time.perf_counter()
        spilled = search_group(
            failed_g1, failed_g2, failed_values, SEARCH_PARAMS
        )
        best["failed"] = min(best["failed"], time.perf_counter() - started)
        assert spilled is None

    ctx.timeit(run)
    ctx.registry.counter("fig3.iterations_total").inc(
        sum(f.iterations for functions in found for f in functions)
    )
    ctx.record(
        us_per_search=best["replay"] / len(replay) * 1e6,
        us_per_failed_scan=best["failed"] * 1e6,
    )
