"""Figure 9: PFE throughput with half the L3 (the cache-bubble run).

Paper: a bubble thread consumes 15 of the 30 MiB L3; every configuration
slows down, but ScaleBricks' relative advantage persists — its tables were
the ones that still fit.

Reproduced via the same forwarding model on a 15 MiB-L3 hierarchy, checked
point-by-point against the Figure 8 (30 MiB) run.
"""

from repro.model.cache import XEON_E5_2697V2
from repro.model.perf import ForwardingModel, cuckoo_model, rte_hash_model
from repro import perflab
from benchmarks.conftest import print_header

FLOW_COUNTS = [1_000_000, 2_000_000, 4_000_000, 8_000_000,
               16_000_000, 32_000_000]
MIB = 1024 * 1024


def _rows(cache):
    rows = []
    for table in (rte_hash_model(), cuckoo_model()):
        model = ForwardingModel(cache, table)
        for flows in FLOW_COUNTS:
            rows.append(
                (
                    table.name,
                    flows,
                    model.full_duplication_mpps(flows),
                    model.scalebricks_mpps(flows),
                )
            )
    return rows


def test_fig9_small_cache_preserves_the_win(benchmark):
    small_cache = XEON_E5_2697V2.with_l3(15 * MIB)
    small = benchmark.pedantic(
        lambda: _rows(small_cache), rounds=1, iterations=1
    )
    big = _rows(XEON_E5_2697V2)

    print_header("Figure 9 (modelled): single-node PFE Mpps, 15 MiB L3")
    print(f"  {'table':12} {'flows':>12} {'full dup':>9} {'ScaleBricks':>12} {'gain':>7}")
    for name, flows, full, sb in small:
        print(
            f"  {name:12} {flows:>12,} {full:>9.2f} {sb:>12.2f} "
            f"{100 * (sb / full - 1):>6.1f}%"
        )

    small_by = {(n, f): (full, sb) for n, f, full, sb in small}
    big_by = {(n, f): (full, sb) for n, f, full, sb in big}
    for key, (full_small, sb_small) in small_by.items():
        full_big, sb_big = big_by[key]
        # Everyone drops (or at best matches) with the smaller cache...
        assert full_small <= full_big + 1e-9
        assert sb_small <= sb_big + 1e-9
        # ...but the relative benefit of ScaleBricks remains (paper's
        # summary sentence for Figure 9).
        assert sb_small >= full_small * 0.99
    gains = [sb / full - 1 for _, _, full, sb in small]
    assert max(gains) > 0.08


# -- perf lab registration (repro.perflab; see EXPERIMENTS.md) -----------

@perflab.benchmark(
    "fig9.small_cache_model", figure="Figure 9", repeats=3
)
def perflab_fig9(ctx):
    """The same forwarding model under the 15 MiB cache-bubble L3."""
    small_cache = XEON_E5_2697V2.with_l3(15 * MIB)
    ctx.set_params(l3_mib=15, flow_points=len(FLOW_COUNTS))
    rows = ctx.timeit(lambda: _rows(small_cache))
    by = {(name, flows): (full, sb) for name, flows, full, sb in rows}
    full, sb = by[("cuckoo_hash", 8_000_000)]
    ctx.record(cuckoo_8m_gain_pct=100 * (sb / full - 1))
