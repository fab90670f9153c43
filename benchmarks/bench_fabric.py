"""Fat-tree fabric benchmarks: hops, oversubscription, ingress, failures.

§3.1 argues ScaleBricks needs "exactly one crossing" of the internal
interconnect per external packet.  That claim is counted in *fabric
transits*; on a real multi-stage Clos/fat-tree each transit spans one or
three switch hops depending on locality.  These benchmarks chart:

* crossbar vs fat-tree hop counts for the same one-transit workload;
* throughput/queueing under Zipf skew at oversubscription 1:1, 2:1, 4:1;
* utilization-aware ingress vs round-robin on the busiest-link packet
  count (the hot-spot §3.1's bandwidth argument cares about);
* latency/reroute degradation when spine trunks fail.
"""

import numpy as np

from repro import perflab
from repro.cluster import Architecture, Cluster
from repro.fabric.crossbar import SwitchFabric
from repro.fabric.fattree import FatTreeFabric
from benchmarks.conftest import (
    bench_keys,
    bench_scale,
    print_header,
    stage_cost,
)

N_FLOWS = 2_000 * bench_scale()
N_PROBES = 1_200 * bench_scale()
NUM_NODES = 8
OVERSUB_LEVELS = (1.0, 2.0, 4.0)


def _build(fabric=None, fabric_backend=None, ingress_policy="random",
           seed=7):
    keys = bench_keys(N_FLOWS, seed=seed)
    handlers = (keys % np.uint64(NUM_NODES)).astype(np.int64)
    values = np.arange(N_FLOWS)
    return Cluster.build(
        Architecture.SCALEBRICKS, NUM_NODES, keys, handlers, values,
        fabric=fabric, fabric_backend=fabric_backend,
        ingress_policy=ingress_policy,
    )


def _zipf_probes(keys, count, seed=17, a=1.3):
    """Zipf-skewed probe stream over the flow population."""
    rng = np.random.default_rng(seed)
    ranks = rng.zipf(a, size=count) % len(keys)
    return np.asarray(keys)[ranks]


def test_hops_one_crossing_vs_fattree(benchmark):
    """§3.1: one transit per packet is 1 crossbar hop but 1–3 fat-tree hops."""
    def run():
        out = {}
        probes = _zipf_probes(bench_keys(N_FLOWS, seed=7), N_PROBES)
        for backend in ("crossbar", "fattree"):
            cluster = _build(fabric_backend=backend)
            cluster.route_batch(probes)
            s = cluster.fabric.stats
            out[backend] = (s.packets, s.switch_hops, s.link_crossings)
        return out

    measured = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header("§3.1 over a fat-tree: switch hops per fabric transit")
    print(f"  {'backend':10} {'transits':>9} {'hops':>8} {'hops/transit':>13}")
    for backend, (packets, hops, crossings) in measured.items():
        ratio = hops / max(1, packets)
        print(f"  {backend:10} {packets:>9} {hops:>8} {ratio:>13.2f}")

    cb_packets, cb_hops, cb_crossings = measured["crossbar"]
    ft_packets, ft_hops, ft_crossings = measured["fattree"]
    # Same workload, same number of transits ("exactly one crossing").
    assert cb_packets == ft_packets
    # Crossbar: one hop per transit, by construction.
    assert cb_hops == cb_packets
    assert cb_crossings == cb_packets
    # Fat-tree: between 1 (all intra-leaf) and 3 (all spine) per transit,
    # and every path of h hops spans h+1 links.
    assert ft_packets <= ft_hops <= 3 * ft_packets
    assert ft_crossings == ft_hops + ft_packets


def test_skew_throughput_under_oversubscription(benchmark):
    """Zipf-skewed traffic vs 1:1 / 2:1 / 4:1 fat-tree oversubscription."""
    def run():
        rows = []
        for oversub in OVERSUB_LEVELS:
            fabric = FatTreeFabric(
                NUM_NODES, oversubscription=oversub, window=256,
            )
            cluster = _build(fabric=fabric)
            probes = _zipf_probes(bench_keys(N_FLOWS, seed=7), N_PROBES)
            result = cluster.route_batch(probes)
            s = cluster.fabric.stats
            rows.append((
                oversub,
                fabric.uplink_capacity,
                s.capacity_exceeded,
                float(np.mean(result.latencies_us)),
                s.max_link_packets(),
            ))
            assert cluster.fabric.verify_accounting()
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header("fat-tree: Zipf(1.3) traffic vs uplink oversubscription")
    print(f"  {'oversub':>8} {'uplink cap':>11} {'over-capacity':>14} "
          f"{'mean us':>9} {'max link':>9}")
    for oversub, cap, exceeded, mean_us, max_link in rows:
        print(f"  {oversub:>7.0f}: {cap:>11} {exceeded:>14} "
              f"{mean_us:>9.3f} {max_link:>9}")

    caps = [row[1] for row in rows]
    exceeded = [row[2] for row in rows]
    # Higher oversubscription strictly shrinks trunk capacity and can
    # only increase the queueing the same skewed workload experiences.
    assert caps == sorted(caps, reverse=True) and caps[0] > caps[-1]
    assert exceeded == sorted(exceeded)


def test_utilization_ingress_beats_roundrobin(benchmark):
    """Acceptance: utilization ingress cools the busiest link at 2:1."""
    def run():
        out = {}
        for policy in ("roundrobin", "utilization"):
            fabric = FatTreeFabric(NUM_NODES, oversubscription=2.0)
            cluster = _build(fabric=fabric, ingress_policy=policy)
            probes = _zipf_probes(bench_keys(N_FLOWS, seed=7), N_PROBES)
            for chunk in np.array_split(probes, 24):
                cluster.route_batch(chunk)
            out[policy] = cluster.fabric.stats.max_link_packets()
        return out

    busiest = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header(
        "fat-tree 2:1 oversub, Zipf(1.3): busiest-link packets by ingress"
    )
    for policy, packets in busiest.items():
        print(f"  {policy:12} {packets:>8}")

    assert busiest["utilization"] < busiest["roundrobin"]


def test_degradation_under_link_failures(benchmark):
    """Latency and reroutes as spine trunks die; no loss while one lives."""
    def run():
        rows = []
        probes = _zipf_probes(bench_keys(N_FLOWS, seed=7), N_PROBES // 2)
        fabric_probe = FatTreeFabric(NUM_NODES)
        for failures in range(fabric_probe.num_spines):
            fabric = FatTreeFabric(NUM_NODES)
            for spine in range(failures):
                for leaf in range(fabric.num_leaves):
                    fabric.fail_link(("uplink", leaf, spine))
            cluster = _build(fabric=fabric)
            result = cluster.route_batch(probes)
            s = cluster.fabric.stats
            rows.append((
                failures,
                result.delivered_count,
                s.reroutes,
                float(np.mean(result.latencies_us)),
            ))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header("fat-tree: degradation as spine uplinks fail")
    print(f"  {'spines down':>12} {'delivered':>10} {'reroutes':>9} "
          f"{'mean us':>9}")
    for failures, delivered, reroutes, mean_us in rows:
        print(f"  {failures:>12} {delivered:>10} {reroutes:>9} "
              f"{mean_us:>9.3f}")

    delivered = {row[1] for row in rows}
    assert len(delivered) == 1  # reroute, never drop, while a spine lives
    assert rows[0][2] == 0  # healthy fabric never reroutes
    assert all(row[2] > 0 for row in rows[1:])  # every failure reroutes


# -- perf lab registration (repro.perflab; see EXPERIMENTS.md) -----------

@perflab.benchmark("fabric.hops", figure="§3.1", repeats=1)
def perflab_fabric_hops(ctx):
    """Switch hops per one-crossing transit, crossbar vs fat-tree."""
    n_flows = 1_000 * ctx.scale
    keys = bench_keys(n_flows, seed=7)
    handlers = (keys % np.uint64(NUM_NODES)).astype(np.int64)
    values = np.arange(n_flows)
    probes = _zipf_probes(keys, 600 * ctx.scale)
    ctx.set_params(n_flows=n_flows, probes=len(probes),
                   num_nodes=NUM_NODES)

    def run():
        out = {}
        for backend in ("crossbar", "fattree"):
            cluster = Cluster.build(
                Architecture.SCALEBRICKS, NUM_NODES, keys, handlers,
                values, fabric_backend=backend,
            )
            cluster.route_batch(probes)
            s = cluster.fabric.stats
            out[backend] = s.switch_hops / max(1, s.packets)
        return out

    hops = ctx.timeit(run)
    for backend, per_transit in hops.items():
        ctx.record(**{f"hops_per_transit_{backend}": per_transit})


@perflab.benchmark("fabric.skew_oversub", figure="§3.1", repeats=1)
def perflab_fabric_skew_oversub(ctx):
    """Queueing under Zipf skew at 1:1 / 2:1 / 4:1 oversubscription."""
    n_flows = 1_000 * ctx.scale
    keys = bench_keys(n_flows, seed=7)
    handlers = (keys % np.uint64(NUM_NODES)).astype(np.int64)
    values = np.arange(n_flows)
    probes = _zipf_probes(keys, 600 * ctx.scale)
    ctx.set_params(n_flows=n_flows, probes=len(probes),
                   oversub_levels="/".join(f"{o:g}" for o in OVERSUB_LEVELS))

    def run():
        out = {}
        for oversub in OVERSUB_LEVELS:
            fabric = FatTreeFabric(
                NUM_NODES, oversubscription=oversub, window=256
            )
            cluster = Cluster.build(
                Architecture.SCALEBRICKS, NUM_NODES, keys, handlers,
                values, fabric=fabric,
            )
            cluster.route_batch(probes)
            out[oversub] = cluster.fabric.stats.capacity_exceeded
        return out

    exceeded = ctx.timeit(run)
    for oversub, count in exceeded.items():
        ctx.record(**{f"capacity_exceeded_{oversub:g}to1": count})


@perflab.benchmark("fabric.ingress_policy", figure="§3.1", repeats=1)
def perflab_fabric_ingress_policy(ctx):
    """Busiest-link packets, round-robin vs utilization ingress (2:1)."""
    n_flows = 1_000 * ctx.scale
    keys = bench_keys(n_flows, seed=7)
    handlers = (keys % np.uint64(NUM_NODES)).astype(np.int64)
    values = np.arange(n_flows)
    probes = _zipf_probes(keys, 600 * ctx.scale)
    ctx.set_params(n_flows=n_flows, probes=len(probes),
                   oversubscription=2.0)

    def run():
        out = {}
        for policy in ("roundrobin", "utilization"):
            fabric = FatTreeFabric(NUM_NODES, oversubscription=2.0)
            cluster = Cluster.build(
                Architecture.SCALEBRICKS, NUM_NODES, keys, handlers,
                values, fabric=fabric, ingress_policy=policy,
            )
            for chunk in np.array_split(probes, 16):
                cluster.route_batch(chunk)
            out[policy] = cluster.fabric.stats.max_link_packets()
        return out

    busiest = ctx.timeit(run)
    for policy, packets in busiest.items():
        ctx.record(**{f"busiest_link_{policy}": packets})


@perflab.benchmark("fabric.link_failure", figure="§7", repeats=1)
def perflab_fabric_link_failure(ctx):
    """Reroutes and latency inflation as spine uplinks fail."""
    n_flows = 1_000 * ctx.scale
    keys = bench_keys(n_flows, seed=7)
    handlers = (keys % np.uint64(NUM_NODES)).astype(np.int64)
    values = np.arange(n_flows)
    probes = _zipf_probes(keys, 400 * ctx.scale)
    ctx.set_params(n_flows=n_flows, probes=len(probes))

    def run():
        out = {}
        num_spines = FatTreeFabric(NUM_NODES).num_spines
        for failures in (0, num_spines - 1):
            fabric = FatTreeFabric(NUM_NODES)
            for spine in range(failures):
                for leaf in range(fabric.num_leaves):
                    fabric.fail_link(("uplink", leaf, spine))
            cluster = Cluster.build(
                Architecture.SCALEBRICKS, NUM_NODES, keys, handlers,
                values, fabric=fabric,
            )
            result = cluster.route_batch(probes)
            out[failures] = (
                cluster.fabric.stats.reroutes,
                float(np.mean(result.latencies_us)),
            )
        return out

    measured = ctx.timeit(run)
    healthy_reroutes, healthy_us = measured[0]
    degraded = max(measured)
    degraded_reroutes, degraded_us = measured[degraded]
    ctx.record(
        reroutes_healthy=healthy_reroutes,
        reroutes_degraded=degraded_reroutes,
        mean_us_healthy=healthy_us,
        mean_us_degraded=degraded_us,
    )


#: The gateway's cluster: four nodes behind one crossbar.
FABRIC_COST_NODES = 4


@perflab.benchmark("fabric.batch_cost", figure="§3.1", repeats=5)
def perflab_fabric_batch_cost(ctx):
    """Fixed and per-packet cost of the crossbar's ``deliver_batch``."""
    fabric = SwitchFabric(FABRIC_COST_NODES)
    rng = np.random.default_rng(43)

    def call_for(n):
        srcs = rng.integers(FABRIC_COST_NODES, size=n)
        dsts = rng.integers(FABRIC_COST_NODES, size=n)
        return lambda: fabric.deliver_batch(srcs, dsts, 64)

    stage_cost(ctx, call_for)
    ctx.set_params(nodes=FABRIC_COST_NODES)
    assert fabric.verify_accounting()
