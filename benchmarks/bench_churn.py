"""Churn stress: the update path under a realistic bearer process.

The paper measures a synthetic update rate (§6.2); a live EPC sees churn
as a Poisson arrival/departure process.  This bench replays such a process
through a running gateway and reports the sustained connect+disconnect
rate, the delta traffic it generates, and — the §4.5 property under test —
that forwarding correctness holds at every point of the churn.
"""

import numpy as np
import pytest

from repro.cluster import Architecture
from repro.epc.gateway import EpcGateway
from repro.epc.packets import parse_ip
from repro.epc.traffic import FlowGenerator, run_downstream_trial
from repro.epc.workload import BearerWorkload
from repro import perflab
from benchmarks.conftest import bench_scale, print_header

BASE_FLOWS = 3_000 * bench_scale()


def test_churn_replay(benchmark):
    gen = FlowGenerator(seed=130)
    gateway = EpcGateway(Architecture.SCALEBRICKS, 4, parse_ip("192.0.2.1"))
    base = gen.populate(gateway, BASE_FLOWS)
    gateway.start()

    workload = BearerWorkload(
        arrival_rate=60.0,
        mean_holding_s=2.0,
        duration_s=8.0,
        heavy_tailed=True,
        seed=131,
    )

    stats = benchmark.pedantic(
        lambda: workload.replay(gateway), rounds=1, iterations=1
    )
    update_stats = gateway.updates.stats
    elapsed = benchmark.stats["mean"]
    ops = update_stats.updates

    print_header("Churn stress: Poisson arrivals, heavy-tailed holding")
    print(f"  arrivals/departures : {stats.arrivals}/{stats.departures} "
          f"(peak concurrent {stats.peak_concurrent})")
    print(f"  sustained update rate: {ops / elapsed:,.0f} ops/s "
          "(full owner pipeline)")
    print(f"  delta traffic        : {update_stats.broadcast_bits / 8 / 1e3:.1f} KB "
          f"across {update_stats.delta_broadcasts} broadcasts "
          f"({update_stats.mean_delta_bits:.0f} bits each)")

    # Forwarding still correct for the surviving population.
    alive = [f for f in base if f.key() in gateway.controller.flows]
    trial = run_downstream_trial(
        gateway, gen.packet_stream(alive, 400)
    )
    print(f"  post-churn traffic   : {trial.delivered}/{trial.offered} "
          "delivered")
    assert trial.loss_rate == 0.0
    assert update_stats.mean_delta_bits < 300
    # Update ownership spread over all nodes (the scaling property).
    assert len(update_stats.per_owner_updates) >= 2


# -- perf lab registration (repro.perflab; see EXPERIMENTS.md) -----------

@perflab.benchmark(
    "churn.bearer_replay", figure="§6.2 churn", repeats=1
)
def perflab_churn(ctx):
    """Poisson bearer churn through a live gateway (update pipeline)."""
    base_flows = 600 * ctx.scale
    gen = FlowGenerator(seed=130)
    gateway = EpcGateway(
        Architecture.SCALEBRICKS, 4, parse_ip("192.0.2.1"),
        registry=ctx.registry,
    )
    gen.populate(gateway, base_flows)
    gateway.start()
    workload = BearerWorkload(
        arrival_rate=40.0,
        mean_holding_s=1.5,
        duration_s=4.0,
        heavy_tailed=True,
        seed=131,
    )
    ctx.set_params(base_flows=base_flows, arrival_rate=40.0, duration_s=4.0)

    stats = ctx.timeit(lambda: workload.replay(gateway))
    update_stats = gateway.updates.stats
    ctx.set_params(
        arrivals=stats.arrivals,
        departures=stats.departures,
        updates=update_stats.updates,
    )
    elapsed = ctx.samples[-1]
    ctx.record(updates_per_second=update_stats.updates / elapsed)
