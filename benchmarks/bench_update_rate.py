"""§6.2 update rate: 60 K updates/s/core, scaling with the cluster.

Paper: one core sustains 60 K updates/s; the decentralised protocol makes
the aggregate rate 240 K/s on 4 nodes because each update is recomputed by
exactly one owner and applied elsewhere as a memory copy.

Reproduced by measuring (1) this implementation's single-owner update rate,
(2) the cost asymmetry between the owner's group recompute and a peer's
delta apply — the property that makes the rate scale — and (3) the
fully-replicated contrast where every node repeats the work.
"""

import sys
import time

import numpy as np
import pytest

from repro.cluster import Architecture, Cluster, UpdateEngine, owner
from repro.cluster.owner import UpdateAccount
from repro.core.group import search_group
from repro.core.hashfamily import base_hashes
from repro.epc.gateway import EpcGateway
from repro.epc.traffic import FlowGenerator
from repro.obs import MetricsRegistry, span_histogram_name
from repro import perflab
from benchmarks.conftest import (
    bench_keys, bench_scale, count_calls, print_header,
)

N_FLOWS = 5_000 * bench_scale()
N_UPDATES = 400


@pytest.fixture(scope="module")
def scalebricks_cluster():
    keys = bench_keys(N_FLOWS, seed=70)
    handlers = (keys % np.uint64(4)).astype(np.int64)
    values = np.arange(N_FLOWS)
    cluster = Cluster.build(
        Architecture.SCALEBRICKS, 4, keys, handlers, values
    )
    return cluster, keys, handlers


def test_update_rate_single_owner(benchmark, scalebricks_cluster):
    """Measured updates/s through the full owner pipeline.

    The engine carries a live metrics registry, so the rate and the mean
    broadcast-delta size are read back from the registry — the update
    count (``update.updates``) over the ``span.update_us`` histogram's
    total time, and the ``update.delta_bits`` histogram's mean.
    """
    cluster, keys, handlers = scalebricks_cluster
    registry = MetricsRegistry()
    engine = UpdateEngine(cluster, registry=registry)
    batch = [
        (int(keys[i]), (int(handlers[i]) + 1) % 4, i)
        for i in range(N_UPDATES)
    ]
    position = {"i": 0}

    def one_update():
        key, node, value = batch[position["i"] % N_UPDATES]
        position["i"] += 1
        engine.insert_flow(key, node, value)

    benchmark(one_update)
    updates = registry.counter("update.updates").value
    span_us = registry.histogram(span_histogram_name("update"))
    delta_bits = registry.histogram("update.delta_bits")
    rate = updates / (span_us.sum * 1e-6)
    print_header("§6.2 update rate (measured, this implementation)")
    print(f"  single-owner pipeline: {rate:,.0f} updates/s "
          f"({updates} updates via registry)")
    print(f"  mean delta size      : {delta_bits.mean:.0f} bits")
    benchmark.extra_info["updates_per_second"] = round(rate)
    assert updates == span_us.count
    assert engine.stats.mean_delta_bits == pytest.approx(delta_bits.mean)
    assert delta_bits.mean < 300


def test_update_scaling_mechanism(benchmark, scalebricks_cluster):
    """Owner recompute vs peer delta-apply cost: the scaling asymmetry."""
    cluster, keys, handlers = scalebricks_cluster
    owner_gpt = cluster.nodes[0].gpt
    peer_gpt = cluster.nodes[1].gpt

    def measure():
        deltas = []
        rebuild_seconds = 0.0
        for i in range(200):
            key = int(keys[i])
            group = owner_gpt.group_of(key)
            # The owner's RIB hands the group over hashed: the rebuild
            # reads the keys' separator columns.
            members, member_nodes = cluster.rib.group_contents(
                group, owner_gpt.setsep
            )
            started = time.perf_counter()
            delta = owner_gpt.rebuild_group(group, members, member_nodes)
            rebuild_seconds += time.perf_counter() - started
            deltas.append(delta)
        return deltas, rebuild_seconds

    deltas, rebuild_seconds = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    started = time.perf_counter()
    for delta in deltas:
        peer_gpt.apply_delta(delta)
    apply_seconds = time.perf_counter() - started

    rebuild_rate = len(deltas) / rebuild_seconds
    apply_rate = len(deltas) / max(apply_seconds, 1e-9)
    print_header("§6.2 update scaling mechanism")
    print(f"  owner group recompute : {rebuild_rate:>12,.0f} /s")
    print(f"  peer delta apply      : {apply_rate:>12,.0f} /s")
    print(
        f"  apply/recompute ratio : {apply_rate / rebuild_rate:>12.1f}x "
        "(peers are nearly free -> rate scales with owners)"
    )
    assert apply_rate > 5 * rebuild_rate


def test_full_duplication_contrast(benchmark):
    """Full duplication applies each update N times — no rate scaling."""
    keys = bench_keys(2_000, seed=71)
    handlers = (keys % np.uint64(4)).astype(np.int64)
    values = np.arange(len(keys))
    cluster = Cluster.build(
        Architecture.FULL_DUPLICATION, 4, keys, handlers, values
    )
    engine = UpdateEngine(cluster)

    def run():
        for i in range(100):
            engine.insert_flow(int(keys[i]), int(handlers[i]), i)
        return engine.stats.fib_messages

    messages = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("§6.2 contrast: messages per update")
    print(f"  full duplication : {messages / 100:.1f} per update")
    assert messages == 400  # N per update


# -- perf lab registration (repro.perflab; see EXPERIMENTS.md) -----------

@perflab.benchmark(
    "update.single_owner_rate", figure="§6.2 update rate", repeats=1
)
def perflab_update_rate(ctx):
    """Updates/s through the full owner pipeline, counted by the registry,
    and the RIB records one update reads beside the mean group size."""
    n_flows = 2_000 * ctx.scale
    n_updates = 200 * ctx.scale
    keys = bench_keys(n_flows, seed=70)
    handlers = (keys % np.uint64(4)).astype(np.int64)
    values = np.arange(n_flows)
    cluster = Cluster.build(
        Architecture.SCALEBRICKS, 4, keys, handlers, values
    )
    cluster.rib.bind_registry(ctx.registry)
    for node in cluster.nodes:
        node.gpt.setsep.bind_registry(ctx.registry)
    engine = UpdateEngine(cluster, registry=ctx.registry)
    ctx.set_params(n_flows=n_flows, n_updates=n_updates)

    def run():
        for i in range(n_updates):
            engine.insert_flow(
                int(keys[i]), (int(handlers[i]) + 1) % 4, int(values[i])
            )

    ctx.timeit(run)
    updates = ctx.registry.counter("update.updates").value
    scanned = ctx.registry.counter("rib.group_scan_keys").value
    kept = ctx.registry.counter("setsep.incumbent_bits_kept").value
    searched = ctx.registry.counter("setsep.bits_searched").value
    ctx.record(
        updates_per_second=updates / sum(ctx.samples),
        keys_scanned_per_update=scanned / updates,
        mean_group_keys=n_flows / cluster.nodes[0].gpt.setsep.num_groups,
        incumbent_kept_share=kept / (kept + searched),
    )


OWNER_CALLS_FLOWS = 20_000


def _next_update(rib, gpt, spare, cursor, keep):
    """From ``spare[cursor:]``, the first key whose insert (on node
    ``key % 4``) keeps every incumbent bit of its group (``keep``) or
    breaks one that a search then solves; ``(key, node, next cursor)``."""
    separator = gpt.setsep
    params = separator.params
    for position in range(cursor, len(spare)):
        key = int(spare[position])
        group = separator.group_of(key)
        if separator.failed_groups[group]:
            continue
        members, nodes = rib.group_contents(group, separator)
        found = search_group(
            *base_hashes(np.append(members.keys, np.uint64(key))),
            np.append(nodes, np.uint32(key % 4)), params,
            separator.indices[group],
        )
        if found is None:
            continue
        kept = [f.index for f in found] == separator.indices[group].tolist()
        if kept == keep:
            return key, key % 4, position + 1
    raise AssertionError("no such update among the spare keys")


@perflab.benchmark("update.owner_calls", figure="§4.5 update", repeats=1)
def perflab_update_owner_calls(ctx):
    """Python and C-level calls of one owner-side update
    (``owner.owner_step``: slice edit, group read, recompute, framing).

    A young 20,000-bearer, 4-node table; one insert whose group keeps
    every incumbent index and one whose group breaks one and searches,
    each counted with ``sys.setprofile`` after an untraced warm-up update
    of its kind (the same counting as ``gateway.batch_calls``).  The
    counts repeat exactly for a given seed, interpreter and NumPy; CI
    holds them under :mod:`repro.perflab.gates`' budgets.
    """
    keys = bench_keys(OWNER_CALLS_FLOWS + 4_000, seed=72)
    live, spare = keys[:OWNER_CALLS_FLOWS], keys[OWNER_CALLS_FLOWS:]
    cluster = Cluster.build(
        Architecture.SCALEBRICKS, 4, live,
        (live % np.uint64(4)).astype(np.int64), np.arange(len(live)),
    )
    rib = cluster.rib
    acc = UpdateAccount()
    ctx.set_params(
        flows=OWNER_CALLS_FLOWS, nodes=4,
        python=".".join(map(str, sys.version_info[:2])),
    )
    cursor = 0
    derived = {}
    for case, keep in (("kept", True), ("searched", False)):
        for counted in (False, True):
            key, node, cursor = _next_update(
                rib, cluster.nodes[0].gpt, spare, cursor, keep
            )
            bucket = rib.bucket_of(key)
            gpt = cluster.nodes[rib.owner_of_block(bucket // 256)].gpt
            gpt.setsep.buckets_of_group(gpt.setsep.group_of_bucket(bucket))
            args = (rib, gpt, acc, key, bucket, node, 1)
            if counted:
                python, c_level = count_calls(owner.owner_step, *args)
                derived[f"python_calls_{case}"] = python
                derived[f"c_calls_{case}"] = c_level
            else:
                owner.owner_step(*args)
    ctx.record(**derived)


GATEWAY_CALLS_FLOWS = 20_000

#: The update kinds ``update.gateway_calls`` counts, in the order run.
GATEWAY_CALL_KINDS = ("connect", "disconnect", "rehome")


@perflab.benchmark("update.gateway_calls", figure="§4.5 update", repeats=1)
def perflab_update_gateway_calls(ctx):
    """Python and C-level calls of one in-process update, end to end:
    ``EpcGateway.connect``, ``disconnect`` and ``rehome_flow`` (the
    controller, the DPE, the owner step, the record's encode and parse,
    three peers' apply and the cuckoo FIB op).

    A started 20,000-bearer, 4-node ScaleBricks gateway; for each kind,
    a warm-up update, then the one recorded, both counted with
    ``sys.setprofile`` (the same counting as ``update.owner_calls``) and
    both updates whose group keeps every incumbent index: an update that
    moved ``setsep.bits_searched`` is done, skipped, and the next flow
    tried.  Each group's bucket list is read once before its update is
    counted (the owner remembers it from then on).  The counts repeat
    exactly for a given seed, interpreter and NumPy; CI holds them under
    :mod:`repro.perflab.gates`' budgets.
    """
    gen = FlowGenerator(seed=73)
    flows = gen.flows(GATEWAY_CALLS_FLOWS + 400)
    live, spare = flows[:GATEWAY_CALLS_FLOWS], flows[GATEWAY_CALLS_FLOWS:]
    gateway = EpcGateway(Architecture.SCALEBRICKS, 4, 0x0A000001)
    for flow in live:
        gateway.connect(flow, gen.base_station_for(flow), gen.region_for(flow))
    gateway.start()
    searched = gateway.registry.counter("setsep.bits_searched")
    ctx.set_params(
        flows=GATEWAY_CALLS_FLOWS, nodes=4,
        python=".".join(map(str, sys.version_info[:2])),
    )

    def update(kind, position):
        """The ``position``-th update of a kind, its group's bucket list
        read: ``(callable, arguments)``."""
        flow = (spare if kind == "connect" else live)[position]
        rib = gateway.cluster.rib
        bucket = rib.bucket_of(flow.key())
        separator = gateway.cluster.nodes[
            rib.owner_of_block(bucket // 256)
        ].gpt.setsep
        separator.buckets_of_group(separator.group_of_bucket(bucket))
        if kind == "connect":
            return gateway.connect, (
                flow, gen.base_station_for(flow), gen.region_for(flow)
            )
        if kind == "disconnect":
            return gateway.disconnect, (flow,)
        node = gateway.controller.record_for_key(flow.key()).handling_node
        return gateway.rehome_flow, (flow, (node + 1) % 4)

    # Disconnects take flows from the front of ``live``, rehomes from
    # the back, so no flow is named twice.
    cursors = {"connect": 0, "disconnect": 0, "rehome": len(live) // 2}
    derived = {}
    for kind in GATEWAY_CALL_KINDS:
        for counted in (False, True):
            while True:
                fn, args = update(kind, cursors[kind])
                cursors[kind] += 1
                before = searched.value
                python, c_level = count_calls(fn, *args)
                if searched.value == before:
                    break
            if counted:
                derived[f"python_calls_{kind}"] = python
                derived[f"c_calls_{kind}"] = c_level
    ctx.record(**derived)
