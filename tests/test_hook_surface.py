"""The packet path keeps calling the names the e2e tracer hooks.

``benchmarks/e2e`` measures each layer by wrapping public callables *by
name* on their class or module (ROADMAP, "Rules of the gate").  A
refactor that inlines or bypasses one of them makes its per-layer metric
read 0 without failing anything, so the names and their per-batch call
counts are pinned here, wrapped from outside exactly as the tracer does.
"""

from __future__ import annotations

import functools
from collections import Counter

from repro.cluster.architectures import Architecture
from repro.cluster.cluster import Cluster
from repro.epc import fastpath
from repro.epc.controller import EpcController
from repro.epc.dpe import DataPlaneEngine
from repro.epc.gateway import ChargingLedger, EpcGateway
from repro.epc.packets import parse_ip
from repro.epc.traffic import FlowGenerator
from repro.gpt.gpt import GlobalPartitionTable

NUM_NODES = 4
BATCH = 256


def count_calls(monkeypatch, calls, owner, attr):
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        calls[attr] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, wrapper)


def test_one_batch_calls_every_hooked_name(monkeypatch):
    gateway = EpcGateway(
        Architecture.SCALEBRICKS, NUM_NODES, parse_ip("192.0.2.1")
    )
    gen = FlowGenerator(seed=23)
    flows = gen.populate(gateway, 600)
    gateway.start()
    frames = gen.packet_stream(flows, BATCH)
    cluster = gateway.cluster

    calls = Counter()
    for owner, attr in (
        (fastpath, "parse_frames"),
        (fastpath, "encapsulate_batch"),
        (Cluster, "pick_ingress_batch"),
        (Cluster, "route_batch"),
        (GlobalPartitionTable, "lookup_batch"),
        (type(cluster.fabric), "deliver_batch"),
        (type(cluster.nodes[0].fib), "lookup_batch_array"),
        (EpcController, "record_for_key"),
        (DataPlaneEngine, "process_batch"),
        (ChargingLedger, "charge_many"),
    ):
        count_calls(monkeypatch, calls, owner, attr)
    results = gateway.process_downstream_batch(frames)
    monkeypatch.undo()

    assert all(out is not None for _, out in results)
    ingress = {result.ingress for result, _ in results}
    handlers = {result.handled_by for result, _ in results}
    # A uniform batch of 256 reaches every node in every role.
    assert ingress == handlers == set(range(NUM_NODES))
    assert dict(calls) == {
        "parse_frames": 1,
        "pick_ingress_batch": 1,
        "route_batch": 1,
        "lookup_batch": len(ingress),
        "deliver_batch": 1,
        "lookup_batch_array": len(handlers),
        "record_for_key": len({result.key for result, _ in results}),
        "process_batch": len(handlers),
        "charge_many": 1,
        "encapsulate_batch": 1,
    }
    assert calls["record_for_key"] < BATCH  # some flow repeats in the batch
