"""The packet path and the runtime keep calling the names the e2e tracer hooks.

``benchmarks/e2e`` measures each layer by wrapping public callables *by
name* on their class or module (ROADMAP, "Rules of the gate").  A
refactor that inlines or bypasses one of them makes its per-layer metric
read 0 without failing anything, so the names and their per-batch call
counts are pinned here, wrapped from outside exactly as the tracer does.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter

import pytest

from repro.cluster.architectures import Architecture
from repro.cluster.cluster import Cluster
from repro.epc import fastpath
from repro.epc.controller import EpcController
from repro.epc.dpe import DataPlaneEngine
from repro.epc.gateway import ChargingLedger, EpcGateway
from repro.epc.packets import parse_ip
from repro.epc.traffic import FlowGenerator
from repro.fabric import DELIVER, DROP
from repro.gpt.gpt import GlobalPartitionTable
from repro.runtime import controller as controller_module
from repro.runtime import protocol
from repro.runtime.controller import RuntimeController
from repro.runtime.framing import FramedSocket
from repro.runtime.launcher import LocalRuntime
from repro.runtime.shadow import Shadow

NUM_NODES = 4
BATCH = 256


def count_calls(monkeypatch, calls, owner, attr, keys=None):
    """Wrap ``owner.attr`` as the tracer does; with ``keys``, also sum
    what its per-key hooks read: ``len(args[1])``."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        calls[attr] += 1
        if keys is not None:
            keys[attr] += len(args[1])
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

    calls, keys = Counter(), Counter()
    hooked = (
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
    )
    for owner, attr in hooked:
        count_calls(
            monkeypatch, calls, owner, attr,
            keys if attr.startswith("lookup_batch") else None,
        )
    results = gateway.process_downstream_batch(frames)
    monkeypatch.undo()

    assert all(out is not None for _, out in results)
    ingress = {result.ingress for result, _ in results}
    handlers = {result.handled_by for result, _ in results}
    # A uniform batch of 256 reaches every node in every role.
    assert ingress == handlers == set(range(NUM_NODES))
    # The FIB's TEID finds each bearer in the controller's egress
    # columns: no record is looked up per frame or per flow.
    assert {attr: calls[attr] for _, attr in hooked} == {
        "parse_frames": 1,
        "pick_ingress_batch": 1,
        "route_batch": 1,
        "lookup_batch": len(ingress),
        "deliver_batch": 1,
        "lookup_batch_array": len(handlers),
        "record_for_key": 0,
        "process_batch": len(handlers),
        "charge_many": 1,
        "encapsulate_batch": 1,
    }
    # ``gpt.lookup_ns_per_key`` / ``fib.lookup_ns_per_key`` divide by
    # ``len(args[1])``: the pre-hashed slices must add up to the frames
    # routed, once through the GPT replicas and once through the FIBs.
    assert keys == {"lookup_batch": BATCH, "lookup_batch_array": BATCH}


def test_a_mixed_small_batch_calls_the_lookups_per_node_present(monkeypatch):
    """``fwd_mixed``'s shape: 32 frames with a drop of every kind
    (malformed, ACL, unknown, a lost transit, a dead node on the path)
    and one bearer's three frames.  Each GPT replica is asked once per ingress node present,
    each FIB once per node the routed frames reached, each DPE once per
    node that accepted a frame; the per-key hooks' ``len(args[1])`` sum
    to the frames each stage saw.  A per-layer metric of ``fwd_mixed``
    then cannot read 0 because a stage reuses another's split."""
    gateway = EpcGateway(
        Architecture.SCALEBRICKS, NUM_NODES, parse_ip("192.0.2.1")
    )
    gen = FlowGenerator(seed=29)
    flows = gen.populate(gateway, 600)
    gateway.start()
    by_node = {node: [] for node in range(NUM_NODES)}
    for flow in flows:
        record = gateway.controller.record_for_key(flow.key())
        by_node[record.handling_node].append(flow)
    frame = lambda flow: gen.packet_stream([flow], 1)[0]
    plan = (
        [(frame(f), 1) for f in by_node[0][:4]]          # handled
        + [(frame(f), 1) for f in by_node[2][:2]]        # lost 1 -> 2
        + [(frame(f), 0) for f in by_node[3][:2]]        # node 3 is down
        + [(frame(f), 1) for f in by_node[1][:3]]        # handled, local
        + [(frame(by_node[0][5]), 2)] * 3                # one bearer thrice
        + [(frame(f), 0) for f in gen.flows(3)]          # unknown
        + [(frame(by_node[1][4]), 0)] * 2                # ACL
        + [(b"\x00" * 20, 0), (frame(flows[0])[:30], 2)]  # malformed
        + [(frame(f), 2) for f in by_node[2][2:13]]      # handled, local
    )
    frames, ingress = zip(*plan)
    assert len(frames) == 32
    gateway.acl_blocked_sources.add(by_node[1][4].src_ip)
    gateway.down_nodes.add(3)
    gateway.cluster.fabric.fault_hook = (
        lambda src, dst, size: DROP if (src, dst) == (1, 2) else DELIVER
    )

    calls, keys = Counter(), Counter()
    hooked = (
        (GlobalPartitionTable, "lookup_batch"),
        (type(gateway.cluster.nodes[0].fib), "lookup_batch_array"),
        (DataPlaneEngine, "process_batch"),
    )
    for owner, attr in hooked:
        count_calls(monkeypatch, calls, owner, attr, keys)
    results = gateway.process_downstream_batch(list(frames), list(ingress))
    monkeypatch.undo()

    assert Counter(result.reason for result, _ in results) == {
        # Two unknown keys land at the dead node: a dead node is
        # reported before the FIB's verdict.
        "handled": 21, "fabric_loss": 2, "node_down": 4,
        "unknown_key": 1, "acl": 2, "malformed": 2,
    }
    routed = [r for r, _ in results if r.reason not in ("malformed", "acl")]
    arrived = [r for r in routed if r.reason != "fabric_loss"]
    accepted = [r for r in arrived if r.reason == "handled"]
    assert calls == {
        "lookup_batch": len({r.ingress for r in routed}),
        "lookup_batch_array": len({r.path[-1] for r in arrived}),
        "process_batch": len({r.path[-1] for r in accepted}),
    } == {"lookup_batch": 3, "lookup_batch_array": 4, "process_batch": 3}
    assert keys == {
        "lookup_batch": len(routed),
        "lookup_batch_array": len(arrived),
        "process_batch": len(accepted),
    } == {"lookup_batch": 28, "lookup_batch_array": 26, "process_batch": 21}


@pytest.mark.parametrize("arch, legs", [
    (Architecture.SCALEBRICKS, 1),
    (Architecture.FULL_DUPLICATION, 1),
    (Architecture.ROUTEBRICKS_VLB, 2),
    (Architecture.HASH_PARTITION, 2),
], ids=lambda case: getattr(case, "value", case))
def test_a_fault_hook_keeps_one_route_and_one_deliver_per_leg(
    monkeypatch, arch, legs
):
    """An installed fault hook (chaos) changes the verdicts, not the
    path: one ``route_batch`` per batch, one ``deliver_batch`` per leg,
    never the per-frame ``route``."""
    gateway = EpcGateway(arch, NUM_NODES, parse_ip("192.0.2.1"))
    gen = FlowGenerator(seed=23)
    flows = gen.populate(gateway, 600)
    gateway.start()
    frames = gen.packet_stream(flows, BATCH)
    cluster = gateway.cluster
    verdicts = itertools.cycle((DELIVER, DELIVER, DELIVER, DROP))
    cluster.fabric.fault_hook = lambda src, dst, size: next(verdicts)

    calls = Counter()
    for owner, attr in (
        (Cluster, "route"),
        (Cluster, "route_batch"),
        (type(cluster.fabric), "deliver_batch"),
    ):
        count_calls(monkeypatch, calls, owner, attr)
    results = gateway.process_downstream_batch(frames)
    monkeypatch.undo()

    assert {result.reason for result, _ in results} >= {
        "handled", "fabric_loss"
    }
    assert dict(calls) == {"route_batch": 1, "deliver_batch": legs}


def test_runtime_verbs_call_every_hooked_name(monkeypatch):
    """``rt_mixed`` hooks the controller side of the socket runtime: one
    ``FramedSocket.request`` per daemon a verb talks to, payload third."""
    shadow = Shadow(2, seed=23)
    shadow.populate(3000)  # enough blocks for both daemons to own some
    with LocalRuntime(2) as runtime:
        controller = RuntimeController(runtime.addresses, use_shm=False)
        controller.connect()
        controller.bootstrap_from_gateway(shadow.gateway)
        try:
            frames = shadow.generator.packet_stream(shadow.live_flows, 64)
            ingress = [i % 2 for i in range(len(frames))]
            ops = [shadow.connect() for _ in range(40)]
            owners = {controller.owner_of_key(op.key) for op in ops}
            assert owners == {0, 1}

            calls = Counter()
            requests = []
            request = FramedSocket.request

            @functools.wraps(request)
            def recording_request(*args, **kwargs):
                result = request(*args, **kwargs)
                requests.append((args, kwargs, result))
                return result

            monkeypatch.setattr(FramedSocket, "request", recording_request)
            for owner, attr in (
                (controller_module, "pack_frame_list"),
                (protocol, "decode_outcomes"),
                (protocol, "encode_updates"),
            ):
                count_calls(monkeypatch, calls, owner, attr)
            outcomes = controller.route_frames(frames, ingress)
            routed = len(requests)
            controller.push_updates(ops)
            monkeypatch.undo()
        finally:
            controller.shutdown_all()

    assert len(outcomes) == len(frames)
    assert routed == 2 and len(requests) == routed + len(owners)
    for args, kwargs, result in requests:
        # The tracer reads ``len(args[2])`` and ``len(result[1])``.
        assert len(args) == 3 and not kwargs
        assert isinstance(args[2], bytes) and args[2]
        msg_type, body = result
        assert isinstance(msg_type, int) and isinstance(body, bytes)
    assert dict(calls) == {
        "pack_frame_list": 2,
        "decode_outcomes": 2,
        "encode_updates": len(owners),
    }
