#!/usr/bin/env python3
"""Failure isolation and recovery (paper §7).

Kills one node of a 4-node cluster under each architecture and measures
exactly which flows stop forwarding: ScaleBricks and full duplication lose
only the failed node's own flows (fate sharing), while hash partitioning
also loses flows that were merely *looked up* there.  Then recovers a
ScaleBricks gateway by evacuating the dead node — re-homing its bearers
through the normal update protocol — and verifies full service.

Run:  python examples/failure_recovery.py
"""

import numpy as np

from repro.cluster import Architecture, Cluster, impact_report
from repro.epc.gateway import EpcGateway
from repro.epc.packets import build_downstream_frame, parse_ip
from repro.epc.traffic import GATEWAY_MAC, GENERATOR_MAC, FlowGenerator

NUM_NODES = 4
NUM_FLOWS = 8_000
BEARERS = 2_000
FAILED = 2


def build(arch):
    rng = np.random.default_rng(11)
    keys = np.unique(rng.integers(1, 2**62, NUM_FLOWS * 2, dtype=np.uint64))
    keys = keys[:NUM_FLOWS]
    handlers = (keys % NUM_NODES).astype(np.int64)
    values = np.arange(NUM_FLOWS) + 1
    return Cluster.build(arch, NUM_NODES, keys, handlers, values)


def forward(gateway, flows):
    """Route one frame per flow from node 0; the per-frame verdicts."""
    frames = [
        build_downstream_frame(GENERATOR_MAC, GATEWAY_MAC, flow, b"payload")
        for flow in flows
    ]
    return gateway.process_downstream_batch(frames, [0] * len(frames))


def main() -> None:
    print(f"{NUM_FLOWS:,} flows on {NUM_NODES} nodes; killing node {FAILED}\n")
    print(f"{'architecture':20} {'own loss':>9} {'collateral':>11} {'isolated?':>10}")
    for arch in (
        Architecture.SCALEBRICKS,
        Architecture.FULL_DUPLICATION,
        Architecture.HASH_PARTITION,
    ):
        impact = impact_report(build(arch), FAILED)
        print(
            f"{arch.value:20} {impact.lost_own_flows:>9,} "
            f"{impact.lost_collateral_flows:>11,} "
            f"{'yes' if impact.isolation else 'NO':>10}"
        )

    print(f"\nRecovering a ScaleBricks gateway ({BEARERS:,} bearers):")
    gateway = EpcGateway(Architecture.SCALEBRICKS, NUM_NODES,
                         parse_ip("192.0.2.1"))
    flows = FlowGenerator(seed=11).populate(gateway, BEARERS)
    gateway.start()
    gateway.down_nodes.add(FAILED)

    def on_failed(flow):
        record = gateway.controller.record_for_key(flow.key())
        return record.handling_node == FAILED

    victims = [flow for flow in flows if on_failed(flow)]
    others = [flow for flow in flows if not on_failed(flow)]
    lost = sum(out is None for _, out in forward(gateway, victims))
    print(f"  before recovery: {lost}/{len(victims)} failed-node bearers "
          "are down")

    survivors = [n for n in range(NUM_NODES) if n != FAILED]
    moved = gateway.evacuate(FAILED, survivors)
    stats = gateway.updates.stats
    print(f"  re-homed {len(moved):,} bearers via the §4.5 update protocol "
          f"({stats.mean_delta_bits:.0f}-bit deltas, "
          f"{stats.groups_rebuilt:,} group rebuilds)")

    recovered = sum(out is not None for _, out in forward(gateway, victims))
    print(f"  after recovery : {recovered}/{len(victims)} bearers "
          "forwarding again")
    fib_sizes = [len(node.fib) for node in gateway.cluster.nodes]
    print(f"  per-node FIB entries now: {fib_sizes} "
          f"(node {FAILED} drained)")

    untouched = sum(
        out is not None and result.handled_by != FAILED
        for result, out in forward(gateway, others)
    )
    print(f"  unaffected bearers untouched throughout: "
          f"{untouched}/{len(others)}")


if __name__ == "__main__":
    main()
