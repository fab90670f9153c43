#!/usr/bin/env python3
"""Live churn: bearers connecting and disconnecting under traffic (§4.5).

Establishes a bearer population, then churns it — new mobiles connect,
old ones leave, some flows migrate between handling nodes — while
downstream traffic keeps flowing.  Prints the update protocol's
accounting: deltas broadcast, their size ("tens of bits"), FIB messages,
and the spread of update ownership across nodes that makes the update
rate scale.

Run:  python examples/live_updates.py
"""

import numpy as np

from repro.cluster import Architecture
from repro.epc.gateway import EpcGateway
from repro.epc.packets import parse_ip
from repro.epc.traffic import FlowGenerator, run_downstream_trial

NUM_NODES = 4
BASE_FLOWS = 5_000
CHURN_ROUNDS = 5
CONNECTS_PER_ROUND = 120
DISCONNECTS_PER_ROUND = 80


def main() -> None:
    gen = FlowGenerator(seed=7)
    gateway = EpcGateway(
        Architecture.SCALEBRICKS, NUM_NODES, parse_ip("192.0.2.1")
    )
    print(f"Establishing {BASE_FLOWS:,} bearers ...")
    active = gen.populate(gateway, BASE_FLOWS)
    gateway.start()

    rng = np.random.default_rng(9)
    for round_id in range(CHURN_ROUNDS):
        newcomers = gen.flows(CONNECTS_PER_ROUND)
        for flow in newcomers:
            gateway.connect(flow, gen.base_station_for(flow))
        active.extend(newcomers)

        leavers_idx = rng.choice(
            len(active), size=DISCONNECTS_PER_ROUND, replace=False
        )
        leavers = [active[i] for i in sorted(leavers_idx, reverse=True)]
        for flow in leavers:
            gateway.disconnect(flow)
        for i in sorted(leavers_idx, reverse=True):
            active.pop(i)

        frames = gen.packet_stream(active, 500)
        stats = run_downstream_trial(gateway, frames)
        print(f"  round {round_id + 1}: +{CONNECTS_PER_ROUND} "
              f"-{DISCONNECTS_PER_ROUND} bearers, "
              f"traffic loss {stats.loss_rate * 100:.1f}% "
              f"({len(active):,} active)")
        assert stats.loss_rate == 0.0

    updates = gateway.updates.stats
    print("\nUpdate protocol accounting (§4.5):")
    print(f"  updates processed      : {updates.updates:,}")
    print(f"  SetSep groups rebuilt  : {updates.groups_rebuilt:,}")
    print(f"  mean delta size        : {updates.mean_delta_bits:.0f} bits")
    print(f"  FIB install/remove msgs: {updates.fib_messages:,}")
    print(f"  ownership spread       : "
          f"{dict(sorted(updates.per_owner_updates.items()))}")
    print("\nEvery GPT replica stayed identical throughout:")
    cluster = gateway.cluster
    probe = np.unique(
        np.random.default_rng(0).integers(1, 2**62, 2_000, dtype=np.uint64)
    )
    reference = cluster.nodes[0].gpt.lookup_batch(probe)
    for node in cluster.nodes[1:]:
        assert np.array_equal(node.gpt.lookup_batch(probe), reference)
    print("  verified over 2,000 probe keys on all nodes.")


if __name__ == "__main__":
    main()
