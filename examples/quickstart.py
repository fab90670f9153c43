#!/usr/bin/env python3
"""Quickstart: the SetSep data structure in five minutes.

Builds a SetSep over one million flow keys, demonstrates its three
defining properties (compactness, correctness for known keys, one-sided
error for unknown keys), and pushes a delta update through a replica —
the §4.5 update path every ScaleBricks node runs.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import SetSepParams, build
from repro.gpt.gpt import rib_view
from repro.gpt import GlobalPartitionTable


def main() -> None:
    rng = np.random.default_rng(1)
    num_keys = 200_000
    num_nodes = 4

    print(f"Generating {num_keys:,} random flow keys -> node ids ...")
    keys = np.unique(rng.integers(1, 2**62, size=num_keys * 2, dtype=np.uint64))
    keys = keys[:num_keys]
    nodes = rng.integers(0, num_nodes, size=num_keys).astype(np.int64)

    print("Building the Global Partition Table (SetSep, 16+8, 2-bit values)")
    gpt, stats = GlobalPartitionTable.build(keys, nodes.tolist(), num_nodes)
    print(f"  construction rate : {stats.keys_per_second:,.0f} keys/s")
    print(f"  fallback ratio    : {stats.fallback_ratio * 100:.4f}%")
    print(f"  max group load    : {stats.max_group_load} keys (target <= 21)")

    # Property 1: compactness.  An explicit table would store 64-bit keys.
    explicit_mb = num_keys * (8 + 1) / 1e6
    print(f"  size              : {gpt.size_bytes() / 1e6:.2f} MB "
          f"({gpt.bits_per_key(num_keys):.2f} bits/key; an explicit table "
          f"would be ~{explicit_mb:.1f} MB)")

    # Property 2: every known key maps to its node.
    assert np.array_equal(gpt.lookup_batch(keys), nodes)
    print("  correctness       : all known keys map to their nodes")

    # Property 3: one-sided error — unknown keys return *some* node.
    strangers = rng.integers(2**62, 2**63, size=5, dtype=np.uint64)
    print("  one-sided error   : unknown keys map to arbitrary nodes:",
          [gpt.lookup(int(k)) for k in strangers])

    # The §4.5 update path: owner rebuilds one group, replica applies the
    # tens-of-bits delta.
    replica = gpt.copy()
    victim = int(keys[0])
    new_node = (int(nodes[0]) + 1) % num_nodes
    group = gpt.group_of(victim)
    members, owners = rib_view(keys, nodes.tolist(), gpt)[group]
    owners[members.keys == victim] = new_node
    delta = gpt.rebuild_group(group, members, owners)
    wire = delta.encode(gpt.setsep.params)
    print(f"\nMoving one flow to node {new_node}: "
          f"delta = {delta.size_bits(gpt.setsep.params)} bits on the wire")
    from repro.core.delta import GroupDelta
    replica.apply_delta(GroupDelta.decode(wire, gpt.setsep.params))
    assert replica.lookup(victim) == new_node
    print("Replica converged after applying the broadcast delta.")


if __name__ == "__main__":
    main()
