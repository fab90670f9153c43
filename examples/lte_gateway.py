#!/usr/bin/env python3
"""The paper's driving application: a 4-node LTE-to-Internet gateway.

Stands up the EPC gateway under each FIB architecture of Figure 2, runs
the same downstream traffic through all of them, and prints the metrics
the architectures trade off: internal hops, forwarding state per node,
and fabric traffic.  Also demonstrates the full GTP-U data path at byte
level (encapsulation toward the base station, upstream decapsulation).

Run:  python examples/lte_gateway.py
"""

from repro.cluster import Architecture
from repro.epc.gateway import EpcGateway
from repro.epc.packets import format_ip, parse_ip
from repro.epc.traffic import FlowGenerator, run_downstream_trial
from repro.epc.tunnels import GtpTunnelEndpoint

GATEWAY_IP = parse_ip("192.0.2.1")
NUM_FLOWS = 3_000
NUM_PACKETS = 2_000


def run_architecture(arch: Architecture) -> None:
    gen = FlowGenerator(seed=42)
    gateway = EpcGateway(arch, num_nodes=4, gateway_ip=GATEWAY_IP)
    flows = gen.populate(gateway, NUM_FLOWS)
    gateway.start()

    frames = gen.packet_stream(flows, NUM_PACKETS, zipf_s=1.1)
    stats = run_downstream_trial(gateway, frames)
    node0 = gateway.memory_report()[0]
    fabric = gateway.cluster.fabric.stats

    print(f"\n--- {arch.value} ---")
    print(f"  delivered            : {stats.delivered}/{stats.offered} "
          f"(loss {stats.loss_rate * 100:.1f}%)")
    print(f"  mean internal hops   : {stats.mean_hops:.2f}")
    print(f"  node 0 FIB entries   : {node0['fib_entries']:,} "
          f"({node0['fib_bytes'] / 1024:.0f} KiB)")
    if node0["gpt_bytes"]:
        print(f"  node 0 GPT replica   : {node0['gpt_bytes'] / 1024:.1f} KiB")
    print(f"  fabric transits      : {fabric.packets:,} packets, "
          f"busiest link {fabric.max_link_packets():,}")


def show_data_path() -> None:
    print("\n--- byte-level data path (ScaleBricks) ---")
    gen = FlowGenerator(seed=43)
    gateway = EpcGateway(Architecture.SCALEBRICKS, 4, GATEWAY_IP)
    flows = gen.populate(gateway, 100)
    gateway.start()

    frame = gen.packet_stream(flows[:1], 1)[0]
    result, tunnelled = gateway.process_downstream(frame)
    record = gateway.controller.record_for_key(flows[0].key())
    teid, inner, outer = GtpTunnelEndpoint.decapsulate(tunnelled)
    print(f"  flow                : {flows[0]}")
    print(f"  handled by node     : {result.handled_by} "
          f"(path {' -> '.join(map(str, result.path))})")
    print(f"  GTP-U tunnel        : TEID 0x{teid:08x} -> base station "
          f"{format_ip(outer.dst)}")
    print(f"  outer packet        : {len(tunnelled)} bytes "
          f"(inner {len(inner)} + 36 overhead)")

    upstream = gateway.process_upstream(tunnelled)
    print(f"  upstream decap      : {'ok' if upstream else 'dropped'}, "
          f"{len(upstream)} bytes toward the Internet")
    charged = gateway.stats.bytes_charged[record.teid]
    print(f"  charging (DPE)      : {charged} bytes on TEID 0x{teid:08x}")


def main() -> None:
    print(f"LTE-to-Internet gateway: {NUM_FLOWS:,} bearers, "
          f"{NUM_PACKETS:,} downstream packets, 4 nodes")
    for arch in Architecture:
        run_architecture(arch)
    show_data_path()


if __name__ == "__main__":
    main()
