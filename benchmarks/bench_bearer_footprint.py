"""Heap per bearer: what the gateway keeps for each flow it holds (§2, §5).

ScaleBricks exists because per-node memory for per-flow state bounds how
many bearers a cluster holds: the GPT costs a few bits per key, the FIB
scales out with the nodes.  ``gateway.bearer_bytes`` prices everything
else the reproduction keeps per bearer.  It sets up a 20,000-bearer
gateway on 4 nodes (bearers established, then the cluster built) under
``tracemalloc`` and splits the bytes still held afterwards by the
structure that allocated them: the controller's TEID columns and its
key -> TEID dict, the DPEs' columns and their TEID indexes, the TEID allocator, the RIB, the nodes'
FIBs and their GPT replicas.  The load generator's ``FlowTuple``
objects are built before the trace and priced on their own line.

The row is untimed, and it leaves the process's RSS to the end-to-end
``rss_mb`` metric: inside a suite the set-up reuses heap that earlier
rows freed, so an RSS delta here reads low.  Everything the row records
is timing-section content (byte counts depend on the interpreter's
object layout); CI holds the total per bearer under
:data:`repro.perflab.gates.BEARER_BYTES_BUDGET`.
"""

import gc
import os
import tracemalloc

from repro import perflab
from repro.cluster import Architecture
from repro.epc.gateway import EpcGateway
from repro.epc.packets import parse_ip
from repro.epc.traffic import FlowGenerator

BEARER_BYTES_FLOWS = 20_000
BEARER_BYTES_NODES = 4
GATEWAY_IP = parse_ip("192.0.2.1")

#: Where a traced block is charged: the innermost frame in one of these
#: modules.  The hash family and the packet codec belong to no structure,
#: so a key hashed for the controller is the controller's and a key
#: hashed for a FIB is the FIB's.
STRUCTURES = (
    ("controller", ("repro/epc/controller.py",)),
    ("dpe", ("repro/epc/dpe.py", "repro/epc/teid_index.py")),
    ("teid_allocator", ("repro/epc/tunnels.py",)),
    ("rib", ("repro/cluster/rib.py",)),
    ("fib", ("repro/hashtables/",)),
    ("gpt", ("repro/gpt/", "repro/othello/", *(
        f"repro/core/{name}.py"
        for name in ("builder", "fallback", "group", "separator", "setsep",
                     "twolevel")
    ))),
)
#: Depth of the traceback kept per block: enough to get from a NumPy or
#: hash-family call back to the structure that made it (3 charged every
#: byte as 8 did; each frame more adds about a second to the set-up).
TRACE_FRAMES = 4


def _structure(traceback) -> str:
    """The structure a traced block is charged to (``other`` if none)."""
    for frame in reversed(traceback):  # innermost first
        path = frame.filename.replace(os.sep, "/")
        for name, modules in STRUCTURES:
            if any(module in path for module in modules):
                return name
    return "other"


def _set_up(bearers) -> EpcGateway:
    gateway = EpcGateway(
        Architecture.SCALEBRICKS, BEARER_BYTES_NODES, GATEWAY_IP,
        fabric_backend="crossbar",
    )
    for args in bearers:
        gateway.connect(*args)
    gateway.start()
    return gateway


def _bearers(count, seed=37):
    gen = FlowGenerator(seed=seed)
    return [
        (flow, gen.base_station_for(flow), gen.region_for(flow))
        for flow in gen.flows(count)
    ]


@perflab.benchmark("gateway.bearer_bytes", figure="§2", repeats=1)
def perflab_gateway_bearer_bytes(ctx):
    """Traced heap per bearer after a 20,000-bearer, 4-node set-up, by
    structure."""
    flows = BEARER_BYTES_FLOWS
    ctx.set_params(bearers=flows, nodes=BEARER_BYTES_NODES)
    _set_up(_bearers(64))  # imports and one-off caches, untraced
    gc.collect()

    tracemalloc.start()
    try:
        bearers = _bearers(flows)
        tuple_bytes = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    tracemalloc.start(TRACE_FRAMES)
    try:
        gateway = _set_up(bearers)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = dict.fromkeys([name for name, _ in STRUCTURES] + ["other"], 0)
    for trace in snapshot.traces:
        held[_structure(trace.traceback)] += trace.size
    if len(gateway.controller) != flows:
        raise AssertionError("set-up lost bearers")
    ctx.record(
        bytes_per_bearer=sum(held.values()) / flows,
        **{f"{name}_bytes_per_bearer": size / flows
           for name, size in held.items()},
        flow_tuple_bytes_per_bearer=tuple_bytes / flows,
    )
