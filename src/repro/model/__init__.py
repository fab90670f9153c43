"""Performance models substituting for the paper's testbed hardware.

The paper's throughput/latency results (Figures 7–10) are driven by one
mechanism: whether the lookup structures fit in cache.  These models encode
that mechanism explicitly — a cache hierarchy parameterised with the
evaluation machines' sizes/latencies, lookup-cost models for each table, and
the packet-forwarding pipeline of §6.2 — so the benchmarks can regenerate
the *shape* of every figure (who wins, crossover points) on any host.
The Figure 11 capacity analytics are exact, not modelled.
"""

from repro.model.cache import CacheHierarchy, CacheLevel, XEON_E5_2680, XEON_E5_2697V2
from repro.model.perf import (
    ForwardingModel,
    LatencyModel,
    Rfc2544Bench,
    SetSepLookupModel,
    TableCostModel,
)
from repro.model.scaling import (
    entries_full_duplication,
    entries_hash_partition,
    entries_scalebricks,
    gpt_bits_per_key,
    peak_scaling_factor,
)
from repro.model.bandwidth import FabricRequirement, expected_transits
from repro.model.skew import (
    capacity_loss_from_skew,
    effective_nodes,
    scalebricks_capacity_skewed,
    zipf_shares,
)
from repro.model.queueing import LoadLatencyModel, LoadPoint, md1_wait_us

__all__ = [
    "FabricRequirement",
    "expected_transits",
    "LoadLatencyModel",
    "LoadPoint",
    "md1_wait_us",
    "capacity_loss_from_skew",
    "effective_nodes",
    "scalebricks_capacity_skewed",
    "zipf_shares",
    "CacheHierarchy",
    "CacheLevel",
    "XEON_E5_2680",
    "XEON_E5_2697V2",
    "SetSepLookupModel",
    "TableCostModel",
    "ForwardingModel",
    "LatencyModel",
    "Rfc2544Bench",
    "entries_full_duplication",
    "entries_hash_partition",
    "entries_scalebricks",
    "gpt_bits_per_key",
    "peak_scaling_factor",
]
