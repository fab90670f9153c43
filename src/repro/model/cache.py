"""Cache-hierarchy model (the Figures 7–10 substitution).

The paper's evaluation machines:

* SetSep micro-benchmarks (§6.1): dual Intel Xeon E5-2680, 20 MiB L3.
* Cluster macro-benchmarks (§6.2): Intel Xeon E5-2697 v2, 30 MiB L3, with a
  "bubble thread" variant reducing usable L3 to 15 MiB (Figure 9).

For a structure of ``working_set`` bytes accessed at uniformly random
locations, the probability that a line is resident in a cache of size ``s``
is ``min(1, s / working_set)`` (steady-state for an LRU-approximating cache
under uniform access).  Expected access latency is the level-by-level
mixture, and batched lookups overlap misses up to the memory-level
parallelism the paper's prefetch pipeline exploits (§5.1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple


@dataclass(frozen=True)
class CacheLevel:
    """One level of the hierarchy."""

    name: str
    size_bytes: int
    latency_ns: float


@dataclass(frozen=True)
class CacheHierarchy:
    """An inclusive cache hierarchy over DRAM.

    Attributes:
        levels: cache levels ordered from fastest/smallest outward.
        dram_latency_ns: miss-everything latency.
        max_outstanding: memory-level parallelism bound — how many misses a
            core can overlap when software pipelines its loads (prefetch
            batching, §5.1).
    """

    levels: Tuple[CacheLevel, ...]
    dram_latency_ns: float = 90.0
    max_outstanding: int = 16

    def hit_fractions(self, working_set: int) -> List[Tuple[str, float, float]]:
        """Per-level (name, hit fraction, latency) plus the DRAM residue."""
        out: List[Tuple[str, float, float]] = []
        covered = 0.0
        for level in self.levels:
            resident = min(1.0, level.size_bytes / max(1, working_set))
            fraction = max(0.0, resident - covered)
            out.append((level.name, fraction, level.latency_ns))
            covered = max(covered, resident)
        out.append(("DRAM", max(0.0, 1.0 - covered), self.dram_latency_ns))
        return out

    def expected_access_ns(self, working_set: int) -> float:
        """Mean latency of one random access into ``working_set`` bytes."""
        return sum(
            fraction * latency
            for _, fraction, latency in self.hit_fractions(working_set)
        )

    def overlapped_access_ns(self, working_set: int, batch: int) -> float:
        """Mean per-access stall when ``batch`` accesses are pipelined.

        Software batching with prefetch lets up to ``max_outstanding``
        misses overlap; the portion of the latency above the L1 floor
        divides accordingly (an L1/L2 hit cannot be meaningfully hidden,
        which is why small structures gain nothing from batching —
        Figure 7's 500 K-entry series).  A batch of 1 gets no overlap (the
        paper's "w/o batching" series).
        """
        overlap = max(1, min(batch, self.max_outstanding))
        expected = self.expected_access_ns(working_set)
        floor = self.levels[0].latency_ns if self.levels else 0.0
        floor = min(floor, expected)
        return floor + (expected - floor) / overlap

    def with_l3(self, size_bytes: int) -> "CacheHierarchy":
        """A copy with the last (L3) level resized — the Fig. 9 bubble."""
        levels = list(self.levels)
        levels[-1] = replace(levels[-1], size_bytes=size_bytes)
        return CacheHierarchy(
            levels=tuple(levels),
            dram_latency_ns=self.dram_latency_ns,
            max_outstanding=self.max_outstanding,
        )


def _mib(n: float) -> int:
    return int(n * 1024 * 1024)


#: §6.1 micro-benchmark machine: dual Xeon E5-2680 (20 MiB L3 per socket).
XEON_E5_2680 = CacheHierarchy(
    levels=(
        CacheLevel("L1", 32 * 1024, 1.5),
        CacheLevel("L2", 256 * 1024, 4.0),
        CacheLevel("L3", _mib(20), 15.0),
    ),
)

#: §6.2 cluster machine: Xeon E5-2697 v2 (30 MiB L3).
XEON_E5_2697V2 = CacheHierarchy(
    levels=(
        CacheLevel("L1", 32 * 1024, 1.5),
        CacheLevel("L2", 256 * 1024, 4.0),
        CacheLevel("L3", _mib(30), 15.0),
    ),
)
