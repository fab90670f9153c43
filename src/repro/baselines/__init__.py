"""Related-work comparators (paper §8).

These are the alternative designs the paper positions SetSep against:

* :class:`repro.baselines.bloom.BloomFilter` — the probabilistic-membership
  substrate.
* :class:`repro.baselines.buffalo.BuffaloSeparator` — BUFFALO's
  one-Bloom-filter-per-port set separation, with its multi-positive
  resolution problem.
* :class:`repro.baselines.bloomier.BloomierFilter` — the Bloomier filter's
  XOR-of-cells key-to-value mapping.
* :class:`repro.baselines.perfecthash.ChdPerfectHash` — compress-hash-and-
  displace perfect hashing (CHD), the closest perfect-hashing relative.

All share SetSep's key space so space/accuracy comparisons are apples to
apples (the ``bench_ablation_separators`` benchmark).
"""

from repro.baselines.bloom import BloomFilter
from repro.baselines.buffalo import BuffaloSeparator
from repro.baselines.bloomier import BloomierFilter, BloomierBuildError
from repro.baselines.perfecthash import ChdPerfectHash, ChdBuildError

__all__ = [
    "BloomFilter",
    "BuffaloSeparator",
    "BloomierFilter",
    "BloomierBuildError",
    "ChdPerfectHash",
    "ChdBuildError",
]
