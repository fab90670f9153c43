"""Small summary-statistics helpers used by benchmarks and models."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Summary:
    """Five-number-style summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.3f} std={self.std:.3f} "
            f"min={self.minimum:.3f} max={self.maximum:.3f}"
        )


def summarize(sample: Sequence[float]) -> Summary:
    """Compute a :class:`Summary` of ``sample`` (population std)."""
    if not sample:
        raise ValueError("cannot summarize an empty sample")
    n = len(sample)
    mean = sum(sample) / n
    var = sum((x - mean) ** 2 for x in sample) / n
    return Summary(
        count=n,
        mean=mean,
        std=math.sqrt(var),
        minimum=min(sample),
        maximum=max(sample),
    )

