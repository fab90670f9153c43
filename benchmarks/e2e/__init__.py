"""End-to-end benchmark of the gateway and the multi-process runtime.

``BENCHMARK.json`` at the repository root names the workloads, metrics,
units and bounds; this package is the harness behind it.  See README.md.
"""

from __future__ import annotations

import json
import os
from typing import Dict

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)
    ))),
    "BENCHMARK.json",
)


def benchmark_spec() -> Dict[str, object]:
    """``BENCHMARK.json``: the names, units and bounds the gate uses."""
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as handle:
        return json.load(handle)
