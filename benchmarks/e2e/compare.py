"""``compare``: did a change move an end-to-end metric beyond its bound?

Each argument is one *set* of run outputs — a ``runs.jsonl`` written by
``run --out DIR`` (or the directory holding it).  The first set is the
base.  Per workload and end-to-end metric the sets' medians are compared
with the bound and direction ``BENCHMARK.json`` fixes:

* ``unresolved`` — the spread inside a set (distance between its
  quartiles over its median) is wider than the bound, so no verdict;
* ``worse`` / ``better`` — the medians differ by more than the bound;
* ``unchanged`` — otherwise.

Exact-count metrics are compared for equality across every run given the
same work (same workload, seed, mode and sizes); a run that stopped at the
time cap before its last window is reported as ``differs``.
"""

from __future__ import annotations

import json
import os
import statistics
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

#: Metrics that are counts made by the program: for a given seed and
#: ``--seconds`` they repeat exactly.
EXACT = (
    "gpt_bits_per_key",
    "gpt.fallback_entries_end",
    "fastpath.spill_share",
    "cluster.hops_per_frame",
    "cluster.remote_share",
    "gateway.drop_share_unknown",
    "gateway.drop_share_acl",
    "gateway.drop_share_malformed",
    "update.groups_rebuilt_per_update",
    "update.fib_messages_per_update",
    "update.delta_broadcasts_per_update",
    "update.delta_bits_mean",
    "runtime.forwards_per_frame",
    "runtime.fib_messages_per_update",
    "runtime.delta_broadcasts_per_update",
    "runtime.delta_bits_mean",
)


def load_set(path: str) -> List[dict]:
    """The runs of one set."""
    if os.path.isdir(path):
        path = os.path.join(path, "runs.jsonl")
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return abs(q3 - q1) / abs(median) if median else 0.0


def verdict(base: Sequence[float], cand: Sequence[float],
            better: str, bound: float) -> Tuple[str, float]:
    """``(verdict, signed change)``; positive change means worse."""
    base_median = statistics.median(base)
    change = (statistics.median(cand) - base_median) / abs(base_median)
    if better == "higher":
        change = -change
    if max(spread(base), spread(cand)) > bound:
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "unchanged", change


def _values(runs: List[dict], workload: str, name: str) -> List[float]:
    return [
        run["metrics"][name] for run in runs
        if run["workload"] == workload and not run["trace"]
        and name in run["metrics"]
    ]


def compare_sets(bench: dict, base: List[dict],
                 cand: List[dict]) -> List[Tuple[str, ...]]:
    """One row per workload x end-to-end metric, then the exact counts."""
    rows: List[Tuple[str, ...]] = []
    for workload in (w["name"] for w in bench["workloads"]):
        for metric in bench["end_to_end"]:
            a = _values(base, workload, metric["name"])
            b = _values(cand, workload, metric["name"])
            if not a or not b:
                continue
            what, change = verdict(a, b, metric["better"], metric["bound"])
            rows.append((
                workload, metric["name"], what,
                f"{statistics.median(a):.6g}", f"{statistics.median(b):.6g}",
                metric["unit"], f"{change:+.2%}",
                f"spread {spread(a):.2%}/{spread(b):.2%}",
                f"bound {metric['bound']:.0%}",
            ))
    same_work: Dict[tuple, List[dict]] = defaultdict(list)
    for run in base + cand:
        work = (run["workload"], run["seed"], run["trace"],
                run["planned_windows"],
                json.dumps(run["spec"], sort_keys=True))
        same_work[work].append(run)
    for work, runs in sorted(same_work.items()):
        if len(runs) < 2:
            continue
        done = {len(run["windows"]) for run in runs}
        rows.append((
            work[0], "windows measured",
            "identical" if done == {work[3]} else "differs",
            f"seed {work[1]}", f"{len(runs)} runs", "", "", "", "",
        ))
        for name in EXACT:
            seen = {run["metrics"][name] for run in runs
                    if name in run["metrics"]}
            if seen:
                rows.append((
                    work[0], name,
                    "identical" if len(seen) == 1 else "differs",
                    f"seed {work[1]}", f"{len(runs)} runs", "", "", "", "",
                ))
    return rows


def failed(rows: List[Tuple[str, ...]]) -> bool:
    return any(row[2] in ("worse", "unresolved", "differs") for row in rows)


def render(rows: List[Tuple[str, ...]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )
