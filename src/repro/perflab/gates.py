"""Hard gates on the exact counts in a benchmark artifact.

Timings are compared warn-only (``repro bench compare``): CI runners are
too noisy for more.  Counts the program keeps of its own work repeat
exactly and gate hard.  A gate takes the parsed ``BENCH_*.json`` and
returns the line to log, or raises :class:`GateFailure`; CI runs it with
``python -m repro.perflab.gates BENCH_<sha>.json``.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Mapping, Optional, Sequence


class GateFailure(Exception):
    """An artifact broke a gate (or lacks the row the gate reads)."""


def _derived(artifact: Mapping[str, Any], name: str) -> Mapping[str, Any]:
    for result in artifact.get("results", ()):
        if result.get("name") == name:
            return result.get("derived", {})
    raise GateFailure(f"{name} missing from the artifact")


def group_scan_gate(artifact: Mapping[str, Any]) -> str:
    """One update reads its group's records, not its block's (§4.5).

    ``update.single_owner_rate`` reports the records ``group_contents``
    read per update beside the mean group size; an owner that enumerates
    the 1,024-key block again reads ~60 times the group.
    """
    derived = _derived(artifact, "update.single_owner_rate")
    try:
        scanned = float(derived["keys_scanned_per_update"])
        group = float(derived["mean_group_keys"])
    except KeyError as exc:
        raise GateFailure(
            f"update.single_owner_rate does not report {exc}"
        ) from exc
    line = (
        f"group scan: {scanned:.1f} records/update, "
        f"mean group {group:.1f} records"
    )
    if not 0 < scanned <= 2 * group:
        raise GateFailure(f"{line}: outside (0, 2 x group]")
    return line


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Gate one artifact file; 1 if it failed."""
    (path,) = sys.argv[1:] if argv is None else argv
    with open(path, "r", encoding="utf-8") as handle:
        artifact = json.load(handle)
    try:
        print(group_scan_gate(artifact))
    except GateFailure as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
