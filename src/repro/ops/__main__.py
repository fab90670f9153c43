"""``python -m repro.ops [DIR]``: gate CI's ops-smoke walkthrough reports.

Reads the reports CI's ops-smoke walkthrough (node 2 killed) leaves in
``DIR`` (default: the current directory) — ``t1.json``, ``t2.json``,
``poll.json``, ``audit.json``, ``shutdown.json`` and ``metrics.txt`` —
prints every gate of :func:`repro.runtime.session.walkthrough_gates`, and
exits 1 naming the gates that failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

from repro.runtime.session import WALKTHROUGH_REPORTS, walkthrough_gates


def load_reports(directory: str = ".") -> Dict[str, object]:
    """The walkthrough's reports in ``directory``, parsed, by name."""
    root = Path(directory)
    reports: Dict[str, object] = {
        name: json.loads((root / f"{name}.json").read_text(encoding="utf-8"))
        for name in WALKTHROUGH_REPORTS
    }
    reports["metrics"] = (root / "metrics.txt").read_text(encoding="utf-8")
    return reports


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Print each gate; 1 (failing gates on stderr) if any failed."""
    args = sys.argv[1:] if argv is None else list(argv)
    gates = walkthrough_gates(load_reports(*args[:1]))
    print(json.dumps(gates, indent=2))
    failed = [name for name, passed in gates.items() if not passed]
    if failed:
        print(f"FAIL: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
