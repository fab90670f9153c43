"""Entry point named by ``BENCHMARK.json``.

``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the root of a checkout: puts the checkout and its
``src/`` on the import path and runs the ``run`` subcommand.  Exits 2
without a result where there is no source tree to benchmark.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))

if __name__ == "__main__":
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no src/repro under {ROOT}: nothing to benchmark",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from benchmarks.e2e.cli import main

    sys.exit(main(["run", *sys.argv[1:]]))
