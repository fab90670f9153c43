"""``python -m benchmarks.e2e run|compare`` (with ``PYTHONPATH=src``)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
