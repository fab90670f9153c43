"""The performance lab: persisted benchmark trajectory + regression gates.

The paper's §6 results are measured trade-off curves; this subsystem
makes the reproduction's own measurements first-class artifacts instead
of transient pytest output:

* :mod:`repro.perflab.registry` — ``@perflab.benchmark`` registration,
  the ``BenchSpec``/``BenchResult`` schema, min-of-K timing, and ops
  counters pulled from the :mod:`repro.obs` registry;
* :mod:`repro.perflab.runner` — suite discovery over
  ``benchmarks/bench_*.py`` and execution into a canonical, sorted-key
  ``BENCH_<gitsha>.json`` stamped with the environment fingerprint;
* :mod:`repro.perflab.compare` — noise-aware regression verdicts
  (relative bands + MAD-derived sigma thresholds) as a human table and a
  machine decision;
* CLI: ``repro bench run|compare|list`` (see :mod:`repro.cli`).

Quick use::

    from repro import perflab

    perflab.discover()
    artifact = perflab.run_suite("smoke", scale=1)
    path = perflab.write_artifact(artifact)
    report = perflab.compare_artifacts(perflab.load_artifact(old), artifact)
    print(report.table())
"""

from repro.perflab.artifact import (
    HISTORY_FILENAME,
    Artifact,
    ArtifactError,
    append_history,
    artifact_filename,
    canonical_json,
    deterministic_view,
    load_artifact,
    select_baseline,
    write_artifact,
)
from repro.perflab.compare import (
    BenchDelta,
    CompareReport,
    compare_artifacts,
    noise_sigma,
)
from repro.perflab.registry import (
    KNOWN_SUITES,
    SCHEMA_VERSION,
    BenchContext,
    BenchResult,
    BenchSpec,
    BenchmarkError,
    all_specs,
    benchmark,
    clear,
    get,
    specs_for_suite,
)
from repro.perflab.runner import DiscoveryError, discover, run_suite

__all__ = [
    "Artifact",
    "ArtifactError",
    "BenchContext",
    "BenchDelta",
    "BenchResult",
    "BenchSpec",
    "BenchmarkError",
    "CompareReport",
    "DiscoveryError",
    "HISTORY_FILENAME",
    "KNOWN_SUITES",
    "SCHEMA_VERSION",
    "all_specs",
    "append_history",
    "artifact_filename",
    "benchmark",
    "canonical_json",
    "clear",
    "compare_artifacts",
    "deterministic_view",
    "discover",
    "get",
    "load_artifact",
    "noise_sigma",
    "run_suite",
    "select_baseline",
    "specs_for_suite",
    "write_artifact",
]
