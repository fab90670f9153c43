"""``BENCH_*.json`` artifacts: canonical serialisation and parsing.

One artifact is one point on the repository's performance trajectory:
the environment fingerprint, the suite/scale that ran, and every
benchmark's :class:`~repro.perflab.registry.BenchResult`.  Artifacts are
written as *canonical JSON* — sorted keys, two-space indent, trailing
newline — so that byte comparison is meaningful and diffs are small.

Determinism contract: for a fixed checkout, machine and scale, two runs
produce artifacts whose :func:`deterministic_view` is byte-identical;
only each result's ``timing`` and ``derived`` sections may differ.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.perflab.registry import SCHEMA_VERSION, BenchResult

PathLike = Union[str, Path]


class ArtifactError(ValueError):
    """An artifact file or document failed validation."""


@dataclass
class Artifact:
    """One persisted perf-lab run."""

    suite: str
    scale: int
    environment: Dict[str, Any]
    results: List[BenchResult] = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready document; results are sorted by benchmark name."""
        return {
            "schema_version": self.schema_version,
            "suite": self.suite,
            "scale": self.scale,
            "environment": dict(self.environment),
            "results": [
                r.to_dict() for r in sorted(self.results, key=lambda r: r.name)
            ],
        }

    def to_json(self) -> str:
        """The canonical JSON document."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Artifact":
        """Parse a document (inverse of :meth:`to_dict`)."""
        try:
            version = int(data["schema_version"])
            if version != SCHEMA_VERSION:
                raise ArtifactError(
                    f"unsupported schema_version {version} "
                    f"(this build reads {SCHEMA_VERSION})"
                )
            return cls(
                suite=str(data["suite"]),
                scale=int(data["scale"]),
                environment=dict(data["environment"]),
                results=[BenchResult.from_dict(r) for r in data["results"]],
                schema_version=version,
            )
        except (KeyError, TypeError) as exc:
            raise ArtifactError(f"malformed artifact: {exc}") from exc

    def results_by_name(self) -> Dict[str, BenchResult]:
        """Results keyed by benchmark name."""
        return {r.name: r for r in self.results}


def canonical_json(document: Mapping[str, Any]) -> str:
    """Sorted-key, indented JSON with a trailing newline.

    The one serialisation every artifact writer uses, so serialize →
    parse → serialize is byte-identical and ``cmp a.json b.json`` is a
    valid equality check.
    """
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def deterministic_view(document: Mapping[str, Any]) -> Dict[str, Any]:
    """The document with every timing-dependent field removed.

    Drops each result's ``timing`` and ``derived`` sections; what remains
    (schema, suite, scale, environment, params, counters) must be
    byte-identical across runs on the same checkout and machine.
    """
    out = json.loads(json.dumps(document))  # deep copy via JSON
    for result in out.get("results", []):
        result.pop("timing", None)
        result.pop("derived", None)
    return out


def load_artifact(path: PathLike) -> Artifact:
    """Read and validate a ``BENCH_*.json`` file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ArtifactError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ArtifactError(f"{path}: artifact root must be an object")
    return Artifact.from_dict(data)


def artifact_filename(git_sha: str) -> str:
    """``BENCH_<shortsha>.json`` (``nogit`` outside a repository)."""
    sha = (git_sha or "nogit")[:12]
    safe = "".join(c for c in sha if c.isalnum()) or "nogit"
    return f"BENCH_{safe}.json"


def select_baseline(
    paths: Sequence[PathLike],
    current_sha: Optional[str] = None,
    warn: Optional[Callable[[str], None]] = None,
) -> Path:
    """Pick one baseline out of several candidate ``BENCH_*.json`` files.

    CI checkouts accumulate committed baselines (one per refresh), and a
    shell glob hands all of them to ``repro bench compare``.  Selection
    is deterministic:

    1. a candidate named exactly ``BENCH_<current git sha>.json`` wins
       (the baseline measured on this very revision);
    2. otherwise the newest by mtime wins and ``warn`` is told which
       candidates lost (ties broken by filename, so equal-mtime
       checkouts — fresh clones — still pick deterministically).

    Raises:
        ArtifactError: when ``paths`` is empty.
    """
    candidates = [Path(p) for p in paths]
    if not candidates:
        raise ArtifactError("no baseline artifacts given")
    if len(candidates) == 1:
        return candidates[0]
    if current_sha:
        wanted = artifact_filename(current_sha)
        for path in candidates:
            if path.name == wanted:
                return path
    def mtime(path: Path) -> float:
        try:
            return path.stat().st_mtime
        except OSError:
            return float("-inf")
    ranked = sorted(candidates, key=lambda p: (mtime(p), p.name), reverse=True)
    chosen = ranked[0]
    if warn is not None:
        losers = ", ".join(str(p) for p in ranked[1:])
        warn(
            f"multiple baselines given; no exact git-sha match, using "
            f"newest by mtime: {chosen} (ignored: {losers})"
        )
    return chosen


#: The trajectory file beside the committed artifact, and the derived
#: metrics ``(row, metric)`` it keeps: each refresh renames the one
#: ``BENCH_<sha>.json``, these lines stay.
HISTORY_FILENAME = "BENCH_HISTORY.jsonl"
HEADLINES = (
    ("update.single_owner_rate", "updates_per_second"),
    ("update.single_owner_rate", "incumbent_kept_share"),
    ("fig3.search_cost", "us_per_search"),
    ("othello.update_rate", "othello_updates_per_second"),
    ("othello.update_rate", "setsep_updates_per_second"),
    ("churn.bearer_replay", "updates_per_second"),
    ("fig8.forwarding.endtoend", "batch_kops"),
    ("fig7.lookup_batch", "measured_mops"),
    ("lookup.batch_cost.gpt", "fixed_us"),
    ("lookup.batch_cost.fib", "fixed_us"),
    ("codec.batch_cost.parse", "fixed_us"),
    ("codec.batch_cost.encap", "fixed_us"),
    ("dpe.batch_cost", "fixed_us"),
    ("fabric.batch_cost", "fixed_us"),
    ("table1.construction.workers.1", "keys_per_second"),
    ("cluster.build_cost", "build_us_per_flow"),
    ("cluster.build_cost", "resize_us_per_flow"),
    ("gateway.bearer_bytes", "bytes_per_bearer"),
    ("gateway.batch_calls", "python_calls_per_frame_at_32"),
    ("gateway.batch_calls", "python_calls_per_frame_at_256"),
    ("gateway.batch_calls", "c_calls_per_frame_at_32"),
    ("gateway.batch_calls", "c_calls_per_frame_at_256"),
    ("update.owner_calls", "python_calls_kept"),
    ("update.owner_calls", "python_calls_searched"),
    ("update.owner_calls", "c_calls_kept"),
    ("update.owner_calls", "c_calls_searched"),
    ("update.gateway_calls", "python_calls_connect"),
    ("update.gateway_calls", "python_calls_disconnect"),
    ("update.gateway_calls", "python_calls_rehome"),
    ("update.gateway_calls", "c_calls_connect"),
    ("update.gateway_calls", "c_calls_disconnect"),
    ("update.gateway_calls", "c_calls_rehome"),
)


def append_history(artifact: Artifact, out_dir: PathLike = ".") -> Path:
    """Append the artifact's headline metrics as one line; returns the path.

    The line names its commit, suite, scale and ``cpu_count``; a headline
    whose row did not run is left out, never guessed.
    """
    rows = artifact.results_by_name()
    line = {
        "git_sha": str(artifact.environment.get("git_sha", "nogit")),
        "suite": artifact.suite,
        "scale": artifact.scale,
        "cpu_count": artifact.environment.get("cpu_count"),
        "metrics": {
            f"{row}.{metric}": rows[row].derived[metric]
            for row, metric in HEADLINES
            if row in rows and metric in rows[row].derived
        },
    }
    path = Path(out_dir) / HISTORY_FILENAME
    with path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")
    return path


def write_artifact(artifact: Artifact, out_dir: PathLike = ".") -> Path:
    """Write the canonical artifact file; returns its path.

    A directory that keeps a :data:`HISTORY_FILENAME` (the repository
    root, beside the committed artifact) gets the refresh's line too.
    """
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    sha = str(artifact.environment.get("git_sha", "nogit"))
    path = directory / artifact_filename(sha)
    path.write_text(artifact.to_json(), encoding="utf-8")
    if (directory / HISTORY_FILENAME).exists():
        append_history(artifact, directory)
    return path
