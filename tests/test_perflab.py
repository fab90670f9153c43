"""Tests for the performance lab (repro.perflab).

Covers the four subsystem contracts:

* schema round-trip — serialize → parse → serialize is byte-identical
  (including a hypothesis property over generated result content);
* regression verdicts — an injected slowdown above the band/MAD
  threshold flips the verdict and the CLI exit code, below it does not,
  and noisy baselines widen the gate;
* runner determinism — everything outside each result's ``timing`` and
  ``derived`` sections is byte-identical across runs;
* registration completeness — every ``benchmarks/bench_*.py`` module
  registers at least one measured path, all visible to
  ``repro bench list``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perflab
from repro.cli import main
from repro.perflab import gates
from repro.perflab import registry as reg
from repro.utils import DATACLASS_SLOTS
from repro.utils.env import environment_fingerprint, git_sha

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"


# -- helpers -------------------------------------------------------------


def make_artifact(results):
    return perflab.Artifact(
        suite="smoke",
        scale=1,
        environment={"git_sha": "deadbeef", "cpu_count": 1},
        results=results,
    )


def make_result(name, samples, **overrides):
    fields = dict(
        name=name,
        figure="Test",
        module="tests.synthetic",
        suites=("smoke",),
        params={"n": 10},
        counters={"ops": 10},
        derived={"rate": 1.0},
        samples=list(samples),
        repeats=len(samples),
    )
    fields.update(overrides)
    return perflab.BenchResult(**fields)


@pytest.fixture()
def isolated_registry():
    """Snapshot and restore the global benchmark registry."""
    saved = dict(reg._REGISTRY)
    reg._REGISTRY.clear()
    try:
        yield reg._REGISTRY
    finally:
        reg._REGISTRY.clear()
        reg._REGISTRY.update(saved)


# -- schema round-trip ---------------------------------------------------


class TestSchemaRoundTrip:
    def test_manual_round_trip_is_byte_identical(self):
        artifact = make_artifact(
            [make_result("b.one", [0.5, 0.4]), make_result("a.two", [1.0])]
        )
        text = artifact.to_json()
        parsed = perflab.Artifact.from_dict(json.loads(text))
        assert parsed.to_json() == text
        # Results are sorted by name in the document.
        names = [r["name"] for r in json.loads(text)["results"]]
        assert names == sorted(names)

    def test_best_is_min_of_samples(self):
        result = make_result("x", [0.9, 0.3, 0.7])
        assert result.best == 0.3
        assert make_result("y", []).best is None

    def test_rejects_wrong_schema_version(self):
        doc = make_artifact([]).to_dict()
        doc["schema_version"] = 999
        with pytest.raises(perflab.ArtifactError):
            perflab.Artifact.from_dict(doc)

    def test_rejects_malformed_document(self):
        with pytest.raises(perflab.ArtifactError):
            perflab.Artifact.from_dict({"suite": "smoke"})

    def test_load_artifact_errors(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(perflab.ArtifactError):
            perflab.load_artifact(missing)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(perflab.ArtifactError):
            perflab.load_artifact(bad)
        nondict = tmp_path / "list.json"
        nondict.write_text("[1, 2]")
        with pytest.raises(perflab.ArtifactError):
            perflab.load_artifact(nondict)

    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**53), max_value=2**53),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.text(max_size=20),
    )
    names = st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Nd"),
                               whitelist_characters="._-"),
        min_size=1, max_size=30,
    )

    @settings(max_examples=50, deadline=None)
    @given(
        results=st.lists(
            st.tuples(
                names,
                st.dictionaries(names, scalars, max_size=4),
                st.dictionaries(names, st.integers(0, 2**40), max_size=4),
                st.lists(
                    st.floats(min_value=0, max_value=1e6,
                              allow_nan=False), max_size=5
                ),
            ),
            max_size=5,
            unique_by=lambda t: t[0],
        )
    )
    def test_property_serialize_parse_serialize(self, results):
        artifact = make_artifact(
            [
                make_result(name, samples, params=params, counters=counters,
                            derived={})
                for name, params, counters, samples in results
            ]
        )
        text = artifact.to_json()
        reparsed = perflab.Artifact.from_dict(json.loads(text))
        assert reparsed.to_json() == text

    def test_deterministic_view_strips_timing_and_derived(self):
        doc = make_artifact([make_result("x", [0.1])]).to_dict()
        view = perflab.deterministic_view(doc)
        assert "timing" not in view["results"][0]
        assert "derived" not in view["results"][0]
        assert view["results"][0]["params"] == {"n": 10}
        # The original document is untouched.
        assert "timing" in doc["results"][0]

    def test_artifact_filename(self):
        assert perflab.artifact_filename("abc123def456789") == \
            "BENCH_abc123def456.json"
        assert perflab.artifact_filename("") == "BENCH_nogit.json"


# -- regression verdicts -------------------------------------------------


class TestCompareVerdicts:
    def test_clean_comparison_passes(self):
        base = make_artifact([make_result("x", [1.0, 1.0, 1.01])])
        cur = make_artifact([make_result("x", [1.02, 1.0, 1.01])])
        report = perflab.compare_artifacts(base, cur)
        assert report.ok
        assert report.verdict == "pass"
        assert [d.status for d in report.deltas] == ["ok"]

    def test_regression_above_threshold_fails(self):
        base = make_artifact([make_result("x", [1.0, 1.0, 1.01])])
        cur = make_artifact([make_result("x", [1.5, 1.5, 1.52])])
        report = perflab.compare_artifacts(base, cur)
        assert not report.ok
        assert report.verdict == "fail"
        assert report.failures[0].name == "x"

    def test_slowdown_below_band_is_ok(self):
        base = make_artifact([make_result("x", [1.0, 1.0, 1.01])])
        cur = make_artifact([make_result("x", [1.05, 1.06, 1.05])])
        report = perflab.compare_artifacts(base, cur)
        assert report.ok
        assert report.deltas[0].status == "ok"

    def test_noisy_baseline_widens_the_gate(self):
        # Tight baseline: +30% fails.  Same +30% on a baseline whose own
        # samples scatter by ~50% stays inside mad_k * sigma.
        tight = make_artifact([make_result("x", [1.0, 1.0, 1.0])])
        noisy = make_artifact([make_result("x", [1.0, 1.5, 2.0])])
        cur = make_artifact([make_result("x", [1.3, 1.3, 1.3])])
        assert not perflab.compare_artifacts(tight, cur).ok
        assert perflab.compare_artifacts(noisy, cur).ok

    def test_improvement_is_reported_not_failed(self):
        base = make_artifact([make_result("x", [1.0, 1.0])])
        cur = make_artifact([make_result("x", [0.5, 0.5])])
        report = perflab.compare_artifacts(base, cur)
        assert report.ok
        assert report.deltas[0].status == "improved"

    def test_new_and_missing_warn_but_never_fail(self):
        base = make_artifact([make_result("old", [1.0])])
        cur = make_artifact([make_result("fresh", [1.0])])
        report = perflab.compare_artifacts(base, cur)
        assert report.ok
        assert report.verdict == "warn"
        statuses = {d.name: d.status for d in report.deltas}
        assert statuses == {"old": "missing", "fresh": "new"}

    def test_untimed_results_are_neutral(self):
        base = make_artifact([make_result("x", [])])
        cur = make_artifact([make_result("x", [])])
        report = perflab.compare_artifacts(base, cur)
        assert report.ok
        assert report.deltas[0].status == "untimed"

    def test_threshold_bands_validated(self):
        base = make_artifact([])
        with pytest.raises(ValueError):
            perflab.compare_artifacts(base, base, fail_band=0.1,
                                      warn_band=0.2)

    def test_report_table_and_dict(self):
        base = make_artifact([make_result("x", [1.0, 1.0])])
        cur = make_artifact([make_result("x", [1.5, 1.5])])
        report = perflab.compare_artifacts(base, cur)
        table = report.table()
        assert "x" in table and "verdict: fail" in table
        doc = report.to_dict()
        assert doc["verdict"] == "fail"
        assert doc["counts"]["fail"] == 1

    def test_noise_sigma(self):
        assert perflab.noise_sigma([]) == 0.0
        assert perflab.noise_sigma([1.0]) == 0.0
        assert perflab.noise_sigma([1.0, 1.0, 1.0]) == 0.0
        assert perflab.noise_sigma([1.0, 2.0, 3.0]) == \
            pytest.approx(1.4826, rel=1e-6)


class TestCompareCli:
    def _write(self, tmp_path, name, artifact):
        path = tmp_path / name
        path.write_text(artifact.to_json())
        return str(path)

    def test_exit_codes(self, tmp_path, capsys):
        base = make_artifact([make_result("x", [1.0, 1.0, 1.01])])
        ok = make_artifact([make_result("x", [1.01, 1.0, 1.0])])
        slow = make_artifact([make_result("x", [1.6, 1.6, 1.6])])
        base_p = self._write(tmp_path, "base.json", base)
        assert main(["bench", "compare", base_p,
                     self._write(tmp_path, "ok.json", ok)]) == 0
        slow_p = self._write(tmp_path, "slow.json", slow)
        assert main(["bench", "compare", base_p, slow_p]) == 1
        assert main(["bench", "compare", base_p, slow_p,
                     "--warn-only"]) == 0
        capsys.readouterr()

    def test_json_verdict(self, tmp_path, capsys):
        base = make_artifact([make_result("x", [1.0, 1.0])])
        slow = make_artifact([make_result("x", [2.0, 2.0])])
        assert main(["bench", "compare",
                     self._write(tmp_path, "a.json", base),
                     self._write(tmp_path, "b.json", slow), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "fail"
        assert doc["benchmarks"][0]["name"] == "x"

    def test_malformed_artifact_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        good = self._write(tmp_path, "good.json", make_artifact([]))
        assert main(["bench", "compare", str(bad), good]) == 2
        capsys.readouterr()


# -- runner determinism --------------------------------------------------


class TestRunner:
    def test_deterministic_outside_timing(self, isolated_registry):
        @perflab.benchmark("det.alpha", figure="T", suites=("smoke",),
                           repeats=2)
        def alpha(ctx):
            ctx.set_params(n=100 * ctx.scale)
            ctx.registry.counter("alpha.ops").inc(100 * ctx.scale)
            ctx.timeit(lambda: sum(range(1000)))
            ctx.record(rate=123.0)

        @perflab.benchmark("det.beta", figure="T", suites=("smoke",))
        def beta(ctx):
            ctx.set_params(mode="fast")
            ctx.timeit(lambda: None, repeats=1)

        one = perflab.run_suite("smoke", scale=2)
        two = perflab.run_suite("smoke", scale=2)
        view_one = perflab.canonical_json(
            perflab.deterministic_view(one.to_dict()))
        view_two = perflab.canonical_json(
            perflab.deterministic_view(two.to_dict()))
        assert view_one == view_two
        assert one.results_by_name()["det.alpha"].counters == \
            {"alpha.ops": 200}
        assert len(one.results_by_name()["det.alpha"].samples) == 2

    def test_suite_and_filter_selection(self, isolated_registry):
        @perflab.benchmark("sel.smoke_only", suites=("smoke",))
        def smoke_only(ctx):
            ctx.timeit(lambda: None, repeats=1)

        @perflab.benchmark("sel.full_only", suites=("full",))
        def full_only(ctx):
            ctx.timeit(lambda: None, repeats=1)

        smoke = perflab.run_suite("smoke")
        assert [r.name for r in smoke.results] == ["sel.smoke_only"]
        everything = perflab.run_suite("all")
        assert len(everything.results) == 2
        filtered = perflab.run_suite("all", name_filter="full")
        assert [r.name for r in filtered.results] == ["sel.full_only"]

    def test_environment_fingerprint_is_stamped(self, isolated_registry):
        @perflab.benchmark("env.probe", suites=("smoke",))
        def probe(ctx):
            ctx.timeit(lambda: None, repeats=1)

        artifact = perflab.run_suite("smoke")
        env = artifact.environment
        for field in ("cpu_model", "cpu_count", "python_version",
                      "numpy_version", "git_sha"):
            assert field in env
        assert env == environment_fingerprint()

    def test_duplicate_name_across_modules_rejected(self, isolated_registry):
        @perflab.benchmark("dup.name")
        def first(ctx):
            pass

        def second(ctx):
            pass

        second.__module__ = "somewhere.else"
        with pytest.raises(perflab.BenchmarkError):
            perflab.benchmark("dup.name")(second)
        # Same module re-registering (a re-import) is fine.
        perflab.benchmark("dup.name")(first)

    def test_unknown_suite_rejected(self, isolated_registry):
        with pytest.raises(perflab.BenchmarkError):
            @perflab.benchmark("bad.suite", suites=("nightly",))
            def nope(ctx):
                pass
        with pytest.raises(perflab.BenchmarkError):
            perflab.specs_for_suite("nightly")

    def test_non_scalar_recordings_rejected(self, isolated_registry):
        ctx = reg.BenchContext(
            reg.BenchSpec("x", lambda c: None, "", ("smoke",), 1, "m", ""),
            scale=1, repeats=1,
        )
        with pytest.raises(perflab.BenchmarkError):
            ctx.set_params(bad=[1, 2, 3])
        ctx.set_params(ok_numpy=np.uint64(7))
        assert ctx._params["ok_numpy"] == 7


# -- registration completeness -------------------------------------------


class TestRegistrationCompleteness:
    def test_every_bench_module_registers(self):
        perflab.discover()
        registered_modules = {
            spec.module.rsplit(".", 1)[-1] for spec in perflab.all_specs()
            if spec.module.startswith("benchmarks.")
        }
        on_disk = {p.stem for p in BENCH_DIR.glob("bench_*.py")}
        assert on_disk, "no benchmark modules found"
        missing = on_disk - registered_modules
        assert not missing, (
            f"bench modules without a perflab registration: {missing}"
        )

    def test_bench_list_shows_everything(self, capsys):
        assert main(["bench", "list", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        names = {row["name"] for row in doc["benchmarks"]}
        modules = {row["module"].rsplit(".", 1)[-1]
                   for row in doc["benchmarks"]}
        on_disk = {p.stem for p in BENCH_DIR.glob("bench_*.py")}
        assert on_disk <= modules
        assert "table1.construction.workers.4" in names

    def test_bench_list_human(self, capsys):
        assert main(["bench", "list", "--suite", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "table1.construction.workers.1" in out
        assert "benchmarks registered" in out


# -- the CLI run verb ----------------------------------------------------


class TestBenchRunCli:
    def test_run_writes_canonical_deterministic_artifact(
        self, tmp_path, capsys
    ):
        argv = ["bench", "run", "--suite", "all", "--filter",
                "fig11.scaling_curve", "--out", str(tmp_path / "a"),
                "--json"]
        assert main(argv) == 0
        out_a = capsys.readouterr().out
        argv[argv.index(str(tmp_path / "a"))] = str(tmp_path / "b")
        assert main(argv) == 0
        out_b = capsys.readouterr().out

        paths_a = list((tmp_path / "a").glob("BENCH_*.json"))
        assert len(paths_a) == 1
        text = paths_a[0].read_text()
        # Canonical: file equals its own re-serialisation, and stdout.
        assert text == perflab.canonical_json(json.loads(text))
        assert text == out_a
        # Non-timing content is byte-identical across the two runs.
        view = lambda t: perflab.canonical_json(  # noqa: E731
            perflab.deterministic_view(json.loads(t)))
        assert view(out_a) == view(out_b)
        doc = json.loads(out_a)
        assert doc["results"][0]["name"] == "fig11.scaling_curve"
        assert doc["environment"]["git_sha"] == (git_sha() or "unknown")

    def test_run_unmatched_filter_is_error(self, tmp_path, capsys):
        assert main(["bench", "run", "--filter", "no.such.bench",
                     "--out", str(tmp_path)]) == 2
        capsys.readouterr()


    def test_run_appends_history_only_where_a_history_is_kept(
        self, tmp_path, capsys
    ):
        argv = ["bench", "run", "--suite", "all", "--filter",
                "fig11.scaling_curve", "--out", str(tmp_path)]
        assert main(argv) == 0
        history = tmp_path / perflab.HISTORY_FILENAME
        assert not history.exists()
        history.write_text('{"git_sha": "earlier"}\n')
        assert main(argv) == 0 and main(argv) == 0
        capsys.readouterr()
        lines = [json.loads(line) for line in history.read_text().splitlines()]
        assert lines[0] == {"git_sha": "earlier"}
        assert [line["git_sha"] for line in lines[1:]] == (
            [git_sha() or "unknown"] * 2
        )
        # The filtered run has none of the headline rows: none is invented.
        assert lines[1]["metrics"] == {} and lines[1]["suite"] == "all"


class TestHistory:
    def test_line_keeps_headlines_that_ran_and_names_its_run(self, tmp_path):
        artifact = make_artifact([
            make_result("update.single_owner_rate", [0.1], derived={
                "updates_per_second": 3000.0, "incumbent_kept_share": 0.38,
                "mean_group_keys": 15.6,
            }),
            make_result("othello.update_rate", [0.1], derived={
                "othello_updates_per_second": 6000.0,
            }),
            make_result("fig3.search_iterations", [0.1]),
        ])
        path = perflab.append_history(artifact, tmp_path)
        perflab.append_history(artifact, tmp_path)
        assert path == tmp_path / "BENCH_HISTORY.jsonl"
        first, second = path.read_text().splitlines()
        assert first == second
        assert json.loads(first) == {
            "git_sha": "deadbeef", "suite": "smoke", "scale": 1,
            "cpu_count": 1,
            "metrics": {
                "update.single_owner_rate.updates_per_second": 3000.0,
                "update.single_owner_rate.incumbent_kept_share": 0.38,
                "othello.update_rate.othello_updates_per_second": 6000.0,
            },
        }

    def test_committed_history_ends_at_the_committed_artifact(self):
        root = BENCH_DIR.parent
        (artifact,) = root.glob("BENCH_*.json")
        lines = (root / perflab.HISTORY_FILENAME).read_text().splitlines()
        last = json.loads(lines[-1])
        assert artifact.name == perflab.artifact_filename(last["git_sha"])
        derived = perflab.load_artifact(artifact).results_by_name()
        for name, value in last["metrics"].items():
            row, metric = name.rsplit(".", 1)
            assert derived[row].derived[metric] == value

    @pytest.mark.parametrize("cores, flagged", [(2, True), (4, False)])
    def test_more_workers_than_cores_is_written_on_the_row(
        self, monkeypatch, cores, flagged
    ):
        perflab.discover()
        monkeypatch.setattr("os.cpu_count", lambda: cores)
        for workers in (1, 4):
            artifact = perflab.run_suite(
                "smoke", repeats=1,
                name_filter=f"table1.construction.workers.{workers}",
            )
            (result,) = artifact.results
            assert result.derived["oversubscribed"] is (
                flagged and workers == 4
            )


# -- hard gates on exact counts ------------------------------------------


class TestGroupScanGate:
    def _artifact(self, **derived):
        return make_artifact([
            make_result("update.single_owner_rate", [0.1], derived=derived)
        ]).to_dict()

    def test_group_sized_scan_passes(self):
        line = gates.group_scan_gate(self._artifact(
            keys_scanned_per_update=17.2, mean_group_keys=15.6))
        assert "17.2" in line and "15.6" in line

    @pytest.mark.parametrize("scanned", [1024.0, 31.3, 0.0])
    def test_block_sized_or_absent_scan_fails(self, scanned):
        with pytest.raises(gates.GateFailure):
            gates.group_scan_gate(self._artifact(
                keys_scanned_per_update=scanned, mean_group_keys=15.6))

    def test_missing_row_or_metric_fails(self):
        with pytest.raises(gates.GateFailure, match="missing"):
            gates.group_scan_gate(make_artifact([]).to_dict())
        with pytest.raises(gates.GateFailure, match="mean_group_keys"):
            gates.group_scan_gate(
                self._artifact(keys_scanned_per_update=16.0))

    def test_main_gates_the_benchmark_it_reads(self, tmp_path, capsys):
        # The real row, run small: the gate's metric names are the
        # benchmark's, and today's update path passes.  (The Othello rows
        # are synthetic: their benchmark times two 2,000-update storms.)
        perflab.discover()
        artifact = perflab.run_suite(
            "smoke", scale=1, name_filter="update.single_owner_rate")
        artifact.results.extend(
            othello_rows() + fastpath_rows() + fabric_rows()
            + batch_cost_rows() + codec_cost_rows() + dpe_cost_rows()
            + build_cost_rows() + bearer_bytes_rows() + batch_calls_rows()
            + owner_calls_rows() + gateway_calls_rows())
        path = perflab.write_artifact(artifact, tmp_path)
        assert gates.main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "group scan" in out and "othello=" in out
        assert "fastpath frames=9000" in out and "hops/transit" in out
        assert "gpt=0.70x fib=0.54x" in out
        assert "parse=1.10x encap=2.30x" in out
        assert "at 8 packets: 1.35x" in out
        assert "cluster build: 15/15 counts as pinned" in out
        assert "heap per bearer: 430 B (budget 437 B)" in out
        assert "python -0.07 per extra frame (budget 0.50)" in out
        assert "c 81 kept (budget 110)" in out
        assert "python 95 connect (budget 102)" in out
        broken = tmp_path / "broken.json"
        broken.write_text(perflab.canonical_json(
            self._artifact(keys_scanned_per_update=900.0,
                           mean_group_keys=15.6)))
        assert gates.main([str(broken)]) == 1
        # Every gate reports, not only the first to fail.
        err = capsys.readouterr().err
        assert "group scan" in err and "othello.lookup missing" in err
        assert "fig8.forwarding.endtoend missing" in err
        assert "fabric.hops missing" in err
        assert "lookup.batch_cost.gpt missing" in err
        assert "codec.batch_cost.parse missing" in err
        assert "dpe.batch_cost missing" in err
        assert "cluster.build_cost missing" in err
        assert "gateway.bearer_bytes missing" in err
        assert "gateway.batch_calls missing" in err
        assert "update.owner_calls missing" in err
        assert "update.gateway_calls missing" in err


def othello_rows(rate=(6700.0, 2100.0), bits=(4.66, 3.5), skip=()):
    rows = {
        "othello.build": dict(
            othello_bits_per_key=bits[0], setsep_bits_per_key=bits[1]),
        "othello.lookup": {},
        "othello.update_rate": dict(
            othello_updates_per_second=rate[0],
            setsep_updates_per_second=rate[1]),
    }
    return [
        make_result(name, [0.1], derived=derived)
        for name, derived in rows.items() if name not in skip
    ]


class TestOthelloGate:
    def test_head_to_head_passes(self):
        line = gates.othello_gate(make_artifact(othello_rows()).to_dict())
        assert "othello=6700/s" in line and "setsep=2100/s" in line

    @pytest.mark.parametrize("rows, message", [
        (dict(rate=(2000.0, 2100.0)), "fell behind"),
        (dict(rate=(2100.0, 2100.0)), "fell behind"),
        (dict(bits=(3.5, 4.66)), "bits/key inverted"),
        (dict(skip=("othello.lookup",)), "othello.lookup missing"),
        (dict(skip=("othello.update_rate",)), "othello.update_rate missing"),
        (dict(skip=("othello.build",)), "othello.build missing"),
    ])
    def test_inverted_or_missing_rows_fail(self, rows, message):
        with pytest.raises(gates.GateFailure, match=message):
            gates.othello_gate(make_artifact(othello_rows(**rows)).to_dict())

    def test_missing_metric_fails(self):
        artifact = make_artifact(othello_rows()).to_dict()
        for result in artifact["results"]:
            result["derived"].pop("setsep_bits_per_key", None)
        with pytest.raises(gates.GateFailure, match="setsep_bits_per_key"):
            gates.othello_gate(artifact)


def fastpath_rows(frames=9000, batches=36, spilled=0, speedup=8.7, skip=()):
    counters = {
        "gateway.fastpath.frames": frames,
        "gateway.fastpath.batches": batches,
        "gateway.fastpath.spilled_frames": spilled,
    }
    rows = {
        "fig8.forwarding.endtoend": {k: v for k, v in counters.items() if v},
        "fastpath.parse": {},
        "fastpath.encap": {},
    }
    derived = {} if speedup is None else {"speedup": speedup}
    return [
        make_result(
            name, [0.1], counters=row_counters,
            derived=derived if name == "fig8.forwarding.endtoend" else {},
        )
        for name, row_counters in rows.items() if name not in skip
    ]


class TestFastpathGate:
    def test_batch_pipeline_passes(self):
        line = gates.fastpath_gate(make_artifact(fastpath_rows()).to_dict())
        assert line == "fastpath frames=9000 batches=36 spilled=0 speedup=8.7x"
        gates.fastpath_gate(make_artifact(fastpath_rows(speedup=3.0)).to_dict())

    @pytest.mark.parametrize("rows, message", [
        (dict(frames=0), "zero fast-path frames"),
        (dict(batches=0), "zero fast-path frames"),
        (dict(spilled=9000), "every frame spilled"),
        (dict(skip=("fig8.forwarding.endtoend",)), "endtoend missing"),
        (dict(skip=("fastpath.parse",)), "fastpath.parse missing"),
        (dict(skip=("fastpath.encap",)), "fastpath.encap missing"),
        (dict(speedup=2.9), "under 3x a batch of one"),
        (dict(speedup=None), "does not report 'speedup'"),
    ])
    def test_degraded_pipeline_or_missing_rows_fail(self, rows, message):
        with pytest.raises(gates.GateFailure, match=message):
            gates.fastpath_gate(
                make_artifact(fastpath_rows(**rows)).to_dict())


def fabric_rows(skip=(), **changed):
    rows = {
        "fabric.hops": dict(
            hops_per_transit_crossbar=1.0, hops_per_transit_fattree=2.46),
        "fabric.skew_oversub": dict(
            capacity_exceeded_1to1=90, capacity_exceeded_2to1=115,
            capacity_exceeded_4to1=327),
        "fabric.ingress_policy": dict(
            busiest_link_roundrobin=222, busiest_link_utilization=217),
        "fabric.link_failure": dict(
            reroutes_healthy=0, reroutes_degraded=113),
    }
    for derived in rows.values():
        derived.update((k, v) for k, v in changed.items() if k in derived)
    return [
        make_result(name, [0.1], derived=derived)
        for name, derived in rows.items() if name not in skip
    ]


class TestFabricGate:
    def test_head_to_head_passes(self):
        line = gates.fabric_gate(make_artifact(fabric_rows()).to_dict())
        assert "crossbar=1.0 fattree=2.46" in line
        assert "roundrobin=222 utilization=217" in line

    @pytest.mark.parametrize("changed, message", [
        (dict(hops_per_transit_crossbar=1.2), "one-hop-per-transit"),
        (dict(hops_per_transit_fattree=3.5), "outside 1-3"),
        (dict(hops_per_transit_fattree=0.9), "outside 1-3"),
        (dict(capacity_exceeded_2to1=80), "no longer grows"),
        (dict(capacity_exceeded_4to1=100), "no longer grows"),
        (dict(busiest_link_utilization=222), "fell behind round-robin"),
        (dict(reroutes_healthy=1), "healthy fat tree rerouted"),
        (dict(reroutes_degraded=0), "no reroutes"),
    ])
    def test_each_lost_shape_fails(self, changed, message):
        with pytest.raises(gates.GateFailure, match=message):
            gates.fabric_gate(
                make_artifact(fabric_rows(**changed)).to_dict())

    @pytest.mark.parametrize("row", [
        "fabric.hops", "fabric.skew_oversub",
        "fabric.ingress_policy", "fabric.link_failure",
    ])
    def test_missing_row_fails(self, row):
        with pytest.raises(gates.GateFailure, match=f"{row} missing"):
            gates.fabric_gate(
                make_artifact(fabric_rows(skip=(row,))).to_dict())

    def test_missing_metric_fails(self):
        artifact = make_artifact(fabric_rows()).to_dict()
        for result in artifact["results"]:
            result["derived"].pop("reroutes_degraded", None)
        with pytest.raises(gates.GateFailure, match="reroutes_degraded"):
            gates.fabric_gate(artifact)


# -- environment fingerprint ---------------------------------------------


def batch_cost_rows(gpt=0.70, fib=0.54, skip=()):
    ratios = {"lookup.batch_cost.gpt": gpt, "lookup.batch_cost.fib": fib}
    return [
        make_result(name, [0.1], derived={
            "fixed_us": 34.0, "per_key_ns": 80.0,
            **({} if ratio is None else {"prehashed_over_raw_at_8": ratio}),
        })
        for name, ratio in ratios.items() if name not in skip
    ]


class TestBatchCostGate:
    def test_a_prehashed_batch_that_is_read_passes(self):
        line = gates.batch_cost_gate(make_artifact(batch_cost_rows()).to_dict())
        assert line == "pre-hashed/raw lookup at 8 keys: gpt=0.70x fib=0.54x"
        gates.batch_cost_gate(
            make_artifact(batch_cost_rows(gpt=0.85, fib=0.85)).to_dict())

    @pytest.mark.parametrize("rows, message", [
        (dict(gpt=1.0), "must cost <= 0.85x"),      # hashed again per table
        (dict(fib=0.97), "must cost <= 0.85x"),
        (dict(gpt=0.0), "must cost <= 0.85x"),      # a row that timed nothing
        (dict(skip=("lookup.batch_cost.gpt",)), "batch_cost.gpt missing"),
        (dict(skip=("lookup.batch_cost.fib",)), "batch_cost.fib missing"),
        (dict(fib=None), "does not report 'prehashed_over_raw_at_8'"),
    ])
    def test_rehashing_tables_or_missing_rows_fail(self, rows, message):
        with pytest.raises(gates.GateFailure, match=message):
            gates.batch_cost_gate(
                make_artifact(batch_cost_rows(**rows)).to_dict())

    def test_the_gate_reads_what_the_benchmark_writes(self):
        """The real rows, run once: the gate's and the history's metric
        names are the benchmark's.  (The ratio itself is a timing; CI's
        perf-smoke job holds it to the threshold, not tier-1.)"""
        perflab.discover()
        artifact = perflab.run_suite(
            "smoke", scale=1, repeats=1, name_filter="lookup.batch_cost")
        assert [r.name for r in artifact.results] == [
            "lookup.batch_cost.fib", "lookup.batch_cost.gpt"]
        for result in artifact.results:
            assert result.params == {
                "n_keys": 50_000, "sizes": "8/64/256/4096/40000"}
            assert (result.name, "fixed_us") in perflab.artifact.HEADLINES
            assert result.derived["per_key_ns"] > 0
            assert result.derived["prehashed_over_raw_at_8"] > 0


def codec_cost_rows(parse=1.10, encap=2.30, skip=()):
    ratios = {"codec.batch_cost.parse": parse, "codec.batch_cost.encap": encap}
    return [
        make_result(name, [0.1], derived={
            "fixed_us": 40.0, "per_frame_ns": 400.0,
            "per_payload_byte_ns": 0.3,
            **({} if ratio is None
               else {"payload_1400_over_18_at_256": ratio}),
        })
        for name, ratio in ratios.items() if name not in skip
    ]


class TestCodecCostGate:
    def test_payload_copied_by_slice_passes(self):
        line = gates.codec_cost_gate(make_artifact(codec_cost_rows()).to_dict())
        assert line == (
            "1,400- over 18-byte payloads at 256 frames: "
            "parse=1.10x encap=2.30x"
        )
        gates.codec_cost_gate(
            make_artifact(codec_cost_rows(encap=4.0)).to_dict())

    @pytest.mark.parametrize("rows, message", [
        (dict(encap=17.5), "encap must cost <= 4x"),   # the parent's codec
        (dict(encap=4.1), "encap must cost <= 4x"),
        (dict(encap=0.0), "encap must cost <= 4x"),    # a row that timed nothing
        (dict(parse=0.0), "encap must cost <= 4x"),
        (dict(skip=("codec.batch_cost.parse",)), "batch_cost.parse missing"),
        (dict(skip=("codec.batch_cost.encap",)), "batch_cost.encap missing"),
        (dict(encap=None), "does not report 'payload_1400_over_18_at_256'"),
    ])
    def test_per_byte_payload_or_missing_rows_fail(self, rows, message):
        with pytest.raises(gates.GateFailure, match=message):
            gates.codec_cost_gate(
                make_artifact(codec_cost_rows(**rows)).to_dict())

    def test_the_gate_reads_what_the_benchmark_writes(self):
        """The real rows, run once: the gate's and the history's metric
        names are the benchmark's.  (The ratio itself is a timing; CI's
        perf-smoke job holds it to the threshold, not tier-1.)"""
        perflab.discover()
        artifact = perflab.run_suite(
            "smoke", scale=1, repeats=1, name_filter="codec.batch_cost")
        assert [r.name for r in artifact.results] == [
            "codec.batch_cost.encap", "codec.batch_cost.parse"]
        for result in artifact.results:
            assert result.params == {
                "frames": "8/32/256/1024", "payloads": "18/512/1400"}
            assert (result.name, "fixed_us") in perflab.artifact.HEADLINES
            assert result.derived["per_frame_ns"] > 0
            assert result.derived["us_at_256x1400"] > 0
            assert result.derived["payload_1400_over_18_at_256"] > 0


def dpe_cost_rows(ratio=1.35):
    return [make_result("dpe.batch_cost", [0.1], derived={
        "fixed_us": 4.0, "per_item_ns": 600.0,
        **({} if ratio is None else {"batch_over_scalar_at_8": ratio}),
    })]


class TestDpeBatchGate:
    def test_a_batch_near_its_loop_passes(self):
        line = gates.dpe_batch_gate(make_artifact(dpe_cost_rows()).to_dict())
        assert line == "DPE batch over its scalar loop at 8 packets: 1.35x"
        gates.dpe_batch_gate(make_artifact(dpe_cost_rows(2.0)).to_dict())

    @pytest.mark.parametrize("rows, message", [
        (dpe_cost_rows(4.8), "must cost <= 2x"),    # grouped with NumPy
        (dpe_cost_rows(2.01), "must cost <= 2x"),
        (dpe_cost_rows(0.0), "must cost <= 2x"),    # a row that timed nothing
        ([], "dpe.batch_cost missing"),
        (dpe_cost_rows(None), "does not report 'batch_over_scalar_at_8'"),
    ])
    def test_a_regrouping_batch_or_missing_row_fails(self, rows, message):
        with pytest.raises(gates.GateFailure, match=message):
            gates.dpe_batch_gate(make_artifact(rows).to_dict())

    def test_the_gate_reads_what_the_benchmark_writes(self):
        """The real per-node stage rows, run once: the gate's and the
        history's metric names are the benchmark's.  (The ratio itself is
        a timing; CI's perf-smoke job holds it to the threshold.)"""
        perflab.discover()
        rows = {}
        for name in ("dpe.batch_cost", "fabric.batch_cost"):
            (rows[name],) = perflab.run_suite(
                "smoke", scale=1, repeats=1, name_filter=name).results
        assert rows["dpe.batch_cost"].params == {
            "bearers": 4_096, "sizes": "8/32/256/1024"}
        assert rows["fabric.batch_cost"].params == {
            "nodes": 4, "sizes": "8/32/256/1024"}
        for result in rows.values():
            assert (result.name, "fixed_us") in perflab.artifact.HEADLINES
            # One sweep: the crossbar's ~20 ns/packet slope may fit below
            # 0 on a noisy box, so only its presence is checked.
            assert np.isfinite(result.derived["per_item_ns"])
            assert result.derived["us_at_8"] > 0
            assert result.derived["us_at_1024"] > 0
        assert rows["dpe.batch_cost"].derived["batch_over_scalar_at_8"] > 0


def build_cost_rows(**moved):
    counters = dict(gates.BUILD_COST_COUNTS)
    counters.update(
        {f"cluster.build_cost.{name}": count for name, count in moved.items()}
    )
    return [make_result("cluster.build_cost", [0.5], counters=counters,
                        derived={"build_us_per_flow": 12.0,
                                 "resize_us_per_flow": 13.0})]


class TestBuildCostGate:
    def test_the_pinned_counts_pass(self):
        line = gates.build_cost_gate(make_artifact(build_cost_rows()).to_dict())
        assert line == "cluster build: 15/15 counts as pinned"

    @pytest.mark.parametrize("moved, message", [
        ({"build.relocations": 2},
         "14/15 counts as pinned: cluster.build_cost.build.relocations=2 "
         r"\(pinned 1\)"),
        ({"resize.fib_entries.node4": 5}, "node4=5"),
        ({"build.rib_entries": 19_999, "resize.gpt_fallback_keys": 3},
         "13/15"),
    ])
    def test_a_moved_count_fails_naming_it(self, moved, message):
        with pytest.raises(gates.GateFailure, match=message):
            gates.build_cost_gate(
                make_artifact(build_cost_rows(**moved)).to_dict())

    def test_a_missing_row_or_count_fails(self):
        with pytest.raises(gates.GateFailure, match="build_cost missing"):
            gates.build_cost_gate(make_artifact([]).to_dict())
        (row,) = build_cost_rows()
        del row.counters["cluster.build_cost.build.relocations"]
        with pytest.raises(gates.GateFailure, match="relocations=None"):
            gates.build_cost_gate(make_artifact([row]).to_dict())

    def test_the_gate_reads_what_the_benchmark_writes(self):
        """The real row, run once, passes: tier-1 holds the counts too."""
        perflab.discover()
        (result,) = perflab.run_suite(
            "smoke", scale=1, repeats=1, name_filter="cluster.build_cost"
        ).results
        assert result.params == {"flows": 20_000, "nodes": 4, "resized_to": 5}
        assert gates.build_cost_gate(make_artifact([result]).to_dict())
        for metric in ("build_us_per_flow", "resize_us_per_flow"):
            assert (result.name, metric) in perflab.artifact.HEADLINES
            assert result.derived[metric] > 0


class TestEnvironmentFingerprint:
    def test_stable_and_complete(self):
        one = environment_fingerprint()
        two = environment_fingerprint()
        assert one == two
        assert one["cpu_count"] >= 1
        assert isinstance(one["cpu_model"], str) and one["cpu_model"]
        assert one["numpy_version"] == np.__version__

    def test_git_sha_matches_repo(self):
        sha = git_sha()
        assert sha is None or (len(sha) == 40 and
                               all(c in "0123456789abcdef" for c in sha))
        short = git_sha(short=True)
        if sha is not None:
            assert sha.startswith(short)

    def test_info_json_includes_environment(self, tmp_path, capsys):
        csv = tmp_path / "flows.csv"
        csv.write_text("\n".join(f"flow-{i},{i % 4}" for i in range(300)))
        snapshot = tmp_path / "gpt.snap"
        assert main(["build", str(csv), str(snapshot)]) == 0
        capsys.readouterr()
        assert main(["info", str(snapshot), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["environment"] == environment_fingerprint()


# -- benchmarks/conftest key generation ----------------------------------


class TestBenchKeys:
    def test_exact_count_unique(self):
        from benchmarks.conftest import bench_keys

        keys = bench_keys(5_000, seed=3)
        assert len(keys) == 5_000
        assert len(np.unique(keys)) == 5_000

    def test_recovers_from_underproduction(self):
        from benchmarks.conftest import bench_keys

        # 220 draws from 109 possible values virtually never yield 100
        # distinct keys on the first draw; the retry loop must recover
        # rather than raise.
        keys = bench_keys(100, seed=1, high=110)
        assert len(keys) == 100
        assert len(np.unique(keys)) == 100

    def test_impossible_request_raises(self):
        from benchmarks.conftest import bench_keys

        with pytest.raises(ValueError):
            bench_keys(10, high=5)


# -- baseline selection --------------------------------------------------


class TestSelectBaseline:
    def _touch(self, tmp_path, name, mtime):
        path = tmp_path / name
        path.write_text("{}")
        import os

        os.utime(path, (mtime, mtime))
        return path

    def test_single_candidate_wins_without_warning(self, tmp_path):
        only = self._touch(tmp_path, "BENCH_only.json", 100.0)
        warnings = []
        chosen = perflab.select_baseline([only], warn=warnings.append)
        assert chosen == only
        assert warnings == []

    def test_empty_candidates_raise(self):
        with pytest.raises(perflab.ArtifactError):
            perflab.select_baseline([])

    def test_exact_sha_match_beats_newer_mtime(self, tmp_path):
        sha = "abc123def456789"
        match = self._touch(
            tmp_path, perflab.artifact_filename(sha), 100.0
        )
        newer = self._touch(tmp_path, "BENCH_other.json", 9_000_000.0)
        warnings = []
        chosen = perflab.select_baseline(
            [newer, match], current_sha=sha, warn=warnings.append
        )
        assert chosen == match
        assert warnings == []

    def test_no_sha_match_newest_mtime_wins_with_warning(self, tmp_path):
        older = self._touch(tmp_path, "BENCH_older.json", 100.0)
        newer = self._touch(tmp_path, "BENCH_newer.json", 200.0)
        warnings = []
        chosen = perflab.select_baseline(
            [older, newer], current_sha="feedface0000", warn=warnings.append
        )
        assert chosen == newer
        assert len(warnings) == 1
        assert str(older) in warnings[0]

    def test_equal_mtime_tie_breaks_by_filename(self, tmp_path):
        a = self._touch(tmp_path, "BENCH_aaa.json", 100.0)
        z = self._touch(tmp_path, "BENCH_zzz.json", 100.0)
        chosen = perflab.select_baseline([a, z])
        assert chosen == z  # reverse sort: highest filename on equal mtime

    def test_cli_compare_accepts_multiple_baselines(self, tmp_path, capsys):
        import os

        # The stale baseline would fail the gate; the fresh one passes.
        # Exit 0 proves the newest-mtime candidate was selected.
        stale = make_artifact([make_result("x", [0.1, 0.1, 0.1])])
        fresh = make_artifact([make_result("x", [1.0, 1.0, 1.0])])
        current = make_artifact([make_result("x", [1.01, 1.0, 1.0])])
        stale_p = tmp_path / "BENCH_stale.json"
        stale_p.write_text(stale.to_json())
        os.utime(stale_p, (100.0, 100.0))
        fresh_p = tmp_path / "BENCH_fresh.json"
        fresh_p.write_text(fresh.to_json())
        os.utime(fresh_p, (200.0, 200.0))
        current_p = tmp_path / "BENCH_current.json"
        current_p.write_text(current.to_json())
        assert main(["bench", "compare", str(stale_p), str(fresh_p),
                     str(current_p)]) == 0
        err = capsys.readouterr().err
        assert "newest by mtime" in err
        assert "BENCH_fresh.json" in err


def batch_calls_rows(at_32=5.66, at_256=0.65, extra=-0.07,
                     c_at_32=14.75, c_at_256=1.44, c_extra=-0.46):
    return [make_result("gateway.batch_calls", [0.1], derived={
        "python_calls_per_frame_at_32": at_32,
        "python_calls_per_frame_at_256": at_256,
        "python_calls_per_extra_frame": extra,
        "c_calls_per_frame_at_32": c_at_32,
        "c_calls_per_frame_at_256": c_at_256,
        "c_calls_per_extra_frame": c_extra,
    })]


class TestBatchCallsGate:
    def test_under_the_budget_passes(self):
        line = gates.batch_calls_gate(
            make_artifact(batch_calls_rows()).to_dict())
        assert line == (
            "calls per frame of a gateway batch: "
            "python 5.66 at 32 (budget 6.60), "
            "python 0.65 at 256 (budget 0.77), "
            "c 14.75 at 32 (budget 15.69), c 1.44 at 256 (budget 1.56), "
            "python -0.07 per extra frame (budget 0.50), "
            "c -0.46 per extra frame (budget 0.50)"
        )
        budget, c_budget = gates.BATCH_CALLS_BUDGET, gates.C_CALLS_BUDGET
        assert gates.batch_calls_gate(make_artifact(batch_calls_rows(
            budget[32], budget[256], gates.BATCH_CALLS_PER_EXTRA_FRAME,
            c_budget[32], c_budget[256], gates.BATCH_C_CALLS_PER_EXTRA_FRAME,
        )).to_dict())

    @pytest.mark.parametrize("counts", [
        (6.55, 1.55, 0.9),  # one Python call more per frame
        (5.66, 0.65, 0.93),  # the same, under another NumPy's wrappers
        (6.7, 0.65, -0.07),  # 33 Python calls more per batch
        (5.66, 0.78, -0.07),
        (5.66, 0.65, -0.07, 15.78),  # 33 C calls more per batch
        (5.66, 0.65, -0.07, 14.75, 1.57),
        # One C call more per frame (each frame's result cost three when
        # it was built in a Python loop): over the per-frame budgets, and
        # over the extra-frame bound alone where another NumPy's
        # per-batch calls leave the per-frame readings inside theirs.
        (5.66, 0.65, -0.07, 15.75, 2.44, 0.54),
        (5.66, 0.65, -0.07, 14.75, 1.44, 0.54),
        (0.0, 0.65, -0.07), (5.66, 0.0, -0.07),
        (5.66, 0.65, -0.07, 0.0), (5.66, 0.65, -0.07, 14.75, 0.0),
    ])
    def test_over_the_budget_or_empty_fails(self, counts):
        with pytest.raises(gates.GateFailure, match="over budget"):
            gates.batch_calls_gate(
                make_artifact(batch_calls_rows(*counts)).to_dict())

    def test_a_missing_row_or_metric_fails(self):
        with pytest.raises(gates.GateFailure, match="batch_calls missing"):
            gates.batch_calls_gate(make_artifact([]).to_dict())
        for name in ("python_calls_per_frame_at_32",
                     "c_calls_per_frame_at_256",
                     "python_calls_per_extra_frame",
                     "c_calls_per_extra_frame"):
            (row,) = batch_calls_rows()
            del row.derived[name]
            with pytest.raises(gates.GateFailure, match=name):
                gates.batch_calls_gate(make_artifact([row]).to_dict())

    def test_the_real_row_repeats_and_adds_no_call_per_frame(self):
        """The real row's counts repeat exactly, and the frames between
        the two sizes add no Python or C-level call each.  The absolute budgets
        depend on the interpreter and NumPy, so only CI's gate on the
        smoke artifact applies them."""
        perflab.discover()
        first, second = (
            perflab.run_suite(
                "smoke", scale=1, repeats=1,
                name_filter="gateway.batch_calls",
            ).results[0]
            for _ in range(2)
        )
        assert first.counters == second.counters
        assert first.derived == second.derived
        calls = {
            (kind, size): first.counters[f"gateway.batch_calls.{kind}_at_{size}"]
            for kind in ("python", "c") for size in (32, 256)
        }
        assert set(first.counters) == {
            f"gateway.batch_calls.{kind}_at_{size}" for kind, size in calls
        }
        for (kind, size), count in calls.items():
            assert count > 0
            assert first.derived[f"{kind}_calls_per_frame_at_{size}"] == (
                count / size
            )
            assert (
                "gateway.batch_calls", f"{kind}_calls_per_frame_at_{size}"
            ) in perflab.artifact.HEADLINES
        for kind, bound in (("python", gates.BATCH_CALLS_PER_EXTRA_FRAME),
                            ("c", gates.BATCH_C_CALLS_PER_EXTRA_FRAME)):
            extra = first.derived[f"{kind}_calls_per_extra_frame"]
            assert extra == (calls[kind, 256] - calls[kind, 32]) / 224
            assert extra <= bound


def owner_calls_rows(kept=(39, 81), searched=(73, 123)):
    return [make_result("update.owner_calls", [0.1], derived={
        "python_calls_kept": kept[0], "c_calls_kept": kept[1],
        "python_calls_searched": searched[0],
        "c_calls_searched": searched[1],
    })]


class TestOwnerCallsGate:
    def test_under_the_budget_passes(self):
        line = gates.owner_calls_gate(
            make_artifact(owner_calls_rows()).to_dict())
        assert line == (
            "calls of one owner update: "
            "python 39 kept (budget 69), python 73 searched (budget 103), "
            "c 81 kept (budget 110), c 123 searched (budget 150)"
        )
        budget, c_budget = gates.OWNER_CALLS_BUDGET, gates.OWNER_C_CALLS_BUDGET
        assert gates.owner_calls_gate(make_artifact(owner_calls_rows(
            (budget["kept"], c_budget["kept"]),
            (budget["searched"], c_budget["searched"]),
        )).to_dict())

    @pytest.mark.parametrize("kept, searched", [
        ((73, 81), (73, 123)),  # two Python calls per key of the group
        ((39, 111), (73, 123)),
        ((39, 81), (104, 123)),
        ((39, 81), (73, 151)),
        ((0, 81), (73, 123)), ((39, 81), (73, 0)),
    ])
    def test_over_the_budget_or_empty_fails(self, kept, searched):
        with pytest.raises(gates.GateFailure, match="over budget"):
            gates.owner_calls_gate(
                make_artifact(owner_calls_rows(kept, searched)).to_dict())

    def test_a_missing_row_or_metric_fails(self):
        with pytest.raises(gates.GateFailure, match="owner_calls missing"):
            gates.owner_calls_gate(make_artifact([]).to_dict())
        for name in ("python_calls_kept", "c_calls_searched"):
            (row,) = owner_calls_rows()
            del row.derived[name]
            with pytest.raises(gates.GateFailure, match=name):
                gates.owner_calls_gate(make_artifact([row]).to_dict())

    def test_the_real_row_repeats_and_reads_the_budgets_names(self):
        """The real row's counts repeat exactly, and name what the gate
        reads.  The absolute budgets depend on the interpreter and
        NumPy, so only CI's gate on the smoke artifact applies them."""
        perflab.discover()
        first, second = (
            perflab.run_suite(
                "smoke", scale=1, repeats=1,
                name_filter="update.owner_calls",
            ).results[0]
            for _ in range(2)
        )
        assert first.derived == second.derived
        assert set(first.derived) == {
            f"{kind}_calls_{case}"
            for kind in ("python", "c") for case in ("kept", "searched")
        }
        for name, count in first.derived.items():
            assert count > 0
            assert ("update.owner_calls", name) in perflab.artifact.HEADLINES
        # A search is the kept path plus the broken bits' scan.
        assert first.derived["python_calls_searched"] > (
            first.derived["python_calls_kept"])


def gateway_calls_rows(python=(95, 91, 98), c_level=(150, 146, 151)):
    return [make_result("update.gateway_calls", [0.1], derived={
        **{f"python_calls_{kind}": count
           for kind, count in zip(GATEWAY_KINDS, python)},
        **{f"c_calls_{kind}": count
           for kind, count in zip(GATEWAY_KINDS, c_level)},
    })]


GATEWAY_KINDS = ("connect", "disconnect", "rehome")


class TestGatewayCallsGate:
    def test_under_the_budget_passes(self):
        line = gates.gateway_calls_gate(
            make_artifact(gateway_calls_rows()).to_dict())
        assert line == (
            "calls of one gateway update: "
            "python 95 connect (budget 102), "
            "python 91 disconnect (budget 97), "
            "python 98 rehome (budget 108), "
            "c 150 connect (budget 165), c 146 disconnect (budget 161), "
            "c 151 rehome (budget 166)"
        )
        python, c_level = (
            gates.GATEWAY_CALLS_BUDGET, gates.GATEWAY_C_CALLS_BUDGET
        )
        assert gates.gateway_calls_gate(make_artifact(gateway_calls_rows(
            tuple(python[kind] for kind in GATEWAY_KINDS),
            tuple(c_level[kind] for kind in GATEWAY_KINDS),
        )).to_dict())

    def test_the_budgets_hold_a_third_off_the_uncut_path(self):
        # Before the cuts a kept-incumbent update made 154 / 146 / 173
        # Python calls (connect / disconnect / rehome).
        for kind, before in zip(GATEWAY_KINDS, (154, 146, 173)):
            assert gates.GATEWAY_CALLS_BUDGET[kind] <= before * 2 / 3

    @pytest.mark.parametrize("python, c_level", [
        ((154, 91, 98), (150, 146, 151)),  # the scalar cuckoo op again
        ((95, 98, 98), (150, 146, 151)),
        ((95, 91, 109), (150, 146, 151)),
        ((95, 91, 98), (166, 146, 151)),
        ((95, 91, 98), (150, 162, 151)),
        ((95, 91, 98), (150, 146, 167)),
        ((0, 91, 98), (150, 146, 151)), ((95, 91, 98), (150, 146, 0)),
    ])
    def test_over_the_budget_or_empty_fails(self, python, c_level):
        with pytest.raises(gates.GateFailure, match="over budget"):
            gates.gateway_calls_gate(
                make_artifact(gateway_calls_rows(python, c_level)).to_dict())

    def test_a_missing_row_or_metric_fails(self):
        with pytest.raises(gates.GateFailure, match="gateway_calls missing"):
            gates.gateway_calls_gate(make_artifact([]).to_dict())
        for name in ("python_calls_connect", "c_calls_rehome"):
            (row,) = gateway_calls_rows()
            del row.derived[name]
            with pytest.raises(gates.GateFailure, match=name):
                gates.gateway_calls_gate(make_artifact([row]).to_dict())

    def test_the_real_row_repeats_and_reads_the_budgets_names(self):
        """The real row's counts repeat exactly, and name what the gate
        reads.  The absolute budgets depend on the interpreter and
        NumPy, so only CI's gate on the smoke artifact applies them."""
        perflab.discover()
        first, second = (
            perflab.run_suite(
                "smoke", scale=1, repeats=1,
                name_filter="update.gateway_calls",
            ).results[0]
            for _ in range(2)
        )
        assert first.derived == second.derived
        assert set(first.derived) == {
            f"{kind}_calls_{case}"
            for kind in ("python", "c") for case in GATEWAY_KINDS
        }
        for name, count in first.derived.items():
            assert count > 0
            assert ("update.gateway_calls", name) in (
                perflab.artifact.HEADLINES)


def bearer_bytes_rows(total=430.0):
    return [make_result("gateway.bearer_bytes", [0.4],
                        derived={"bytes_per_bearer": total})]


class TestBearerBytesGate:
    def test_under_the_budget_passes(self):
        line = gates.bearer_bytes_gate(
            make_artifact(bearer_bytes_rows()).to_dict())
        assert line == "heap per bearer: 430 B (budget 437 B)"
        assert gates.bearer_bytes_gate(make_artifact(
            bearer_bytes_rows(gates.BEARER_BYTES_BUDGET)).to_dict())

    @pytest.mark.parametrize("total", [538.3, 437.2, 0.0])
    def test_over_the_budget_or_empty_fails(self, total):
        with pytest.raises(gates.GateFailure, match="over budget"):
            gates.bearer_bytes_gate(
                make_artifact(bearer_bytes_rows(total)).to_dict())

    def test_a_missing_row_or_metric_fails(self):
        with pytest.raises(gates.GateFailure, match="bearer_bytes missing"):
            gates.bearer_bytes_gate(make_artifact([]).to_dict())
        (row,) = bearer_bytes_rows()
        row.derived = {}
        with pytest.raises(gates.GateFailure, match="bytes_per_bearer"):
            gates.bearer_bytes_gate(make_artifact([row]).to_dict())

    @pytest.mark.skipif(
        not DATACLASS_SLOTS,
        reason="the budget assumes slotted records, which need 3.10+",
    )
    def test_the_gate_reads_what_the_benchmark_writes(self, monkeypatch):
        """The real row passes and splits its total by structure.  It
        runs at a quarter of its bearers: the full row traces for
        seconds, and 5,000 bearers fill the tables' power-of-two
        capacities as 20,000 do (530 B per bearer against 538 B).  The
        budget is measured only where records are slotted (3.10+)."""
        perflab.discover()
        bench = sys.modules["benchmarks.bench_bearer_footprint"]
        monkeypatch.setattr(bench, "BEARER_BYTES_FLOWS", 5_000)
        (result,) = perflab.run_suite(
            "smoke", scale=1, repeats=1, name_filter="gateway.bearer_bytes"
        ).results
        assert result.params == {"bearers": 5_000, "nodes": 4}
        assert gates.bearer_bytes_gate(make_artifact([result]).to_dict())
        derived = result.derived
        parts = [name for name, _ in bench.STRUCTURES] + ["other"]
        assert derived["bytes_per_bearer"] == pytest.approx(
            sum(derived[f"{name}_bytes_per_bearer"] for name in parts))
        for name in parts[:-1]:
            assert derived[f"{name}_bytes_per_bearer"] > 0, name
        # Fixed cost only: a structure module missing from the map (the
        # flow keys alone are 36 B per bearer) would land here.
        assert derived["other_bytes_per_bearer"] < (
            0.02 * derived["bytes_per_bearer"])
        assert derived["flow_tuple_bytes_per_bearer"] > 0
        assert ("gateway.bearer_bytes", "bytes_per_bearer") in (
            perflab.artifact.HEADLINES)
