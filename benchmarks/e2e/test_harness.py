"""Self-tests of the benchmark harness (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from benchmarks.e2e import (
    BENCHMARK_JSON,
    benchmark_spec,
    compare,
    gen,
    harness,
    layers,
)
from benchmarks.e2e.oracle import Oracle
from benchmarks.e2e.trace import Recorder, aggregate, self_times
from benchmarks.e2e.workloads import (
    GATEWAY_IP,
    GatewayTarget,
    Load,
    RuntimeTarget,
    SPECS,
    spec_for,
)

ROOT = os.path.dirname(BENCHMARK_JSON)
WORKLOADS = sorted(SPECS)


def _stream(name: str, seed: int, windows: int = 3):
    load = Load(spec_for(name, quick=True), seed)
    digest = [load.pool.digest()]
    for _ in range(windows):
        for ops, batches in load.next_window():
            digest.append(repr(ops))
            digest += [batch.digest() for batch in batches]
    return digest


# -- load generator -----------------------------------------------------

@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    assert _stream(name, 7) == _stream(name, 7)
    assert _stream(name, 7) != _stream(name, 8)


def test_every_block_of_the_mixed_pool_holds_the_stated_shares_exactly():
    spec = SPECS["fwd_mixed"]
    load = Load(spec, seed=5)
    n = spec.batches * spec.batch  # one window plays one block
    assert spec.pool % n == 0 and spec.pool // n >= 16
    bearers = {f.key() for f in load.sets.population}
    for start in range(0, spec.pool, n):
        block = load.pool.slice(start, start + n)
        truncated = sum(flag == gen.MALFORMED for flag in block.flags)
        acl = sum(flag == gen.ACL for flag in block.flags)
        options = sum(len(f) > 14 and f[14] == 0x46 for f in block.frames)
        unknown = sum(
            flag == gen.NORMAL and key not in bearers
            for key, flag in zip(block.keys, block.flags)
        )
        assert truncated == n * 0.005
        assert options == n * 0.01
        assert acl == n * 0.02
        assert unknown == n * 0.08
        # Payload sizes are dealt 50/30/20 before truncated frames are cut.
        whole = [len(f) for f, flag in zip(block.frames, block.flags)
                 if flag != gen.MALFORMED]
        for payload, share in gen.MIX_PAYLOADS:
            count = sum(size in (42 + payload, 46 + payload)
                        for size in whole)
            assert n * share - truncated <= count <= n * share


def test_windows_walk_through_the_pool():
    spec = spec_for("fwd_uniform", quick=True)
    load = Load(spec, seed=5)
    per_window = spec.batches * spec.batch
    played = []
    for _ in range(spec.pool // per_window):
        for _ops, batches in load.next_window():
            played += [f for batch in batches for f in batch.frames]
    assert played == load.pool.frames  # one pass, in order, no repeats


def test_a_pool_that_cannot_hold_the_shares_is_refused():
    with pytest.raises(ValueError):
        gen.mix_counts(100)  # half a truncated frame


def test_churn_keeps_the_population_constant():
    load = Load(spec_for("churn_fwd", quick=True), seed=2)
    live = {f.key() for f in load.sets.population}
    size = len(live)
    for _ in range(20):
        for ops, _batches in load.next_window():
            for op in ops:
                if op.kind == "connect":
                    assert op.flow.key() not in live
                    live.add(op.flow.key())
                elif op.kind == "disconnect":
                    live.remove(op.flow.key())
        assert len(live) == size


# -- reference probe ----------------------------------------------------

def test_one_slow_probe_moves_no_window():
    nominal = harness.REFERENCE_NOMINAL_NS
    quiet = harness.Window(False, probes_ns=[nominal] * 9)
    hit = harness.Window(False, probes_ns=[nominal] * 8 + [30 * nominal])
    assert hit.slowdown == quiet.slowdown == 1.0


@pytest.mark.parametrize("collecting", [True, False])
def test_probe_runs_with_the_collector_off_and_puts_it_back(
        collecting, monkeypatch):
    seen = []

    class Spy(harness._ProbeRecord):
        def __init__(self, *args):
            seen.append(gc.isenabled())
            super().__init__(*args)

    monkeypatch.setattr(harness, "_ProbeRecord", Spy)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert harness.reference_ns() > 0
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert seen and not any(seen)


# -- spans --------------------------------------------------------------

def test_self_time_is_duration_minus_children():
    # root [0,100] > a [10,40] > aa [20,30];  root > b [50,70]
    start = np.array([0, 10, 20, 50])
    end = np.array([100, 40, 30, 70])
    parent = np.array([-1, 0, 1, 0])
    own = self_times(start, end, parent)
    assert own.tolist() == [50, 20, 10, 20]
    assert own.sum() == 100


def test_aggregate_files_spans_under_their_root():
    rec = Recorder()
    inner = rec.wrap("inner", lambda: None, count=lambda a, k, r: 3)
    outer = rec.wrap("outer", lambda: (inner(), inner()))
    other = rec.wrap("other", lambda: inner())
    outer()
    other()
    spans = aggregate(rec.names, rec.columns())
    assert spans[("outer", "inner")].calls == 2
    assert spans[("outer", "inner")].count == 6
    assert spans[("other", "inner")].calls == 1
    tree = spans[("outer", "outer")]
    assert tree.self_ns + spans[("outer", "inner")].total_ns == tree.total_ns


def _originals(target):
    found = []
    for hook in target.hooks():
        owner = hook.owner
        if isinstance(owner, type):
            owner = next(c for c in owner.__mro__ if hook.attr in vars(c))
        found.append((owner, hook.attr, vars(owner)[hook.attr]))
    return found


@pytest.mark.parametrize("name", ["churn_fwd", "rt_mixed"])
@pytest.mark.parametrize("fail", [False, True])
def test_traced_run_restores_every_callable(name, fail, monkeypatch):
    load = Load(spec_for(name, quick=True), seed=1)
    target = (RuntimeTarget if load.spec.runtime else GatewayTarget)(load)
    target.setup()
    try:
        before = _originals(target)
    finally:
        target.teardown()
    if fail:
        calls = []

        def explode(self, *_args):
            calls.append(1)
            if len(calls) > 4:  # past warm and untraced: in a traced window
                raise RuntimeError("injected")
            return 0

        monkeypatch.setattr(Oracle, "check_gateway", explode)
        monkeypatch.setattr(Oracle, "check_runtime", explode)
        with pytest.raises(RuntimeError, match="injected"):
            harness.run_workload(name, 1, 1.0, trace=True, quick=True)
    else:
        result = harness.run_workload(name, 1, 1.0, trace=True, quick=True)
        assert result.failed == 0
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, (owner, attr)
    assert multiprocessing.active_children() == []


# -- oracle -------------------------------------------------------------

@pytest.fixture()
def played():
    """A quick gateway, one round of updates and one forwarded batch."""
    load = Load(spec_for("churn_fwd", quick=True), seed=3)
    target = GatewayTarget(load)
    target.setup()
    oracle = Oracle(GATEWAY_IP, sample_seed=3)
    target.preload(oracle)
    watch = harness.Stopwatch(None, [])
    watch.open_window(False)
    ops, batches = load.next_window()[0]
    target.apply_updates(ops, watch.timed, oracle)
    batch = batches[0]
    results = target.gateway.process_downstream_batch(batch.frames)
    return target, oracle, batch, results


def _delivered_index(results):
    return next(i for i, (_route, out) in enumerate(results)
                if out is not None)


def test_oracle_accepts_the_seed_commit(played):
    target, oracle, batch, results = played
    oracle.check_gateway(results, batch)
    target.finish(oracle)
    assert oracle.attempted > len(batch.frames)
    assert oracle.failed == 0, oracle.complaints


def test_oracle_sees_one_flipped_outcome(played):
    _target, oracle, batch, results = played
    i = _delivered_index(results)
    route, _out = results[i]
    results[i] = (
        dataclasses.replace(route, dropped=True, reason="unknown_key",
                            handled_by=None, value=None),
        None,
    )
    oracle.check_gateway(results, batch)
    assert oracle.failed == 1


def test_oracle_sees_one_flipped_teid_byte(played):
    _target, oracle, batch, results = played
    i = _delivered_index(results)
    route, out = results[i]
    results[i] = (route, out[:35] + bytes([out[35] ^ 1]) + out[36:])
    oracle.check_gateway(results, batch)
    assert oracle.failed == 1


def test_oracle_sees_one_flipped_replica_byte(played):
    target, oracle, batch, results = played
    oracle.check_gateway(results, batch)
    arrays = target.gateway.cluster.nodes[1].gpt.setsep.arrays
    arrays.view(np.uint8).reshape(-1)[0] ^= 1
    target.finish(oracle)
    assert oracle.failed == oracle.updates_attempted > 0


# -- whole runs ---------------------------------------------------------

def _entry_point(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("benchmarks", "e2e", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_run_emits_exactly_the_named_metrics(name, trace):
    bench = benchmark_spec()
    done = _entry_point(ROOT, "--workload", name, "--seed", "11",
                        "--quick", "--trace", trace)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    wanted = bench["per_layer" if trace == "1" else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        got = line["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float)
        if trace == "0":
            assert got["value"] > 0


def test_every_per_layer_metric_is_measured_by_some_workload():
    names = {m["name"] for m in benchmark_spec()["per_layer"]}
    seen = set()
    for name in WORKLOADS:
        result = harness.run_workload(name, 1, 1.0, trace=True, quick=True)
        seen |= {k for k, v in result.metrics.items() if v}
    # Nothing spills to the fallback table at --quick populations.
    assert names - seen <= {"gpt.fallback_entries_end"}


def test_no_timed_window_overlaps_set_up():
    result = harness.run_workload("fwd_uniform", 1, 1.0, quick=True)
    assert len(result.windows) == result.planned_windows == 16
    starts = [w["started_ns"] for w in result.windows]
    assert all(start > result.setup_end_ns for start in starts)
    assert starts == sorted(starts)
    assert all(len(w["probes_ns"]) >= 5 for w in result.windows)


def test_same_arguments_same_work_same_counts():
    first, second = (
        harness.run_workload("churn_fwd", 4, 1.0, quick=True)
        for _ in range(2)
    )
    assert first.attempted == second.attempted
    assert len(first.windows) == len(second.windows)
    for name in compare.EXACT:
        assert first.metrics[name] == second.metrics[name], name


def test_a_metric_the_run_did_not_measure_is_refused():
    bench = benchmark_spec()
    result = harness.run_workload("fwd_uniform", 1, 1.0, quick=True)
    harness.contract_line(result, bench)
    del result.metrics["fwd_goodput_mbps"]
    with pytest.raises(KeyError):
        harness.contract_line(result, bench)


def test_only_the_other_system_s_layers_may_go_unmeasured():
    per_layer = {m["name"] for m in benchmark_spec()["per_layer"]}
    gateway, runtime = layers.not_applicable(False), layers.not_applicable(True)
    assert set(gateway) | set(runtime) <= per_layer
    assert not set(gateway) & set(runtime)
    assert all(n.startswith(("runtime.", "setup.runtime_")) for n in gateway)
    assert not any(n.startswith("runtime.") for n in runtime)


def test_entry_point_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        os.path.join(ROOT, "benchmarks", "e2e"),
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _entry_point(tmp_path, "--workload", "fwd_uniform", "--seed", "1",
                        "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""


# -- BENCHMARK.json and compare -----------------------------------------

def test_benchmark_json_meets_the_contract():
    bench = benchmark_spec()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    unit_ok = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
    names = [w["name"] for w in bench["workloads"]]
    assert names == ["fwd_uniform", "fwd_mixed", "churn_fwd", "rt_mixed"]
    for workload in bench["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in bench["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    metrics = bench["end_to_end"] + bench["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(name_ok.match(n) for n in names)
    assert all(unit_ok.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("higher", "lower") for m in metrics)
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert 1 <= bench["run_seconds"] <= 60
    assert os.path.getsize(BENCHMARK_JSON) <= 64 * 1024


def _runs(values, name="fwd_kpps", workload="fwd_uniform", counts=0.75):
    return [
        {"workload": workload, "seed": 1, "trace": False, "spec": {},
         "planned_windows": 16, "windows": [0] * 16,
         "metrics": {name: v, "cluster.hops_per_frame": counts}}
        for v in values
    ]


def test_compare_verdicts():
    bench = benchmark_spec()
    steady = [100.0, 100.5, 99.5, 100.2, 99.8]

    def row(cand, **kw):
        rows = compare.compare_sets(bench, _runs(steady), _runs(cand, **kw))
        return {r[1]: r[2] for r in rows}

    assert row(steady)["fwd_kpps"] == "unchanged"
    assert row([v * 0.7 for v in steady])["fwd_kpps"] == "worse"
    assert row([v * 1.3 for v in steady])["fwd_kpps"] == "better"
    assert row([60.0, 100.0, 140.0, 80.0, 120.0])["fwd_kpps"] == "unresolved"
    assert row(steady)["cluster.hops_per_frame"] == "identical"
    assert row(steady, counts=0.76)["cluster.hops_per_frame"] == "differs"
    assert compare.failed(
        compare.compare_sets(bench, _runs(steady), _runs(steady, counts=0.7))
    )
