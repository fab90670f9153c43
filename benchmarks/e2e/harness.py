"""One benchmark run: set up, warm, measure in windows, check, report.

Method (see README.md): one process, one thread, closed loop — the next
call is issued when the previous returns.  Set-up is repeated and timed on
its own; no timed window overlaps it.  Every window does the same work and
the number of windows follows from ``--seconds`` alone, so two commits do
identical work and every count repeats exactly.  A window's rate is its
work / time inside its timed calls, its latency the median over its calls;
a metric is the median over the windows, each window first scaled by how
fast the box ran a fixed reference probe beside it (README.md shows the
measurements behind that).  All traffic is in-memory or host loopback.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.utils.env import environment_fingerprint

from . import layers
from .oracle import Oracle
from .trace import Recorder, aggregate
from .workloads import (
    FWD,
    GATEWAY_IP,
    Load,
    MIN_WINDOWS,
    Spec,
    cpu_ns,
    make_target,
    rss_bytes,
    spec_for,
)

#: Times the system is set up per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: A run that has used this many times ``--seconds`` of wall clock on its
#: measured phase stops early (and says so): the gate kills a run at 180 s.
CAP_FACTOR = 2.0

#: Reference probes per window besides the one it opens with, spread over
#: its forwarding calls; and on each side of a set-up.
PROBES_PER_WINDOW = 8
PROBES_PER_SETUP = 9

#: What one reference probe takes on the sizing box when its neighbours
#: are quiet; times are stated at this speed.
REFERENCE_NOMINAL_NS = 200_000


class _ProbeRecord:
    __slots__ = ("key", "node", "path", "latency", "value", "dropped",
                 "reason")

    def __init__(self, key, node, path, latency, value, dropped, reason):
        self.key = key
        self.node = node
        self.path = path
        self.latency = latency
        self.value = value
        self.dropped = dropped
        self.reason = reason


def _probe_pass() -> int:
    t0 = time.perf_counter_ns()
    records = [
        _ProbeRecord(i, i & 3, (i, i + 1), 0.5, i, False, "handled")
        for i in range(400)
    ]
    keys = np.fromiter(
        (r.key for r in records), dtype=np.int64, count=len(records)
    )
    for node in np.unique(keys & 3):
        keys[(keys & 3) == node].sum()
    by_key = {}
    for r in records:
        by_key[r.key] = (r, bytes(60))
    return time.perf_counter_ns() - t0


def reference_ns() -> int:
    """Time the reference probe: a fixed fifth of a millisecond of the
    kind of work the program does — small records built one by one, a
    column pulled out of them into NumPy, per-node masks, result tuples, a
    dict filled — written here so that no change to the program changes it.

    Neighbours on the host slow the program by up to a half for seconds
    to minutes at a time, in a way the guest's CPU accounting does not
    show.  The probe runs beside the timed calls and slows with them.  Two
    things keep it independent of the program: the collector is off while
    it runs (a collection costs what the program's heap makes it cost), and
    it runs twice and the second pass is the one timed (the first finds
    the caches as the program left them, the second as the first did).
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        _probe_pass()
        return _probe_pass()
    finally:
        if collecting:
            gc.enable()


def slowdown(probes_ns) -> float:
    """How much slower than nominal the box ran around some probes: their
    median, so that one probe a scheduler or an interrupt hit moves
    nothing."""
    return statistics.median(probes_ns) / REFERENCE_NOMINAL_NS


@dataclass
class Window:
    """What the timed calls of one window added up to."""

    traced: bool
    started_ns: int = 0
    frames: int = 0
    fwd_ns: int = 0
    goodput_bytes: int = 0
    updates: int = 0
    upd_ns: int = 0
    #: Latency of each forwarding call (ns) and of each update (ns per
    #: operation of the call).
    fwd_call_ns: List[int] = field(default_factory=list)
    upd_op_ns: List[float] = field(default_factory=list)
    #: Reference probes taken at the window's start and between its calls.
    probes_ns: List[int] = field(default_factory=list)
    #: CPU time inside timed calls, by kind of call: this process, and
    #: (traced runtime runs only) the daemons.
    cpu_ns: List[int] = field(default_factory=lambda: [0, 0])
    daemon_cpu_ns: List[int] = field(default_factory=lambda: [0, 0])

    @property
    def timed_ns(self) -> int:
        return self.fwd_ns + self.upd_ns

    @property
    def slowdown(self) -> float:
        return slowdown(self.probes_ns)


class Stopwatch:
    """Times every call into the system and files it under its window."""

    def __init__(self, recorder: Optional[Recorder],
                 daemon_pids: List[int]) -> None:
        self.windows: List[Window] = []
        self._recorder = recorder
        self._daemon_pids = daemon_pids
        self._window: Optional[Window] = None
        self._calls = 0

    def open_window(self, traced: bool) -> Window:
        self._window = Window(traced, started_ns=time.perf_counter_ns())
        self.windows.append(self._window)
        return self._window

    def _daemon_cpu(self) -> int:
        return sum(cpu_ns(pid) for pid in self._daemon_pids)

    def timed(self, kind: int, ops: int, fn, *args):
        window = self._window
        self._calls += 1
        if self._recorder is not None:
            self._recorder.current_trace = self._calls
        daemons0 = self._daemon_cpu() if self._daemon_pids else 0
        cpu0 = time.process_time_ns()
        t0 = time.perf_counter_ns()
        result = fn(*args)
        t1 = time.perf_counter_ns()
        cpu1 = time.process_time_ns()
        elapsed = t1 - t0
        if self._daemon_pids:
            window.daemon_cpu_ns[kind] += self._daemon_cpu() - daemons0
        window.cpu_ns[kind] += cpu1 - cpu0
        if kind == FWD:
            window.frames += ops
            window.fwd_ns += elapsed
            window.fwd_call_ns.append(elapsed)
        else:
            window.updates += ops
            window.upd_ns += elapsed
            window.upd_op_ns.append(elapsed / ops)
        return result


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(watch: Stopwatch) -> Dict[str, float]:
    """The timed end-to-end metrics, from the untraced windows only: the
    median window at reference speed, except the raw ones."""
    windows = [w for w in watch.windows if not w.traced]
    fwd_calls = np.concatenate([w.fwd_call_ns for w in windows])
    upd_ops = np.concatenate([w.upd_op_ns for w in windows])
    return {
        "fwd_kpps": _median(
            w.slowdown * w.frames * 1e6 / w.fwd_ns for w in windows),
        "fwd_goodput_mbps": _median(
            w.slowdown * w.goodput_bytes * 8e3 / w.fwd_ns for w in windows),
        "fwd_batch_p50_ms": _median(
            _median(w.fwd_call_ns) / 1e6 / w.slowdown for w in windows),
        "updates_per_s": _median(
            w.slowdown * w.updates * 1e9 / w.upd_ns for w in windows),
        "update_p50_us": _median(
            _median(w.upd_op_ns) / 1e3 / w.slowdown for w in windows),
        "fwd_batch_p99_ms": float(np.percentile(fwd_calls, 99)) / 1e6,
        "update_p99_us": float(np.percentile(upd_ops, 99)) / 1e3,
        "harness.raw_fwd_kpps": _median(
            w.frames * 1e6 / w.fwd_ns for w in windows),
        "harness.raw_updates_per_s": _median(
            w.updates * 1e9 / w.upd_ns for w in windows),
        "harness.reference_slowdown": _median(w.slowdown for w in windows),
    }


def harness_validity(watch: Stopwatch) -> Dict[str, float]:
    """Whether the box or the program was measured (untraced windows)."""
    windows = [w for w in watch.windows if not w.traced]
    rates = [w.frames / w.fwd_ns for w in windows]
    quarter = max(1, len(rates) // 4)
    busy = sum(sum(w.cpu_ns) + sum(w.daemon_cpu_ns) for w in windows)
    return {
        "harness.cpu_busy_share": busy / sum(w.timed_ns for w in windows),
        "harness.window_spread": (max(rates) - min(rates)) / _median(rates),
        "harness.first_last_ratio": (
            _median(rates[:quarter]) / _median(rates[-quarter:])
        ),
        "harness.windows": float(len(windows)),
    }


@dataclass
class RunResult:
    workload: str
    seed: int
    trace: bool
    spec: Dict[str, object]
    attempted: int
    failed: int
    complaints: List[str]
    metrics: Dict[str, float]          # everything computed, by name
    planned_windows: int               # fewer measured: stopped at the cap
    windows: List[Dict[str, object]]   # the per-window series
    environment: Dict[str, object]
    setup_end_ns: int                  # on the windows' started_ns clock

    @property
    def correct(self) -> bool:
        return self.failed == 0


def _run_window(load: Load, target, watch: Stopwatch, oracle: Oracle,
                traced: bool) -> float:
    """Generate (untimed) and play one window; returns generation time."""
    started = time.perf_counter()
    rounds = load.next_window()
    generated = time.perf_counter() - started
    window = watch.open_window(traced)
    window.probes_ns.append(reference_ns())
    calls = sum(len(batches) for _ops, batches in rounds)
    every = max(1, calls // PROBES_PER_WINDOW)
    for ops, batches in rounds:
        target.apply_updates(ops, watch.timed, oracle)
        for batch in batches:
            window.goodput_bytes += target.forward(batch, watch.timed, oracle)
            if len(window.fwd_call_ns) % every == 0:
                window.probes_ns.append(reference_ns())
    return generated


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    quick: bool = False,
    trace_path: Optional[str] = None,
) -> RunResult:
    """Run one workload once.

    The run measures ``spec.windows(seconds)`` windows: the work is fixed
    by the arguments, not by how fast the box or the commit is.  A traced
    run plays them as pairs of an untraced and a traced window, so both
    sides see the same box.
    """
    spec: Spec = spec_for(name, quick)
    environment = {
        "nproc": os.cpu_count(),
        "loadavg_1m_at_start": os.getloadavg()[0],
        "traffic": "in-memory frames" + (
            ", loopback TCP between 3 processes" if spec.runtime else ""
        ),
        **environment_fingerprint(),
    }
    started = time.perf_counter()
    load = Load(spec, seed)
    framegen_s = time.perf_counter() - started

    target = make_target(load)
    recorder = Recorder() if trace else None
    try:
        setups: List[Dict[str, float]] = []
        for _ in range(SETUP_REPEATS):
            target.teardown()
            gc.collect()
            before = [reference_ns() for _ in range(PROBES_PER_SETUP)]
            stages = target.setup()
            after = [reference_ns() for _ in range(PROBES_PER_SETUP)]
            # One long call with no room for probes inside, so it is
            # scaled by the quieter of its two sides: the slower side is
            # often a passing disturbance, and dividing by it halves a
            # set-up time now and then; the quieter side errs by less, and
            # always towards a slower set-up.
            slow = min(slowdown(before), slowdown(after))
            setups.append({k: v / slow for k, v in stages.items()})
        # The median set-up, with the stages that add up to it.
        setups.sort(key=lambda stages: stages["setup_s"])
        stage_s = setups[len(setups) // 2]
        setup_end_ns = time.perf_counter_ns()
        oracle = Oracle(GATEWAY_IP, sample_seed=seed)
        target.preload(oracle)
        rss_mb = sum(
            rss_bytes(pid) for pid in (os.getpid(), *target.daemon_pids)
        ) / 2**20
        bits_per_key_start = target.bits_per_key()

        # Warm: one window the metrics never see, then a collection.
        warm = Stopwatch(None, [])
        framegen_s += _run_window(load, target, warm, oracle, False)
        gc.collect()

        watch = Stopwatch(recorder, target.daemon_pids if trace else [])
        hooks = target.hooks() if trace else []
        counters0 = target.counters()
        planned = spec.windows(seconds)
        if trace:
            planned += planned % 2  # played as pairs
        deadline = time.perf_counter() + CAP_FACTOR * seconds
        while len(watch.windows) < planned:
            if (len(watch.windows) >= MIN_WINDOWS
                    and time.perf_counter() > deadline):
                break
            framegen_s += _run_window(load, target, watch, oracle, False)
            if trace:
                recorder.install(hooks)
                try:
                    framegen_s += _run_window(
                        load, target, watch, oracle, True
                    )
                finally:
                    recorder.restore()
        counters1 = target.counters()
        bits_per_key_end = target.bits_per_key()
        fallback_entries = target.fallback_entries()
        bootstrap_bytes = target.bootstrap_bytes
        target.finish(oracle)
    finally:
        if recorder is not None:
            recorder.restore()
        target.teardown()

    metrics: Dict[str, float] = dict.fromkeys(
        layers.not_applicable(spec.runtime), 0.0
    )
    metrics.update(end_to_end(watch))
    metrics["setup_s"] = stage_s["setup_s"]
    metrics["rss_mb"] = rss_mb
    metrics["gpt_bits_per_key"] = (
        bits_per_key_end if spec.bits_after_churn else bits_per_key_start
    )
    metrics.update(harness_validity(watch))
    metrics.update({
        f"setup.{stage}": value
        for stage, value in stage_s.items() if stage != "setup_s"
    })
    metrics["setup.framegen_s"] = framegen_s
    metrics["setup.bootstrap_bytes"] = float(bootstrap_bytes)
    metrics["gpt.fallback_entries_end"] = float(fallback_entries)
    measured = watch.windows
    counters = {k: counters1[k] - counters0[k] for k in counters1}
    metrics.update(layers.from_counters(
        spec.runtime, counters,
        frames=sum(w.frames for w in measured),
        delivered=oracle.expected["delivered"],
        remote=oracle.remote_frames,
    ))
    if trace:
        cols = recorder.columns()
        metrics.update(layers.from_spans(
            spec.runtime, recorder.names, cols, aggregate(recorder.names, cols),
            [w for w in measured if w.traced],
            [w for w in measured if not w.traced],
        ))
        if trace_path is not None:
            recorder.write_jsonl(trace_path)

    return RunResult(
        workload=name,
        seed=seed,
        trace=trace,
        spec=asdict(spec),
        attempted=oracle.attempted,
        failed=oracle.failed,
        complaints=oracle.complaints,
        metrics=metrics,
        planned_windows=planned,
        windows=[
            {
                "traced": w.traced, "started_ns": w.started_ns,
                "frames": w.frames, "fwd_ns": w.fwd_ns,
                "goodput_bytes": w.goodput_bytes,
                "updates": w.updates, "upd_ns": w.upd_ns,
                "probes_ns": w.probes_ns,
                "fwd_call_p50_ns": _median(w.fwd_call_ns),
                "upd_op_p50_ns": _median(w.upd_op_ns),
                "cpu_ns": w.cpu_ns, "daemon_cpu_ns": w.daemon_cpu_ns,
            }
            for w in measured
        ],
        environment=environment,
        setup_end_ns=setup_end_ns,
    )


def contract_line(result: RunResult, bench: Dict[str, object]) -> str:
    """The last line of standard output: exactly the metrics the run's
    mode owes, each with the unit ``BENCHMARK.json`` gives it.  Raises
    ``KeyError`` on a metric the run did not measure."""
    wanted = bench["per_layer" if result.trace else "end_to_end"]
    return json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            m["name"]: {
                "value": result.metrics[m["name"]],
                "unit": m["unit"],
            }
            for m in wanted
        },
    })
