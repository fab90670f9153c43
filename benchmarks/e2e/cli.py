"""Command line of the end-to-end benchmark (``run`` and ``compare``)."""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from dataclasses import asdict
from typing import List, Optional

from . import benchmark_spec


def _int_flag(text: str) -> int:
    value = int(text)
    if value not in (0, 1):
        raise argparse.ArgumentTypeError("expected 0 or 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end benchmark of the gateway and the runtime.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one workload, or all four")
    run.add_argument("--workload", help="workload name (default: all)")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=None,
                     help="length of the measured phase on the sizing box; "
                          "fixes the number of windows (default: "
                          "run_seconds of BENCHMARK.json)")
    run.add_argument("--trace", nargs="?", type=_int_flag, const=1,
                     default=0, help="traced run: per-layer metrics")
    run.add_argument("--quick", action="store_true",
                     help="about a twentieth of the work per window")
    run.add_argument("--out", help="directory for runs.jsonl and span files")
    compare = sub.add_parser(
        "compare", help="compare sets of run outputs against the bounds")
    compare.add_argument("base")
    compare.add_argument("candidates", nargs="+")
    return parser


def _print_result(result, bench) -> None:
    units = {
        m["name"]: m["unit"]
        for m in bench["end_to_end"] + bench["per_layer"]
    }
    env = result.environment
    print(f"== {result.workload}  seed={result.seed}  "
          f"trace={int(result.trace)}  "
          f"windows={len(result.windows)}/{result.planned_windows}  "
          f"ops_attempted={result.attempted}  ops_failed={result.failed}")
    print(f"   one process, one thread, closed loop; {env['traffic']}; "
          f"nproc={env['nproc']} load={env['loadavg_1m_at_start']:.2f}")
    wanted = [m["name"] for m in bench["end_to_end"]]
    if result.trace:
        wanted += [m["name"] for m in bench["per_layer"]]
    for name in wanted:
        value = result.metrics[name]
        print(f"   {name:<42} {value:>14.6g} {units[name]}")
    for complaint in result.complaints:
        print(f"   ! {complaint}")


def _run(args) -> int:
    # Imported here: ``compare`` needs none of the system under test.
    from . import harness

    # The workloads are defined on these backends, whatever the caller's
    # environment selects; the daemons inherit them.
    os.environ["REPRO_GPT_BACKEND"] = "setsep"
    os.environ["REPRO_FABRIC_BACKEND"] = "crossbar"
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    bench = benchmark_spec()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            print(f"unknown workload {args.workload!r}; expected one of "
                  f"{', '.join(names)}", file=sys.stderr)
            return 2
        names = [args.workload]
    seconds = args.seconds if args.seconds is not None else float(
        bench["run_seconds"])
    if args.out:
        os.makedirs(args.out, exist_ok=True)

    status = 0
    for name in names:
        trace_path = None
        if args.out and args.trace:
            trace_path = os.path.join(args.out, f"trace_{name}.jsonl")
        result = harness.run_workload(
            name, args.seed, seconds, trace=bool(args.trace),
            quick=args.quick, trace_path=trace_path,
        )
        _print_result(result, bench)
        if args.out:
            with open(os.path.join(args.out, "runs.jsonl"), "a",
                      encoding="utf-8") as handle:
                handle.write(json.dumps(asdict(result)) + "\n")
        print(harness.contract_line(result, bench), flush=True)
        if not result.correct:
            status = 1
    return status


def _compare(args) -> int:
    from . import compare

    bench = benchmark_spec()
    base = compare.load_set(args.base)
    status = 0
    for path in args.candidates:
        rows = compare.compare_sets(bench, base, compare.load_set(path))
        print(f"# {args.base} -> {path}")
        print(compare.render(rows) if rows else "(no common runs)")
        if not rows or compare.failed(rows):
            status = 1
    return status


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _run(args) if args.command == "run" else _compare(args)
