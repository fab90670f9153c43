"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``build``   — build a GPT from a ``key,node`` CSV and write a snapshot.
* ``lookup``  — query keys against a snapshot.
* ``scale``   — print the Figure 11 capacity table for given parameters.
* ``gateway`` — run a quick EPC gateway simulation and print its report.
* ``info``    — describe a snapshot (config, size, bits/key).
* ``stats``   — run an instrumented gateway trial and print its metrics.
* ``chaos``   — run seeded fault-injection episodes with differential
  oracle checking (exit 1 if any gate of
  :func:`repro.chaos.soak.soak_gates` fails: an invariant was violated,
  fabric accounting leaked, or ``--link-faults`` exercised no link
  fault; failing gate names go to stderr).
* ``bench``   — the performance lab (:mod:`repro.perflab`):
  ``bench run`` executes a suite and writes ``BENCH_<gitsha>.json``,
  ``bench compare`` gates one artifact against another with noise-aware
  thresholds (exit 1 on a confirmed regression), ``bench list`` shows
  the registered benchmarks.
* ``serve`` / ``controller`` / ``runtime-demo`` — the multi-process
  socket runtime (:mod:`repro.runtime`): ``serve`` runs one node
  daemon, ``controller`` drives the differential workload against
  already-running daemons, ``runtime-demo`` spawns a local cluster,
  runs the workload (optionally SIGKILLing or fencing a daemon
  mid-run) and prints the differential report (exit 1 on any
  divergence).  With ``--replicas N`` the controller itself is
  replicated: N controller processes elect a leaseholder, the drill
  SIGKILLs the leader ``--kill-leader`` times mid-storm, and the
  report additionally gates on re-election and zero lost committed
  verbs.
* ``scale-smoke`` — the scale-tier drill
  (:mod:`repro.runtime.scalesmoke`): publish one synthesized
  million-key GPT segment and attach it from child processes, then run
  a live kill→repair→rejoin cycle that must converge by shared-memory
  reference and delta-log replay alone (exit 1 if any hard gate —
  divergence, wire snapshots, leaked segments, cold-start speedup —
  fails).
* ``serve-api`` / ``ctl`` — the operator control plane
  (:mod:`repro.ops`): ``serve-api`` launches a managed cluster behind
  the REST API daemon (``--replicas N`` replicates the control plane;
  followers answer mutations with a 307 to the leader), ``ctl`` is
  the HTTP client driving it (drain, join, kill, fence, traffic,
  audit, metrics, status, fail-leader, ...).

Machine-readable output is uniform: every command that can emit JSON
takes ``--json`` and routes through one :func:`emit` helper (sorted
keys, two-space indent), so the same state always renders the same
bytes.  Exit codes follow one convention everywhere: **0** success,
**1** a check or invariant failed (divergence, oracle violation,
refused operation), **2** usage or I/O error.  The CLI is deliberately
thin: every command is a few calls into the library, doubling as usage
documentation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

import numpy as np

from repro import fabric as fabric_registry
from repro.cluster.architectures import Architecture
from repro.cluster.cluster import INGRESS_POLICIES
from repro.core import serialize, shm
from repro.core import separator as separator_registry
from repro.core.hashfamily import canonical_key
from repro.gpt.gpt import GlobalPartitionTable
from repro.obs import MetricsRegistry
from repro.utils.env import environment_fingerprint

#: Exit codes, one convention for every command.
EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def emit(doc: object, as_json: bool) -> bool:
    """The one JSON emitter every ``--json`` flag routes through.

    Prints ``doc`` as canonical JSON (sorted keys, two-space indent)
    and returns True when ``as_json`` is set; returns False without
    printing otherwise, so callers fall through to their text
    rendering::

        if not emit(report, args.json):
            print(f"nodes: {report['nodes']}")
    """
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return True
    return False


def _cmd_build(args: argparse.Namespace) -> int:
    keys: List[int] = []
    nodes: List[int] = []
    with open(args.input, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                key_text, node_text = line.split(",")
                keys.append(canonical_key(key_text.strip()))
                nodes.append(int(node_text))
            except ValueError:
                print(f"{args.input}:{line_no}: expected 'key,node'",
                      file=sys.stderr)
                return 2
    if not keys:
        print("no entries in input", file=sys.stderr)
        return 2
    gpt, stats = GlobalPartitionTable.build(
        np.asarray(keys, dtype=np.uint64), nodes, args.nodes
    )
    with open(args.output, "wb") as out:
        serialize.dump(gpt.setsep, out)
    print(f"built GPT ({gpt.backend}): {stats.num_keys:,} keys -> "
          f"{args.nodes} nodes, "
          f"{gpt.bits_per_key(stats.num_keys):.2f} bits/key, "
          f"fallback {stats.fallback_ratio * 100:.4f}%")
    print(f"snapshot written to {args.output}")
    return 0


def _cmd_lookup(args: argparse.Namespace) -> int:
    with open(args.snapshot, "rb") as handle:
        setsep = serialize.load(handle)
    gpt = GlobalPartitionTable(args.nodes, setsep)
    for key_text in args.keys:
        node = gpt.lookup(key_text)
        print(f"{key_text} -> node {node}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    with open(args.snapshot, "rb") as handle:
        setsep = serialize.load(handle)
    backend = separator_registry.backend_of(setsep)
    fallback = getattr(setsep, "fallback", ())
    capacity = setsep.num_blocks * 1024
    if emit({
        "backend": backend,
        "config": setsep.params.name,
        "value_bits": setsep.params.value_bits,
        "blocks": setsep.num_blocks,
        "groups": setsep.num_groups,
        "buckets": setsep.num_buckets,
        "size_bytes": setsep.size_bytes(),
        "fallback_entries": len(fallback),
        "capacity_keys": capacity,
        "bits_per_key_at_capacity": setsep.size_bits() / capacity,
        "shm_available": shm.available(),
        "environment": environment_fingerprint(),
    }, args.json):
        return EXIT_OK
    print(f"backend      : {backend}")
    print(f"config       : {setsep.params.name}, "
          f"{setsep.params.value_bits}-bit values")
    print(f"blocks       : {setsep.num_blocks} "
          f"({setsep.num_groups} groups, {setsep.num_buckets} buckets)")
    print(f"size         : {setsep.size_bytes():,} bytes")
    print(f"fallback     : {len(fallback)} entries")
    print(f"sized for    : ~{capacity:,} keys "
          f"({setsep.size_bits() / capacity:.2f} bits/key at capacity)")
    print(f"shm          : {'available' if shm.available() else 'unavailable'}"
          " (shared-memory snapshot segments)")
    return 0


def _cmd_scale(args: argparse.Namespace) -> int:
    from repro.model.scaling import peak_scaling_factor, scaling_curve

    memory_bits = args.memory_mib * 1024 * 1024 * 8
    if args.json:
        rows = [
            {"nodes": n, "full_duplication": full,
             "hash_partition": hashed, "scalebricks": sb}
            for n, full, hashed, sb in scaling_curve(
                memory_bits, args.max_nodes, args.entry_bits
            )
        ]
        peak_n, ratio = peak_scaling_factor(args.max_nodes, args.entry_bits)
        emit({
            "memory_mib": args.memory_mib,
            "entry_bits": args.entry_bits,
            "curve": rows,
            "peak_advantage": {"nodes": peak_n, "ratio": ratio},
        }, True)
        return EXIT_OK
    print(f"Total FIB entries, {args.memory_mib} MiB/node, "
          f"{args.entry_bits}-bit entries")
    print(f"{'nodes':>6} {'full dup':>12} {'hash part':>12} {'ScaleBricks':>12}")
    for n, full, hashed, sb in scaling_curve(
        memory_bits, args.max_nodes, args.entry_bits
    ):
        print(f"{n:>6} {full:>12,.0f} {hashed:>12,.0f} {sb:>12,.0f}")
    peak_n, ratio = peak_scaling_factor(args.max_nodes, args.entry_bits)
    print(f"peak ScaleBricks advantage: {ratio:.2f}x at n={peak_n}")
    return 0


def _run_gateway_trial(args: argparse.Namespace):
    """Stand up a gateway, push one packet stream, return what happened."""
    from repro.epc.gateway import EpcGateway
    from repro.epc.packets import parse_ip
    from repro.epc.traffic import FlowGenerator, run_downstream_trial

    architecture = Architecture(args.architecture)
    gen = FlowGenerator(seed=args.seed)
    gateway = EpcGateway(
        architecture, args.nodes, parse_ip("192.0.2.1"),
        fabric_backend=getattr(args, "fabric", None),
        ingress_policy=getattr(args, "ingress_policy", "random"),
    )
    flows = gen.populate(gateway, args.flows)
    gateway.start()
    frames = gen.packet_stream(flows, args.packets, zipf_s=args.zipf)
    stats = run_downstream_trial(gateway, frames)
    return architecture, gateway, stats


def _cmd_gateway(args: argparse.Namespace) -> int:
    architecture, gateway, stats = _run_gateway_trial(args)
    node0 = gateway.memory_report()[0]
    print(f"architecture : {architecture.value} ({args.nodes} nodes)")
    print(f"bearers      : {args.flows:,}")
    print(f"delivered    : {stats.delivered}/{stats.offered} "
          f"(loss {stats.loss_rate * 100:.2f}%)")
    print(f"mean hops    : {stats.mean_hops:.2f}")
    print(f"node 0 state : FIB {node0['fib_bytes']:,} B"
          + (f", GPT {node0['gpt_bytes']:,} B" if node0["gpt_bytes"] else ""))
    print(f"sim rate     : {stats.software_pps:,.0f} packets/s")
    if args.metrics_json:
        try:
            with open(args.metrics_json, "w", encoding="utf-8") as out:
                out.write(gateway.registry.to_json(indent=2))
        except OSError as exc:
            print(f"cannot write metrics to {args.metrics_json}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"metrics written to {args.metrics_json}")
    return 0


def _print_metrics_text(registry: MetricsRegistry) -> None:
    """Human-readable registry snapshot: counters, gauges, histograms."""
    snap = registry.snapshot()
    if snap["counters"]:
        print("counters:")
        for name in sorted(snap["counters"]):
            print(f"  {name:<44} {snap['counters'][name]:>12,}")
    if snap["gauges"]:
        print("gauges:")
        for name in sorted(snap["gauges"]):
            print(f"  {name:<44} {snap['gauges'][name]:>12,.0f}")
    if snap["histograms"]:
        print("histograms:")
        for name in sorted(snap["histograms"]):
            h = snap["histograms"][name]
            if not h["count"]:
                continue
            mean = h["sum"] / h["count"]
            print(f"  {name:<44} n={h['count']:<9,} mean={mean:<10.3f} "
                  f"min={h['min']:<10.3f} max={h['max']:<10.3f}")


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos.faults import DEFAULT_FAULT_KINDS, LINK_FAULT_KINDS
    from repro.chaos.soak import SoakRunner, soak_gates

    kinds = None
    if args.link_faults:
        kinds = DEFAULT_FAULT_KINDS + LINK_FAULT_KINDS
    runner = SoakRunner(
        seed=args.seed,
        episodes=args.episodes,
        architecture=Architecture(args.architecture),
        num_nodes=args.nodes,
        flows=args.flows,
        steps=args.steps,
        packets_per_burst=args.packets,
        kinds=kinds,
        fabric_backend=getattr(args, "fabric", None),
    )
    report = runner.run()
    doc = report.to_dict()
    failed = [
        gate for gate, passed in soak_gates(doc, args.link_faults).items()
        if not passed
    ]
    for gate in failed:
        print(f"gate FAIL    : {gate}", file=sys.stderr)
    if not emit(doc, args.json):
        print(f"architecture : {report.architecture} "
              f"({report.num_nodes} nodes)")
        print(f"episodes     : {len(report.episodes)} "
              f"(seed {report.seed}, {args.steps} faults each)")
        print(f"fault kinds  : {', '.join(report.fault_kinds)}")
        print(f"checks       : {report.total_checks:,}")
        print(f"violations   : {report.total_violations}")
        for episode in report.episodes:
            for violation in episode.violations:
                print(f"  episode {episode.episode} (seed {episode.seed}) "
                      f"step {violation['step']}: {violation['invariant']} "
                      f"key={violation['key']}: {violation['detail']}")
        print("verdict      : "
              + ("FAILED " + ", ".join(failed) if failed else "OK"))
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _cmd_bench_run(args: argparse.Namespace) -> int:
    from repro import perflab

    try:
        perflab.discover()
    except perflab.DiscoveryError as exc:
        print(f"bench run: {exc}", file=sys.stderr)
        return 2
    # Progress goes to stderr so --json output on stdout stays parseable.
    artifact = perflab.run_suite(
        suite=args.suite,
        scale=args.scale,
        repeats=args.repeats,
        name_filter=args.filter,
        emit=lambda line: print(line, file=sys.stderr),
    )
    if not artifact.results:
        print("bench run: no benchmarks matched", file=sys.stderr)
        return 2
    path = perflab.write_artifact(artifact, args.out)
    if not emit(artifact.to_dict(), args.json):
        timed = [r for r in artifact.results if r.best is not None]
        print(f"suite {args.suite} (scale {artifact.scale}): "
              f"{len(artifact.results)} benchmarks, {len(timed)} timed")
        for result in sorted(artifact.results, key=lambda r: r.name):
            best = (f"{result.best * 1e3:10.2f}ms"
                    if result.best is not None else f"{'-':>12}")
            print(f"  {result.name:<44} {best}")
    print(f"artifact written to {path}", file=sys.stderr)
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro import perflab
    from repro.utils.env import git_sha

    try:
        baseline_path = perflab.select_baseline(
            args.baseline,
            current_sha=git_sha(),
            warn=lambda line: print(f"bench compare: {line}", file=sys.stderr),
        )
        baseline = perflab.load_artifact(baseline_path)
        current = perflab.load_artifact(args.current)
        report = perflab.compare_artifacts(
            baseline,
            current,
            fail_band=args.fail_band,
            warn_band=args.warn_band,
            mad_k=args.mad_k,
        )
    except (perflab.ArtifactError, ValueError) as exc:
        print(f"bench compare: {exc}", file=sys.stderr)
        return 2
    if not emit(report.to_dict(), args.json):
        print(report.table())
    if report.failures and not args.warn_only:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_bench_list(args: argparse.Namespace) -> int:
    from repro import perflab

    try:
        perflab.discover()
    except perflab.DiscoveryError as exc:
        print(f"bench list: {exc}", file=sys.stderr)
        return 2
    specs = perflab.specs_for_suite(args.suite)
    if emit(
        {"suite": args.suite, "benchmarks": [s.to_row() for s in specs]},
        args.json,
    ):
        return EXIT_OK
    print(f"{'name':<44} {'figure':<14} {'suites':<12} module")
    for spec in specs:
        print(f"{spec.name:<44} {spec.figure:<14} "
              f"{','.join(spec.suites):<12} {spec.module}")
    print(f"{len(specs)} benchmarks registered")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    _architecture, gateway, _stats = _run_gateway_trial(args)
    gpt = next(
        (n.gpt for n in gateway.cluster.nodes if n.gpt is not None), None
    )
    gateway.cluster.sync_fabric_gauges()
    doc = gateway.registry.snapshot()
    doc["gpt_backend"] = gpt.backend if gpt is not None else None
    doc["fabric_backend"] = fabric_registry.backend_of(
        gateway.cluster.fabric
    )
    if not emit(doc, args.json):
        if doc["gpt_backend"] is not None:
            print(f"gpt backend  : {doc['gpt_backend']}")
        print(f"fabric       : {doc['fabric_backend']}")
        _print_metrics_text(gateway.registry)
    return EXIT_OK


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.runtime.daemon import serve

    def announce(port: int) -> None:
        print(f"listening on {args.host}:{port}", flush=True)

    serve(host=args.host, port=args.port, ready=announce)
    return 0


def _parse_addresses(spec: str) -> List[tuple]:
    addresses = []
    for part in spec.split(","):
        host, _, port = part.strip().rpartition(":")
        if not host or not port.isdigit():
            raise SystemExit(f"bad address {part!r}; expected host:port")
        addresses.append((host, int(port)))
    return addresses


def _finish_runtime_report(report: dict, as_json: bool) -> int:
    if not emit(report, as_json):
        differential = report["differential"]
        print(f"nodes={report['nodes']} seed={report['seed']}")
        print(
            f"frames={differential['frames']} "
            f"delivered={differential['delivered']} "
            f"divergences={differential['divergences']}"
        )
        print(
            f"byte_identical={differential['byte_identical']} "
            f"charging_identical={differential['charging_identical']} "
            f"gpt_replicas_identical={differential['gpt_replicas_identical']}"
        )
        liveness = report["liveness"]
        if liveness["killed_node"] is not None:
            print(
                f"killed node {liveness['killed_node']}: detected in "
                f"{liveness['detection_polls']} polls, recovered "
                f"{liveness['recovered_flows']} flows"
            )
        if liveness.get("fenced_node") is not None:
            print(
                f"fenced node {liveness['fenced_node']} "
                f"(was {liveness.get('state_before_fence', '?')}): "
                f"recovered {liveness['recovered_flows']} flows"
            )
        if "leaked_processes" in report:
            print(f"leaked_processes={report['leaked_processes']}")
        for gate, passed in report.get("gates", {}).items():
            if not passed:
                print(f"gate FAIL    : {gate}")
        print("ok" if report["ok"] else "DIVERGED")
    return EXIT_OK if report["ok"] else EXIT_CHECK_FAILED


def _cmd_controller(args: argparse.Namespace) -> int:
    from repro.runtime.launcher import run_workload

    addresses = _parse_addresses(args.connect)
    report = run_workload(
        addresses,
        len(addresses),
        seed=args.seed,
        flows=args.flows,
        packets=args.packets,
        updates=args.updates,
        miss_threshold=args.miss_threshold,
        heartbeat_interval=args.heartbeat_interval,
    )
    return _finish_runtime_report(report, args.json)


def _cmd_runtime_demo(args: argparse.Namespace) -> int:
    if args.replicas:
        return _cmd_replicated_demo(args)
    from repro.runtime.launcher import run_demo

    report = run_demo(
        num_nodes=args.nodes,
        seed=args.seed,
        flows=args.flows,
        packets=args.packets,
        updates=args.updates,
        kill_node=args.kill_node,
        fence_node=args.fence_node,
        miss_threshold=args.miss_threshold,
        heartbeat_interval=args.heartbeat_interval,
        use_shm=args.shm,
    )
    return _finish_runtime_report(report, args.json)


def _cmd_scale_smoke(args: argparse.Namespace) -> int:
    from repro.runtime.scalesmoke import run_scale_smoke

    report = run_scale_smoke(
        keys=args.keys,
        attachers=args.attachers,
        nodes=args.nodes,
        flows=args.flows,
        updates=args.updates,
        seed=args.seed,
    )
    if not emit(report, args.json):
        if report.get("skipped"):
            print(f"skipped: {report['skipped']}")
        else:
            sharing = report["segment_sharing"]
            print(f"segment      : {sharing['payload_bytes']:,} bytes, "
                  f"{len(sharing['attachers'])} attachers")
            print(f"cold start   : attach {sharing['attach_ms']:.3f} ms vs "
                  f"wire load {sharing['wire_load_ms']:.3f} ms "
                  f"({sharing['cold_start_speedup']:.1f}x)")
            drill = report["rejoin_drill"]
            print(f"rejoin       : {drill['rejoin']['detail']['transport']} "
                  f"transport, "
                  f"{drill['deltalog_records_at_rejoin']} delta records, "
                  f"{drill['post_rejoin_divergences']} divergences")
            for gate, passed in report["gates"].items():
                print(f"gate {'PASS' if passed else 'FAIL'}    : {gate}")
    return EXIT_OK if report["ok"] else EXIT_CHECK_FAILED


def _cmd_replicated_demo(args: argparse.Namespace) -> int:
    """``runtime-demo --replicas N``: the leader-SIGKILL failover drill."""
    from repro.runtime.replicated import run_replicated_workload

    report = run_replicated_workload(
        num_nodes=args.nodes,
        replicas=args.replicas,
        seed=args.seed,
        flows=args.flows,
        packets=args.packets,
        updates=args.updates,
        kill_leader=args.kill_leader,
    )
    if not emit(report, args.json):
        deterministic = report["deterministic"]
        incidental = report["incidental"]
        traffic = deterministic["traffic"]
        print(
            f"nodes={report['config']['nodes']} "
            f"replicas={report['config']['replicas']} "
            f"seed={report['config']['seed']}"
        )
        print(
            f"frames={traffic['frames']} delivered={traffic['delivered']} "
            f"divergences={traffic['divergences']} "
            f"byte_identical={traffic['byte_identical']}"
        )
        print(
            f"leader kills={len(incidental['killed_replicas'])} "
            f"(replicas {incidental['killed_replicas']}), terms "
            f"{incidental['terms']}, failover sweeps "
            f"{incidental['failover_sweeps']}"
        )
        print(
            f"lost_committed_verbs={deterministic['lost_committed_verbs']} "
            f"logs_identical={deterministic['replica_logs_identical']} "
            f"shadows_identical={deterministic['replica_shadows_identical']}"
        )
        print(f"leaked_processes={report['leaked_processes']}")
        for gate, passed in report["gates"].items():
            if not passed:
                print(f"gate FAIL    : {gate}")
        print("ok" if report["ok"] else "DIVERGED")
    return EXIT_OK if report["ok"] else EXIT_CHECK_FAILED


def _cmd_serve_api(args: argparse.Namespace) -> int:
    from repro.ops import ClusterOps, OpsApiServer

    ops = ClusterOps.launch(
        num_nodes=args.nodes,
        seed=args.seed,
        flows=args.flows,
        miss_threshold=args.miss_threshold,
        fence_after=args.fence_after,
        ping_timeout=args.ping_timeout,
        replicas=args.replicas,
    )
    replica = 0 if args.replicas else None
    server = OpsApiServer(
        ops, host=args.host, port=args.port, stop_on_shutdown=True,
        replica=replica,
    )
    # In replicated mode every other replica gets its own API endpoint
    # (ephemeral port) so ``repro ctl`` works against any of them — a
    # follower answers mutations with a 307 to the leader.
    followers = [
        OpsApiServer(ops, host=args.host, replica=r).start_background()
        for r in range(1, args.replicas)
    ]
    print(
        f"operator API listening on {server.host}:{server.port} "
        f"({args.nodes} nodes, seed {args.seed})",
        flush=True,
    )
    for follower in followers:
        print(
            f"replica {follower.replica} API on "
            f"{follower.host}:{follower.port}",
            flush=True,
        )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.httpd.server_close()
        for follower in followers:
            follower.shutdown()
        ops.close()
    return EXIT_OK


def _render_ctl_text(doc: object) -> None:
    """Flat text rendering for ``repro ctl`` (non ``--json``)."""
    if isinstance(doc, list):
        for item in doc:
            if isinstance(item, dict):
                print(" ".join(
                    f"{key}={item[key]}" for key in sorted(item)
                ))
            else:
                print(item)
        return
    if isinstance(doc, dict):
        for key in sorted(doc):
            value = doc[key]
            if isinstance(value, (dict, list)):
                value = json.dumps(value, sort_keys=True)
            print(f"{key:<20} {value}")
        return
    print(doc)


def _cmd_ctl(args: argparse.Namespace) -> int:
    from repro.ops import OpsApiError, OpsClient

    client = OpsClient(args.host, args.port, timeout=args.timeout)
    verb = args.ctl_verb
    try:
        if verb == "cluster":
            doc = client.cluster()
        elif verb == "nodes":
            doc = client.nodes()
        elif verb == "node":
            doc = client.node(args.node)
        elif verb == "flow":
            doc = client.flow(args.teid)
        elif verb == "metrics":
            page = client.metrics()
            print(page, end="" if page.endswith("\n") else "\n")
            return EXIT_OK
        elif verb == "audit":
            doc = client.audit()
        elif verb in (
            "drain", "join", "kill", "fence", "suspend", "resume", "repair",
        ):
            doc = getattr(client, verb)(args.node)
        elif verb == "updates":
            doc = client.updates(
                connects=args.connects,
                rehomes=args.rehomes,
                disconnects=args.disconnects,
            )
        elif verb == "traffic":
            doc = client.traffic(packets=args.packets)
        elif verb == "poll":
            doc = client.poll(rounds=args.rounds)
        elif verb == "status":
            doc = client.replication()
        elif verb == "committed":
            doc = client.committed_ops()
        elif verb == "fail-leader":
            doc = client.fail_leader()
        elif verb == "shutdown":
            doc = client.shutdown()
        else:  # pragma: no cover - argparse enforces choices
            print(f"ctl: unknown verb {verb}", file=sys.stderr)
            return EXIT_USAGE
    except OpsApiError as exc:
        print(f"ctl {verb}: {exc.message}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except OSError as exc:
        print(
            f"ctl {verb}: cannot reach {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if not emit(doc, args.json):
        _render_ctl_text(doc)
    return EXIT_OK


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend", choices=list(separator_registry.BACKENDS), default=None,
        help="GPT separator backend (default: $REPRO_GPT_BACKEND or setsep)",
    )


def _add_fabric_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fabric", choices=list(fabric_registry.BACKENDS), default=None,
        help="fabric topology backend "
             "(default: $REPRO_FABRIC_BACKEND or crossbar)",
    )


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    _add_backend_argument(parser)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--flows", type=int, default=2000,
                        help="initial bearer population")
    parser.add_argument("--packets", type=int, default=4000,
                        help="routed frames across the two traffic phases")
    parser.add_argument("--updates", type=int, default=1000,
                        help="RIB operations in the update storm")
    parser.add_argument("--miss-threshold", type=int, default=3,
                        help="consecutive heartbeat misses declaring death")
    parser.add_argument("--heartbeat-interval", type=float, default=0.05)
    parser.add_argument("--json", action="store_true")


def make_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ScaleBricks / SetSep reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="build a GPT snapshot from CSV")
    build.add_argument("input", help="CSV of key,node lines")
    build.add_argument("output", help="snapshot file to write")
    build.add_argument("--nodes", type=int, default=4)
    _add_backend_argument(build)
    build.set_defaults(func=_cmd_build)

    lookup = sub.add_parser("lookup", help="query keys against a snapshot")
    lookup.add_argument("snapshot")
    lookup.add_argument("keys", nargs="+")
    lookup.add_argument("--nodes", type=int, default=4)
    lookup.set_defaults(func=_cmd_lookup)

    info = sub.add_parser("info", help="describe a snapshot")
    info.add_argument("snapshot")
    info.add_argument("--json", action="store_true",
                      help="emit machine-readable JSON")
    info.set_defaults(func=_cmd_info)

    scale = sub.add_parser("scale", help="print the Figure 11 table")
    scale.add_argument("--memory-mib", type=int, default=16)
    scale.add_argument("--entry-bits", type=int, default=64)
    scale.add_argument("--max-nodes", type=int, default=32)
    scale.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON")
    scale.set_defaults(func=_cmd_scale)

    def add_trial_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--architecture",
            choices=[a.value for a in Architecture],
            default=Architecture.SCALEBRICKS.value,
        )
        p.add_argument("--nodes", type=int, default=4)
        p.add_argument("--flows", type=int, default=2_000)
        p.add_argument("--packets", type=int, default=1_000)
        p.add_argument("--zipf", type=float, default=0.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--ingress-policy", choices=list(INGRESS_POLICIES),
            default="random",
            help="how the cluster picks each packet's ingress node",
        )
        _add_backend_argument(p)
        _add_fabric_argument(p)

    gateway = sub.add_parser("gateway", help="run an EPC simulation")
    add_trial_args(gateway)
    gateway.add_argument(
        "--metrics-json", metavar="PATH", default=None,
        help="write the gateway's metrics registry snapshot to PATH",
    )
    gateway.set_defaults(func=_cmd_gateway)

    stats = sub.add_parser(
        "stats",
        help="run an instrumented gateway trial and print its metrics",
    )
    add_trial_args(stats)
    stats.add_argument("--json", action="store_true",
                       help="emit the raw registry snapshot as JSON")
    stats.set_defaults(func=_cmd_stats)

    chaos = sub.add_parser(
        "chaos",
        help="run seeded fault-injection episodes with oracle checking",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--episodes", type=int, default=5)
    chaos.add_argument(
        "--architecture",
        choices=[a.value for a in Architecture],
        default=Architecture.SCALEBRICKS.value,
    )
    chaos.add_argument("--nodes", type=int, default=4)
    chaos.add_argument("--flows", type=int, default=32,
                       help="initial bearer population per episode")
    chaos.add_argument("--steps", type=int, default=8,
                       help="fault events per episode")
    chaos.add_argument("--packets", type=int, default=12,
                       help="differential packets per traffic burst")
    chaos.add_argument("--link-faults", action="store_true",
                       help="mix LINK_DOWN/LINK_DEGRADED (with their "
                            "paired LINK_HEAL) into the fault pool, and "
                            "fail unless one of them was exercised")
    chaos.add_argument("--json", action="store_true",
                       help="emit the full soak report as JSON")
    _add_backend_argument(chaos)
    _add_fabric_argument(chaos)
    chaos.set_defaults(func=_cmd_chaos)

    bench = sub.add_parser(
        "bench",
        help="the performance lab: run suites, compare artifacts",
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    bench_run = bench_sub.add_parser(
        "run", help="run a suite and write BENCH_<gitsha>.json"
    )
    bench_run.add_argument(
        "--suite", choices=["smoke", "full", "all"], default="smoke"
    )
    bench_run.add_argument(
        "--scale", type=int, default=1,
        help="workload multiplier (REPRO_BENCH_SCALE equivalent)",
    )
    bench_run.add_argument(
        "--repeats", type=int, default=None,
        help="override every benchmark's min-of-K repeat count",
    )
    bench_run.add_argument(
        "--filter", default=None,
        help="only run benchmarks whose name matches this pattern",
    )
    bench_run.add_argument(
        "--out", default=".", metavar="DIR",
        help="directory for the BENCH_<gitsha>.json artifact",
    )
    bench_run.add_argument("--json", action="store_true",
                           help="print the full artifact to stdout")
    _add_backend_argument(bench_run)
    bench_run.set_defaults(func=_cmd_bench_run)

    bench_compare = bench_sub.add_parser(
        "compare",
        help="gate one artifact against a baseline (exit 1 on regression)",
    )
    bench_compare.add_argument(
        "baseline", nargs="+",
        help="baseline BENCH_*.json candidates (a glob is fine; the one "
             "matching the current git sha wins, else newest by mtime)",
    )
    bench_compare.add_argument("current", help="current BENCH_*.json")
    bench_compare.add_argument("--fail-band", type=float, default=0.25,
                               help="relative slowdown that fails the gate")
    bench_compare.add_argument("--warn-band", type=float, default=0.10,
                               help="relative slowdown that warns")
    bench_compare.add_argument("--mad-k", type=float, default=4.0,
                               help="noise multiplier on the MAD sigma")
    bench_compare.add_argument(
        "--warn-only", action="store_true",
        help="report regressions but always exit 0 (CI smoke mode)",
    )
    bench_compare.add_argument("--json", action="store_true",
                               help="emit the machine verdict as JSON")
    bench_compare.set_defaults(func=_cmd_bench_compare)

    bench_list = bench_sub.add_parser(
        "list", help="list registered benchmarks"
    )
    bench_list.add_argument(
        "--suite", choices=["smoke", "full", "all"], default="all"
    )
    bench_list.add_argument("--json", action="store_true",
                            help="emit the listing as JSON")
    bench_list.set_defaults(func=_cmd_bench_list)

    serve = sub.add_parser(
        "serve", help="run one node daemon of the socket runtime"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 picks an ephemeral port)")
    serve.set_defaults(func=_cmd_serve)

    controller = sub.add_parser(
        "controller",
        help="drive the differential workload against running daemons",
    )
    controller.add_argument(
        "--connect", required=True,
        help="comma-separated daemon addresses, host:port,... "
             "(list index = node id)",
    )
    _add_workload_arguments(controller)
    controller.set_defaults(func=_cmd_controller)

    demo = sub.add_parser(
        "runtime-demo",
        help="spawn a local multi-process cluster, run the differential "
             "workload, print the report (exit 1 on any divergence)",
    )
    demo.add_argument("--nodes", type=int, default=4)
    demo.add_argument("--kill-node", type=int, default=None,
                      help="SIGKILL this daemon mid-run (§7 failure drill)")
    demo.add_argument("--fence-node", type=int, default=None,
                      help="SIGSTOP this daemon mid-run, then fence it "
                           "once SUSPECT (grey-failure drill)")
    demo.add_argument("--replicas", type=int, default=0,
                      help="run N replicated controller processes with "
                           "lease-based leader election (0 = single "
                           "controller)")
    demo.add_argument("--kill-leader", type=int, default=2,
                      help="times to SIGKILL the current leader during "
                           "the update storm (replicated mode only)")
    demo.add_argument("--shm", action="store_true",
                      help="publish GPT snapshots as shared-memory "
                           "segments; daemons attach by reference "
                           "(MSG_STATE_REF) instead of receiving bytes "
                           "on the wire")
    _add_workload_arguments(demo)
    demo.set_defaults(func=_cmd_runtime_demo)

    smoke = sub.add_parser(
        "scale-smoke",
        help="scale-tier drill: shared segment fan-out at ~1M keys plus "
             "a kill/repair/rejoin cycle that must converge by shm "
             "reference and delta-log replay (exit 1 on any gate)",
    )
    smoke.add_argument("--keys", type=int, default=1_000_000,
                       help="synthesized separator size for the segment "
                            "sharing drill")
    smoke.add_argument("--attachers", type=int, default=2,
                       help="child processes attaching the segment")
    smoke.add_argument("--nodes", type=int, default=2)
    smoke.add_argument("--flows", type=int, default=400)
    smoke.add_argument("--updates", type=int, default=300)
    smoke.add_argument("--seed", type=int, default=7)
    smoke.add_argument("--json", action="store_true")
    smoke.set_defaults(func=_cmd_scale_smoke)

    serve_api = sub.add_parser(
        "serve-api",
        help="launch a managed cluster behind the operator REST API",
    )
    serve_api.add_argument("--host", default="127.0.0.1")
    serve_api.add_argument("--port", type=int, default=8787,
                           help="API port (0 picks an ephemeral port)")
    serve_api.add_argument("--nodes", type=int, default=4)
    serve_api.add_argument("--seed", type=int, default=7)
    serve_api.add_argument("--flows", type=int, default=2000,
                           help="initial bearer population")
    serve_api.add_argument("--miss-threshold", type=int, default=3)
    serve_api.add_argument(
        "--fence-after", type=int, default=None,
        help="auto-fence policy: force-kill a SUSPECT node after this "
             "many consecutive heartbeat misses (default: off)",
    )
    serve_api.add_argument("--ping-timeout", type=float, default=0.5,
                           help="heartbeat probe timeout in seconds")
    serve_api.add_argument(
        "--replicas", type=int, default=0,
        help="replicate the control plane across N controller replicas; "
             "replica 0 serves on --port, the rest on ephemeral ports",
    )
    _add_backend_argument(serve_api)
    serve_api.set_defaults(func=_cmd_serve_api)

    ctl = sub.add_parser(
        "ctl", help="drive a running operator API (see serve-api)"
    )
    ctl.add_argument("--host", default="127.0.0.1")
    ctl.add_argument("--port", type=int, default=8787)
    ctl.add_argument("--timeout", type=float, default=60.0)
    ctl.set_defaults(func=_cmd_ctl)
    ctl_sub = ctl.add_subparsers(dest="ctl_verb", required=True)

    def add_ctl_verb(name: str, help_text: str, **extra) -> None:
        verb = ctl_sub.add_parser(name, help=help_text)
        if extra.pop("node", False):
            verb.add_argument("node", type=int, help="node id")
        if extra.pop("teid", False):
            verb.add_argument("teid", type=int, help="tunnel endpoint id")
        for flag, (kind, default, help_line) in extra.items():
            verb.add_argument(f"--{flag}", type=kind, default=default,
                              help=help_line)
        verb.add_argument("--json", action="store_true",
                          help="emit the response as canonical JSON")

    add_ctl_verb("cluster", "membership, epoch, liveness, recent ops")
    add_ctl_verb("nodes", "every node's liveness summary")
    add_ctl_verb("node", "one node: liveness + daemon STATUS", node=True)
    add_ctl_verb("flow", "look a bearer up by TEID", teid=True)
    add_ctl_verb("metrics", "Prometheus text exposition (raw)")
    add_ctl_verb("audit", "charging/CRC differential audit")
    add_ctl_verb("drain", "gracefully remove a node", node=True)
    add_ctl_verb("join", "grow onto a fresh daemon (id = next)", node=True)
    add_ctl_verb("kill", "SIGKILL a daemon (no repair)", node=True)
    add_ctl_verb("fence", "force-kill a SUSPECT node + repair", node=True)
    add_ctl_verb("suspend", "SIGSTOP a daemon (grey failure)", node=True)
    add_ctl_verb("resume", "SIGCONT a suspended daemon", node=True)
    add_ctl_verb("repair", "§7 repair for a DEAD node", node=True)
    add_ctl_verb(
        "updates", "push a seeded §4.5 churn batch",
        connects=(int, 0, "bearers to connect"),
        rehomes=(int, 0, "bearers to re-home"),
        disconnects=(int, 0, "bearers to disconnect"),
    )
    add_ctl_verb(
        "traffic", "run a differential traffic batch",
        packets=(int, 200, "frames to route"),
    )
    add_ctl_verb(
        "poll", "heartbeat round(s) + auto-fence sweep",
        rounds=(int, 1, "heartbeat rounds"),
    )
    add_ctl_verb("status", "replication status: leader, term, replicas")
    add_ctl_verb("committed", "this replica's committed op log")
    add_ctl_verb("fail-leader",
                 "depose the controller leader (failover drill)")
    add_ctl_verb("shutdown", "stop the cluster and the API daemon")

    reproduce = sub.add_parser(
        "reproduce",
        help="run the quick paper-vs-measured reproduction summary",
    )
    reproduce.add_argument("--scale", type=int, default=1)
    reproduce.set_defaults(func=_cmd_reproduce)

    return parser


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.reproduce import run_reproduction

    checks = run_reproduction(scale=max(1, args.scale))
    return 0 if all(ok for _, ok in checks) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = make_parser()
    args = parser.parse_args(argv)
    # One hook covers every verb carrying --backend: the process-wide
    # default feeds each build path (gateway, launcher, chaos, bench)
    # without threading a parameter through all of them.  The env var is
    # set too so spawned helper processes (replicated controllers) agree.
    if getattr(args, "backend", None) is not None:
        separator_registry.set_default_backend(args.backend)
        os.environ[separator_registry.BACKEND_ENV] = args.backend
    # Same pattern for the fabric topology (--fabric).
    if getattr(args, "fabric", None) is not None:
        fabric_registry.set_default_backend(args.fabric)
        os.environ[fabric_registry.BACKEND_ENV] = args.fabric
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
