"""The four workloads and the two systems they drive.

A workload is a seed-determined stream of *rounds*: a few control-plane
updates, then a few forwarding calls, some of whose frames aim at the flows
the updates just touched.  A fixed number of rounds makes a *window*; every
window of a workload does the same amount of work.  The bearer population
is constant: every connect is paired with a disconnect.

Two targets take the rounds: the in-process :class:`EpcGateway`
(``fwd_uniform``, ``fwd_mixed``, ``churn_fwd``) and the multi-process
runtime — two daemon processes on loopback TCP behind a
:class:`RuntimeController` (``rt_mixed``).  Both are driven through public
calls only.
"""

from __future__ import annotations

import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.cluster.architectures import Architecture
from repro.cluster.cluster import Cluster
from repro.cluster.node import ClusterNode
from repro.cluster.rib import RoutingInformationBase
from repro.cluster.update import UpdateEngine
from repro.core import serialize, shm
from repro.core.delta import GroupDelta
from repro.epc import fastpath
from repro.epc.controller import EpcController
from repro.epc.dpe import DataPlaneEngine
from repro.epc.gateway import ChargingLedger, EpcGateway
from repro.epc.packets import parse_ip
from repro.gpt.gpt import GlobalPartitionTable
from repro.runtime import controller as controller_module
from repro.runtime import protocol
from repro.runtime.controller import RuntimeController
from repro.runtime.framing import FramedSocket
from repro.runtime.launcher import LocalRuntime
from repro.runtime.protocol import OP_INSERT, OP_REMOVE, UpdateOp

from . import gen
from .oracle import Bearer, Oracle
from .trace import Hook

GATEWAY_IP = parse_ip("192.0.2.1")

#: Kinds of timed call.
FWD = 0
UPD = 1

#: ``timed(kind, ops, fn, *args)`` — the harness's stopwatch.
Timed = Callable[..., object]

#: Wall-clock limit on any single exchange with the daemons.
CALL_LIMIT_S = 120

#: Fewest windows a measured phase may have.
MIN_WINDOWS = 16


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload (recorded in the run output)."""

    name: str
    runtime: bool      # multi-process runtime, else the in-process gateway
    nodes: int
    bearers: int       # constant bearer population
    ring: int          # bearers churn disconnects, oldest first
    blocked: int       # bearers whose source address the ACL blocks
    unknown: int       # flows that never get a bearer
    pool: int          # frames in the cyclic pool
    mixed: bool        # fwd_mixed composition, else uniform minimum-size
    connects: int      # connects per round (and as many disconnects)
    rehomes: int       # rehomes per round
    batches: int       # forwarding calls per round
    batch: int         # frames per forwarding call
    hot: int           # frames per round aimed at flows the round touched
    rounds: int        # rounds per window
    rate: float        # windows measured per second of ``--seconds``
    #: ``gpt_bits_per_key`` is read after the last round, where groups that
    #: no longer separate have spilled to the fallback table; else as built.
    bits_after_churn: bool = False

    def windows(self, seconds: float) -> int:
        """Windows one run measures: fixed by ``--seconds`` alone, so two
        commits given the same arguments do the same work."""
        return max(MIN_WINDOWS, round(seconds * self.rate))


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        # A window plays the next eighth of the pool (fwd_mixed: the next
        # of its 20 blocks); churn only beside it.  ``rate`` makes the
        # measured phase last four fifths of ``--seconds`` on the sizing
        # box when its neighbours are quiet, and ``--seconds`` when not.
        Spec(name="fwd_uniform", runtime=False, nodes=4, bearers=20_000,
             ring=64, blocked=0, unknown=0, pool=65_536, mixed=False,
             connects=16, rehomes=0, batches=32, batch=256, hot=0, rounds=1,
             rate=3.2),
        Spec(name="fwd_mixed", runtime=False, nodes=4, bearers=20_000,
             ring=64, blocked=64, unknown=2_048, pool=64_000, mixed=True,
             connects=16, rehomes=0, batches=100, batch=32, hot=0, rounds=1,
             rate=2.4, bits_after_churn=True),
        Spec(name="churn_fwd", runtime=False, nodes=4, bearers=20_000,
             ring=4_000, blocked=0, unknown=0, pool=65_536, mixed=False,
             connects=24, rehomes=12, batches=8, batch=256, hot=1_024,
             rounds=2, rate=3.0, bits_after_churn=True),
        Spec(name="rt_mixed", runtime=True, nodes=2, bearers=10_000,
             ring=2_000, blocked=0, unknown=0, pool=65_536, mixed=False,
             connects=16, rehomes=0, batches=4, batch=1_024, hot=512,
             rounds=2, rate=3.0),
    )
}

#: ``--quick``: about a twentieth of the work per window (self-tests).
QUICK: Dict[str, Dict[str, int]] = {
    "fwd_uniform": dict(bearers=1_000, ring=16, pool=4_096, connects=2,
                        batches=4),
    "fwd_mixed": dict(bearers=1_000, ring=16, blocked=8, unknown=128,
                      pool=4_000, connects=2, batches=25),
    "churn_fwd": dict(bearers=1_000, ring=200, pool=1_024, connects=4,
                      rehomes=2, batches=2, batch=128, hot=128, rounds=1),
    "rt_mixed": dict(bearers=500, ring=100, pool=1_024, connects=2,
                     batches=2, batch=128, hot=64, rounds=1),
}


def spec_for(name: str, quick: bool = False) -> Spec:
    spec = SPECS[name]
    return replace(spec, **QUICK[name]) if quick else spec


class CallTimeout(Exception):
    """An exchange with the daemons outlived :data:`CALL_LIMIT_S`."""


@contextmanager
def call_limit(seconds: int = CALL_LIMIT_S) -> Iterator[None]:
    """Raise :class:`CallTimeout` in the main thread after ``seconds``."""

    def expire(_signum, _frame):
        raise CallTimeout(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class Load:
    """The seeded input stream of one workload."""

    def __init__(self, spec: Spec, seed: int) -> None:
        self.spec = spec
        self.generator, self.sets = gen.flow_sets(
            seed, spec.bearers, spec.ring, spare=spec.ring,
            blocked=spec.blocked, unknown=spec.unknown,
        )
        self.cache = gen.FrameCache(f.src_ip for f in self.sets.blocked)
        rng = np.random.default_rng([seed, 0xE2E])
        if spec.mixed:
            self.pool = gen.mixed_pool(
                rng, self.cache, self.sets, spec.pool,
                block=spec.batches * spec.batch,
            )
        else:
            self.pool = gen.uniform_pool(
                rng, self.cache, self.sets.stable, spec.pool
            )
        self._churn = gen.Churn(
            rng, self.sets, spec.nodes, spec.connects, spec.rehomes
        )
        self._frames = gen.RoundFrames(
            rng, self.cache, self.pool, spec.batches * spec.batch, spec.hot
        )

    def bearer_args(self, flow):
        """``(flow, base station, region)`` — what ``connect`` takes."""
        return (
            flow, self.generator.base_station_for(flow),
            self.generator.region_for(flow),
        )

    def next_window(self) -> List[Tuple[List[gen.Op], List[gen.Frames]]]:
        """The next window: per round, its ops and its frame batches."""
        spec = self.spec
        rounds = []
        for _ in range(spec.rounds):
            ops = self._churn.next_round()
            frames = self._frames.next_round(ops)
            rounds.append((ops, [
                frames.slice(i * spec.batch, (i + 1) * spec.batch)
                for i in range(spec.batches)
            ]))
        return rounds


def rss_bytes(pid: int) -> int:
    """Resident set size from ``/proc/<pid>/statm``."""
    with open(f"/proc/{pid}/statm", "r", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def cpu_ns(pid: int) -> int:
    """utime + stime of a process from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])
    return ticks * 1_000_000_000 // os.sysconf("SC_CLK_TCK")


class Target:
    """What both systems share: a gateway populated from the load.

    For the in-process target the gateway *is* the system under test; for
    the runtime it is the shadow the controller bootstraps the daemons from
    and the harness builds update ops from.
    """

    def __init__(self, load: Load) -> None:
        self.load = load
        self.spec = load.spec
        self.gateway: Optional[EpcGateway] = None

    def _build_gateway(self) -> Dict[str, float]:
        started = time.perf_counter()
        gateway = EpcGateway(
            Architecture.SCALEBRICKS, self.spec.nodes, GATEWAY_IP,
            fabric_backend="crossbar",
        )
        gateway.acl_blocked_sources.update(self.load.cache.blocked_ips)
        for flow in self.load.sets.population:
            gateway.connect(*self.load.bearer_args(flow))
        populated = time.perf_counter()
        gateway.start()
        built = time.perf_counter()
        if gateway.cluster.nodes[0].gpt.backend != "setsep":
            raise RuntimeError("the benchmark measures the SetSep backend")
        self.gateway = gateway
        return {
            "populate_s": populated - started,
            "cluster_build_s": built - populated,
        }

    def preload(self, oracle: Oracle) -> None:
        """Teach the oracle the bearers set-up established."""
        for r in self.gateway.controller.flows.values():
            oracle.live[r.key] = Bearer(
                r.teid, r.base_station_ip, r.handling_node
            )

    def bits_per_key(self) -> float:
        """Node 0's GPT, fallback table included, over live bearers."""
        gateway = self.gateway
        separator = gateway.cluster.nodes[0].gpt.setsep
        return separator.size_bits() / len(gateway.controller)

    def fallback_entries(self) -> int:
        return len(self.gateway.cluster.nodes[0].gpt.setsep.fallback)

    def replica_fingerprints(self) -> List[int]:
        return [
            serialize.fingerprint(node.gpt.setsep)
            for node in self.gateway.cluster.nodes
        ]


class GatewayTarget(Target):
    """The in-process gateway: 4 nodes behind one ``EpcGateway``."""

    daemon_pids: Tuple[int, ...] = ()
    bootstrap_bytes = 0

    def setup(self) -> Dict[str, float]:
        stages = self._build_gateway()
        return {**stages, "setup_s": sum(stages.values())}

    def teardown(self) -> None:
        self.gateway = None

    def apply_updates(self, ops, timed: Timed, oracle: Oracle) -> None:
        gateway = self.gateway
        for op in ops:
            key = self.load.cache.key(op.flow)
            try:
                if op.kind == "connect":
                    r = timed(
                        UPD, 1, gateway.connect,
                        *self.load.bearer_args(op.flow),
                    )
                    oracle.connected(
                        r.key, r.teid, r.base_station_ip, r.handling_node
                    )
                elif op.kind == "disconnect":
                    existed = timed(UPD, 1, gateway.disconnect, op.flow)
                    oracle.disconnected(key, existed)
                else:
                    node = (oracle.live[key].node + op.shift) % self.spec.nodes
                    r = timed(UPD, 1, gateway.rehome_flow, op.flow, node)
                    oracle.rehomed(r.key, r.teid, r.handling_node)
                    if r.handling_node != node:
                        oracle.update_raised("rehome landed elsewhere")
            except Exception as exc:  # the run must finish and report
                oracle.update_raised(repr(exc))

    def forward(self, batch: gen.Frames, timed: Timed, oracle: Oracle) -> int:
        results = timed(
            FWD, len(batch.frames),
            self.gateway.process_downstream_batch, batch.frames,
        )
        return oracle.check_gateway(results, batch)

    def counters(self) -> Dict[str, int]:
        registry = self.gateway.registry.counters()
        stats = self.gateway.updates.stats
        return {
            "frames_in": registry["gateway.downstream.packets_in"],
            "spilled": registry["gateway.fastpath.spilled_frames"],
            "drop_unknown": registry["gateway.drops.unknown_flow"],
            "drop_acl": registry["gateway.drops.acl"],
            "drop_malformed": registry["gateway.drops.malformed"],
            "delivered": registry["gateway.downstream.tunnelled"],
            "updates": stats.updates,
            "fib_messages": stats.fib_messages,
            "delta_broadcasts": stats.delta_broadcasts,
            "delta_bits": stats.broadcast_bits,
            "groups_rebuilt": stats.groups_rebuilt,
        }

    def finish(self, oracle: Oracle) -> None:
        oracle.check_replicas(self.replica_fingerprints())
        observed = self.counters()
        oracle.check_counters({
            "delivered": observed["delivered"],
            "unknown": observed["drop_unknown"],
            "acl": observed["drop_acl"],
            "malformed": observed["drop_malformed"],
        })

    def hooks(self) -> List[Hook]:
        cluster = self.gateway.cluster
        keys = lambda args, _kwargs, _result: len(args[1])
        return [
            Hook(EpcGateway, "process_downstream_batch", "gateway.forward"),
            Hook(fastpath, "parse_frames", "fastpath.parse"),
            Hook(fastpath, "encapsulate_batch", "fastpath.encap"),
            Hook(Cluster, "pick_ingress_batch", "cluster.pick_ingress"),
            Hook(Cluster, "route_batch", "cluster.route"),
            Hook(GlobalPartitionTable, "lookup_batch", "gpt.lookup", keys),
            Hook(type(cluster.fabric), "deliver_batch", "fabric.deliver"),
            Hook(type(cluster.nodes[0].fib), "lookup_batch_array",
                 "fib.lookup", keys),
            Hook(EpcController, "record_for_key", "controller.record"),
            Hook(DataPlaneEngine, "process_batch", "dpe.process"),
            Hook(ChargingLedger, "charge_many", "ledger.charge"),
            Hook(EpcGateway, "connect", "gateway.update"),
            Hook(EpcGateway, "disconnect", "gateway.update"),
            Hook(EpcGateway, "rehome_flow", "gateway.update"),
            Hook(UpdateEngine, "insert_flow", "update.engine"),
            Hook(UpdateEngine, "remove_flow", "update.engine"),
            Hook(RoutingInformationBase, "group_contents",
                 "rib.group_contents"),
            Hook(GlobalPartitionTable, "rebuild_group", "gpt.rebuild"),
            Hook(GroupDelta, "wire_bytes", "delta.codec"),
            Hook(GroupDelta, "from_wire_bytes", "delta.codec"),
            Hook(GlobalPartitionTable, "apply_delta", "gpt.apply_delta"),
            Hook(ClusterNode, "install_route", "fib.install"),
            Hook(ClusterNode, "remove_route", "fib.install"),
            Hook(EpcController, "establish_bearer", "controller.bearer"),
            Hook(EpcController, "teardown_bearer", "controller.bearer"),
            Hook(EpcController, "rehome", "controller.bearer"),
            Hook(DataPlaneEngine, "open_bearer", "dpe.bearer"),
            Hook(DataPlaneEngine, "close_bearer", "dpe.bearer"),
            Hook(DataPlaneEngine, "export_context", "dpe.bearer"),
            Hook(DataPlaneEngine, "import_context", "dpe.bearer"),
        ]


class RuntimeTarget(Target):
    """The multi-process runtime: two daemons on loopback TCP, driven by a
    ``RuntimeController`` bootstrapped from a shadow gateway."""

    def __init__(self, load: Load) -> None:
        super().__init__(load)
        self.runtime: Optional[LocalRuntime] = None
        self.controller: Optional[RuntimeController] = None
        self.bootstrap_bytes = 0
        self.update_totals: Dict[str, int] = {}
        self._segments_before = set(shm.list_segments())
        self._ingress = [i % self.spec.nodes for i in range(self.spec.batch)]

    def setup(self) -> Dict[str, float]:
        try:
            with call_limit():
                return self._setup()
        except BaseException:
            self.teardown()
            raise

    def _setup(self) -> Dict[str, float]:
        started = time.perf_counter()
        # Daemons first: they fork from this process, and should not
        # inherit a populated gateway.
        self.runtime = LocalRuntime(self.spec.nodes).start()
        spawned = time.perf_counter()
        stages = self._build_gateway()
        built = time.perf_counter()
        self.controller = RuntimeController(
            self.runtime.addresses, use_shm=False
        )
        self.controller.connect()
        self.controller.bootstrap_from_gateway(self.gateway)
        done = time.perf_counter()
        self.bootstrap_bytes = self.controller.registry.counters()[
            "runtime.tx_bytes"
        ]
        self.update_totals = {}
        return {
            "runtime_spawn_s": spawned - started,
            **stages,
            "runtime_bootstrap_s": done - built,
            "setup_s": done - started,
        }

    def teardown(self) -> None:
        """Stop the daemons on every path; raise if anything survives."""
        controller, runtime = self.controller, self.runtime
        self.controller = self.runtime = self.gateway = None
        try:
            if controller is not None:
                with call_limit(30):
                    controller.shutdown_all()
        finally:
            if runtime is not None:
                runtime.stop()
                if runtime.leaked():
                    raise RuntimeError(
                        f"daemons still alive: {runtime.leaked()}"
                    )
        left = set(shm.list_segments()) - self._segments_before
        if left:
            raise RuntimeError(f"shared-memory segments left: {sorted(left)}")

    @property
    def daemon_pids(self) -> Tuple[int, ...]:
        return tuple(p.pid for p in self.runtime.processes)

    def apply_updates(self, ops, timed: Timed, oracle: Oracle) -> None:
        """Mirror the round's ops in the shadow (untimed), then push them
        to the daemons as one batch."""
        wire: List[UpdateOp] = []
        for op in ops:
            if op.kind == "connect":
                r = self.gateway.connect(*self.load.bearer_args(op.flow))
                wire.append(UpdateOp(
                    OP_INSERT, r.key, r.handling_node, r.teid,
                    r.base_station_ip,
                ))
            else:
                self.gateway.disconnect(op.flow)
                wire.append(UpdateOp(OP_REMOVE, self.load.cache.key(op.flow)))
        try:
            with call_limit():
                totals = timed(
                    UPD, len(wire), self.controller.push_updates, wire
                )
        except CallTimeout:
            raise
        except Exception as exc:  # the run must finish and report
            oracle.update_raised(repr(exc))
            totals = {}
        for name, value in totals.items():
            self.update_totals[name] = self.update_totals.get(name, 0) + value
        if totals.get("updates") != len(wire):
            oracle.update_raised("daemons acknowledged another op count")
        for op in wire:
            if op.op == OP_INSERT:
                oracle.connected(op.key, op.value, op.bs_ip, op.node)
            else:
                oracle.disconnected(op.key, True)

    def forward(self, batch: gen.Frames, timed: Timed, oracle: Oracle) -> int:
        with call_limit():
            outcomes = timed(
                FWD, len(batch.frames), self.controller.route_frames,
                batch.frames, self._ingress[: len(batch.frames)],
            )
        return oracle.check_runtime(outcomes, batch)

    def _status(self) -> List[dict]:
        with call_limit():
            return list(self.controller.status_all().values())

    def counters(self) -> Dict[str, int]:
        totals = self.update_totals
        return {
            "forwarded": sum(
                s["counters"].get("runtime.frames.forwarded", 0)
                for s in self._status()
            ),
            "updates": totals.get("updates", 0),
            "fib_messages": totals.get("fib_messages", 0),
            "delta_broadcasts": totals.get("delta_broadcasts", 0),
            "delta_bits": totals.get("delta_bits", 0),
        }

    def finish(self, oracle: Oracle) -> None:
        oracle.check_replicas(
            [int(s["gpt_crc"]) for s in self._status()]
            + self.replica_fingerprints()
        )

    def hooks(self) -> List[Hook]:
        wire_bytes = lambda args, _kwargs, result: (
            (len(args[2]) if len(args) > 2 else 0) + len(result[1]) + 10
        )
        return [
            Hook(RuntimeController, "route_frames", "runtime.route"),
            Hook(RuntimeController, "push_updates", "runtime.update"),
            Hook(controller_module, "pack_frame_list", "framing.pack"),
            Hook(FramedSocket, "request", "socket.request", wire_bytes),
            Hook(protocol, "decode_outcomes", "protocol.decode_outcomes"),
            Hook(protocol, "encode_updates", "protocol.encode_updates"),
        ]


def make_target(load: Load) -> Target:
    return RuntimeTarget(load) if load.spec.runtime else GatewayTarget(load)
