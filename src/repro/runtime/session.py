"""The differential session: one socket cluster, its shadow, the drill verbs.

Every driver of the socket runtime — ``runtime-demo``, the replicated
controller, the operator API, the scale-smoke rejoin drill — checks the
wire against the in-process :class:`~repro.runtime.shadow.Shadow`.  A
:class:`Session` is what they all stand on: it owns the daemon processes
(a :class:`~repro.runtime.launcher.LocalRuntime`, unless it attaches to
daemons somebody else started), the shadow and the
:class:`~repro.runtime.controller.RuntimeController`, brings them up in
one order and tears them down in one order on every exit path, and its
methods are the drill vocabulary (:data:`VERBS`).  A drill is then data: a
list of ``(verb, kwargs)`` phases for :func:`run_drill`, plus whatever
report its driver assembles from the results; :func:`differential_gates`
is the verdict every such report shares (:func:`walkthrough_gates` adds
the operator walkthrough's fencing checks to it).

The three *round* verbs (:data:`ROUNDS`) come in two halves, because the
replicated tier needs them apart: ``derive_<verb>`` plays the round into
the shadow — every replica does that, as a generator that yields at the
``APPLY_STEP_*`` points so a long replay never freezes an event loop —
and ``execute_<verb>`` ships what the shadow decided to the daemons, which
only the leader does, in ``WIRE_CHUNK`` pieces with its heartbeat
``between`` them.  Everyone else calls the verb itself, which is the two
halves back to back in one piece.

What makes a report a pure function of its seed is plain data on the
phase: the RNG stream salt (:meth:`Session.stream`), the node domain
ingress and rehome targets are drawn from (``"all"``, ``"live"`` or one
pinned node), and the storm's shape (draws of the 30/55/15 mix, or
explicit connect / rehome / disconnect counts).
"""

from __future__ import annotations

import os
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core import shm
from repro.runtime.controller import OpResult, RuntimeController
from repro.runtime.shadow import Shadow, compare_frames, merge_comparisons

#: Verbs with a derive half and an execute half.
ROUNDS = ("bootstrap", "traffic", "storm")
#: The drill vocabulary: what a phase may name.
VERBS = ROUNDS + (
    "poll", "kill", "await_dead", "repair", "fence", "suspend", "resume",
    "drain", "join", "rejoin", "audit",
)

#: Sub-step sizes between a derive half's yields (well under 0.1 s of
#: shadow work each at the CI-scale population, standalone).
APPLY_STEP_OPS = 50
APPLY_STEP_FRAMES = 250
APPLY_STEP_FLOWS = 500
#: An execute half given a ``between`` callback ships this many ops or
#: frames per wire call (measured ~1.2 ms per update op standalone; a
#: chunk is ~0.3 s standalone, ~1-2 s contended — still under the
#: replicas' election floor).
WIRE_CHUNK = 256

#: ``"all"``, ``"live"`` or one pinned node id.
NodeDomain = Union[str, int]


def _finish(steps: Iterator[None]):
    """Run a derive half to its end; returns what it derived."""
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value


def _wire_chunks(
    total: int, between: Optional[Callable[[], None]]
) -> Iterator[slice]:
    """Slices covering ``total`` items: one slice — and so one wire call,
    even for nothing — unless there is a ``between`` to run after each."""
    step = WIRE_CHUNK if between is not None else max(1, total)
    for lo in range(0, max(1, total), step):
        yield slice(lo, lo + step)
        if between is not None:
            between()


class Session:
    """One differential run: daemons, shadow, controller, verbs.

    Args:
        num_nodes: cluster size.
        seed: master seed of the shadow and of every stream.
        addresses: daemon addresses (index = node id) to attach to;
            ``None`` spawns and owns a ``LocalRuntime`` of ``num_nodes``.
        **controller_options: passed to :class:`RuntimeController`
            (``miss_threshold``, ``ping_timeout``, ``fence_after``,
            ``guard``, ``use_shm``).

    Use as a context manager.  Leaving it — normally or not, bootstrap
    included — gracefully stops every reachable daemon, closes the
    controller (links dropped, shm segments unlinked), stops the owned
    processes and fills :attr:`leaks`.

    Attributes:
        runtime: the owned daemon processes (``None`` when attached).
        shadow: the in-process world every verb is mirrored into.
        controller: the wire side (``None`` until entered).
        statuses: the daemons' STATUS documents of the last :meth:`audit`.
        leaks: what :meth:`close` found: ``acked``, ``leaked_nodes``,
            ``leaked_processes``, ``leaked_shm_segments``.
    """

    def __init__(
        self,
        num_nodes: int,
        seed: int,
        addresses: Optional[Sequence[Tuple[str, int]]] = None,
        **controller_options: object,
    ) -> None:
        self.seed = seed
        self.shadow = Shadow(num_nodes, seed)
        self.runtime = None
        self.controller: Optional[RuntimeController] = None
        self.statuses: Dict[int, dict] = {}
        self.leaks: Optional[Dict[str, object]] = None
        self._num_nodes = num_nodes
        self._addresses = addresses
        self._controller_options = controller_options
        self._streams: Dict[str, Tuple[int, np.random.Generator]] = {}
        # Charges gone for good: a drained daemon shuts down with its
        # counters, and a later join may reuse its node id, so its slice
        # of the shadow's per-node ledger is folded in here at drain time.
        self._lost_charges: Dict[int, int] = {}

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "Session":
        try:
            addresses = self._addresses
            if addresses is None:
                # Here, not at module top: the launcher's drills import
                # this module.
                from repro.runtime.launcher import LocalRuntime

                self.runtime = LocalRuntime(self._num_nodes)
                addresses = self.runtime.start().addresses
            self.controller = RuntimeController(
                addresses, **self._controller_options
            )
            if self.runtime is not None:
                self.controller.killer = self.runtime.kill
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def close(self) -> Dict[str, object]:
        """Tear everything down (idempotent); returns :attr:`leaks`."""
        if self.leaks is not None:
            return self.leaks
        acked: List[int] = []
        try:
            if self.controller is not None:
                try:
                    acked = self.controller.shutdown_all()
                finally:
                    self.controller.close()
        finally:
            leaked: List[int] = []
            if self.runtime is not None:
                self.runtime.stop()
                leaked = self.runtime.leaked()
            self.leaks = {
                "acked": acked,
                "leaked_nodes": leaked,
                "leaked_processes": len(leaked),
                # SegmentPublisher names embed the publishing pid; every
                # one must be unlinked once the controller is closed.
                "leaked_shm_segments": len(shm.list_segments(
                    f"{shm.SEGMENT_PREFIX}{os.getpid():x}-"
                )),
            }
        return self.leaks

    # -- the data a phase carries ----------------------------------------

    def stream(self, verb: str, salt: int) -> np.random.Generator:
        """The RNG stream ``salt`` of ``verb``.  A phase that names the
        salt its verb's previous phase named continues those draws (the
        demo's ingress stream runs across both traffic phases, the
        replicated storm's across its rounds); any other salt starts a
        fresh stream and lets the old one go, so a long-lived session
        holds one stream per verb.  Streams belong to a verb because the
        replicated drill's second traffic round and its storm both salt
        13 and must not share draws."""
        held = self._streams.get(verb)
        if held is None or held[0] != salt:
            held = self._streams[verb] = (
                salt, np.random.default_rng(self.seed * 65537 + salt)
            )
        return held[1]

    def live_nodes(self) -> List[int]:
        """Nodes that have not been repaired away, ascending."""
        gateway = self.shadow.gateway
        return [
            n for n in range(gateway.num_nodes)
            if n not in gateway.down_nodes
        ]

    def _nodes(self, domain: NodeDomain) -> List[int]:
        if domain == "live":
            return self.live_nodes()
        if domain == "all":
            return list(range(self.shadow.gateway.num_nodes))
        return [int(domain)]

    def _owned(self):
        if self.runtime is None:
            raise RuntimeError(
                "this session attached to running daemons: it owns no "
                "process to signal or spawn"
            )
        return self.runtime

    # -- round verbs: derive on the shadow, execute on the wire ----------

    def derive_bootstrap(self, flows: int) -> Iterator[None]:
        """Admit ``flows`` bearers and build the shadow's data plane (the
        build at the end stays one step).  Nothing is carried over: the
        wire half ships the shadow's own state."""
        yield from self.shadow.populate_steps(flows, APPLY_STEP_FLOWS)
        return ()

    def execute_bootstrap(
        self, derived: tuple, between: object = None
    ) -> Dict[str, object]:
        """Dial every daemon, HELLO it and ship it the shadow's state
        (one step: there is nothing to chunk)."""
        self.controller.connect()
        return self.controller.bootstrap_from_gateway(self.shadow.gateway)

    def bootstrap(self, flows: int) -> Dict[str, object]:
        """Populate the shadow, then bootstrap the daemons from it."""
        return self.execute_bootstrap(_finish(self.derive_bootstrap(flows)))

    def derive_traffic(
        self,
        packets: int,
        stream: int,
        ingress: NodeDomain = "all",
        extra: int = 0,
    ) -> Iterator[None]:
        """``packets`` frames over the live bearers, ingress drawn per
        frame from ``stream`` over the ``ingress`` domain, routed through
        the shadow.  ``extra`` never-connected flows ride along: the GPT
        still maps them somewhere (one-sided error, §3.3) and the exact
        FIB refuses them — on both sides of the differential."""
        shadow = self.shadow
        generator = shadow.generator
        frames = generator.packet_stream(shadow.live_flows, packets)
        if extra:
            frames.extend(generator.packet_stream(
                generator.flows(extra), min(64, packets)
            ))
        nodes = self._nodes(ingress)
        pinned = [
            nodes[int(i)] for i in self.stream("traffic", stream).integers(
                len(nodes), size=len(frames)
            )
        ]
        mirrored: list = []
        for lo in range(0, len(frames), APPLY_STEP_FRAMES):
            hi = lo + APPLY_STEP_FRAMES
            mirrored.extend(shadow.route(frames[lo:hi], pinned[lo:hi]))
            yield
        return frames, pinned, mirrored

    def execute_traffic(
        self, derived: tuple, between: Optional[Callable[[], None]] = None
    ) -> Dict[str, int]:
        """Route the derived frames over the wire; the per-frame verdict."""
        frames, pinned, mirrored = derived
        wire: list = []
        for part in _wire_chunks(len(frames), between):
            wire.extend(
                self.controller.route_frames(frames[part], pinned[part])
            )
        return compare_frames(mirrored, wire)

    def traffic(
        self, packets: int, stream: int, **where: object
    ) -> Dict[str, int]:
        """One differential traffic round through both worlds (where:
        ``ingress`` and ``extra`` of :meth:`derive_traffic`)."""
        return self.execute_traffic(_finish(
            self.derive_traffic(packets, stream, **where)
        ))

    def derive_storm(
        self,
        stream: int,
        count: int = 0,
        connects: int = 0,
        rehomes: int = 0,
        disconnects: int = 0,
        targets: NodeDomain = "all",
    ) -> Iterator[None]:
        """One §4.5 churn round on the shadow: ``count`` draws of the
        30/55/15 mix, then the explicit verb counts — rehomes draw the
        flow, then a target from the ``targets`` domain.  Derives the wire
        ops and how far each of the shadow's verb counts moved."""
        shadow, rng = self.shadow, self.stream("storm", stream)
        flows, nodes = shadow.live_flows, self._nodes(targets)
        before = dict(shadow.counts)

        def pick(size: int) -> int:
            return int(rng.integers(size))

        def draws() -> Iterator[object]:
            for _ in range(count):
                yield shadow.storm_op(rng)
            for _ in range(connects):
                yield shadow.connect()
            for _ in range(rehomes):
                if not flows:
                    break
                yield shadow.rehome(
                    flows[pick(len(flows))], nodes[pick(len(nodes))]
                )
            for _ in range(disconnects):
                if len(flows) <= 1:
                    break
                yield shadow.disconnect(pick(len(flows)))

        ops = []
        for drawn, op in enumerate(draws(), start=1):
            if op is not None:  # a rehome onto the flow's current node
                ops.append(op)
            if drawn % APPLY_STEP_OPS == 0:
                yield
        return ops, {
            verb: total - before[verb]
            for verb, total in shadow.counts.items()
        }

    def execute_storm(
        self, derived: tuple, between: Optional[Callable[[], None]] = None
    ) -> Dict[str, int]:
        """Push the derived ops through the owner protocol; the daemons'
        update accounting plus the shadow's verb counts for the round."""
        ops, mirrored = derived
        totals: Dict[str, int] = {}
        for part in _wire_chunks(len(ops), between):
            for name, n in self.controller.push_updates(ops[part]).items():
                totals[name] = totals.get(name, 0) + n
        return {**totals, **mirrored}

    def storm(self, stream: int, **shape: object) -> Dict[str, int]:
        """One update round through both worlds (shape: see
        :meth:`derive_storm`)."""
        return self.execute_storm(_finish(self.derive_storm(stream, **shape)))

    # -- liveness and failure verbs ----------------------------------------

    def poll(self, rounds: int = 1) -> Dict[str, object]:
        """Heartbeat rounds, each followed by the auto-fence sweep: any
        node past the monitor's ``fence_after`` is force-killed and
        repaired (a no-op unless the controller was given that policy)."""
        controller = self.controller
        newly_dead: List[int] = []
        fenced: List[int] = []
        for _ in range(rounds):
            newly_dead.extend(controller.poll_liveness())
            for candidate in controller.monitor.fence_candidates():
                controller.fence_node(candidate, self.shadow.gateway)
                fenced.append(candidate)
        return {
            "rounds": rounds,
            "newly_dead": newly_dead,
            "fenced": fenced,
            "states": {
                str(n): controller.monitor.state(n).value
                for n in controller.monitor.tracked()
            },
        }

    def kill(self, node: int) -> Dict[str, object]:
        """SIGKILL a daemon; detection is left to the heartbeats."""
        return self.controller.kill_node(node).to_dict()

    def await_dead(self, node: int) -> int:
        """Poll until ``node`` is declared DEAD; the polls it took."""
        return self.controller.await_detection(node)

    def repair(self, node: int) -> Dict[str, object]:
        """§7 repair of a DEAD node, mirrored into the shadow."""
        return self.controller.handle_node_failure(
            node, self.shadow.gateway
        ).to_dict()

    def fence(self, node: int) -> Dict[str, object]:
        """Force-kill a SUSPECT (or DEAD) node and repair immediately."""
        return self.controller.fence_node(
            node, self.shadow.gateway
        ).to_dict()

    def _signal(self, verb: str, node: int) -> Dict[str, object]:
        if node in self.controller.down:
            raise ValueError(f"node {node} is already down")
        getattr(self._owned(), verb)(node)
        return OpResult(verb, node, True, self.controller.epoch).to_dict()

    def suspend(self, node: int) -> Dict[str, object]:
        """SIGSTOP a daemon — the grey-failure (SUSPECT) maker."""
        return self._signal("suspend", node)

    def resume(self, node: int) -> Dict[str, object]:
        """SIGCONT a suspended daemon (the grey failure clears)."""
        return self._signal("resume", node)

    # -- membership verbs --------------------------------------------------

    def drain(self, node: Optional[int] = None) -> Dict[str, object]:
        """Gracefully remove the highest-numbered node.  Its charging
        counters shut down with it, so its slice of the shadow's per-node
        ledger is retired here, before a join reuses the id."""
        result = self.controller.drain_node(self.shadow.gateway, node)
        retired = self.shadow.charges_by_node.pop(result.node, {})
        for teid, total in retired.items():
            self._lost_charges[teid] = (
                self._lost_charges.get(teid, 0) + total
            )
        return result.to_dict()

    def join(self) -> Dict[str, object]:
        """Spawn one more daemon and grow the cluster onto it."""
        return self.controller.join_node(
            self.shadow.gateway, self._owned().add_node()
        ).to_dict()

    def rejoin(self, node: int) -> Dict[str, object]:
        """Respawn a repaired node's daemon and bring it back by the
        epoch floor plus the delta log."""
        return self.controller.rejoin_node(
            self.shadow.gateway, node, self._owned().respawn(node)
        ).to_dict()

    # -- the global differential -------------------------------------------

    def audit(self) -> Dict[str, object]:
        """Charging and GPT replica CRCs, wire against shadow.  A node
        that reports no STATUS took its counters with it (fate sharing,
        §7): its slice, and every slice a drain retired, is not expected."""
        self.statuses = self.controller.status_all()
        return self.shadow.audit(self.statuses, self._lost_charges)


def run_drill(
    session: Session, phases: Sequence[Tuple[str, Dict[str, object]]]
) -> Dict[str, List[object]]:
    """Run ``(verb, kwargs)`` phases in order; each verb's results, in
    the order its phases ran."""
    results: Dict[str, List[object]] = {}
    for verb, kwargs in phases:
        if verb not in VERBS:
            raise ValueError(f"unknown drill verb {verb!r}")
        results.setdefault(verb, []).append(
            getattr(session, verb)(**kwargs)
        )
    return results


def differential_gates(
    traffic: Sequence[Dict[str, object]],
    audit: Dict[str, object],
    leaked_processes: int,
    leaked_segments: Optional[int] = None,
) -> Dict[str, bool]:
    """The gates every differential report shares: zero divergences and
    byte-identical frames over all of ``traffic``'s comparison summaries,
    identical charging and identical GPT replicas in ``audit``, nothing
    leaked (the segment gate only where segments were counted).  Each
    driver composes these with its own."""
    merged = merge_comparisons(traffic)
    gates = {
        "no_divergence": merged["divergences"] == 0,
        "byte_identical": bool(merged["byte_identical"]),
        "charging_identical": bool(audit["charging_identical"]),
        "gpt_replicas_identical": bool(audit["gpt_replicas_identical"]),
        "no_leaked_processes": leaked_processes == 0,
    }
    if leaked_segments is not None:
        gates["no_leaked_segments"] = leaked_segments == 0
    return gates


#: The reports CI's ops-smoke walkthrough writes: ``<name>.json`` each,
#: and the ``metrics.txt`` page.
WALKTHROUGH_REPORTS = ("t1", "t2", "poll", "audit", "shutdown")

#: The node CI's ops-smoke walkthrough kills; its ``ctl kill 2`` step in
#: ``.github/workflows/ci.yml`` must match.
WALKTHROUGH_KILLED_NODE = 2


def walkthrough_gates(reports: Dict[str, object]) -> Dict[str, bool]:
    """The gates of CI's ops-smoke walkthrough over its parsed reports
    (:data:`WALKTHROUGH_REPORTS` by name, plus ``"metrics"``, the text of
    the metrics page): :func:`differential_gates` over both traffic
    phases, the audit and the shutdown's leak count; the poll sweep
    fenced exactly :data:`WALKTHROUGH_KILLED_NODE`; the metrics page
    counts that one fence."""
    gates = differential_gates(
        [reports["t1"], reports["t2"]], reports["audit"],
        reports["shutdown"]["leaked_processes"],
    )
    gates["killed_node_fenced"] = (
        reports["poll"]["fenced"] == [WALKTHROUGH_KILLED_NODE]
    )
    gates["fence_counted"] = (
        "repro_runtime_fences_total 1" in reports["metrics"].splitlines()
    )
    return gates
