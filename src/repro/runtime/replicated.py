"""Replicated controller processes over TCP + the failover drill.

This is the wire tier of :mod:`repro.runtime.replication`: R real
controller replica *processes* (default 3) that elect a leaseholder
over ``MSG_VOTE``/``MSG_APPEND`` frames and replicate the drill's
controller verbs through the shared log before anything touches a node
daemon.  The replicated state machine is deliberately cheap to ship:

* every log entry is a tiny **seeded command** (``bootstrap``, a
  ``storm`` round, a ``traffic`` round) — each replica derives the
  actual RIB operations and frames deterministically from its own
  shadow (same seed, same log order ⇒ byte-identical shadows on all
  replicas, and a restarted replica rebuilds by replaying the log);
* only the **leader** executes a committed command against the daemons
  (its :class:`~repro.runtime.controller.RuntimeController` claims the
  term on every link via ``MSG_CLAIM``, so a deposed leader's requests
  bounce with ``RSP_REDIRECT``);
* the leader advertises how far wire execution got (``executed`` in
  its appends); a new leader re-executes the committed suffix beyond
  that hint.  Storm re-execution is idempotent on the daemons
  (absolute inserts; removes of unknown keys are skipped; deltas are
  rebuilt from the authoritative slice), which is why the harness
  kills leaders only between storm rounds — never mid-traffic, whose
  charging is not idempotent.

:func:`run_replicated_workload` is the §7 control-plane drill: spawn N
daemons and R replicas, replicate a bootstrap + update storm +
differential traffic, SIGKILL the current leader at deterministic
storm rounds (respawning it as a quiescent observer), and report a
``deterministic`` section (differential counts, committed verbs —
byte-comparable per seed) plus an ``incidental`` section (who led,
how many discovery sweeps failover took — bounded, not byte-stable,
because real-clock elections pick timing-dependent winners).
"""

from __future__ import annotations

import os
import socket
import time
import zlib
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import serialize
from repro.runtime import protocol
from repro.runtime.controller import RuntimeController
from repro.runtime.framing import FramingError
from repro.runtime.protocol import (
    MSG_APPEND,
    MSG_QUERY,
    MSG_SHUTDOWN,
    MSG_SUBMIT,
    MSG_VOTE,
    RSP_APPEND,
    RSP_ERR,
    RSP_OK,
    RSP_REDIRECT,
    RSP_RESULT,
    RSP_VOTE,
)
from repro.runtime.replication import (
    APPEND,
    APPEND_REPLY,
    VOTE,
    VOTE_REPLY,
    Message,
    Replica,
    ReplicaGuard,
    Role,
    StaleTermError,
)
from repro.runtime.session import ROUNDS, Session, differential_gates
from repro.runtime.shadow import merge_comparisons
from repro.runtime.transport import LinkPool, ProcessGroup, serve

#: Real-clock election parameters for replica processes.  Deliberately
#: loose — these are sized for a *contended single-core* box (CI
#: runners), where 3 replicas + N daemons + the client time-share one
#: or two CPUs and every measured standalone cost inflates 3-8x:
#:
#: * a follower freezes for one generator step of shadow application
#:   (worst single step is the monolithic GPT build inside bootstrap,
#:   ~0.5s standalone, ~2-3s contended), so the leader's lease must
#:   ride out an ack gap of that order;
#: * the leader goes quiet for one wire chunk plus a peer-timeout
#:   flush (~1-3s contended), so the follower election floor must
#:   exceed that silence, or healthy leaders get deposed mid-entry and
#:   the cluster churns terms forever without executing anything;
#: * vote-request delivery itself takes seconds when the receiver is
#:   mid-slice, so the election timeout *spread* (tmax - tmin) must
#:   dwarf that latency — with a narrow spread two candidates fire in
#:   lockstep, each voting for itself before the other's request
#:   lands, and split-vote rounds repeat indefinitely.
#:
#: Failover therefore costs seconds — the drill budget, not the
#: common case.  Only actual leader death should trigger an election.
ELECTION_TIMEOUT = (8.0, 16.0)
HEARTBEAT_INTERVAL = 0.3
LEASE_DURATION = 7.5
#: Observer grace a respawned replica sits out before voting again.
OBSERVER_GRACE = ELECTION_TIMEOUT[1] + LEASE_DURATION + 0.05
#: How long a replica child gets to bind and announce its port.
REPLICA_READY_WAIT = 60.0
#: A fresh replica's *first* election fires after
#: ``FIRST_ELECTION_STAGGER * (replica_id + 1)`` instead of a full
#: randomized timeout: a cold cluster elects replica 0 in under a
#: second rather than idling out ELECTION_TIMEOUT seconds.
FIRST_ELECTION_STAGGER = 0.4
#: The leader waits this long for a peer's append/vote reply before
#: declaring it unreachable.  Must exceed a follower's worst apply
#: slice (~APPLY_BUDGET, inflated by contention) or busy-but-alive
#: followers never get their acks counted and the lease collapses.
PEER_TIMEOUT = 1.5
#: Shadow application is *interruptible*: entries apply through the
#: session's derive halves — generators that yield every
#: ``session.APPLY_STEP_*`` sub-steps — and a replica spends at most this
#: many seconds of shadow work per event-loop pass, so even a
#: multi-second entry (or a respawned observer's whole-log replay) never
#: blocks votes, appends, or client requests for long.  Contention
#: stretches a slice to roughly PEER_TIMEOUT, which is exactly the
#: budget.  Leader-side wire execution is chunked the same way
#: (``session.WIRE_CHUNK``) so heartbeats keep flowing while a large
#: storm/traffic entry is applied to the daemons.
APPLY_BUDGET = 0.1
#: Entry-size targets for the workload driver.  Entries are kept large
#: to amortise per-commit round trips — interruptible application (not
#: entry size) is what keeps replicas responsive.
TRAFFIC_SLICE = 5000
STORM_SLICE = 4000


def _tracer(suffix: str) -> Callable[[str], object]:
    """The ``REPRO_REPLICA_TRACE`` debugging aid (docs/runtime.md): when
    that variable names a path prefix, timestamped events are appended to
    ``<prefix>.<suffix>``; unset, they go nowhere."""
    prefix = os.environ.get("REPRO_REPLICA_TRACE")
    if not prefix:
        return lambda event: None
    file = open(f"{prefix}.{suffix}", "a", buffering=1)
    return lambda event: file.write(f"{time.monotonic():9.3f} {event}\n")


class MonotonicClock:
    """The real-process clock injected into a :class:`Replica`."""

    @staticmethod
    def now() -> float:
        return time.monotonic()


class ShadowMachine(Session):
    """One replica's deterministic shadow of the whole cluster.

    Applies committed log entries — a session round verb and its kwargs,
    a seeded command — through the session's derive halves; identical
    logs produce byte-identical shadows on every replica.  What each
    entry derived (RIB ops, frames, expected outcomes) is cached per log
    index so the leader (or a successor re-executing the committed
    suffix) ships exactly what the shadow decided.  The session is never
    entered: the daemons are somebody else's, and the controller is the
    replica server's to attach while it leads.
    """

    def __init__(
        self,
        num_nodes: int,
        seed: int,
        daemon_addresses: Sequence[Tuple[str, int]],
    ) -> None:
        super().__init__(num_nodes, seed, daemon_addresses)
        self.bootstrap_index = 0
        #: log index -> (round verb, what its derive half returned)
        self.derived: Dict[int, tuple] = {}

    def apply_steps(self, entry):
        """Incremental application: a generator that yields between
        bounded sub-steps.  A single large entry costs real CPU to
        replay; yielding lets the replica's event loop answer votes,
        appends and client requests mid-entry.  Interruption points
        never change the outcome — the mutation sequence is identical
        to a monolithic apply.
        """
        if entry.verb in ("noop", "sentinel"):
            return
        if entry.verb not in ROUNDS:
            raise ValueError(f"unknown replicated verb {entry.verb!r}")
        derive = getattr(self, f"derive_{entry.verb}")
        self.derived[entry.index] = (
            entry.verb, (yield from derive(**entry.payload))
        )
        if entry.verb == "bootstrap":
            self.bootstrap_index = entry.index

    def charges_crc(self) -> int:
        """CRC of the shadow's global charging dict (order-canonical)."""
        charged = sorted(
            (int(t), int(v))
            for t, v in self.shadow.gateway.stats.bytes_charged.items()
            if int(v)
        )
        return zlib.crc32(repr(charged).encode("ascii"))

    def summary(self) -> dict:
        storms = [d[0] for v, d in self.derived.values() if v == "storm"]
        return {
            "live_flows": len(self.shadow.live_flows),
            "counters": {
                **self.shadow.counts,
                "storm_ops": sum(len(ops) for ops in storms),
                "storm_rounds": len(storms),
                "traffic_frames": sum(
                    len(d[0]) for v, d in self.derived.values()
                    if v == "traffic"
                ),
            },
            "gpt_fingerprints": self.shadow.fingerprints(),
            "charges_crc": self.charges_crc(),
            "bootstrap_index": self.bootstrap_index,
        }

    def reference_setsep(self):
        cluster = self.shadow.gateway.cluster
        assert cluster is not None, "shadow not bootstrapped"
        return serialize.loads(serialize.dumps(cluster.nodes[0].gpt.setsep))


class ReplicaServer:
    """One controller replica as a socket-served process.

    The same single-threaded loop as the node daemon
    (:func:`repro.runtime.transport.serve`): peer replication RPCs
    (``MSG_VOTE``/``MSG_APPEND``) and client requests
    (``MSG_SUBMIT``/``MSG_QUERY``) arrive on the listener; between
    requests the loop ticks the core (elections, heartbeats, lease
    checks) and applies newly committed entries to the shadow — and,
    on the leader, to the daemons.
    """

    def __init__(
        self,
        replica_id: int,
        replica_addresses: Sequence[Tuple[str, int]],
        daemon_addresses: Sequence[Tuple[str, int]],
        num_nodes: int,
        seed: int,
        observer_grace: float = 0.0,
        election_timeout: Tuple[float, float] = ELECTION_TIMEOUT,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        lease_duration: float = LEASE_DURATION,
    ) -> None:
        self.replica_id = replica_id
        self.daemon_addresses = daemon_addresses
        self.host, self.port = replica_addresses[replica_id]
        self.core = Replica(
            replica_id,
            [i for i in range(len(replica_addresses)) if i != replica_id],
            MonotonicClock(),
            seed=seed,
            election_timeout=election_timeout,
            heartbeat_interval=heartbeat_interval,
            lease_duration=lease_duration,
            observer_grace=observer_grace,
            first_election_delay=(
                FIRST_ELECTION_STAGGER * (replica_id + 1)
            ),
        )
        self.machine = ShadowMachine(num_nodes, seed, daemon_addresses)
        self._peers = LinkPool(replica_addresses, timeout=PEER_TIMEOUT)
        self._ctl_term = -1
        self._executed = 0
        self._applied_index = 0
        self._pending_applies: deque = deque()
        self._apply_entry = None
        self._apply_gen = None
        self._results: Dict[int, dict] = {}
        self._running = False
        self._trace = _tracer(f"r{replica_id}")
        self._trace_role: Tuple[Role, int] = (self.core.role, self.core.term)

    def _trace_transitions(self) -> None:
        now = (self.core.role, self.core.term)
        if now != self._trace_role:
            self._trace(
                f"role {self._trace_role[0].name}/t{self._trace_role[1]}"
                f" -> {now[0].name}/t{now[1]}"
                f" leader={self.core.leader_id}"
                f" commit={self.core.commit_index}"
                f" applied={self._applied_index} exec={self._executed}"
            )
            self._trace_role = now

    # -- peer links -----------------------------------------------------

    def _flush(self, messages: Sequence[Message]) -> None:
        """Ship outbound core messages; feed replies back into the core."""
        queue = deque(messages)
        while queue:
            message = queue.popleft()
            msg_type = MSG_VOTE if message.kind == VOTE else MSG_APPEND
            try:
                rsp_type, rsp = self._peers.request(
                    message.dest, msg_type,
                    protocol.encode_json(message.payload),
                )
            except (FramingError, OSError):
                continue  # unreachable peer: the protocol retries
            if rsp_type == RSP_VOTE:
                queue.extend(self.core.handle(
                    VOTE_REPLY, protocol.decode_json(rsp)
                ))
            elif rsp_type == RSP_APPEND:
                queue.extend(self.core.handle(
                    APPEND_REPLY, protocol.decode_json(rsp)
                ))

    # -- commit application --------------------------------------------

    def _drive(self) -> None:
        # The core defers campaigning while this replica still owes the
        # shadow committed entries: a backlogged winner could not
        # execute anything for a long time, and mid-drain campaigns are
        # what livelocked elections under CPU contention.
        self.core.apply_backlog = (
            self._apply_gen is not None
            or bool(self._pending_applies)
            or self.core.commit_index > self._applied_index
        )
        self._flush(self.core.tick())
        self._trace_transitions()
        self._apply_committed()

    def _apply_committed(self) -> None:
        # Shadow application costs real CPU (it replays every routed
        # frame and churn op).  Applying an unbounded backlog — or even
        # one large entry — in a single call would block this
        # single-threaded loop long enough to miss votes and appends,
        # so application is driven through the shadow's resumable
        # generator under a time budget; _applied_index gates wire
        # execution so a leader never executes an entry its shadow has
        # not derived yet.
        self._pending_applies.extend(self.core.take_applies())
        deadline = time.monotonic() + APPLY_BUDGET
        while True:
            if self._apply_gen is None:
                if not self._pending_applies:
                    break
                self._apply_entry = self._pending_applies.popleft()
                self._apply_gen = self.machine.apply_steps(self._apply_entry)
            try:
                next(self._apply_gen)
            except StopIteration:
                self._applied_index = self._apply_entry.index
                self._trace(
                    f"applied #{self._apply_entry.index}"
                    f" {self._apply_entry.verb}"
                )
                self._apply_gen = None
                self._apply_entry = None
            if time.monotonic() >= deadline:
                break
        if self.core.role is Role.LEADER:
            try:
                self._wire_execute()
            except StaleTermError:
                # A successor claimed a newer term on the daemons while
                # we were mid-batch; stop executing — the new leader
                # owns the remaining suffix.
                pass
        else:
            self._drop_controller()

    def _lead(self) -> ShadowMachine:
        """The machine with a wire controller claimed for this term."""
        machine, term = self.machine, self.core.term
        if machine.controller is None:
            ctl = RuntimeController(
                self.daemon_addresses, guard=ReplicaGuard(self.core)
            )
            ctl.claim = (term, self.replica_id)
            ctl.connect()
            already = max(self._executed, self.core.executed_hint)
            if machine.bootstrap_index and (
                already >= machine.bootstrap_index
            ):
                # The daemons were bootstrapped by a previous leader;
                # adopt the shadow-derived reference instead of
                # re-shipping.
                ctl.adopt_reference(machine.reference_setsep(), epoch=1)
            machine.controller = ctl
        elif self._ctl_term != term:
            machine.controller.claim_leadership(term, self.replica_id)
        self._ctl_term = term
        return machine

    def _drop_controller(self) -> None:
        if self.machine.controller is not None:
            self.machine.controller.close()
            self.machine.controller = None
            self._ctl_term = -1

    def _heartbeat_between_chunks(self) -> None:
        """Keep the lease alive while a large wire batch is in flight.

        Wire execution is synchronous RPC against the daemons; without
        interleaved heartbeats a big traffic entry would starve the
        followers long enough for them to elect a successor — and a
        successor re-executing a half-applied traffic entry double
        charges bearers.  Abort the batch if leadership was lost anyway.
        """
        self._flush(self.core.tick())
        if self.core.role is not Role.LEADER:
            raise StaleTermError("leadership lost during wire execution")

    def _wire_execute(self) -> None:
        """Execute the committed-but-unexecuted suffix on the daemons."""
        start = max(self._executed, self.core.executed_hint)
        # Never run ahead of the local shadow: derived payloads for an
        # unapplied entry do not exist yet and would be silently treated
        # as noops.
        end = min(self.core.commit_index, self._applied_index)
        if start >= end:
            return
        machine = self._lead()
        for index in range(start + 1, end + 1):
            derived = machine.derived.get(index)
            if derived is None:  # noop entries have no wire effect
                self._executed = index
                self.core.note_executed(index)
                continue
            verb, payload = derived
            self._trace(f"wire #{index} {verb} start")
            execute = getattr(machine, f"execute_{verb}")
            self._results[index] = {
                "verb": verb,
                **execute(payload, self._heartbeat_between_chunks),
            }
            self._executed = index
            self._trace(f"wire #{index} {verb} done")
            self.core.note_executed(index)
            # Ship the executed hint right away: if a successor were
            # elected between this entry's wire effects and the next
            # scheduled heartbeat, it would re-execute the entry — and
            # traffic entries double-charge bearers when replayed.
            self._flush(self.core.advertise_executed())

    # -- serving --------------------------------------------------------

    def serve_forever(self, ready=None) -> None:
        """Serve until SHUTDOWN, ticking the core between requests."""
        self._running = True
        try:
            serve(
                self.host, self.port, self._dispatch,
                running=lambda: self._running, tick=0.02, ready=ready,
                idle=self._drive,
            )
        finally:
            self._peers.close()
            self._drop_controller()

    def _dispatch(
        self, msg_type: int, payload: bytes, conn=None
    ) -> Tuple[int, bytes]:
        try:
            if msg_type == MSG_VOTE:
                doc = protocol.decode_json(payload)
                replies = self.core.handle(VOTE, doc)
                self._trace(
                    f"vote req from r{doc.get('candidate')}"
                    f" t{doc.get('term')}"
                    f" -> granted={replies[0].payload.get('granted')}"
                )
                return RSP_VOTE, protocol.encode_json(replies[0].payload)
            if msg_type == MSG_APPEND:
                replies = self.core.handle(
                    APPEND, protocol.decode_json(payload)
                )
                # The ack must reach the leader *before* we apply heavy
                # committed entries to the shadow — the serve loop
                # drives application right after the reply is sent.
                # Applying first would stall the leader's lease.
                return RSP_APPEND, protocol.encode_json(replies[0].payload)
            if msg_type == MSG_SUBMIT:
                return self._on_submit(protocol.decode_json(payload))
            if msg_type == MSG_QUERY:
                return self._on_query(protocol.decode_json(payload))
            if msg_type == MSG_SHUTDOWN:
                self._running = False
                return RSP_OK, protocol.encode_json(
                    {"replica": self.replica_id}
                )
            return RSP_ERR, protocol.encode_json(
                {"error": f"replica cannot serve type {msg_type:#x}"}
            )
        except Exception as exc:  # noqa: BLE001 - a replica never dies
            return RSP_ERR, protocol.encode_json(
                {"error": f"{type(exc).__name__}: {exc}"}
            )

    def _redirect(self) -> Tuple[int, bytes]:
        leader = self.core.leader_id
        return RSP_REDIRECT, protocol.encode_json({
            "leader": None if leader == self.replica_id else leader,
            "term": self.core.term,
        })

    def _on_submit(self, doc: dict) -> Tuple[int, bytes]:
        if self.core.role is not Role.LEADER:
            self._trace(
                f"submit {doc.get('cid')} redirect"
                f" leader={self.core.leader_id}"
            )
            return self._redirect()
        cid = str(doc["cid"])
        self._trace(f"submit {cid} accepted")
        index, outbound = self.core.submit(
            cid, str(doc["verb"]), dict(doc.get("payload", {}))
        )
        self._flush(outbound)
        # Generous: before this submit's index is executed the leader
        # may have to shadow-apply a backlog and re-execute a whole
        # storm entry on the wire — while a respawned observer replays
        # the entire log on the same contended CPU.  Minutes at the
        # CI-scale population, not a protocol failure.
        deadline = time.monotonic() + 300.0
        while (
            self.core.commit_index < index or self._executed < index
        ):
            if self.core.role is not Role.LEADER:
                return self._redirect()
            if time.monotonic() > deadline:
                return RSP_ERR, protocol.encode_json(
                    {"error": f"commit timeout for {cid!r}"}
                )
            self._drive()
            time.sleep(0.005)
        return RSP_RESULT, protocol.encode_json({
            "index": index,
            "term": self.core.entry(index).term,
            "cid": cid,
            "result": self._results.get(index, {"replayed": True}),
        })

    def _on_query(self, doc: dict) -> Tuple[int, bytes]:
        what = str(doc.get("what", "status"))
        if what == "status":
            status = self.core.status()
            status["shadow"] = self.machine.summary()
            status["committed_cids"] = self.core.committed_cids()
            status["executed"] = self._executed
            status["applied"] = self._applied_index
            return RSP_RESULT, protocol.encode_json(status)
        if what == "audit":
            if self.core.role is not Role.LEADER:
                return self._redirect()
            return RSP_RESULT, protocol.encode_json(self._lead().audit())
        return RSP_ERR, protocol.encode_json(
            {"error": f"unknown query {what!r}"}
        )


def _serve_replica(config: dict, ready) -> None:
    """Child-process body: serve one replica until SHUTDOWN."""
    ReplicaServer(**config).serve_forever(ready=ready)


def _free_ports(count: int, host: str = "127.0.0.1") -> List[int]:
    """Reserve ephemeral ports (bound briefly, then released).

    Replicas must know each other's addresses before any of them binds,
    and a respawned replica must come back on its old port — so ports
    are pre-allocated here rather than bound-then-announced.
    """
    socks = []
    for _ in range(count):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, 0))
        socks.append(sock)
    ports = [sock.getsockname()[1] for sock in socks]
    for sock in socks:
        sock.close()
    return ports


class ReplicaSet(ProcessGroup):
    """R controller replica child processes on loopback."""

    def __init__(
        self,
        daemon_addresses: Sequence[Tuple[str, int]],
        num_nodes: int,
        seed: int,
        replicas: int = 3,
        host: str = "127.0.0.1",
    ) -> None:
        if replicas < 1:
            raise ValueError("need at least one replica")
        super().__init__(slots=replicas)
        self.num = replicas
        self.host = host
        self.seed = seed
        self.num_nodes = num_nodes
        self.daemon_addresses = list(daemon_addresses)
        self.addresses: List[Tuple[str, int]] = [
            (host, port) for port in _free_ports(replicas, host)
        ]
        self.respawns = 0

    def start(self) -> "ReplicaSet":
        for replica_id in range(self.num):
            self._spawn(replica_id, observer_grace=0.0)
        return self

    def _spawn(self, replica_id: int, observer_grace: float) -> None:
        config = {
            "replica_id": replica_id,
            "replica_addresses": [list(a) for a in self.addresses],
            "daemon_addresses": [list(a) for a in self.daemon_addresses],
            "num_nodes": self.num_nodes,
            "seed": self.seed,
            "observer_grace": observer_grace,
        }
        self.spawn(
            _serve_replica, (config,), REPLICA_READY_WAIT, slot=replica_id
        )

    def respawn(self, replica_id: int) -> None:
        """Restart a killed replica as a quiescent observer.

        Its volatile log is gone; it rejoins with an observer grace
        longer than any election timeout plus lease, then catches up
        from the leader's append backoff.
        """
        self._spawn(replica_id, observer_grace=OBSERVER_GRACE)
        self.respawns += 1


class ReplicaClient:
    """Leader discovery + exactly-once submission for the harness.

    Finds the leader by probing replicas (followers answer with the
    redirect message), retries a submission under the same ``cid``
    across failovers (the log dedups), and counts discovery sweeps —
    the drill's bounded failover metric.
    """

    def __init__(
        self,
        addresses: Sequence[Tuple[str, int]],
        poll_interval: float = 0.1,
        sweep_budget: int = 800,
    ) -> None:
        self.addresses = [(str(h), int(p)) for h, p in addresses]
        self.poll_interval = poll_interval
        self.sweep_budget = sweep_budget
        self.leader_guess = 0
        # The timeout must outlive a replica's worst _on_submit wait, or
        # the client abandons a leader that is still executing.
        self._links = LinkPool(self.addresses, timeout=360.0)
        self._trace = _tracer("client")

    def close(self) -> None:
        self._links.close()

    def _leader_call(
        self, msg_type: int, payload: bytes
    ) -> Tuple[dict, int]:
        """Deliver to the current leader; returns ``(result, sweeps)``."""
        sweeps = 0
        while sweeps < self.sweep_budget:
            sweeps += 1
            order = [self.leader_guess] + [
                i for i in range(len(self.addresses))
                if i != self.leader_guess
            ]
            for replica_id in order:
                try:
                    rsp_type, rsp = self._links.request(
                        replica_id, msg_type, payload
                    )
                except (FramingError, OSError) as exc:
                    self._trace(
                        f"sweep {sweeps} r{replica_id}"
                        f" {type(exc).__name__}: {exc}"
                    )
                    continue  # dead or restarting replica
                if rsp_type == RSP_RESULT:
                    self.leader_guess = replica_id
                    return protocol.decode_json(rsp), sweeps
                if rsp_type == RSP_REDIRECT:
                    doc = protocol.decode_json(rsp)
                    leader = doc.get("leader")
                    self._trace(
                        f"sweep {sweeps} r{replica_id} redirect"
                        f" leader={leader} term={doc.get('term')}"
                    )
                    if leader is not None:
                        self.leader_guess = int(leader)
                        break  # retry the hinted leader right away
                    continue
                if rsp_type == RSP_ERR:
                    raise RuntimeError(
                        protocol.decode_json(rsp).get("error", "replica error")
                    )
            time.sleep(self.poll_interval)
        raise TimeoutError(
            f"no leader served the request within {self.sweep_budget} sweeps"
        )

    def submit(
        self, cid: str, verb: str, payload: Optional[dict] = None
    ) -> Tuple[dict, int]:
        """Replicate one verb; exactly-once under retry via ``cid``."""
        body = protocol.encode_json({
            "cid": cid, "verb": verb, "payload": payload or {},
        })
        return self._leader_call(MSG_SUBMIT, body)

    def query_leader(self, what: str) -> Tuple[dict, int]:
        return self._leader_call(
            MSG_QUERY, protocol.encode_json({"what": what})
        )

    def query_replica(self, replica_id: int, what: str = "status") -> dict:
        rsp_type, rsp = self._links.request(
            replica_id, MSG_QUERY, protocol.encode_json({"what": what})
        )
        doc = protocol.decode_json(rsp)
        if rsp_type != RSP_RESULT:
            raise RuntimeError(f"replica {replica_id} answered {doc}")
        return doc

    def shutdown_replica(self, replica_id: int) -> None:
        try:
            self._links.request(replica_id, MSG_SHUTDOWN)
        except (FramingError, OSError):
            pass


#: Not a log entry: the drill's own step between two storm rounds.
KILL_LEADER = "kill_leader"


def _split(total: int, count: int) -> List[int]:
    """``total`` in ``count`` near-equal parts, the larger ones first."""
    return [total // count + (i < total % count) for i in range(count)]


def run_replicated_workload(
    num_nodes: int = 4,
    replicas: int = 3,
    seed: int = 7,
    flows: int = 2000,
    packets: int = 4000,
    updates: int = 1000,
    kill_leader: int = 2,
    storm_rounds: Optional[int] = None,
) -> Dict[str, object]:
    """The control-plane failover drill: SIGKILL leaders mid-storm.

    Spawns ``num_nodes`` daemons and ``replicas`` controller replicas,
    replicates bootstrap + a ``updates``-operation §4.5 storm (split
    into rounds) + two differential traffic phases, and SIGKILLs the
    current leader at ``kill_leader`` deterministic round boundaries
    (respawning it as an observer each time).  Gates: zero divergence,
    byte-identical frames, identical charging/CRCs, every acked verb
    committed on every replica, identical shadows across replicas.
    """
    if kill_leader < 0:
        raise ValueError("kill_leader must be non-negative")
    if replicas < 3 and kill_leader:
        raise ValueError("leader kills need at least 3 replicas")
    if storm_rounds is None:
        # ~STORM_SLICE ops per committed entry at scale, at least 12
        # rounds for small runs so kill points stay well separated.
        storm_rounds = max(
            kill_leader + 1,
            min(updates, max(12, -(-updates // STORM_SLICE))),
        ) if updates else kill_leader + 1
    kill_rounds = sorted({
        (i + 1) * storm_rounds // (kill_leader + 1)
        for i in range(kill_leader)
    })

    # The drill as data: the log entries to submit, in order.  Traffic
    # phases are sliced into bounded entries so no single commit blocks a
    # follower's event loop for more than ~TRAFFIC_SLICE frame replays,
    # and every slice draws its ingress from a stream of its own; the
    # storm's rounds continue one stream; the last slice carries a few
    # never-connected flows.
    first = packets // 2
    phase_sizes = [
        _split(total, -(-total // TRAFFIC_SLICE))
        for total in (first, packets - first)
    ]
    slices = [
        (f"traffic-{phase}-{i}", size)
        for phase, sizes in enumerate(phase_sizes, start=1)
        for i, size in enumerate(sizes, start=1)
    ]
    traffic = [
        (cid, "traffic", {
            "packets": size,
            "stream": 11 + round_no,
            "extra": 8 if round_no == len(slices) else 0,
        })
        for round_no, (cid, size) in enumerate(slices, start=1)
    ]
    entries = [("boot", "bootstrap", {"flows": flows})]
    entries += traffic[:len(phase_sizes[0])]
    for round_no, size in enumerate(
        _split(updates, storm_rounds), start=1
    ):
        if round_no in kill_rounds:
            entries.append((f"round {round_no}", KILL_LEADER, {}))
        entries.append(
            (f"storm-{round_no}", "storm", {"stream": 13, "count": size})
        )
    entries += traffic[len(phase_sizes[0]):]

    report: Dict[str, object] = {
        "config": {
            "architecture": "scalebricks",
            "nodes": num_nodes,
            "replicas": replicas,
            "seed": seed,
            "flows": flows,
            "packets": packets,
            "updates": updates,
            "kill_leader": kill_leader,
            "storm_rounds": storm_rounds,
            "traffic_entries": [len(p) for p in phase_sizes],
        },
    }
    incidental: Dict[str, object] = {
        "kill_rounds": kill_rounds,
        "killed_replicas": [],
        "failover_sweeps": [],
        "leaders": [],
        "terms": [],
    }
    acked_cids: List[str] = []
    replies: Dict[str, List[dict]] = {verb: [] for verb in ROUNDS}
    # The daemons' lifecycle is a session's; nothing is driven through
    # it — whoever leads drives them.
    daemons = Session(num_nodes, seed)
    with daemons:
        replica_set = ReplicaSet(
            daemons.runtime.addresses, num_nodes, seed, replicas=replicas
        )
        client = ReplicaClient(replica_set.addresses)
        try:
            with replica_set:
                failing_over = False
                for cid, verb, kwargs in entries:
                    if verb == KILL_LEADER:
                        victim = client.leader_guess
                        client._trace(f"kill r{victim} {cid}")
                        replica_set.kill(victim)
                        incidental["killed_replicas"].append(victim)
                        replica_set.respawn(victim)
                        failing_over = True
                        continue
                    reply, sweeps = client.submit(cid, verb, kwargs)
                    acked_cids.append(cid)
                    if failing_over:
                        incidental["failover_sweeps"].append(sweeps)
                    if failing_over or verb == "bootstrap":
                        incidental["leaders"].append(client.leader_guess)
                        incidental["terms"].append(reply["term"])
                    failing_over = False
                    replies[verb].append(reply["result"])

                audit, _ = client.query_leader("audit")

                # Let the final commit index reach the followers, then
                # collect every replica's view for the agreement gates.
                statuses: Dict[int, dict] = {}
                # The last respawned observer replays the *entire* log
                # (bootstrap + every storm round + traffic) at contended
                # CPU speed — at CI scale that is minutes, not seconds.
                deadline = time.monotonic() + 300.0
                leader_status, _ = client.query_leader("status")
                target = leader_status["commit_index"]
                while time.monotonic() < deadline:
                    statuses = {
                        rid: client.query_replica(rid)
                        for rid in range(replicas)
                    }
                    if all(
                        s["commit_index"] >= target
                        and s["applied"] >= target
                        for s in statuses.values()
                    ):
                        break
                    time.sleep(0.35)  # leave the CPU to the stragglers

                for rid in range(replicas):
                    client.shutdown_replica(rid)
        finally:
            client.close()
            replica_set.stop()
    report["leaked_processes"] = (
        daemons.leaks["leaked_processes"] + len(replica_set.leaked())
    )

    # An entry a successor found already executed answers "replayed".
    traffic_results = [r for r in replies["traffic"] if "frames" in r]
    replayed_rounds = sum(bool(r.get("replayed")) for r in replies["storm"])
    incidental["final_roles"] = {
        str(rid): statuses[rid]["role"] for rid in range(replicas)
    }
    incidental["storm_wire"] = {
        "rounds_executed": len(replies["storm"]) - replayed_rounds,
        "replayed_rounds": replayed_rounds,
    }
    incidental["traffic_replayed"] = (
        len(replies["traffic"]) - len(traffic_results)
    )
    lost_total = sum(
        cid not in status["committed_cids"]
        for status in statuses.values() for cid in acked_cids
    )
    shadows = [statuses[rid]["shadow"] for rid in range(replicas)]
    shadows_identical = all(
        s["gpt_fingerprints"] == shadows[0]["gpt_fingerprints"]
        and s["charges_crc"] == shadows[0]["charges_crc"]
        and s["counters"] == shadows[0]["counters"]
        for s in shadows[1:]
    )
    logs_identical = all(
        statuses[rid]["committed_cids"] == statuses[0]["committed_cids"]
        for rid in range(1, replicas)
    )
    report["deterministic"] = {
        "bootstrap": replies["bootstrap"][0],
        "traffic": merge_comparisons(traffic_results),
        "storm": shadows[0]["counters"],
        "audit": audit,
        "committed_verbs": len(acked_cids),
        "lost_committed_verbs": lost_total,
        "replica_logs_identical": bool(logs_identical),
        "replica_shadows_identical": bool(shadows_identical),
    }
    report["incidental"] = incidental
    re_elected = (
        len(set(incidental["terms"])) >= min(1, kill_leader) + 1
        if kill_leader else True
    )
    report["re_elected"] = bool(re_elected)
    report["gates"] = replicated_gates(report)
    report["deterministic"]["ok"] = all(
        passed for gate, passed in report["gates"].items()
        if gate not in ("re_elected", "no_leaked_processes")
    )
    report["ok"] = all(report["gates"].values())
    return report


def replicated_gates(report: Dict[str, object]) -> Dict[str, bool]:
    """Every hard gate on a failover-drill report; ``ok`` is their
    conjunction.

    This is the one definition CI's ``replicated-smoke`` job enforces (the
    CLI's exit code follows ``ok``): data-plane divergence across
    failovers, non-identical GTP-U bytes / charging / GPT replicas, an
    acked verb missing from a replica's log, replica logs or shadows that
    disagree, leader kills that never advanced the term, or a leaked
    child process each fail the run.
    """
    deterministic = report["deterministic"]
    return {
        **differential_gates(
            [deterministic["traffic"]], deterministic["audit"],
            report["leaked_processes"],
        ),
        "no_lost_committed_verbs": deterministic["lost_committed_verbs"] == 0,
        **{
            name: bool(deterministic[name]) for name in (
                "replica_logs_identical", "replica_shadows_identical",
            )
        },
        "re_elected": bool(report["re_elected"]),
    }
