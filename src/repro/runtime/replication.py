"""Replicated controller state machine with lease-based leader election.

The runtime's controller was a single process: one SIGKILL and the
cluster loses membership, the GPT epoch and RIB ownership — exactly the
availability gap the paper's §7 failure handling closes for *data*
nodes.  This module closes it for the *control plane*: a small,
self-contained replicated log (Raft-shaped, no external dependencies)
over which 3 controller replicas agree on the sequence of controller
verbs (join/drain/kill/fence/repair/epoch-bump, plus the seeded
workload commands the drills replay).

Design points, in the repo's determinism doctrine:

* **Injected clocks.**  The core :class:`Replica` never reads the wall
  clock; it asks an injected ``clock.now()``.  Tests drive a
  :class:`ManualClock` so elections are exactly reproducible; the
  multi-process tier (:mod:`repro.runtime.replicated`) injects
  ``time.monotonic``.
* **Seeded election timeouts.**  The randomized election timeout for
  ``(seed, node, term)`` is drawn from a dedicated
  :class:`random.Random` — same seed ⇒ same election winner, every
  run, while still being "randomized" enough to break ties.
* **Lease-based election.**  A follower that has heard from a live
  leader within ``lease_duration`` refuses votes (no disruption by a
  rejoining replica); a leader that cannot reach a majority within its
  lease steps down (no split brain across a partition: the deposed
  side stops acting before the other side can elect).
* **Majority-ack commit.**  An entry is committed once replicated on a
  majority *and* its term is the leader's current term (the standard
  Raft §5.4.2 rule); leaders append a no-op on election so earlier-term
  entries commit promptly.
* **No persistence — honest mitigation.**  Replicas keep volatile
  state only.  A restarted replica therefore rejoins as a *quiescent
  observer*: it neither campaigns nor grants votes until it has heard
  from the current leader or an ``observer_grace`` longer than any
  election timeout plus lease has passed, so a vote it forgot it cast
  can no longer elect a second leader for the same term.

The in-memory :class:`ReplicaGroup` wires N replicas through FIFO
message queues with explicit crash/restart/partition controls — the
deterministic test harness of the core the wire tier runs.  The wire
tier maps the same payload dicts onto ``MSG_VOTE``/``MSG_APPEND``
frames (see :mod:`repro.runtime.protocol`).
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Role",
    "LogEntry",
    "Message",
    "ManualClock",
    "NotLeaderError",
    "StaleTermError",
    "LeadershipGuard",
    "StaticGuard",
    "ReplicaGuard",
    "Replica",
    "ReplicaGroup",
    "VOTE",
    "VOTE_REPLY",
    "APPEND",
    "APPEND_REPLY",
]

#: Abstract message kinds; the wire tier maps them to framed types.
VOTE = "vote"
VOTE_REPLY = "vote_reply"
APPEND = "append"
APPEND_REPLY = "append_reply"


class Role(Enum):
    """The three Raft roles."""

    FOLLOWER = "follower"
    CANDIDATE = "candidate"
    LEADER = "leader"


@dataclass(frozen=True)
class LogEntry:
    """One replicated controller verb.

    ``cid`` is the client-chosen command id used for exactly-once
    dedup under retry; the no-op a fresh leader appends uses ``""``.
    """

    term: int
    index: int
    cid: str
    verb: str
    payload: dict

    def to_dict(self) -> dict:
        """JSON-ready form, shipped verbatim in APPEND frames."""
        return {
            "term": self.term,
            "index": self.index,
            "cid": self.cid,
            "verb": self.verb,
            "payload": self.payload,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "LogEntry":
        return cls(
            term=int(doc["term"]),
            index=int(doc["index"]),
            cid=str(doc["cid"]),
            verb=str(doc["verb"]),
            payload=dict(doc["payload"]),
        )


@dataclass(frozen=True)
class Message:
    """An outbound message: deliver ``payload`` of ``kind`` to ``dest``."""

    dest: int
    kind: str
    payload: dict


class ManualClock:
    """An injected clock advanced explicitly by the test harness."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> float:
        if dt < 0:
            raise ValueError("clock cannot run backwards")
        self._now += dt
        return self._now


class NotLeaderError(RuntimeError):
    """A verb was submitted to a replica that is not the leader."""

    def __init__(self, leader: Optional[int], term: int) -> None:
        super().__init__(f"not leader (leader hint: {leader}, term {term})")
        self.leader = leader
        self.term = term


class StaleTermError(RuntimeError):
    """A leader-only action was attempted without a current lease."""


class LeadershipGuard:
    """Admission check for leader-only controller actions.

    ``acquire`` is called when a leader-only action (heartbeat sweep,
    auto-fence) *starts* and returns the term the action runs under;
    ``validate`` is re-checked immediately before the irreversible
    step (the SIGKILL in a fence) so an in-flight action of a deposed
    leader is rejected by term.
    """

    def acquire(self, action: str) -> int:
        raise NotImplementedError

    def validate(self, term: int, action: str) -> None:
        raise NotImplementedError


class StaticGuard(LeadershipGuard):
    """Single-controller deployments: always the leader, term 0."""

    def acquire(self, action: str) -> int:
        return 0

    def validate(self, term: int, action: str) -> None:
        if term != 0:
            raise StaleTermError(
                f"{action}: static guard only issues term 0, got {term}"
            )


class ReplicaGuard(LeadershipGuard):
    """Guard a controller with its own replica core's lease.

    An action is admitted only while ``core`` leads, and the term
    captured at ``acquire`` must still be the core's term when
    ``validate`` runs: a core deposed in between raises.
    """

    def __init__(self, core: "Replica") -> None:
        self.core = core

    def acquire(self, action: str) -> int:
        if self.core.role is not Role.LEADER:
            raise StaleTermError(
                f"{action}: replica {self.core.node_id} is not the leader"
            )
        return self.core.term

    def validate(self, term: int, action: str) -> None:
        if self.core.role is not Role.LEADER or self.core.term != term:
            raise StaleTermError(
                f"{action}: replica {self.core.node_id} lost term {term}"
            )


class Replica:
    """The core replicated-log state machine (transport-agnostic).

    All timing comes from the injected ``clock``; all randomness from
    ``(seed, node_id, term)``.  Handlers and :meth:`tick` return the
    outbound :class:`Message` list; the caller owns delivery.
    """

    def __init__(
        self,
        node_id: int,
        peers: Sequence[int],
        clock,
        seed: int = 0,
        election_timeout: Tuple[float, float] = (1.0, 2.0),
        heartbeat_interval: float = 0.25,
        lease_duration: float = 0.9,
        observer_grace: float = 0.0,
        first_election_delay: Optional[float] = None,
    ) -> None:
        if node_id in peers:
            raise ValueError("peers must exclude the replica itself")
        tmin, tmax = election_timeout
        if not 0 < tmin <= tmax:
            raise ValueError("election timeout range must be positive")
        if heartbeat_interval >= tmin:
            raise ValueError("heartbeat interval must undercut election timeout")
        if lease_duration > tmax:
            raise ValueError("lease must not outlive the longest election timeout")
        self.node_id = node_id
        self.peers = tuple(peers)
        self.clock = clock
        self.seed = seed
        self.election_timeout = (float(tmin), float(tmax))
        self.heartbeat_interval = float(heartbeat_interval)
        self.lease_duration = float(lease_duration)

        self.role = Role.FOLLOWER
        self.term = 0
        self.voted_for: Optional[int] = None
        self.leader_id: Optional[int] = None
        #: 1-based log with a sentinel at index 0.
        self.log: List[LogEntry] = [LogEntry(0, 0, "", "sentinel", {})]
        self.commit_index = 0
        self.last_applied = 0
        #: Leader's advertised "executed on the wire up to" index.
        self.executed_hint = 0

        now = clock.now()
        #: Until this instant the replica neither campaigns nor votes.
        self.observer_until = now + float(observer_grace)
        #: Follower lease: votes are refused while ``now`` is below it.
        self._lease_until = 0.0
        # A cold cluster would otherwise idle out a full randomized
        # timeout before anyone campaigns; callers that know their
        # replica rank stagger the *first* deadline deterministically
        # (lowest rank fires first and wins).  Any append or granted
        # vote re-randomizes the deadline as usual.
        self._election_deadline = now + (
            float(first_election_delay)
            if first_election_delay is not None
            else self._draw_timeout(self.term)
        )
        # Leader-only volatile state.
        self._next_index: Dict[int, int] = {}
        self._match_index: Dict[int, int] = {}
        self._ack_time: Dict[int, float] = {}
        self._next_heartbeat = 0.0
        self._votes: set = set()
        self._cid_index: Dict[str, int] = {}
        #: Set by the hosting tier while committed entries are still
        #: being applied to the state machine.  A backlogged replica
        #: defers campaigning (it could win on log up-to-dateness yet
        #: be unable to execute anything for a long time, and its
        #: doomed-or-stalled campaigns bump terms and reset every other
        #: candidate's clock).  It still votes and acks normally.
        self.apply_backlog = False

    # -- derived views -------------------------------------------------

    @property
    def last_index(self) -> int:
        return len(self.log) - 1

    @property
    def last_term(self) -> int:
        return self.log[-1].term

    @property
    def quorum(self) -> int:
        return (len(self.peers) + 1) // 2 + 1

    def entry(self, index: int) -> LogEntry:
        return self.log[index]

    def entries_from(self, index: int) -> List[LogEntry]:
        return self.log[index:]

    def committed_cids(self) -> List[str]:
        """cids of all committed non-noop entries, in log order."""
        return [
            e.cid
            for e in self.log[1 : self.commit_index + 1]
            if e.cid
        ]

    def take_applies(self) -> List[LogEntry]:
        """Entries newly committed since the last call (the apply queue)."""
        if self.commit_index <= self.last_applied:
            return []
        batch = self.log[self.last_applied + 1 : self.commit_index + 1]
        self.last_applied = self.commit_index
        return batch

    def status(self) -> dict:
        """JSON-ready replica status (served by ``ctl status``)."""
        return {
            "node": self.node_id,
            "role": self.role.value,
            "term": self.term,
            "leader": self.leader_id,
            "commit_index": self.commit_index,
            "last_index": self.last_index,
            "executed_hint": self.executed_hint,
            "observer": self.clock.now() < self.observer_until,
        }

    # -- deterministic timing ------------------------------------------

    def _draw_timeout(self, term: int) -> float:
        tmin, tmax = self.election_timeout
        rng = random.Random(
            self.seed * 1_000_003 + self.node_id * 8191 + term
        )
        return rng.uniform(tmin, tmax)

    def _reset_election_deadline(self) -> None:
        self._election_deadline = (
            self.clock.now() + self._draw_timeout(self.term)
        )

    # -- role transitions ----------------------------------------------

    def _become_follower(self, term: int, leader: Optional[int]) -> None:
        if term > self.term:
            self.voted_for = None
        self.term = term
        self.role = Role.FOLLOWER
        self.leader_id = leader
        self._votes = set()
        self._reset_election_deadline()

    def _become_leader(self) -> List[Message]:
        self.role = Role.LEADER
        self.leader_id = self.node_id
        now = self.clock.now()
        self._next_index = {p: self.last_index + 1 for p in self.peers}
        self._match_index = {p: 0 for p in self.peers}
        self._ack_time = {p: now for p in self.peers}
        self._next_heartbeat = now
        # Raft §5.4.2: commit a current-term entry promptly so earlier
        # terms' entries become committed too.
        self.log.append(LogEntry(self.term, self.last_index + 1, "", "noop", {}))
        return self._broadcast_appends()

    def _start_election(self) -> List[Message]:
        self.term += 1
        self.role = Role.CANDIDATE
        self.leader_id = None
        self.voted_for = self.node_id
        self._votes = {self.node_id}
        self._reset_election_deadline()
        if self.quorum == 1:  # degenerate single-replica group
            return self._become_leader()
        payload = {
            "term": self.term,
            "candidate": self.node_id,
            "last_term": self.last_term,
            "last_index": self.last_index,
        }
        return [Message(p, VOTE, dict(payload)) for p in self.peers]

    # -- the clock tick ------------------------------------------------

    def tick(self) -> List[Message]:
        now = self.clock.now()
        if self.role is Role.LEADER:
            # Lease check: a leader that cannot prove a majority heard
            # from it within the lease steps down before the other side
            # of a partition can elect — no split brain.
            acks = sorted(
                [now] + [self._ack_time[p] for p in self.peers], reverse=True
            )
            support = acks[self.quorum - 1]
            if now - support > self.lease_duration:
                self._become_follower(self.term, None)
                return []
            if now >= self._next_heartbeat:
                self._next_heartbeat = now + self.heartbeat_interval
                return self._broadcast_appends()
            return []
        if now < self.observer_until:
            return []  # quiescent observer: no campaigning yet
        if now >= self._election_deadline:
            if self.apply_backlog:
                # Defer by a fraction of a full timeout: long enough
                # that replicas draining the same backlog decorrelate,
                # short enough that the election follows the drain
                # promptly.
                self._election_deadline = now + (
                    self._draw_timeout(self.term) / 4.0
                )
                return []
            return self._start_election()
        return []

    # -- message handling ----------------------------------------------

    def handle(self, kind: str, payload: dict) -> List[Message]:
        handler = {
            VOTE: self._on_vote,
            VOTE_REPLY: self._on_vote_reply,
            APPEND: self._on_append,
            APPEND_REPLY: self._on_append_reply,
        }.get(kind)
        if handler is None:
            raise ValueError(f"unknown replication message kind {kind!r}")
        return handler(payload)

    def _on_vote(self, payload: dict) -> List[Message]:
        term = int(payload["term"])
        candidate = int(payload["candidate"])
        now = self.clock.now()
        reply = Message(
            candidate,
            VOTE_REPLY,
            {"term": self.term, "voter": self.node_id, "granted": False},
        )
        if term < self.term:
            return [reply]
        # Lease refusal: a follower that heard from a live leader within
        # the lease ignores the campaign entirely (it does not even
        # adopt the higher term) — a rejoining replica cannot depose a
        # healthy leader.
        if (
            self.role is not Role.LEADER
            and self.leader_id is not None
            and now < self._lease_until
        ):
            return [reply]
        if now < self.observer_until:
            return [reply]  # observers forfeit their vote entirely
        if term > self.term:
            self._become_follower(term, None)
        up_to_date = (int(payload["last_term"]), int(payload["last_index"])) >= (
            self.last_term,
            self.last_index,
        )
        if self.voted_for in (None, candidate) and up_to_date:
            self.voted_for = candidate
            self._reset_election_deadline()
            return [
                Message(
                    candidate,
                    VOTE_REPLY,
                    {"term": self.term, "voter": self.node_id, "granted": True},
                )
            ]
        reply.payload["term"] = self.term
        return [reply]

    def _on_vote_reply(self, payload: dict) -> List[Message]:
        term = int(payload["term"])
        if term > self.term:
            self._become_follower(term, None)
            return []
        if self.role is not Role.CANDIDATE or term < self.term:
            return []
        if payload.get("granted"):
            self._votes.add(int(payload["voter"]))
            if len(self._votes) >= self.quorum:
                return self._become_leader()
        return []

    def _append_payload(self, peer: int) -> dict:
        prev = self._next_index[peer] - 1
        entries = self.log[prev + 1 :]
        return {
            "term": self.term,
            "leader": self.node_id,
            "prev_index": prev,
            "prev_term": self.log[prev].term,
            "entries": [e.to_dict() for e in entries],
            "commit": self.commit_index,
            "executed": self.executed_hint,
        }

    def _broadcast_appends(self) -> List[Message]:
        return [
            Message(p, APPEND, self._append_payload(p)) for p in self.peers
        ]

    def _on_append(self, payload: dict) -> List[Message]:
        term = int(payload["term"])
        leader = int(payload["leader"])
        reply = {
            "term": self.term,
            "follower": self.node_id,
            "success": False,
            "match_index": 0,
        }
        if term < self.term:
            return [Message(leader, APPEND_REPLY, reply)]
        if term > self.term or self.role is not Role.FOLLOWER:
            self._become_follower(term, leader)
        now = self.clock.now()
        self.term = term
        self.leader_id = leader
        self._lease_until = now + self.lease_duration
        # Hearing a live leader ends observer quiescence early: the log
        # consistency check below resynchronises us safely.
        self.observer_until = min(self.observer_until, now)
        self._reset_election_deadline()
        reply["term"] = self.term
        prev_index = int(payload["prev_index"])
        prev_term = int(payload["prev_term"])
        if prev_index > self.last_index or self.log[prev_index].term != prev_term:
            # Log diverges (or we are behind): ask the leader to back
            # off to the tail we can actually verify.
            reply["hint"] = min(prev_index, self.last_index + 1)
            return [Message(leader, APPEND_REPLY, reply)]
        entries = [LogEntry.from_dict(doc) for doc in payload["entries"]]
        for entry in entries:
            if entry.index <= self.last_index:
                if self.log[entry.index].term == entry.term:
                    continue  # duplicate delivery of a known entry
                # Conflict: truncate the tail.  Logs are memory-only, so
                # a majority that restarted empty can legitimately
                # overwrite entries a dead incarnation had committed;
                # clamp every cursor that referenced the discarded
                # suffix or the replica wedges with commit_index past
                # its own log and can never reconcile.
                for stale in self.log[entry.index :]:
                    if stale.cid:
                        self._cid_index.pop(stale.cid, None)
                del self.log[entry.index :]
                self.commit_index = min(self.commit_index, self.last_index)
                self.last_applied = min(self.last_applied, self.commit_index)
                self.executed_hint = min(
                    self.executed_hint, self.commit_index
                )
            self.log.append(entry)
            if entry.cid:
                self._cid_index[entry.cid] = entry.index
        self.commit_index = max(
            self.commit_index, min(int(payload["commit"]), self.last_index)
        )
        self.executed_hint = max(self.executed_hint, int(payload["executed"]))
        reply["success"] = True
        reply["match_index"] = prev_index + len(entries)
        return [Message(leader, APPEND_REPLY, reply)]

    def _on_append_reply(self, payload: dict) -> List[Message]:
        term = int(payload["term"])
        if term > self.term:
            self._become_follower(term, None)
            return []
        if self.role is not Role.LEADER or term < self.term:
            return []
        follower = int(payload["follower"])
        if follower not in self._next_index:
            return []
        self._ack_time[follower] = self.clock.now()
        if payload.get("success"):
            match = int(payload["match_index"])
            self._match_index[follower] = max(
                self._match_index[follower], match
            )
            self._next_index[follower] = self._match_index[follower] + 1
            self._advance_commit()
            if self._next_index[follower] <= self.last_index:
                return [
                    Message(
                        follower, APPEND, self._append_payload(follower)
                    )
                ]
            return []
        hint = int(payload.get("hint", self._next_index[follower] - 1))
        self._next_index[follower] = max(1, min(
            self._next_index[follower] - 1, hint
        ))
        return [Message(follower, APPEND, self._append_payload(follower))]

    def _advance_commit(self) -> None:
        for index in range(self.last_index, self.commit_index, -1):
            if self.log[index].term != self.term:
                break  # only current-term entries commit by counting
            votes = 1 + sum(
                1 for p in self.peers if self._match_index[p] >= index
            )
            if votes >= self.quorum:
                self.commit_index = index
                break

    # -- client surface ------------------------------------------------

    def submit(self, cid: str, verb: str, payload: dict) -> Tuple[int, List[Message]]:
        """Append a verb to the replicated log (leader only).

        Returns ``(index, outbound appends)``.  A repeated ``cid``
        returns the original index with no new entry — exactly-once
        under client retry.
        """
        if self.role is not Role.LEADER:
            raise NotLeaderError(self.leader_id, self.term)
        if cid and cid in self._cid_index:
            return self._cid_index[cid], []
        entry = LogEntry(self.term, self.last_index + 1, cid, verb, dict(payload))
        self.log.append(entry)
        if cid:
            self._cid_index[cid] = entry.index
        return entry.index, self._broadcast_appends()

    def note_executed(self, index: int) -> None:
        """Record that wire side effects ran up to ``index`` (leader)."""
        self.executed_hint = max(self.executed_hint, index)

    def advertise_executed(self) -> List[Message]:
        """Appends that push :attr:`executed_hint` to the peers now.

        Waiting for the next heartbeat leaves a window where a freshly
        elected successor does not know an entry's side effects already
        ran and re-executes them; callers with non-idempotent effects
        flush these immediately after executing.
        """
        if self.role is not Role.LEADER:
            return []
        self._next_heartbeat = self.clock.now() + self.heartbeat_interval
        return self._broadcast_appends()


@dataclass
class _Queues:
    inboxes: Dict[int, Deque[Tuple[str, dict]]] = field(default_factory=dict)


class ReplicaGroup:
    """N in-memory replicas wired through FIFO queues — the simulator.

    Crash/restart/partition are explicit, the clock is manual, and
    message delivery (:meth:`pump`) runs to quiescence — every run with
    the same seed and the same event script is byte-identical.
    """

    def __init__(
        self,
        num: int = 3,
        seed: int = 0,
        election_timeout: Tuple[float, float] = (1.0, 2.0),
        heartbeat_interval: float = 0.25,
        lease_duration: float = 0.9,
        clock: Optional[ManualClock] = None,
    ) -> None:
        if num < 1:
            raise ValueError("need at least one replica")
        self.num = num
        self.seed = seed
        self.clock = clock or ManualClock()
        self.election_timeout = election_timeout
        self.heartbeat_interval = heartbeat_interval
        self.lease_duration = lease_duration
        self.replicas: Dict[int, Replica] = {}
        self.crashed: set = set()
        self.partitioned: set = set()
        self._inboxes: Dict[int, Deque[Tuple[str, dict]]] = {
            i: deque() for i in range(num)
        }
        self._cid_seq = itertools.count(1)
        self.restarts = 0
        for i in range(num):
            self.replicas[i] = self._fresh(i, observer_grace=0.0)

    def _fresh(self, node_id: int, observer_grace: float) -> Replica:
        return Replica(
            node_id,
            [p for p in range(self.num) if p != node_id],
            self.clock,
            seed=self.seed,
            election_timeout=self.election_timeout,
            heartbeat_interval=self.heartbeat_interval,
            lease_duration=self.lease_duration,
            observer_grace=observer_grace,
        )

    # -- connectivity ---------------------------------------------------

    def _reachable(self, a: int, b: int) -> bool:
        return (
            a not in self.crashed
            and b not in self.crashed
            and a not in self.partitioned
            and b not in self.partitioned
        )

    def crash(self, node_id: int) -> None:
        """SIGKILL analogue: volatile state and queued messages vanish."""
        self.crashed.add(node_id)
        self._inboxes[node_id].clear()

    def restart(self, node_id: int, observer_grace: Optional[float] = None) -> None:
        """Bring a crashed replica back with a *fresh* (empty) state.

        The default grace exceeds the longest election timeout plus the
        lease, so any vote the pre-crash incarnation cast has been
        superseded before this one may vote or campaign again.
        """
        if node_id not in self.crashed:
            raise ValueError(f"replica {node_id} is not crashed")
        if observer_grace is None:
            observer_grace = self.election_timeout[1] + self.lease_duration
        self.crashed.discard(node_id)
        self._inboxes[node_id].clear()
        self.replicas[node_id] = self._fresh(node_id, observer_grace)
        self.restarts += 1

    def partition(self, node_id: int) -> None:
        self.partitioned.add(node_id)

    def heal(self, node_id: int) -> None:
        self.partitioned.discard(node_id)

    # -- message plumbing ----------------------------------------------

    def _route(self, src: int, outbound: Sequence[Message]) -> None:
        for message in outbound:
            if self._reachable(src, message.dest):
                self._inboxes[message.dest].append(
                    (message.kind, message.payload)
                )

    def pump(self, max_rounds: int = 10_000) -> int:
        """Deliver queued messages until quiescent; returns count."""
        delivered = 0
        for _ in range(max_rounds):
            if not any(self._inboxes.values()):
                return delivered
            for node_id in range(self.num):
                inbox = self._inboxes[node_id]
                while inbox:
                    kind, payload = inbox.popleft()
                    if node_id in self.crashed:
                        continue
                    outbound = self.replicas[node_id].handle(kind, payload)
                    delivered += 1
                    self._route(node_id, outbound)
        raise RuntimeError("message pump failed to quiesce")

    def advance(self, duration: float, step: Optional[float] = None) -> None:
        """Advance the manual clock in ticks, pumping after each."""
        if step is None:
            step = self.heartbeat_interval / 2
        remaining = float(duration)
        while remaining > 1e-12:
            dt = min(step, remaining)
            self.clock.advance(dt)
            remaining -= dt
            for node_id in range(self.num):
                if node_id in self.crashed:
                    continue
                self._route(node_id, self.replicas[node_id].tick())
            self.pump()

    # -- cluster views --------------------------------------------------

    def live(self) -> List[int]:
        return [
            i
            for i in range(self.num)
            if i not in self.crashed and i not in self.partitioned
        ]

    def leaders(self) -> List[int]:
        return [
            i for i in self.live() if self.replicas[i].role is Role.LEADER
        ]

    def leader(self) -> Optional[int]:
        """The live leader with the highest term, if any."""
        candidates = self.leaders()
        if not candidates:
            return None
        return max(candidates, key=lambda i: self.replicas[i].term)

    def status(self) -> dict:
        return {
            "replicas": self.num,
            "leader": self.leader(),
            "term": max(r.term for r in self.replicas.values()),
            "crashed": sorted(self.crashed),
            "partitioned": sorted(self.partitioned),
            "members": [
                self.replicas[i].status() for i in range(self.num)
            ],
        }

    # -- orchestration --------------------------------------------------

    def run_until(
        self,
        predicate: Callable[[], bool],
        budget: float = 60.0,
        step: Optional[float] = None,
    ) -> float:
        """Advance until ``predicate()`` holds; returns elapsed time."""
        elapsed = 0.0
        if step is None:
            step = self.heartbeat_interval / 2
        while not predicate():
            if elapsed >= budget:
                raise TimeoutError(
                    f"predicate not reached within {budget}s of manual time"
                )
            self.advance(step)
            elapsed += step
        return elapsed

    def elect(self, budget: float = 60.0) -> int:
        """Advance until a leader exists with its no-op committed."""

        def settled() -> bool:
            leader = self.leader()
            if leader is None:
                return False
            replica = self.replicas[leader]
            return replica.commit_index >= replica.last_index

        self.run_until(settled, budget=budget)
        leader = self.leader()
        assert leader is not None
        return leader

    def submit(
        self,
        verb: str,
        payload: Optional[dict] = None,
        cid: Optional[str] = None,
        budget: float = 60.0,
    ) -> dict:
        """Submit a verb through the current leader and wait for commit."""
        leader = self.leader()
        if leader is None:
            leader = self.elect(budget=budget)
        replica = self.replicas[leader]
        if cid is None:
            cid = f"c{next(self._cid_seq)}"
        index, outbound = replica.submit(cid, verb, dict(payload or {}))
        self._route(leader, outbound)
        self.pump()
        self.run_until(
            lambda: self.replicas[leader].commit_index >= index
            if leader not in self.crashed
            else False,
            budget=budget,
        )
        return {"index": index, "term": replica.entry(index).term, "cid": cid}

    def depose(self, budget: float = 60.0) -> dict:
        """Crash the leader, elect a successor, restart the old leader.

        The deterministic 'fail over now' verb of the tests.
        """
        old = self.leader()
        if old is None:
            old = self.elect(budget=budget)
        old_term = self.replicas[old].term
        self.crash(old)
        new = self.elect(budget=budget)
        self.restart(old)
        self.run_until(
            lambda: self.replicas[old].last_index
            >= self.replicas[new].commit_index
            and self.replicas[old].leader_id == new,
            budget=budget,
        )
        return {
            "old_leader": old,
            "old_term": old_term,
            "new_leader": new,
            "new_term": self.replicas[new].term,
        }

    def logs_identical(self) -> bool:
        """True iff all live replicas agree on the committed prefix."""
        live = self.live()
        if not live:
            return True
        floor = min(self.replicas[i].commit_index for i in live)
        reference = self.replicas[live[0]].log[1 : floor + 1]
        return all(
            self.replicas[i].log[1 : floor + 1] == reference for i in live[1:]
        )
