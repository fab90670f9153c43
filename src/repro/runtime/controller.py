"""The cluster controller: bootstrap, updates, traffic, liveness, repair.

``RuntimeController`` is the control-plane process of the socket
runtime.  It owns one link per daemon
(:class:`~repro.runtime.transport.LinkPool`) and drives the whole paper's
lifecycle over the wire:

* **bootstrap** — ship each daemon its identity (HELLO), then the full
  state: an SSEP snapshot of the GPT plus its FIB and RIB slices
  (SNAPSHOT), all derived from an in-process
  :class:`~repro.epc.gateway.EpcGateway` acting as the authoritative
  shadow;
* **updates** — batch RIB operations to their owning daemons
  (``block % N``), which run the §4.5 owner protocol for real;
* **traffic** — raw frame batches to per-frame ingress daemons
  (``MSG_ROUTE``), collecting per-frame outcomes;
* **liveness** — heartbeat polls feeding a
  :class:`~repro.runtime.liveness.HeartbeatMonitor`; a daemon declared
  DEAD triggers §7 repair: its RIB slice is adopted by a successor, its
  flows re-homed onto survivors through the live update path, mirrored
  move for move in the shadow gateway by
  :meth:`~repro.epc.gateway.EpcGateway.evacuate`;
* **membership** — graceful drain/join: the shadow's
  :meth:`~repro.epc.gateway.EpcGateway.evacuate` (drain) and
  :meth:`~repro.epc.gateway.EpcGateway.resize`, then a make-before-break
  snapshot swap (``MSG_SWAP``): the old forwarding plane serves until
  the replacement state is fully built on every daemon.

The controller mutates the shadow gateway in lockstep with the wire, so
the differential drivers (:mod:`repro.runtime.shadow`) can assert that
both worlds route, charge and encode byte-identically.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.cluster.owner import ACCOUNT_FIELDS
from repro.cluster.rib import block_owner
from repro.core import serialize, shm
from repro.core.hashfamily import canonical_key
from repro.core.separator import Separator
from repro.epc.gateway import EpcGateway
from repro.obs.metrics import MetricsRegistry
from repro.runtime import protocol
from repro.runtime.deltalog import DeltaLog
from repro.runtime.framing import FramedSocket, FramingError, pack_frame_list
from repro.runtime.liveness import HeartbeatMonitor, NodeState
from repro.runtime.protocol import (
    MSG_ADOPT,
    MSG_CLAIM,
    MSG_DOWN,
    MSG_FAULT,
    MSG_FLUSH,
    MSG_HELLO,
    MSG_NAMES,
    MSG_PING,
    MSG_ROUTE,
    MSG_DELTA,
    MSG_SHUTDOWN,
    MSG_SNAPSHOT,
    MSG_STATE_REF,
    MSG_STATUS,
    MSG_SWAP,
    MSG_UPDATE,
    RSP_OK,
    RSP_PONG,
    RSP_REDIRECT,
    RSP_ROUTE,
    RSP_STATUS,
    RSP_UPDATE,
    RouteOutcome,
    STATUS_NODE_DOWN,
    UpdateOp,
)
from repro.runtime.replication import (
    LeadershipGuard,
    StaleTermError,
    StaticGuard,
)
from repro.runtime.shadow import _pin
from repro.runtime.transport import LinkPool


@dataclass(frozen=True)
class OpResult:
    """The uniform return of every controller verb.

    Every management operation — drain, join, kill, fence, repair —
    answers the same three questions (was it accepted, which
    configuration epoch did it produce, how many flows moved) plus a
    verb-specific ``detail`` mapping.  The shape is JSON-ready
    (:meth:`to_dict`), which is what the operator API serves.
    """

    verb: str
    node: Optional[int]
    accepted: bool
    epoch: int
    affected_flows: int = 0
    detail: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (detail keys flattened last)."""
        return {
            "verb": self.verb,
            "node": self.node,
            "accepted": self.accepted,
            "epoch": self.epoch,
            "affected_flows": self.affected_flows,
            "detail": dict(self.detail),
        }


class CommandQueue:
    """Serialises controller commands and remembers what ran.

    The socket protocol is strictly request/response per connection, so
    two threads (the API daemon is threaded) driving the same controller
    would interleave frames and corrupt the stream.  Every mutating verb
    runs under one re-entrant lock — commands are effectively a queue of
    one — and the completed ones land in a bounded history that the
    introspection endpoints serve.
    """

    def __init__(self, history: int = 64) -> None:
        self._lock = threading.RLock()
        self._seq = 0
        self._history: Deque[Dict[str, object]] = deque(maxlen=history)

    def run(self, verb: str, fn: Callable[[], OpResult]) -> OpResult:
        """Execute one command exclusively; record its outcome."""
        with self._lock:
            self._seq += 1
            seq = self._seq
            result = fn()
            self._history.append({"seq": seq, **result.to_dict()})
            return result

    def __enter__(self) -> "CommandQueue":
        self._lock.acquire()
        return self

    def __exit__(self, *_exc: object) -> None:
        self._lock.release()

    def recent(self) -> List[Dict[str, object]]:
        """The completed commands, oldest first."""
        with self._lock:
            return list(self._history)


class RuntimeController:
    """Drives a cluster of :class:`~repro.runtime.daemon.NodeDaemon`."""

    def __init__(
        self,
        addresses: Sequence[Tuple[str, int]],
        registry: Optional[MetricsRegistry] = None,
        miss_threshold: int = 3,
        ping_timeout: float = 2.0,
        fence_after: Optional[int] = None,
        guard: Optional[LeadershipGuard] = None,
        use_shm: bool = False,
    ) -> None:
        self.addresses: List[Tuple[str, int]] = [
            (str(h), int(p)) for h, p in addresses
        ]
        self.num_nodes = len(self.addresses)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.monitor = HeartbeatMonitor(
            self.num_nodes, miss_threshold=miss_threshold,
            registry=self.registry, fence_after=fence_after,
        )
        self.ping_timeout = ping_timeout
        self.down: set = set()
        #: Configuration epoch: bumps on bootstrap and on every
        #: membership change (drain/join/repair).  Daemons built from
        #: different epochs must never be compared.
        self.epoch = 0
        #: Force-kill callback for :meth:`kill_node` / :meth:`fence_node`
        #: (typically :meth:`repro.runtime.launcher.LocalRuntime.kill`).
        #: ``None`` when the controller does not own the processes.
        self.killer: Optional[Callable[[int], None]] = None
        #: Leadership admission for leader-only actions (heartbeat
        #: sweeps, fencing).  A single controller gets the permissive
        #: :class:`StaticGuard`; the replica servers of
        #: :mod:`repro.runtime.replicated` install a
        #: :class:`~repro.runtime.replication.ReplicaGuard` so a deposed
        #: leader's in-flight actions fail on the term re-check.
        self.guard: LeadershipGuard = guard if guard is not None else StaticGuard()
        #: ``(term, leader_id)`` this controller claims on every daemon
        #: link (``MSG_CLAIM``); ``None`` in single-controller mode.
        self.claim: Optional[Tuple[int, int]] = None
        #: Serialises every mutating verb (the API daemon is threaded).
        self.commands = CommandQueue()
        self._links = LinkPool(self.addresses, on_dial=self._claim_link)
        self._ref_setsep: Optional[Separator] = None
        self._ping_seq = 0
        #: Scale tier: publish snapshots as shared-memory segments and ship
        #: daemons a ``MSG_STATE_REF`` instead of the bytes.  Requested via
        #: ``use_shm`` but only honoured where ``/dev/shm`` exists; every
        #: ship still falls back to the wire per daemon on attach failure.
        self.use_shm = bool(use_shm) and shm.available()
        self.publisher: Optional[shm.SegmentPublisher] = (
            shm.SegmentPublisher() if self.use_shm else None
        )
        #: Epoch delta log: the floor snapshot every replica started the
        #: current state epoch from plus the update records broadcast
        #: since — what a rejoining daemon replays instead of receiving a
        #: full snapshot.  Created on bootstrap.
        self.deltalog: Optional[DeltaLog] = None
        #: Which published segment each daemon currently references
        #: (refcounts drive retirement unlinks).
        self._node_segments: Dict[int, str] = {}
        self._c_tx_bytes = self.registry.counter(
            "runtime.tx_bytes", "bytes the controller shipped to daemons"
        )
        self._c_snapshot_bytes = self.registry.counter(
            "runtime.snapshot_bytes",
            "separator snapshot bytes shipped on the wire",
        )
        self._c_stateref_fallbacks = self.registry.counter(
            "runtime.stateref.fallbacks",
            "STATE_REF ships that fell back to wire snapshots",
        )

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------

    def connect(self) -> None:
        """Dial every daemon."""
        for node_id in range(self.num_nodes):
            self._links.dial(node_id)

    def _claim_link(self, node_id: int, link: FramedSocket) -> None:
        """Fresh dials re-claim leadership before anything else: the
        daemon fences mutating requests per connection."""
        if self.claim is None:
            return
        term, leader = self.claim
        rsp_type, rsp = link.request(
            MSG_CLAIM, protocol.encode_json({"term": term, "leader": leader})
        )
        if rsp_type == RSP_REDIRECT:
            doc = protocol.decode_json(rsp)
            raise StaleTermError(
                f"daemon {node_id} rejects claim for term {term}; "
                f"current leader is {doc.get('leader')} "
                f"(term {doc.get('term')})"
            )
        protocol.expect(rsp_type, RSP_OK, rsp)

    def claim_leadership(self, term: int, leader_id: int) -> None:
        """Claim every daemon control link for ``(term, leader_id)``.

        Daemons remember the highest claimed term and answer mutating
        requests on stale-term connections with ``RSP_REDIRECT`` — the
        redirect message node daemons use to follow the leader across
        failovers.  Raises :class:`StaleTermError` if any daemon has
        already been claimed by a newer term.
        """
        self.claim = (int(term), int(leader_id))
        payload = protocol.encode_json(
            {"term": int(term), "leader": int(leader_id)}
        )
        for node_id in self._links.dialled():
            self._command(node_id, MSG_CLAIM, payload)

    def _request(
        self, node_id: int, msg_type: int, payload: bytes = b"",
        timeout: Optional[float] = None,
    ) -> Tuple[int, bytes]:
        """One request/response; counts traffic, drops dead links.

        A ``RSP_REDIRECT`` answer (this controller's claimed term went
        stale while the request was in flight) surfaces as
        :class:`StaleTermError` — the caller was deposed.
        """
        self._links.dial(node_id)  # an unreachable daemon counts no traffic
        name = MSG_NAMES[msg_type]
        self.registry.counter(f"runtime.tx.{name}").inc()
        self._c_tx_bytes.inc(len(payload) + 5)
        rsp_type, rsp = self._links.request(
            node_id, msg_type, payload, timeout
        )
        if rsp_type == RSP_REDIRECT:
            doc = protocol.decode_json(rsp)
            raise StaleTermError(
                f"daemon {node_id} redirected {name!r} to leader "
                f"{doc.get('leader')} (term {doc.get('term')})"
            )
        return rsp_type, rsp

    def _command(
        self, node_id: int, msg_type: int, payload: bytes = b"",
        answer: int = RSP_OK,
    ) -> bytes:
        """A request with one good ``answer`` type; returns its body."""
        rsp_type, rsp = self._request(node_id, msg_type, payload)
        return protocol.expect(rsp_type, answer, rsp)

    def close(self) -> None:
        """Drop every controller-side connection (daemons keep running).

        Published shm segments are unlinked too: attached daemons keep
        their copy-on-write mappings (POSIX mappings outlive the name),
        and nothing else should be able to attach state this controller
        no longer maintains.
        """
        self._links.close()
        if self.publisher is not None:
            self.publisher.close()
            self._node_segments.clear()

    def shutdown_all(self) -> List[int]:
        """Gracefully stop every reachable daemon; returns who acked."""
        acked: List[int] = []
        for node_id in range(self.num_nodes):
            if node_id in self.down:
                continue
            try:
                self._command(node_id, MSG_SHUTDOWN)
                acked.append(node_id)
            except (FramingError, OSError, protocol.ProtocolError):
                pass
        self.close()
        return acked

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------

    def _peers(self) -> List[List[object]]:
        return [[host, port] for host, port in self.addresses]

    def _node_states(
        self, gateway: EpcGateway, node_ids: Sequence[int]
    ) -> List[tuple]:
        """``(header, FIB rows, RIB rows)`` of each daemon of ``node_ids``:
        topology and the FIB capacity of the shadow node it mirrors, its
        flows in establishment order, the RIB entries of the blocks it
        owns (``block % N``, §4.5) in the shadow RIB's order."""
        cluster = gateway.cluster
        assert cluster is not None, "gateway not started"
        keys, teids, nodes, bs_ips = gateway.controller.bearers()
        keys, teids = np.array(keys, np.uint64), np.array(teids, np.int64)
        topology = {
            "num_nodes": len(cluster.nodes),
            "peers": self._peers()[:len(cluster.nodes)],
        }
        return [(
            dict(topology, fib_capacity=cluster.nodes[node_id].fib.capacity),
            protocol.insert_records(
                keys[nodes == node_id], node_id, teids[nodes == node_id],
                bs_ips[nodes == node_id],
            ),
            protocol.insert_records(*cluster.rib.columns(node_id)),
        ) for node_id in node_ids]

    def _states(self, gateway: EpcGateway) -> Tuple[List[tuple], bytes]:
        """Every daemon's state + the shared snapshot bytes."""
        cluster = gateway.cluster
        assert cluster is not None, "gateway not started"
        snapshot = serialize.dumps(cluster.nodes[0].gpt.setsep)
        self._ref_setsep = serialize.loads(snapshot)
        return self._node_states(gateway, range(len(cluster.nodes))), snapshot

    # -- shared-memory segment lifecycle (scale tier) -------------------

    def _publish_floor(self, snapshot: bytes):
        """Publish ``snapshot`` as the current shm generation (or None)."""
        if self.publisher is None:
            return None
        return self.publisher.publish(snapshot)

    def _track_segment(self, node_id: int, name: str) -> None:
        """Daemon ``node_id`` now references segment ``name``."""
        assert self.publisher is not None
        old = self._node_segments.get(node_id)
        if old == name:
            return
        self.publisher.acquire(name)
        self.publisher.release(old)
        self._node_segments[node_id] = name

    def _untrack_segment(self, node_id: int) -> None:
        """Daemon ``node_id`` no longer references any segment."""
        old = self._node_segments.pop(node_id, None)
        if old is not None and self.publisher is not None:
            self.publisher.release(old)

    def _reset_deltalog(self, snapshot: bytes) -> None:
        """Start a new delta-log epoch from ``snapshot``."""
        if self.deltalog is None:
            self.deltalog = DeltaLog(snapshot)
        else:
            self.deltalog.reset(snapshot)

    def _ship_state(
        self,
        node_id: int,
        state: tuple,
        snapshot: bytes,
        wire_type: int,
        segment,
        catchup: bytes = b"",
    ) -> str:
        """Ship one daemon its state; returns the transport used.

        With a published ``segment`` the daemon is sent a lightweight
        ``MSG_STATE_REF`` (segment name + fingerprint in the header,
        ``catchup`` update records as the body) and attaches the snapshot
        from shared memory.  Any refusal (no /dev/shm in the daemon,
        fingerprint mismatch, unlinked segment) falls back to the full
        snapshot on the wire — ``wire_type`` is ``MSG_SNAPSHOT`` or
        ``MSG_SWAP`` — followed by the catch-up records as ``MSG_DELTA``.
        """
        header, fib, rib = state
        rows = protocol.pack_records(fib) + protocol.pack_records(rib)
        if segment is not None:
            ref_header = dict(header, segment={
                "name": segment.name,
                "fingerprint": segment.fingerprint,
                "payload_len": segment.payload_len,
            })
            try:
                self._command(
                    node_id, MSG_STATE_REF,
                    protocol.encode_state(ref_header, rows + catchup),
                )
            except protocol.ProtocolError:
                self._c_stateref_fallbacks.inc()
            else:
                self._track_segment(node_id, segment.name)
                return "shm"
        self._command(
            node_id, wire_type, protocol.encode_state(header, rows + snapshot)
        )
        self._c_snapshot_bytes.inc(len(snapshot))
        self._untrack_segment(node_id)
        if catchup:
            self._command(node_id, MSG_DELTA, catchup)
        return "wire"

    def _hello(self, node_id: int, gateway_ip: int) -> None:
        """Tell a daemon who it is and what the cluster looks like."""
        self._command(node_id, MSG_HELLO, protocol.encode_json({
            "node_id": node_id,
            "num_nodes": self.num_nodes,
            "peers": self._peers(),
            "gateway_ip": gateway_ip,
        }))

    def _broadcast_down(
        self, peers: Optional[List[List[object]]] = None
    ) -> None:
        """Tell every live daemon the down set and, with ``peers``, the
        refreshed topology: survivors stop shipping FIB/deltas to a
        corpse and drop cached links to a dead port."""
        doc: Dict[str, object] = {"down": sorted(self.down)}
        if peers is not None:
            doc["peers"] = peers
        payload = protocol.encode_json(doc)
        for node_id in range(self.num_nodes):
            if node_id not in self.down:
                self._command(node_id, MSG_DOWN, payload)

    def bootstrap_from_gateway(self, gateway: EpcGateway) -> Dict[str, int]:
        """HELLO + state-ship every daemon from the shadow's built state.

        State travels as a shared-memory reference when ``use_shm`` is on
        (one published segment, N copy-on-write attachments) and as full
        snapshot bytes on the wire otherwise; either way the shipped
        snapshot becomes the delta log's epoch floor.
        """
        states, snapshot = self._states(gateway)
        segment = self._publish_floor(snapshot)
        attached = 0
        for node_id in range(self.num_nodes):
            self._hello(node_id, gateway.gateway_ip)
            transport = self._ship_state(
                node_id, states[node_id], snapshot, MSG_SNAPSHOT, segment
            )
            attached += int(transport == "shm")
        self._reset_deltalog(snapshot)
        self.epoch += 1
        return {
            "nodes": self.num_nodes,
            "snapshot_bytes": len(snapshot),
            "total_shipped_bytes": len(snapshot) * (self.num_nodes - attached),
            "shm_attached": attached,
            "segment": segment.name if segment is not None else None,
        }

    def adopt_reference(self, setsep: Separator, epoch: int) -> None:
        """Install the GPT reference and epoch without re-shipping state.

        A newly elected replicated controller attaches to daemons that
        already hold state shipped by a previous leader; re-running the
        bootstrap would wipe them.  It only needs the shadow-derived
        reference (for :meth:`owner_of_key`) and the current epoch.
        """
        self._ref_setsep = setsep
        self.epoch = int(epoch)

    # ------------------------------------------------------------------
    # Ownership
    # ------------------------------------------------------------------

    def owner_of_key(self, key: int) -> int:
        """The daemon owning a key's RIB slice, skipping dead owners
        (:func:`repro.cluster.rib.block_owner`, the rule each daemon
        checks an update against)."""
        assert self._ref_setsep is not None, "controller not bootstrapped"
        block = self._ref_setsep.block_of(canonical_key(key))
        return block_owner(block, self.num_nodes, self.down)

    # ------------------------------------------------------------------
    # §4.5 updates
    # ------------------------------------------------------------------

    def push_updates(self, ops: Sequence[UpdateOp]) -> Dict[str, int]:
        """Route a batch of RIB operations to their owning daemons.

        Per-key order is preserved (a key always maps to one owner), and
        each owner acknowledges only after its FIB pushes and delta
        broadcasts completed — when this returns, every live replica has
        converged.
        """
        batches: Dict[int, List[UpdateOp]] = {}
        for op in ops:
            batches.setdefault(self.owner_of_key(op.key), []).append(op)
        totals = {name: 0 for name in ACCOUNT_FIELDS}
        with self.commands:  # interleaved batches would corrupt streams
            for owner in sorted(batches):
                acc, log_wire = protocol.decode_state(self._command(
                    owner, MSG_UPDATE,
                    protocol.encode_updates(batches[owner]), RSP_UPDATE,
                ))
                # The owner echoes its rebuilt groups' canonical wire
                # records; they extend the epoch delta log that rejoining
                # daemons replay instead of taking a full snapshot.
                if self.deltalog is not None and log_wire:
                    self.deltalog.append(
                        log_wire, records=int(acc.get("groups_rebuilt", 0))
                    )
                for name in ACCOUNT_FIELDS:
                    totals[name] += int(acc.get(name, 0))
            if self.deltalog is not None:
                new_floor = self.deltalog.maybe_compact()
                if new_floor is not None:
                    # Cutover: the compacted floor becomes the segment
                    # generation future rejoins attach (live daemons keep
                    # their mappings; retirees unlink once unreferenced).
                    self._publish_floor(new_floor)
                    self.registry.counter(
                        "runtime.deltalog.compactions",
                        "delta-log floor cutovers",
                    ).inc()
        self._count_updates(totals)
        return totals

    def _count_updates(self, account: Dict[str, int]) -> None:
        """Fold a daemon's update accounting into ``runtime.update.*``."""
        for name in ACCOUNT_FIELDS:
            if account.get(name):
                self.registry.counter(f"runtime.update.{name}").inc(
                    account[name]
                )

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def route_frames(
        self, frames: Sequence[bytes], ingress: Sequence[int]
    ) -> List[RouteOutcome]:
        """Deliver frames to their per-frame ingress daemons.

        Frames whose ingress is a dead node are reported NODE_DOWN
        without touching the wire — the switch fabric has nowhere to
        send them (§7).
        """
        if len(frames) != len(ingress):
            raise ValueError("frames and ingress lengths differ")
        outcomes: List[Optional[RouteOutcome]] = [None] * len(frames)
        by_ingress: Dict[int, List[int]] = {}
        for i, node in enumerate(ingress):
            by_ingress.setdefault(int(node), []).append(i)
        with self.commands:
            self._route_batches(frames, by_ingress, outcomes)
        return outcomes  # type: ignore[return-value]

    def _route_batches(
        self,
        frames: Sequence[bytes],
        by_ingress: Dict[int, List[int]],
        outcomes: List[Optional[RouteOutcome]],
    ) -> None:
        for node in sorted(by_ingress):
            idx = by_ingress[node]
            if node in self.down:
                for i in idx:
                    outcomes[i] = RouteOutcome(STATUS_NODE_DOWN, -1, 0, None)
                continue
            payload = pack_frame_list([frames[i] for i in idx])
            try:
                body = self._command(node, MSG_ROUTE, payload, RSP_ROUTE)
            except (FramingError, OSError):
                for i in idx:
                    outcomes[i] = RouteOutcome(STATUS_NODE_DOWN, -1, 0, None)
                continue
            for i, outcome in zip(idx, protocol.decode_outcomes(body)):
                outcomes[i] = outcome

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------

    def poll_liveness(self) -> List[int]:
        """One heartbeat round; returns nodes newly declared DEAD.

        Leader-only: with replicated controllers, only the leaseholder
        may sweep (a follower recording misses would race the leader's
        fencing decisions); :class:`StaleTermError` otherwise.
        """
        self.guard.acquire("poll_liveness")
        with self.commands:
            return self._poll_once()

    def _poll_once(self) -> List[int]:
        newly_dead: List[int] = []
        for node_id in self.monitor.tracked():
            if node_id in self.down:
                continue
            if self.monitor.state(node_id) is NodeState.DEAD:
                continue
            self._ping_seq += 1
            started = time.perf_counter()
            try:
                rsp_type, rsp = self._request(
                    node_id, MSG_PING, protocol.encode_ping(self._ping_seq),
                    timeout=self.ping_timeout,
                )
                protocol.expect(rsp_type, RSP_PONG, rsp)
                if protocol.decode_ping(rsp) != self._ping_seq:
                    raise protocol.ProtocolError("pong sequence mismatch")
                self.monitor.record_success(
                    node_id, time.perf_counter() - started
                )
            except (FramingError, OSError, protocol.ProtocolError):
                if self.monitor.record_miss(node_id) is NodeState.DEAD:
                    newly_dead.append(node_id)
        return newly_dead

    def await_detection(
        self, node_id: int, max_polls: Optional[int] = None
    ) -> int:
        """Poll until ``node_id`` is declared DEAD; returns polls used."""
        limit = (max_polls if max_polls is not None
                 else self.monitor.miss_threshold + 2)
        for polls in range(1, limit + 1):
            self.poll_liveness()
            if self.monitor.state(node_id) is NodeState.DEAD:
                return polls
        raise RuntimeError(
            f"node {node_id} not declared dead within {limit} polls"
        )

    # ------------------------------------------------------------------
    # §7 failure repair
    # ------------------------------------------------------------------

    def handle_node_failure(
        self, failed: int, gateway: EpcGateway
    ) -> OpResult:
        """Repair after a daemon died: adopt its slice, re-home its flows.

        Mirrors every move into the shadow ``gateway``
        (:meth:`~repro.epc.gateway.EpcGateway.evacuate`), so wire and shadow
        stay comparable after the repair.
        """
        return self.commands.run(
            "repair", lambda: self._repair(failed, gateway)
        )

    def _repair(self, failed: int, gateway: EpcGateway) -> OpResult:
        if failed in self.down:
            raise ValueError(f"node {failed} was already repaired")
        self.down.add(failed)
        self._links.drop(failed)
        self._untrack_segment(failed)
        self._broadcast_down()
        # The dead node's RIB slice moves to its successor (§4.5 ownership
        # must stay total for updates to keep flowing): the owner of its
        # blocks now, ``failed`` being one of them (``failed % N``).
        cluster = gateway.cluster
        assert cluster is not None, "gateway not started"
        orphaned = protocol.insert_records(
            *cluster.rib.columns(failed)
        )
        self._command(
            block_owner(failed, self.num_nodes, self.down), MSG_ADOPT,
            protocol.pack_records(orphaned),
        )
        # Shadow-side liveness + recovery through the §4.5 update path.
        gateway.down_nodes.add(failed)
        ops = [_pin(record) for record in gateway.evacuate(failed, [
            n for n in range(self.num_nodes) if n not in self.down
        ])]
        wire_totals = self.push_updates(ops)
        self.epoch += 1
        return OpResult(
            verb="repair",
            node=failed,
            accepted=True,
            epoch=self.epoch,
            affected_flows=len(ops),
            detail={
                "adopted_rib_entries": len(orphaned),
                "wire_updates": wire_totals["updates"],
            },
        )

    # ------------------------------------------------------------------
    # Force-kill and fencing (operator verbs)
    # ------------------------------------------------------------------

    def _kill_process(self, node_id: int) -> None:
        if self.killer is None:
            raise RuntimeError(
                "controller has no killer callback; it does not own the "
                "daemon processes"
            )
        if not 0 <= node_id < self.num_nodes:
            raise ValueError(f"node {node_id} does not exist")
        if node_id in self.down:
            raise ValueError(f"node {node_id} is already down")
        self.killer(node_id)
        self._links.drop(node_id)

    def kill_node(self, node_id: int) -> OpResult:
        """SIGKILL a daemon — the §7 failure drill, no repair attached.

        The node is *not* declared dead here: the heartbeat monitor must
        notice on its own (that detection latency is the drill's point).
        Follow up with :meth:`handle_node_failure` once it does, or use
        :meth:`fence_node` for the kill-and-repair-now path.
        """

        def _kill() -> OpResult:
            self._kill_process(node_id)
            return OpResult(
                verb="kill",
                node=node_id,
                accepted=True,
                epoch=self.epoch,
                detail={"state": self.monitor.state(node_id).value},
            )

        return self.commands.run("kill", _kill)

    def fence_node(self, node_id: int, gateway: EpcGateway) -> OpResult:
        """Force-kill a SUSPECT daemon and repair immediately (§7).

        Fencing is the operator's (or the auto-fence policy's) answer to
        a node stuck between ALIVE and DEAD: SIGKILL it so it can never
        serve a stale replica again, declare it DEAD without waiting out
        the remaining heartbeat misses, broadcast the new membership and
        run the full failure repair.  Fencing an ALIVE node is refused —
        that would be an outage, not a repair.
        """

        def _fence() -> OpResult:
            # Leader-only: capture the term the fence runs under...
            term = self.guard.acquire("fence")
            if node_id not in self.monitor.tracked():
                raise ValueError(f"node {node_id} does not exist")
            state = self.monitor.state(node_id)
            if state is NodeState.ALIVE:
                raise ValueError(
                    f"node {node_id} is alive; fencing needs a SUSPECT "
                    "node (kill or drain instead)"
                )
            if node_id in self.down:
                raise ValueError(f"node {node_id} was already repaired")
            # ...and re-check it immediately before the irreversible
            # SIGKILL: an in-flight fence of a deposed leader must be
            # rejected by term, not land on the victim.
            self.guard.validate(term, "fence")
            if state is not NodeState.DEAD:
                self._kill_process(node_id)
            self.monitor.force_dead(node_id)
            self.registry.counter(
                "runtime.fences", "nodes force-killed by fencing"
            ).inc()
            repair = self._repair(node_id, gateway)
            return OpResult(
                verb="fence",
                node=node_id,
                accepted=True,
                epoch=self.epoch,
                affected_flows=repair.affected_flows,
                detail={
                    "state_before": state.value,
                    **dict(repair.detail),
                },
            )

        return self.commands.run("fence", _fence)

    # ------------------------------------------------------------------
    # Membership: graceful drain and join (§6.3 over sockets)
    # ------------------------------------------------------------------

    def _swap_all(self, gateway: EpcGateway) -> None:
        """Ship the rebuilt state to every remaining daemon (SWAP).

        Same transports as bootstrap: a fresh shm generation with per-node
        wire fallback.  The new snapshot starts a new delta-log epoch —
        a membership resize rebuilds the structure, so records from the
        old shape never apply across a swap.
        """
        states, snapshot = self._states(gateway)
        segment = self._publish_floor(snapshot)
        for node_id, state in enumerate(states):
            self._ship_state(node_id, state, snapshot, MSG_SWAP, segment)
        self._reset_deltalog(snapshot)

    def drain_node(
        self, gateway: EpcGateway, node_id: Optional[int] = None
    ) -> OpResult:
        """Gracefully remove the highest-numbered daemon.

        Make-before-break: the leaver's flows are re-homed through the
        live update path (old GPT keeps serving), then every survivor
        swaps to the resized state, and only then does the leaver stop.

        ``node_id`` defaults to the highest-numbered node; naming any
        other node is refused (membership shrinks from the top — the
        ``block % N`` ownership rule renumbers everything otherwise).
        """
        return self.commands.run(
            "drain", lambda: self._drain(gateway, node_id)
        )

    def _drain(
        self, gateway: EpcGateway, node_id: Optional[int]
    ) -> OpResult:
        leaving = self.num_nodes - 1
        if node_id is not None and node_id != leaving:
            raise ValueError(
                f"only the highest-numbered node ({leaving}) can drain; "
                f"node {node_id} would renumber the cluster"
            )
        if leaving in self.down:
            raise ValueError("cannot drain a dead node; use failure repair")
        if self.num_nodes <= 1:
            raise ValueError("cannot drain the last node")
        ops = [_pin(record) for record in gateway.evacuate(leaving, [
            n for n in range(leaving) if n not in self.down
        ])]
        self.push_updates(ops)
        report = gateway.resize(leaving)
        self.num_nodes -= 1
        self._swap_all(gateway)
        try:
            self._command(leaving, MSG_SHUTDOWN)
        except (FramingError, OSError):
            pass
        self._untrack_segment(leaving)
        self.monitor.untrack(leaving)
        self.addresses = self.addresses[:self.num_nodes]
        self._links.retarget(self.addresses)
        self.epoch += 1
        return OpResult(
            verb="drain",
            node=leaving,
            accepted=True,
            epoch=self.epoch,
            affected_flows=len(ops),
            detail={
                "new_nodes": self.num_nodes,
                "gpt_rebuilt_wider": int(report.gpt_rebuilt_wider),
            },
        )

    def join_node(
        self, gateway: EpcGateway, address: Tuple[str, int]
    ) -> OpResult:
        """Grow the cluster by one freshly spawned daemon."""
        return self.commands.run(
            "join", lambda: self._join(gateway, address)
        )

    def _join(
        self, gateway: EpcGateway, address: Tuple[str, int]
    ) -> OpResult:
        new_id = self.num_nodes
        self.addresses.append((str(address[0]), int(address[1])))
        self._links.retarget(self.addresses)
        self.num_nodes += 1
        report = gateway.resize(self.num_nodes)
        self._hello(new_id, gateway.gateway_ip)
        self._swap_all(gateway)
        self.monitor.track(new_id)
        self.epoch += 1
        return OpResult(
            verb="join",
            node=new_id,
            accepted=True,
            epoch=self.epoch,
            detail={
                "new_nodes": self.num_nodes,
                "gpt_rebuilt_wider": int(report.gpt_rebuilt_wider),
            },
        )

    # ------------------------------------------------------------------
    # Rejoin: delta-log catch-up for a repaired node (scale tier)
    # ------------------------------------------------------------------

    def rejoin_node(
        self,
        gateway: EpcGateway,
        node_id: int,
        address: Tuple[str, int],
    ) -> OpResult:
        """Bring a repaired (DEAD) node back without a full re-bootstrap.

        The revived daemon — a fresh process on a fresh port — receives
        the current epoch's *floor* (by shared-memory reference when
        published, wire bytes otherwise) plus the delta log accumulated
        since, which it replays before swapping planes: O(changes) catch-up
        instead of O(structure).  Survivors re-learn the topology (the
        node's new port) through a ``MSG_DOWN`` broadcast carrying the
        refreshed peer list.
        """
        return self.commands.run(
            "rejoin", lambda: self._rejoin(gateway, node_id, address)
        )

    def _rejoin(
        self, gateway: EpcGateway, node_id: int, address: Tuple[str, int]
    ) -> OpResult:
        cluster = gateway.cluster
        assert cluster is not None, "gateway not started"
        if node_id not in self.down:
            raise ValueError(
                f"node {node_id} is not down; only a repaired node rejoins"
            )
        self.addresses[node_id] = (str(address[0]), int(address[1]))
        self._links.retarget(self.addresses)
        # Revive first: ownership and the peer lists must include the node
        # again before any state is computed or broadcast.
        self.down.discard(node_id)
        gateway.down_nodes.discard(node_id)
        self.monitor.reset(node_id)
        self._hello(node_id, gateway.gateway_ip)
        # The revived replica's slices, from the authoritative shadow.
        # Its flows were re-homed during repair, so the FIB slice is
        # usually empty; the RIB slice returns because a live owner makes
        # §4.5 ownership total again.
        state = self._node_states(gateway, [node_id])[0]
        if self.deltalog is not None:
            floor = self.deltalog.floor
            catchup = self.deltalog.records()
            replay = self.deltalog.record_count
        else:  # not bootstrapped by this controller (adopted reference)
            floor = serialize.dumps(cluster.nodes[0].gpt.setsep)
            catchup, replay = b"", 0
        segment = None
        if self.publisher is not None:
            segment = self.publisher.current
            if (
                segment is None
                or segment.fingerprint
                != serialize.fingerprint_bytes(floor)
            ):
                segment = self._publish_floor(floor)
        transport = self._ship_state(
            node_id, state, floor, MSG_SNAPSHOT, segment, catchup=catchup
        )
        # Every live daemon (the rejoiner included) re-learns the down set
        # and the refreshed topology (the node's new port).
        self._broadcast_down(self._peers())
        self.epoch += 1
        return OpResult(
            verb="rejoin",
            node=node_id,
            accepted=True,
            epoch=self.epoch,
            affected_flows=len(state[1]),
            detail={
                "transport": transport,
                "catchup_records": replay,
                "catchup_bytes": len(catchup),
                "floor_bytes": len(floor),
                "rib_entries": len(state[2]),
            },
        )

    # ------------------------------------------------------------------
    # Introspection / fault control
    # ------------------------------------------------------------------

    def status_all(self) -> Dict[int, dict]:
        """STATUS report from every live daemon."""
        out: Dict[int, dict] = {}
        with self.commands:
            for node_id in range(self.num_nodes):
                if node_id in self.down:
                    continue
                out[node_id] = self._status(node_id)
        return out

    def status_node(self, node_id: int) -> dict:
        """STATUS report from one live daemon."""
        if not 0 <= node_id < self.num_nodes:
            raise ValueError(f"node {node_id} does not exist")
        if node_id in self.down:
            raise ValueError(f"node {node_id} is down")
        with self.commands:
            return self._status(node_id)

    def _status(self, node_id: int) -> dict:
        return protocol.decode_json(
            self._command(node_id, MSG_STATUS, answer=RSP_STATUS)
        )

    def snapshot(self) -> Dict[str, object]:
        """Wire-free introspection: membership, epoch, liveness, ops.

        Everything here comes from controller-local state, so the call
        is safe at any time — even while a mutation is in flight on
        another thread (the reader sees before-or-after, never torn
        state, because nothing blocks).
        """
        states = {
            node_id: self.monitor.state(node_id).value
            for node_id in self.monitor.tracked()
        }
        out: Dict[str, object] = {
            "nodes": self.num_nodes,
            "epoch": self.epoch,
            "down": sorted(self.down),
            "addresses": [list(addr) for addr in self.addresses],
            "states": states,
            "suspects": self.monitor.suspect_nodes(),
            "fence_candidates": self.monitor.fence_candidates(),
            "miss_threshold": self.monitor.miss_threshold,
            "fence_after": self.monitor.fence_after,
            "recent_ops": self.commands.recent(),
            "shm": {
                "enabled": self.use_shm,
                "segments": (
                    self.publisher.live_segments()
                    if self.publisher is not None else []
                ),
                "node_segments": {
                    str(n): name
                    for n, name in sorted(self._node_segments.items())
                },
            },
        }
        if self.deltalog is not None:
            out["deltalog"] = {
                "floor_bytes": self.deltalog.floor_bytes,
                "log_bytes": self.deltalog.log_bytes,
                "records": self.deltalog.record_count,
                "compactions": self.deltalog.compactions,
            }
        return out

    def arm_faults(self, node_id: int, budgets: dict) -> None:
        """Arm a daemon's transport fault budgets (``MSG_FAULT``)."""
        self._command(node_id, MSG_FAULT, protocol.encode_json(budgets))

    def flush_node(self, node_id: int) -> Dict[str, int]:
        """Deliver a daemon's delayed deltas/forwards (``MSG_FLUSH``).

        A delayed delta is a broadcast when it is delivered, so the reply's
        accounting joins the ``runtime.update.*`` totals here.
        """
        doc = protocol.decode_json(self._command(node_id, MSG_FLUSH))
        flushed = {key: int(value) for key, value in doc.items()}
        self._count_updates(flushed)
        return flushed
