"""The per-node daemon: one real process of the ScaleBricks cluster.

A ``NodeDaemon`` is everything one appliance node runs, behind a TCP
listener instead of Python method calls:

* a **GPT replica** bootstrapped from a separator snapshot — either
  backend's payload kind, shipped whole on the wire (``MSG_SNAPSHOT``) or
  attached from a controller-published shared-memory segment
  (``MSG_STATE_REF``, :mod:`repro.core.shm`) — and kept current by
  applying §4.5 update-record broadcasts from its peers (``MSG_DELTA``);
* its **RIB slice** — the blocks this node owns (``block % N``, or a
  down node's successor: ``repro.cluster.rib.block_owner``); for an
  update batch (``MSG_UPDATE``) it plays the §4.5 *owner* role —
  refuse the batch if any op is on a block it does not own, recompute
  the batch's groups on its own replica together
  (``repro.cluster.owner.owner_batch``: one key-hash pass and one
  incumbent test per wave of distinct groups), push FIB changes to
  handling nodes and ship the records to every peer in op order, byte
  for byte what one op at a time would ship;
* its **partial FIB** — exact entries for exactly the flows it handles,
  which is what rejects one-sided-error packets (§3.2): with the GPT
  replica, one :class:`~repro.cluster.node.ClusterNode`, the in-process
  cluster's class, its §5.2 cuckoo table sized as the shadow node's;
* the **data path**: raw Ethernet frames arrive (``MSG_ROUTE``), are
  parsed by the vectorised codec, their keys hashed once, looked up in
  the local GPT replica and either handled here or forwarded once to the
  handling daemon (``MSG_FORWARD``) — never more than one internal hop,
  the paper's core forwarding property.  The forwards are posted first,
  so the handlers work while this daemon handles its own frames.

The daemon is single-threaded and event-driven; determinism comes from
the controller serialising its requests and from the owner completing
all sub-requests (FIB pushes, delta ships) before acknowledging an
update batch.  A :class:`repro.chaos.transport.TransportFaultBudgets`
plan, armed over the wire, injects drop/delay/duplicate faults at the
socket boundary for delta ships and forwarded frames.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.chaos import transport as tfaults
from repro.cluster import owner
from repro.cluster.architectures import Architecture
from repro.cluster.cluster import node_runs
from repro.cluster.node import ClusterNode
from repro.cluster.rib import RoutingInformationBase, block_owner
from repro.core import serialize, shm
from repro.core import separator as separator_registry
from repro.core.hashfamily import HashedKeys
from repro.core.params import BUCKETS_PER_BLOCK, KEYS_PER_BLOCK
from repro.epc import fastpath
from repro.epc.dpe import ChargingLedger
from repro.gpt.gpt import GlobalPartitionTable
from repro.hashtables.cuckoo import CuckooHashTable
from repro.obs.metrics import MetricsRegistry
from repro.runtime import protocol, transport
from repro.runtime.framing import FramingError, frame_columns, pack_frame_list
from repro.runtime.protocol import (
    MSG_ADOPT,
    MSG_CLAIM,
    MSG_DELTA,
    MSG_DOWN,
    MSG_FIB,
    MSG_FORWARD,
    MSG_NAMES,
    MSG_SNAPSHOT,
    MSG_STATE_REF,
    MSG_SWAP,
    MSG_UPDATE,
    OP_INSERT,
    OP_REMOVE,
    RSP_ERR,
    RSP_FORWARD,
    RSP_OK,
    RSP_PONG,
    RSP_REDIRECT,
    RSP_ROUTE,
    RSP_STATUS,
    RSP_UPDATE,
    STATUS_DELIVERED,
    STATUS_LOST,
    STATUS_MALFORMED,
    STATUS_NODE_DOWN,
    STATUS_UNKNOWN,
    UpdateOp,
)


class NodeDaemon:
    """One cluster node as a socket-served process."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.registry = registry if registry is not None else MetricsRegistry()
        # Topology (set by HELLO).
        self.node_id: int = -1
        self.num_nodes: int = 0
        #: Links to the peer daemons, by node id (addresses set by HELLO).
        self.peers = transport.LinkPool()
        self.gateway_ip: int = 0
        # Forwarding state (set by SNAPSHOT/SWAP/STATE_REF): GPT replica
        # and partial FIB, and each FIB key's base-station address.
        self.node: Optional[ClusterNode] = None
        self.bs: Dict[int, int] = {}
        #: RIB slice: the records of the blocks this node owns, in the
        #: in-process RIB's own class — group rebuild inputs must match
        #: it byte for byte, key order included.
        self.slice: Optional[RoutingInformationBase] = None
        self.ledger = ChargingLedger()  # a private registry: no counter
        #: Peers the controller has declared dead (MSG_DOWN): no FIB or
        #: delta ships are attempted toward them.
        self.down: set = set()
        # Transport fault injection.
        self.faults = tfaults.TransportFaultBudgets()
        #: ``(peer, wire, bits)`` per delta ship a DELAY verdict held back.
        self._delayed_deltas: List[Tuple[int, bytes, int]] = []
        self._delayed_forwards: List[Tuple[int, bytes]] = []
        self._running = False
        # Leader fencing (replicated controllers).  A controller claims
        # leadership per connection (MSG_CLAIM); once any claim has been
        # seen, state-mutating requests on a connection whose claimed
        # term is below the highest one get RSP_REDIRECT instead of
        # execution, so a deposed leader cannot mutate this node.  A
        # legacy single controller never claims and is never redirected.
        self.claimed_term = 0
        self.claimed_leader: Optional[int] = None
        self._conn_terms: Dict[int, int] = {}
        #: Live shared-memory attachment backing the GPT (MSG_STATE_REF).
        self._attached: Optional[shm.AttachedSegment] = None
        self._c_snapshot_bytes = self.registry.counter(
            "runtime.snapshot_bytes",
            "separator snapshot bytes received on the wire",
        )
        self._c_stateref_attached = self.registry.counter(
            "runtime.stateref.attached",
            "state epochs adopted by shared-memory attach",
        )
        self._c_stateref_replayed = self.registry.counter(
            "runtime.stateref.replayed",
            "delta-log records replayed during state_ref catch-up",
        )
        self._c_deltas_applied = self.registry.counter(
            "runtime.deltas.applied", "GPT deltas applied to this replica"
        )
        self._c_groups_rebuilt = self.registry.counter(
            "runtime.groups_rebuilt", "owner-side group recomputations"
        )
        self._c_frames_local = self.registry.counter(
            "runtime.frames.local", "frames handled at their ingress node"
        )
        self._c_frames_forwarded = self.registry.counter(
            "runtime.frames.forwarded", "frames forwarded to a peer daemon"
        )
        self._c_frames_received = self.registry.counter(
            "runtime.frames.received", "forwarded frames received from peers"
        )

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def serve_forever(
        self, ready: Optional[Callable[[int], None]] = None
    ) -> None:
        """Bind, announce the port via ``ready`` and serve until SHUTDOWN."""
        self._running = True
        try:
            transport.serve(
                self.host, self.port, self._dispatch,
                running=lambda: self._running, tick=0.5, ready=ready,
                closed=lambda conn: self._conn_terms.pop(id(conn), None),
            )
        finally:
            self.peers.close()

    #: Requests that mutate node state and therefore honour leader
    #: claims: a connection with a stale claimed term is redirected.
    _FENCED_TYPES = frozenset(
        (MSG_SNAPSHOT, MSG_STATE_REF, MSG_SWAP, MSG_UPDATE, MSG_ADOPT,
         MSG_DOWN)
    )

    def _dispatch(
        self, msg_type: int, payload: bytes, conn=None
    ) -> Tuple[int, bytes]:
        name = MSG_NAMES.get(msg_type)
        if name is None:
            return RSP_ERR, protocol.encode_json(
                {"error": f"unknown message type {msg_type:#x}"}
            )
        self.registry.counter(f"runtime.rx.{name}").inc()
        if (
            msg_type in self._FENCED_TYPES
            and self.claimed_term > 0
            and self._conn_terms.get(id(conn), 0) < self.claimed_term
        ):
            self.registry.counter("runtime.claims.redirected").inc()
            return RSP_REDIRECT, protocol.encode_json(
                {"leader": self.claimed_leader, "term": self.claimed_term}
            )
        handler = getattr(self, f"_on_{name}", None)
        if handler is None:
            return RSP_ERR, protocol.encode_json(
                {"error": f"message {name!r} has no daemon handler"}
            )
        try:
            if msg_type == MSG_CLAIM:  # the one per-connection handler
                return handler(payload, conn)
            return handler(payload)
        except Exception as exc:  # noqa: BLE001 - a PFE never dies
            return RSP_ERR, protocol.encode_json(
                {"error": f"{type(exc).__name__}: {exc}"}
            )

    def _on_claim(self, payload: bytes, conn=None) -> Tuple[int, bytes]:
        """A controller claims leadership of this daemon's control link."""
        doc = protocol.decode_json(payload)
        term = int(doc["term"])
        leader = int(doc["leader"])
        if term < self.claimed_term:
            return RSP_REDIRECT, protocol.encode_json(
                {"leader": self.claimed_leader, "term": self.claimed_term}
            )
        self.claimed_term = term
        self.claimed_leader = leader
        if conn is not None:
            self._conn_terms[id(conn)] = term
        return RSP_OK, protocol.encode_json(
            {"accepted": True, "term": term, "leader": leader}
        )

    # ------------------------------------------------------------------
    # Peer links
    # ------------------------------------------------------------------

    def _peer_post(
        self, node_id: int, msg_type: int, payload: bytes
    ) -> Callable[[], Tuple[int, bytes]]:
        """Send a request to a peer; the returned ``collect()`` reads the
        reply.  A dead link is dropped and raised, by either half.

        Every peer send goes through here (the socket-less test harnesses
        replace this one method).
        """
        return self.peers.post(node_id, msg_type, payload)

    # ------------------------------------------------------------------
    # Control plane handlers
    # ------------------------------------------------------------------

    def _on_hello(self, payload: bytes) -> Tuple[int, bytes]:
        doc = protocol.decode_json(payload)
        self.node_id = int(doc["node_id"])
        self.num_nodes = int(doc["num_nodes"])
        self.peers.retarget(doc["peers"])
        self.gateway_ip = int(doc["gateway_ip"])
        return RSP_OK, protocol.encode_json({"node_id": self.node_id})

    def _install_state(
        self, header: dict, fib: np.ndarray, rib: np.ndarray, setsep,
        attachment: Optional[shm.AttachedSegment],
    ) -> dict:
        """Adopt a fully-built control plane (make-before-break).

        ``setsep`` is a separator replica of either backend — deserialised
        from wire bytes or parsed out of a shared-memory attachment;
        ``header`` carries the topology and the FIB's capacity, ``fib`` and
        ``rib`` this daemon's slices as insert records.  Everything is
        built before any reference is swapped; a failure leaves the old
        plane live.  Returns ack detail fields.
        """
        num_nodes = int(header["num_nodes"])
        # The shadow node's FIB holds twice a node's share of the keys the
        # separator was built for: past twice them all, nothing allocates.
        capacity = header["fib_capacity"]
        limit = 2 * KEYS_PER_BLOCK * setsep.num_blocks
        if type(capacity) is not int or not 1 <= capacity <= limit:
            raise ValueError(f"FIB capacity {capacity!r} is not 1..{limit}")
        rib_slice = RoutingInformationBase(num_nodes, setsep.num_blocks)
        rib_slice.insert_many(rib["key"], rib["node"], rib["value"])
        node = ClusterNode(
            self.node_id, Architecture.SCALEBRICKS,
            CuckooHashTable(capacity), GlobalPartitionTable(num_nodes, setsep),
        )
        node.install_routes(fib["key"], fib["node"], fib["value"].tolist())
        self.node = node
        self.bs = dict(zip(fib["key"].tolist(), fib["bs_ip"].tolist()))
        self.slice = rib_slice
        self.num_nodes = num_nodes
        previous, self._attached = self._attached, attachment
        if previous is not None:
            previous.close()
        if "peers" in header:
            self.peers.retarget(header["peers"])
        return {"fib_entries": len(fib), "rib_entries": len(rib)}

    def _load_state(self, payload: bytes) -> Tuple[int, bytes]:
        """Bootstrap/replace this replica from a full wire snapshot.

        The payload's tail is either backend's serialised form
        (:func:`repro.core.serialize.loads` dispatches on the magic).
        """
        header, fib, rib, snapshot = protocol.decode_node_state(payload)
        setsep = serialize.loads(snapshot)
        detail = self._install_state(header, fib, rib, setsep, None)
        self._c_snapshot_bytes.inc(len(snapshot))
        detail["snapshot_bytes"] = len(snapshot)
        return RSP_OK, protocol.encode_json(detail)

    _on_snapshot = _load_state
    _on_swap = _load_state

    def _on_state_ref(self, payload: bytes) -> Tuple[int, bytes]:
        """Adopt state by shared-memory reference instead of wire bytes.

        The payload reuses the node-state framing: the JSON header
        additionally carries ``segment`` (name + expected fingerprint) and
        the tail holds *catch-up records* — the controller's delta log
        since the segment's floor — rather than a snapshot.  The daemon
        maps the segment copy-on-write, parses it zero-copy, replays the
        records, then swaps planes.  Any failure (missing segment,
        fingerprint mismatch) is reported as RSP_ERR and the controller
        falls back to the full-snapshot wire path.
        """
        header, fib, rib, catchup = protocol.decode_node_state(payload)
        segment = header["segment"]
        attachment = shm.attach(
            str(segment["name"]),
            expected_fingerprint=int(segment["fingerprint"]),
            mode="cow",
        )
        try:
            setsep = attachment.separator
            replayed = owner.apply_records(setsep, catchup)
            detail = self._install_state(header, fib, rib, setsep, attachment)
        except Exception:
            attachment.close()
            raise
        self._c_stateref_attached.inc()
        self._c_stateref_replayed.inc(replayed)
        detail.update({
            "segment": attachment.name,
            "mode": attachment.mode,
            "replayed": replayed,
        })
        return RSP_OK, protocol.encode_json(detail)

    def _on_adopt(self, payload: bytes) -> Tuple[int, bytes]:
        assert self.node is not None, "adopt before snapshot"
        rows, _ = protocol.decode_records(
            payload, None, "adopted RIB rows", (OP_INSERT,)
        )
        self.slice.insert_many(rows["key"], rows["node"], rows["value"])
        return RSP_OK, protocol.encode_json({"adopted": len(rows)})

    def _on_down(self, payload: bytes) -> Tuple[int, bytes]:
        doc = protocol.decode_json(payload)
        self.down = {int(n) for n in doc["down"]}
        if "peers" in doc:
            # A rejoin re-announces the topology: the revived node listens
            # on a fresh port, so cached links must be re-dialled.
            self.peers.retarget(doc["peers"])
        else:
            for node_id in self.down:
                self.peers.drop(node_id)
        return RSP_OK, protocol.encode_json({"down": sorted(self.down)})

    def _on_fault(self, payload: bytes) -> Tuple[int, bytes]:
        self.faults = tfaults.TransportFaultBudgets.from_dict(
            protocol.decode_json(payload)
        )
        return RSP_OK, protocol.encode_json(
            {"pending": self.faults.pending()}
        )

    def _on_ping(self, payload: bytes) -> Tuple[int, bytes]:
        return RSP_PONG, payload

    def _on_shutdown(self, payload: bytes) -> Tuple[int, bytes]:
        self._running = False
        return RSP_OK, protocol.encode_json({"node_id": self.node_id})

    def _on_status(self, payload: bytes) -> Tuple[int, bytes]:
        gpt_crc = 0
        gpt_bytes = 0
        if self.node is not None:
            # One serialisation serves both: the fingerprint *is* the
            # snapshot's trailing CRC (serialize.fingerprint would dump a
            # second time to read the same four bytes).
            snapshot = serialize.dumps(self.node.gpt.setsep)
            gpt_crc = serialize.fingerprint_bytes(snapshot)
            gpt_bytes = len(snapshot)
        return RSP_STATUS, protocol.encode_json({
            "node_id": self.node_id,
            "num_nodes": self.num_nodes,
            "fib_entries": len(self.node.fib) if self.node is not None else 0,
            "rib_entries": len(self.slice) if self.slice is not None else 0,
            "charges": {str(teid): total
                        for teid, total in self.ledger.bytes_charged.items()},
            "counters": self.registry.counters(),
            "gpt_backend": (
                separator_registry.backend_of(self.node.gpt.setsep)
                if self.node is not None else None
            ),
            "gpt_crc": gpt_crc,
            "gpt_bytes": gpt_bytes,
            "claimed_term": self.claimed_term,
            "claimed_leader": self.claimed_leader,
            "faults_applied": self.faults.applied,
            "delayed_deltas": len(self._delayed_deltas),
            "delayed_forwards": len(self._delayed_forwards),
            "shm_segment": (
                self._attached.name if self._attached is not None else None
            ),
        })

    # ------------------------------------------------------------------
    # §4.5 update protocol: a socket transport around repro.cluster.owner
    # ------------------------------------------------------------------

    def _ship(self, peer: int, msg_type: int, payload: bytes) -> None:
        """One acknowledged control message to a peer daemon."""
        rsp_type, rsp = self._peer_post(peer, msg_type, payload)()
        protocol.expect(rsp_type, RSP_OK, rsp)

    def _on_update(self, payload: bytes) -> Tuple[int, bytes]:
        assert self.node is not None, "update before snapshot"
        ops = protocol.decode_updates(payload)
        # Refuse the whole batch before any of it is applied: a group
        # rebuilt from a slice that does not hold its block would ship a
        # record without its keys (owner_batch range-checks the nodes).
        updates = []
        for op in ops:
            bucket = self.slice.bucket_of(op.key)
            block = bucket // BUCKETS_PER_BLOCK
            owner_id = block_owner(block, self.num_nodes, self.down)
            if owner_id != self.node_id:
                raise ValueError(
                    f"key {op.key:#x} is in block {block}, which node "
                    f"{owner_id} owns, not node {self.node_id}"
                )
            updates.append((
                op.key, bucket, op.node if op.op == OP_INSERT else None,
                op.value,
            ))
        fib_batches: Dict[int, List[UpdateOp]] = {}
        delta_wires: Dict[int, List[bytes]] = {}
        #: Canonical per-record wire bytes for the controller's delta log —
        #: one copy per rebuilt group, independent of per-peer transport
        #: fault verdicts (the log must mirror the owner's applied state).
        log_wires: List[bytes] = []
        acc = owner.UpdateAccount()
        peers = [
            peer for peer in range(self.num_nodes)
            if peer != self.node_id and peer not in self.down
        ]
        verdict_of = lambda _peer: self.faults.verdict("delta")  # noqa: E731
        # One owner pass over the batch; its steps are shipped in op order,
        # so verdicts, FIB batches and the log match one op at a time.
        steps = owner.owner_batch(self.slice, self.node.gpt, acc, updates)
        for op, step in zip(ops, steps):
            if step is None:
                continue  # unknown key: not an update
            self._c_groups_rebuilt.inc()
            for target, route in step.fib_ops:
                fib_batches.setdefault(target, []).append(
                    UpdateOp(OP_REMOVE, op.key) if route is None else
                    UpdateOp(OP_INSERT, op.key, op.node, op.value, op.bs_ip)
                )
            log_wires.append(step.wire)
            for peer, copies in owner.fan_out(
                peers, verdict_of, step, self._delayed_deltas, acc
            ):
                delta_wires.setdefault(peer, []).extend([step.wire] * copies)
        # One FIB batch per handling node, one delta batch per peer —
        # same per-key ordering as shipping each individually.
        for target in sorted(fib_batches):
            if target == self.node_id:
                self._apply_fib(fib_batches[target])
            elif target not in self.down:
                self._ship(
                    target, MSG_FIB,
                    protocol.encode_updates(fib_batches[target]),
                )
        for peer in sorted(delta_wires):
            self._ship(peer, MSG_DELTA, b"".join(delta_wires[peer]))
        # Accounting JSON plus the batch's canonical records, state-framed:
        # the controller appends the records to its epoch delta log.
        return RSP_UPDATE, protocol.encode_state(
            asdict(acc), b"".join(log_wires)
        )

    def _apply_fib(self, ops: List[UpdateOp]) -> None:
        node, bs = self.node, self.bs
        for op in ops:
            if op.op == OP_INSERT:
                node.install_route(op.key, op.node, op.value)
                bs[op.key] = op.bs_ip
            else:
                node.remove_route(op.key)
                bs.pop(op.key, None)

    def _on_fib(self, payload: bytes) -> Tuple[int, bytes]:
        ops = protocol.decode_updates(payload)
        self._apply_fib(ops)
        return RSP_OK, protocol.encode_json({"applied": len(ops)})

    def _on_delta(self, payload: bytes) -> Tuple[int, bytes]:
        assert self.node is not None, "delta before snapshot"
        applied = owner.apply_records(self.node.gpt, payload)
        self._c_deltas_applied.inc(applied)
        return RSP_OK, protocol.encode_json({"applied": applied})

    def _on_flush(self, payload: bytes) -> Tuple[int, bytes]:
        """Deliver every delayed delta and forward, in FIFO ship order.

        The reply carries the delivered deltas' accounting; the controller
        folds it into the totals the ``RSP_UPDATE`` that delayed them
        left out.
        """
        acc = owner.UpdateAccount()
        owner.flush_delayed(
            self._delayed_deltas, self.down,
            lambda peer, wire, _bits: self._ship(peer, MSG_DELTA, wire), acc,
        )
        forwards, self._delayed_forwards = self._delayed_forwards, []
        for peer, frame_payload in forwards:
            # Late delivery: the handler charges and encapsulates, but
            # the original ROUTE response already went out without it.
            self._peer_post(peer, MSG_FORWARD, frame_payload)()
        return RSP_OK, protocol.encode_json({
            "flushed_deltas": acc.delta_broadcasts,
            "flushed_forwards": len(forwards),
            "delta_broadcasts": acc.delta_broadcasts,
            "delta_bits": acc.delta_bits,
        })

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def _handle_frames(
        self, parsed: fastpath.ParsedBatch, rows: np.ndarray,
        hashed: Optional[HashedKeys] = None,
    ) -> protocol.OutcomeColumns:
        """Terminal handling of the parsed frames ``rows`` selects: FIB
        check (:meth:`ClusterNode.handle_batch`), charge, GTP-U
        encapsulation.  ``hashed`` is the keys of ``rows``, all valid,
        already hashed (``None``: hashed here).  Returns the outcome
        columns aligned with ``rows``, the packet ``b""`` where none was
        delivered.
        """
        assert self.node is not None, "frames before snapshot"
        # One-sided error is the default: the GPT pointed here, and a key
        # the exact FIB does not hold stays rejected (§3.2).
        status = np.where(
            parsed.malformed[rows], STATUS_MALFORMED, STATUS_UNKNOWN
        )
        teid = np.zeros(rows.size, dtype=np.int64)
        packets = [b""] * rows.size
        valid_pos = np.flatnonzero(status == STATUS_UNKNOWN)
        if hashed is None:
            hashed = HashedKeys(parsed.keys[rows[valid_pos]])
        found, values = self.node.handle_batch(hashed)
        accepted_pos = valid_pos[found]
        if accepted_pos.size:
            idx = rows[accepted_pos]
            teids = values[found]
            self.ledger.charge_many(teids, parsed.l3_len[idx])
            tunnelled = fastpath.encapsulate_batch(
                parsed, idx, teids,
                np.array([self.bs[key] for key in hashed.keys[found].tolist()],
                         dtype=np.int64),
                self.gateway_ip,
            )
            status[accepted_pos] = STATUS_DELIVERED
            teid[accepted_pos] = teids
            for pos, packet in zip(accepted_pos.tolist(), tunnelled):
                packets[pos] = packet
        handler = np.where(status == STATUS_MALFORMED, -1, self.node_id)
        return status, handler, teid, packets

    def _on_forward(self, payload: bytes) -> Tuple[int, bytes]:
        raw, offsets = frame_columns(payload)
        count = offsets.size - 1
        self._c_frames_received.inc(count)
        return RSP_FORWARD, protocol.encode_outcome_columns(
            *self._handle_frames(
                fastpath.parse_buffer(raw, offsets), np.arange(count)
            )
        )

    def _on_route(self, payload: bytes) -> Tuple[int, bytes]:
        """Ingress role: parse once, hash the keys once for the GPT replica
        and the FIB, look them up in the GPT, then post every forward,
        handle the local frames while the handlers work, and collect."""
        assert self.node is not None, "route before snapshot"
        raw, offsets = frame_columns(payload)
        parsed = fastpath.parse_buffer(raw, offsets)
        status = np.full(parsed.n, STATUS_MALFORMED, dtype=np.int64)
        handler = np.full(parsed.n, -1, dtype=np.int64)
        teid = np.zeros(parsed.n, dtype=np.int64)
        packets = [b""] * parsed.n
        valid_idx = np.flatnonzero(parsed.valid)
        local: Optional[Tuple[np.ndarray, HashedKeys]] = None
        pending, outcomes = [], []
        if valid_idx.size:
            hashed = HashedKeys.both(parsed.keys[valid_idx])
            handlers = self.node.gpt.lookup_batch(hashed).astype(
                np.int64, copy=False
            )
            handler[valid_idx] = handlers
            # Ascending handler order: fault verdicts are drawn in it.
            order, runs = node_runs(handlers, self.num_nodes)
            for node, start, stop in runs:
                picked = order[start:stop]
                rows = valid_idx[picked]
                if node == self.node_id:
                    local = rows, hashed[picked]
                    continue
                frames = [
                    raw[begin:end] for begin, end in zip(
                        offsets[rows].tolist(), offsets[rows + 1].tolist()
                    )
                ]
                pending.append((rows, self._forward(node, frames)))
        try:
            if local is not None:
                self._c_frames_local.inc(local[0].size)
                outcomes.append((local[0], self._handle_frames(parsed, *local)))
        finally:
            # Every posted forward is collected, so no link is left with
            # an unread reply.
            replies = [(rows, collect()) for rows, collect in pending]
        for rows, reply in replies:
            if isinstance(reply, int):
                status[rows] = reply
                continue
            rsp_type, rsp = reply
            columns = protocol.decode_outcome_columns(
                protocol.expect(rsp_type, RSP_FORWARD, rsp)
            )
            if columns[0].size != rows.size:
                raise protocol.ProtocolError(
                    f"forward reply has {columns[0].size} outcomes for "
                    f"{rows.size} frames"
                )
            outcomes.append((rows, columns))
        for rows, (row_status, row_handler, row_teid, rows_out) in outcomes:
            status[rows] = row_status
            handler[rows] = row_handler
            teid[rows] = row_teid
            for i, packet in zip(rows.tolist(), rows_out):
                packets[i] = packet
        return RSP_ROUTE, protocol.encode_outcome_columns(
            status, handler, teid, packets
        )

    def _forward(
        self, handler: int, frames: List[bytes]
    ) -> Callable[[], Union[int, Tuple[int, bytes]]]:
        """Post a sub-batch to its handling daemon, honouring faults.

        The returned ``collect()`` gives the handler's reply, or the one
        status every frame gets when no reply comes: ``LOST`` (the fault
        plan dropped or delayed it) or ``NODE_DOWN`` (the link failed).
        """
        payload = pack_frame_list(frames)
        verdict = self.faults.verdict("forward")
        if verdict in (tfaults.DROP, tfaults.DELAY):
            if verdict == tfaults.DELAY:
                self._delayed_forwards.append((handler, payload))
            return lambda: STATUS_LOST
        self._c_frames_forwarded.inc(len(frames))
        try:
            reply = self._peer_post(handler, MSG_FORWARD, payload)
        except (FramingError, OSError):
            # The handling daemon is gone; the fabric cannot deliver.
            return lambda: STATUS_NODE_DOWN

        def collect() -> Union[int, Tuple[int, bytes]]:
            try:
                rsp_type, rsp = reply()
            except (FramingError, OSError):
                return STATUS_NODE_DOWN
            if verdict == tfaults.DUPLICATE and rsp_type == RSP_FORWARD:
                try:
                    self._peer_post(handler, MSG_FORWARD, payload)()
                except (FramingError, OSError):
                    pass  # the first copy was delivered and charged
            return rsp_type, rsp

        return collect


def serve(host: str = "127.0.0.1", port: int = 0,
          ready: Optional[Callable[[int], None]] = None) -> None:
    """Run one daemon in the current process until SHUTDOWN."""
    NodeDaemon(host=host, port=port).serve_forever(ready=ready)
