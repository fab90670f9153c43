"""ClusterOps: the management facade the operator API serves.

One :class:`ClusterOps` owns a full live deployment — a
:class:`~repro.runtime.session.Session`: the daemon child processes, the
controller driving them over sockets and the in-process shadow the
differential audit compares against.  What a verb *does* is the
session's; this class adds the lock and the typed errors.
Every public method is one management operation with a JSON-ready
return, and every error is typed so the HTTP layer can map it to a
status code without string matching:

* :class:`NotFoundError` (→ 404) — the named node/flow does not exist;
* :class:`ConflictError` (→ 409) — the operation is valid but refused
  in the cluster's current state (fencing an ALIVE node, draining a
  dead one, re-killing a corpse);
* :class:`BadRequestError` (→ 400) — the request itself is malformed.

All methods serialise through one re-entrant lock: the HTTP server is
threaded, and both the socket protocol (strict request/response per
connection) and the shadow gateway (plain Python objects) would corrupt
under interleaved mutation.  Concurrent API calls therefore execute in
*some* sequential order — the test suite asserts exactly that.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Dict, List, Optional

from repro.obs.exposition import prometheus_text
from repro.runtime.liveness import NodeState
from repro.runtime.session import Session


class OpsError(Exception):
    """Base of the management errors; carries an HTTP status."""

    status = 500


class BadRequestError(OpsError):
    """The request is malformed (→ 400)."""

    status = 400


class NotFoundError(OpsError):
    """The named node or flow does not exist (→ 404)."""

    status = 404


class ConflictError(OpsError):
    """Valid operation, wrong cluster state (→ 409)."""

    status = 409


class ClusterOps:
    """Lock-serialised management wrapper around one live cluster.

    Build one with :meth:`launch` (spawns everything) or construct
    directly around an entered, bootstrapped session.  ``close()`` — or
    use as a context manager — shuts the cluster down and accounts for
    every child process.
    """

    def __init__(self, session: Session) -> None:
        self.session = session
        self.runtime = session.runtime
        self.controller = session.controller
        self.shadow = session.shadow
        self.gateway = session.shadow.gateway
        self.seed = session.seed
        self._lock = threading.RLock()
        self._traffic_round = 0
        self._churn_round = 0
        self._closed = False

    # -- lifecycle -----------------------------------------------------

    @classmethod
    def launch(
        cls,
        num_nodes: int = 4,
        seed: int = 7,
        flows: int = 2000,
        miss_threshold: int = 3,
        fence_after: Optional[int] = None,
        ping_timeout: float = 0.5,
    ) -> "ClusterOps":
        """Spawn daemons, build and bootstrap the shadow, wire it all up."""
        session = Session(
            num_nodes, seed, miss_threshold=miss_threshold,
            ping_timeout=ping_timeout, fence_after=fence_after,
        )
        with contextlib.ExitStack() as stack:
            stack.enter_context(session)
            session.bootstrap(flows)
            stack.pop_all()  # up and bootstrapped: close() owns it now
        return cls(session)

    def close(self) -> Dict[str, object]:
        """Shut every daemon down; returns the leak accounting."""
        with self._lock:
            if self._closed:
                return {"acked": [], "leaked_processes": 0, "closed": True}
            self._closed = True
            leaks = self.session.close()
            return {
                "acked": leaks["acked"],
                "leaked_processes": leaks["leaked_processes"],
                "leaked_nodes": leaks["leaked_nodes"],
                "closed": True,
            }

    def __enter__(self) -> "ClusterOps":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    # -- error translation ---------------------------------------------

    def _node_or_404(self, node_id: int) -> int:
        if node_id not in self.controller.monitor.tracked() and not (
            0 <= node_id < self.controller.num_nodes
        ):
            raise NotFoundError(f"node {node_id} does not exist")
        return node_id

    def _run(
        self, verb: Callable[..., Dict[str, object]], *args: object
    ) -> Dict[str, object]:
        """Run a session verb under the lock; a ``ValueError`` (valid
        verb, wrong cluster state) is a 409."""
        with self._lock:
            try:
                return verb(*args)
            except ValueError as exc:
                raise ConflictError(str(exc)) from exc

    def _node_verb(
        self, verb: Callable[[int], Dict[str, object]], node: int
    ) -> Dict[str, object]:
        """:meth:`_run` a verb on a node that must exist (else 404)."""
        with self._lock:
            self._node_or_404(node)
            return self._run(verb, node)

    # -- read side -----------------------------------------------------

    def cluster(self) -> Dict[str, object]:
        """The ``GET /v1/cluster`` document."""
        with self._lock:
            snapshot = self.controller.snapshot()
            snapshot["seed"] = self.seed
            snapshot["live_flows"] = len(self.shadow.live_flows)
            snapshot["architecture"] = "scalebricks"
            return snapshot

    def nodes(self) -> List[Dict[str, object]]:
        """The ``GET /v1/nodes`` listing (every node, even dead ones)."""
        with self._lock:
            monitor = self.controller.monitor
            down = self.controller.down
            out = []
            for node_id in range(self.controller.num_nodes):
                tracked = node_id in monitor.tracked()
                entry: Dict[str, object] = {
                    "node": node_id,
                    "address": list(self.controller.addresses[node_id]),
                    "state": (
                        monitor.state(node_id).value if tracked else "dead"
                    ),
                    "misses": monitor.misses(node_id) if tracked else 0,
                    "repaired": node_id in down,
                }
                out.append(entry)
            return out

    def node(self, node_id: int) -> Dict[str, object]:
        """The ``GET /v1/nodes/<id>`` document (liveness + daemon STATUS)."""
        with self._lock:
            self._node_or_404(node_id)
            monitor = self.controller.monitor
            tracked = node_id in monitor.tracked()
            doc: Dict[str, object] = {
                "node": node_id,
                "address": list(self.controller.addresses[node_id]),
                "state": monitor.state(node_id).value if tracked else "dead",
                "misses": monitor.misses(node_id) if tracked else 0,
                "repaired": node_id in self.controller.down,
            }
            if node_id not in self.controller.down and (
                not tracked or monitor.state(node_id) is not NodeState.DEAD
            ):
                try:
                    doc["status"] = self.controller.status_node(node_id)
                except (OSError, ValueError):
                    doc["status"] = None
            else:
                doc["status"] = None
            return doc

    def flow(self, teid: int) -> Dict[str, object]:
        """The ``GET /v1/flows/<teid>`` document."""
        with self._lock:
            record = self.gateway.controller.record_for_teid(teid)
            if record is None:
                raise NotFoundError(f"no flow with teid {teid}")
            doc: Dict[str, object] = {
                "teid": record.teid,
                "key": record.key,
                "handling_node": record.handling_node,
                "base_station_ip": record.base_station_ip,
            }
            shadow_bytes = self.gateway.stats.bytes_of(record.teid)
            doc["shadow_bytes_charged"] = shadow_bytes
            return doc

    def metrics_text(self) -> str:
        """Prometheus exposition of controller + shadow registries."""
        with self._lock:
            return prometheus_text(
                [self.controller.registry, self.gateway.registry]
            )

    def recent_ops(self) -> List[Dict[str, object]]:
        """Completed management commands, oldest first."""
        return self.controller.commands.recent()

    # -- mutating verbs ------------------------------------------------

    def drain(self, node: int) -> Dict[str, object]:
        """Gracefully remove a node (highest-numbered only)."""
        return self._node_verb(self.session.drain, node)

    def join(self, node: Optional[int] = None) -> Dict[str, object]:
        """Spawn one more daemon and grow the cluster onto it.

        ``node``, when given, must equal the id the newcomer will
        receive (the current node count) — anything else is a 409, so
        ``POST /v1/nodes/<id>/join`` can never grow the wrong cluster.
        """
        with self._lock:
            expected = self.controller.num_nodes
            if node is not None and node != expected:
                raise ConflictError(
                    f"next join creates node {expected}, not {node}"
                )
            return self._run(self.session.join)

    def kill(self, node: int) -> Dict[str, object]:
        """SIGKILL a daemon (no repair — detection is the point)."""
        return self._node_verb(self.session.kill, node)

    def fence(self, node: int) -> Dict[str, object]:
        """Force-kill a SUSPECT daemon and repair immediately."""
        return self._node_verb(self.session.fence, node)

    def repair(self, node: int) -> Dict[str, object]:
        """Run §7 failure repair for a node already declared DEAD."""
        def repair_dead(node: int) -> Dict[str, object]:
            if self.controller.monitor.state(node) is not NodeState.DEAD:
                raise ValueError(
                    f"node {node} is not DEAD; repair follows detection"
                )
            return self.session.repair(node)

        return self._node_verb(repair_dead, node)

    def suspend(self, node: int) -> Dict[str, object]:
        """SIGSTOP a daemon — the grey-failure (SUSPECT) maker."""
        return self._node_verb(self.session.suspend, node)

    def resume(self, node: int) -> Dict[str, object]:
        """SIGCONT a suspended daemon (the grey failure clears)."""
        return self._node_verb(self.session.resume, node)

    # -- liveness / policy ---------------------------------------------

    def poll(self, rounds: int = 1) -> Dict[str, object]:
        """Heartbeat rounds plus the auto-fence policy sweep.

        After each round, any node past the monitor's ``fence_after``
        threshold is fenced (force-kill + §7 repair) — the policy knob
        the operator API exposes at launch.
        """
        if rounds < 1:
            raise BadRequestError("rounds must be positive")
        with self._lock:
            return self.session.poll(rounds)

    # -- differential traffic / churn / audit --------------------------

    def traffic(self, packets: int = 200) -> Dict[str, object]:
        """One seeded differential traffic batch through both worlds.

        Frames are generated from the live flow population, routed
        through the socket cluster and the shadow gateway with per-frame
        ingress pinned to a live node (one RNG stream per batch), and
        compared frame by frame.  The per-node charge ledger feeds the
        §7 audit later.
        """
        if packets < 1:
            raise BadRequestError("packets must be positive")
        with self._lock:
            if not self.shadow.live_flows:
                raise ConflictError("no live flows to generate traffic from")
            self._traffic_round += 1
            summary = self.session.traffic(
                packets, stream=1000 + self._traffic_round, ingress="live"
            )
            summary["round"] = self._traffic_round
            return summary

    def churn(
        self, connects: int = 0, rehomes: int = 0, disconnects: int = 0
    ) -> Dict[str, object]:
        """A seeded §4.5 update batch (``POST /v1/updates``).

        Connects admit fresh bearers, rehomes move existing ones to a
        random live node, disconnects tear bearers down — mirrored into
        the shadow first, then pushed over the wire through the owner
        protocol, exactly like the harness's update storm.
        """
        total = connects + rehomes + disconnects
        if total < 1:
            raise BadRequestError(
                "need at least one connect/rehome/disconnect"
            )
        with self._lock:
            self._churn_round += 1
            totals = self.session.storm(
                stream=2000 + self._churn_round, connects=connects,
                rehomes=rehomes, disconnects=disconnects, targets="live",
            )
            totals["live_flows"] = len(self.shadow.live_flows)
            return totals

    def audit(self) -> Dict[str, object]:
        """The global differential: charging dicts and GPT replica CRCs.

        Charges a dead node took to its grave are subtracted from the
        shadow's ledger (fate sharing, §7) before comparing against the
        wire's per-daemon totals.
        """
        with self._lock:
            return {
                **self.session.audit(),
                "epoch": self.controller.epoch,
                "live_nodes": self.session.live_nodes(),
            }
