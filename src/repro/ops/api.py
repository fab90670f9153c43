"""The operator HTTP API daemon (stdlib only, JSON in / JSON out).

:class:`OpsApiServer` wraps one :class:`~repro.ops.manager.ClusterOps`
in a :class:`http.server.ThreadingHTTPServer` and exposes the versioned
management surface::

    GET  /v1/cluster                   membership, epoch, liveness, ops
    GET  /v1/nodes                     every node's liveness summary
    GET  /v1/nodes/<id>                one node (liveness + daemon STATUS)
    GET  /v1/flows/<teid>              bearer lookup by tunnel id
    GET  /v1/metrics                   Prometheus text exposition
    GET  /v1/audit                     charging/CRC differential audit
    POST /v1/nodes/<id>/drain          graceful removal (make-before-break)
    POST /v1/nodes/<id>/join           grow onto a fresh daemon (id = next)
    POST /v1/nodes/<id>/kill           SIGKILL, detection left to heartbeats
    POST /v1/nodes/<id>/fence          force-kill a SUSPECT + immediate §7
    POST /v1/nodes/<id>/suspend        SIGSTOP (grey-failure maker)
    POST /v1/nodes/<id>/resume         SIGCONT
    POST /v1/nodes/<id>/repair         §7 repair for a DEAD node
    POST /v1/updates                   seeded §4.5 churn batch
    POST /v1/traffic                   seeded differential traffic batch
    POST /v1/poll                      heartbeat round(s) + auto-fence sweep
    GET  /v1/replication               replica group status + endpoints
    GET  /v1/replication/ops           this replica's committed op log
    POST /v1/replication/fail-leader   depose the leader (failover drill)
    POST /v1/shutdown                  stop the cluster, report leaks

When the cluster was launched with ``replicas`` > 0, each API server
binds to one replica id: mutating verbs on a follower's server answer
``307`` with a ``Location`` header naming the leader's endpoint, and
mutations on the leader replicate through the group's log before they
execute.

Errors come back as ``{"error": ...}`` with the status the typed
exception carries (404 unknown node/flow, 409 wrong state, 400 bad
request).  The request is untrusted: a ``Content-Length`` that is not a
number in ``0..MAX_BODY_BYTES``, a body that is not a JSON object or is
shorter than announced, and a field that is not an integer are all 400s,
and a client that stops sending is dropped after ``READ_TIMEOUT`` rather
than parking its handler thread.  Bodies are JSON with sorted keys, so
responses are byte-stable for a given cluster state.  The server is
threaded; the manager's lock serialises the actual mutations.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.exposition import CONTENT_TYPE
from repro.ops.manager import (
    BadRequestError,
    ClusterOps,
    LeaderRedirectError,
    OpsError,
)

#: API version prefix every route lives under.
API_PREFIX = "/v1"
#: Largest request body accepted (the verbs take a handful of integers).
MAX_BODY_BYTES = 1 << 16
#: Seconds a handler waits on its client's socket — for the next request
#: line, the headers or the rest of an announced body — before giving up.
READ_TIMEOUT = 10.0

_NODE_VERBS = {
    "drain", "join", "kill", "fence", "suspend", "resume", "repair",
}

_GET_ROUTES: List[Tuple[re.Pattern, str]] = [
    (re.compile(r"^/v1/cluster$"), "cluster"),
    (re.compile(r"^/v1/nodes$"), "nodes"),
    (re.compile(r"^/v1/nodes/(\d+)$"), "node"),
    (re.compile(r"^/v1/flows/(\d+)$"), "flow"),
    (re.compile(r"^/v1/metrics$"), "metrics"),
    (re.compile(r"^/v1/audit$"), "audit"),
    (re.compile(r"^/v1/replication$"), "replication"),
    (re.compile(r"^/v1/replication/ops$"), "replication_ops"),
]

_POST_ROUTES: List[Tuple[re.Pattern, str]] = [
    (re.compile(r"^/v1/nodes/(\d+)/([a-z]+)$"), "verb"),
    (re.compile(r"^/v1/updates$"), "updates"),
    (re.compile(r"^/v1/traffic$"), "traffic"),
    (re.compile(r"^/v1/poll$"), "poll"),
    (re.compile(r"^/v1/replication/fail-leader$"), "fail_leader"),
    (re.compile(r"^/v1/shutdown$"), "shutdown"),
]


def _json_bytes(doc: object) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode("utf-8")


def _int_field(body: Dict[str, object], name: str, default: int) -> int:
    """``body[name]`` (``default`` when absent), which must be a JSON
    integer: no strings, nulls, lists, booleans or fractions."""
    value = body.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequestError(f"{name!r} must be an integer, not {value!r}")
    return value


class _OpsHandler(BaseHTTPRequestHandler):
    """One request; the bound ``ops`` attribute is set per-server."""

    server_version = "repro-ops/1"
    protocol_version = "HTTP/1.1"
    timeout = READ_TIMEOUT  # socketserver sets it on the connection
    ops: ClusterOps  # injected by OpsApiServer
    replica: Optional[int] = None  # replica id this server speaks for
    on_shutdown: Optional[Callable[[], None]] = None

    # -- plumbing ------------------------------------------------------

    def log_message(self, *_args) -> None:  # tests want silence
        pass

    def _send(self, status: int, body: bytes,
              content_type: str = "application/json") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, doc: object) -> None:
        self._send(status, _json_bytes(doc))

    def _send_error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _send_redirect(self, exc: LeaderRedirectError) -> None:
        """307 with a ``Location`` pointing at the leader's endpoint."""
        location = None
        if exc.location is not None:
            host, port = exc.location
            location = f"http://{host}:{port}{self.path}"
        body = _json_bytes({
            "error": str(exc),
            "leader": exc.leader,
            "location": location,
        })
        self.send_response(exc.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if location is not None:
            self.send_header("Location", location)
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Dict[str, object]:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # Whatever follows the headers cannot be told from the next
            # request: answer, then hang up.
            self.close_connection = True
            raise BadRequestError(
                f"Content-Length must be a number in 0..{MAX_BODY_BYTES}"
            )
        if not length:
            return {}
        try:
            raw = self.rfile.read(length)
        except OSError:  # the read timed out, or the client hung up
            raw = b""
        if len(raw) != length:
            self.close_connection = True
            raise BadRequestError(
                "request body is shorter than its Content-Length"
            )
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequestError(f"request body is not JSON: {exc}")
        if not isinstance(doc, dict):
            raise BadRequestError("request body must be a JSON object")
        return doc

    # -- dispatch ------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        try:
            self._route_get()
        except LeaderRedirectError as exc:
            self._send_redirect(exc)
        except OpsError as exc:
            self._send_error(exc.status, str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            self._send_error(500, f"{type(exc).__name__}: {exc}")

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        try:
            self._route_post()
        except LeaderRedirectError as exc:
            self._send_redirect(exc)
        except OpsError as exc:
            self._send_error(exc.status, str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            self._send_error(500, f"{type(exc).__name__}: {exc}")

    def _apply(self, verb: str, params: Dict[str, object]) -> object:
        """One mutating verb — through the replicated log when enabled."""
        if self.ops.replication is not None:
            return self.ops.submit_via(self.replica, verb, params)
        return self.ops.execute_verb(verb, params)

    def _route_get(self) -> None:
        path = self.path.split("?", 1)[0]
        for pattern, name in _GET_ROUTES:
            match = pattern.match(path)
            if not match:
                continue
            if name == "cluster":
                return self._send_json(200, self.ops.cluster())
            if name == "nodes":
                return self._send_json(200, self.ops.nodes())
            if name == "node":
                return self._send_json(
                    200, self.ops.node(int(match.group(1)))
                )
            if name == "flow":
                return self._send_json(
                    200, self.ops.flow(int(match.group(1)))
                )
            if name == "metrics":
                return self._send(
                    200, self.ops.metrics_text().encode("utf-8"),
                    content_type=CONTENT_TYPE,
                )
            if name == "audit":
                return self._send_json(200, self.ops.audit())
            if name == "replication":
                return self._send_json(
                    200, self.ops.replication_status(self.replica)
                )
            if name == "replication_ops":
                return self._send_json(
                    200, self.ops.committed_ops(self.replica)
                )
        self._send_error(404, f"no such endpoint: GET {path}")

    def _route_post(self) -> None:
        path = self.path.split("?", 1)[0]
        for pattern, name in _POST_ROUTES:
            match = pattern.match(path)
            if not match:
                continue
            if name == "verb":
                node_id = int(match.group(1))
                verb = match.group(2)
                if verb not in _NODE_VERBS:
                    return self._send_error(
                        404, f"no such node verb: {verb}"
                    )
                result = self._apply(verb, {"node": node_id})
                return self._send_json(200, result)
            body = self._read_body()
            if name == "updates":
                return self._send_json(200, self._apply("churn", {
                    "connects": _int_field(body, "connects", 0),
                    "rehomes": _int_field(body, "rehomes", 0),
                    "disconnects": _int_field(body, "disconnects", 0),
                }))
            if name == "traffic":
                return self._send_json(200, self._apply("traffic", {
                    "packets": _int_field(body, "packets", 200),
                }))
            if name == "poll":
                return self._send_json(200, self._apply("poll", {
                    "rounds": _int_field(body, "rounds", 1),
                }))
            if name == "fail_leader":
                return self._send_json(200, self.ops.fail_leader())
            if name == "shutdown":
                result = self.ops.close()
                self._send_json(200, result)
                if self.on_shutdown is not None:
                    self.on_shutdown()
                return None
        self._send_error(404, f"no such endpoint: POST {path}")


class OpsApiServer:
    """The long-lived API daemon: one ClusterOps behind HTTP.

    Args:
        ops: the management facade to serve.
        host: bind address (loopback by default — this is an operator
            surface, not a public one).
        port: TCP port; ``0`` picks an ephemeral port, read it back
            from :attr:`port` after construction.
        stop_on_shutdown: when true, ``POST /v1/shutdown`` also stops
            the HTTP server itself after responding (the CLI daemon
            mode uses this so ``repro ctl shutdown`` terminates the
            whole process cleanly).
    """

    def __init__(
        self,
        ops: ClusterOps,
        host: str = "127.0.0.1",
        port: int = 0,
        stop_on_shutdown: bool = False,
        replica: Optional[int] = None,
    ) -> None:
        self.ops = ops
        self.replica = replica
        handler = type(
            "BoundOpsHandler", (_OpsHandler,),
            {"ops": ops, "replica": replica},
        )
        if stop_on_shutdown:
            # staticmethod: a bare function stored on the class would be
            # bound as a method and receive the handler as an argument.
            handler.on_shutdown = staticmethod(
                lambda: threading.Thread(
                    target=self.shutdown, daemon=True
                ).start()
            )
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.host = self.httpd.server_address[0]
        self.port = int(self.httpd.server_address[1])
        self._thread: Optional[threading.Thread] = None
        if replica is not None and ops.replication is not None:
            ops.register_endpoint(replica, self.host, self.port)

    def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` (blocking)."""
        self.httpd.serve_forever(poll_interval=0.1)

    def start_background(self) -> "OpsApiServer":
        """Serve from a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop serving (idempotent); joins the background thread."""
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "OpsApiServer":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.shutdown()
