"""HTTP client for the operator API (what ``repro ctl`` speaks).

:class:`OpsClient` is a thin, dependency-free wrapper over
:class:`http.client.HTTPConnection` — one method per endpoint, JSON in,
decoded JSON out.  Error responses raise :class:`OpsApiError` carrying
the HTTP status and the server's ``error`` message, so callers branch
on ``exc.status`` (404 vs 409) instead of parsing strings.

The client deliberately knows nothing about the cluster beyond the
URL scheme: it is the proof that the API surface is sufficient to
operate a deployment — the CLI, the chaos fence drill and the CI
smoke job all drive the cluster exclusively through it.
"""

from __future__ import annotations

import http.client
import json
from typing import Dict, List, Optional


class OpsApiError(Exception):
    """An error response from the operator API."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class OpsClient:
    """Talks to one :class:`~repro.ops.api.OpsApiServer`."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8787,
        timeout: float = 60.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- plumbing ------------------------------------------------------

    def _request(
        self, method: str, path: str, body: Optional[dict] = None,
    ):
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            content_type = response.getheader("Content-Type", "")
            if "application/json" in content_type:
                doc = json.loads(raw.decode("utf-8"))
            else:
                doc = raw.decode("utf-8")
        finally:
            conn.close()
        if response.status >= 400:
            message = (
                doc.get("error", raw.decode("utf-8"))
                if isinstance(doc, dict) else str(doc)
            )
            raise OpsApiError(response.status, message)
        return doc

    def _get(self, path: str):
        return self._request("GET", path)

    def _post(self, path: str, body: Optional[dict] = None):
        return self._request("POST", path, body=body)

    # -- read side -----------------------------------------------------

    def cluster(self) -> Dict[str, object]:
        """``GET /v1/cluster``."""
        return self._get("/v1/cluster")

    def nodes(self) -> List[Dict[str, object]]:
        """``GET /v1/nodes``."""
        return self._get("/v1/nodes")

    def node(self, node_id: int) -> Dict[str, object]:
        """``GET /v1/nodes/<id>``."""
        return self._get(f"/v1/nodes/{node_id}")

    def flow(self, teid: int) -> Dict[str, object]:
        """``GET /v1/flows/<teid>``."""
        return self._get(f"/v1/flows/{teid}")

    def metrics(self) -> str:
        """``GET /v1/metrics`` — the raw Prometheus text page."""
        return self._get("/v1/metrics")

    def audit(self) -> Dict[str, object]:
        """``GET /v1/audit``."""
        return self._get("/v1/audit")

    # -- node verbs ----------------------------------------------------

    def drain(self, node_id: int) -> Dict[str, object]:
        """``POST /v1/nodes/<id>/drain``."""
        return self._post(f"/v1/nodes/{node_id}/drain")

    def join(self, node_id: int) -> Dict[str, object]:
        """``POST /v1/nodes/<id>/join`` (id must be the next node id)."""
        return self._post(f"/v1/nodes/{node_id}/join")

    def kill(self, node_id: int) -> Dict[str, object]:
        """``POST /v1/nodes/<id>/kill``."""
        return self._post(f"/v1/nodes/{node_id}/kill")

    def fence(self, node_id: int) -> Dict[str, object]:
        """``POST /v1/nodes/<id>/fence``."""
        return self._post(f"/v1/nodes/{node_id}/fence")

    def suspend(self, node_id: int) -> Dict[str, object]:
        """``POST /v1/nodes/<id>/suspend``."""
        return self._post(f"/v1/nodes/{node_id}/suspend")

    def resume(self, node_id: int) -> Dict[str, object]:
        """``POST /v1/nodes/<id>/resume``."""
        return self._post(f"/v1/nodes/{node_id}/resume")

    def repair(self, node_id: int) -> Dict[str, object]:
        """``POST /v1/nodes/<id>/repair``."""
        return self._post(f"/v1/nodes/{node_id}/repair")

    # -- cluster verbs -------------------------------------------------

    def updates(
        self, connects: int = 0, rehomes: int = 0, disconnects: int = 0,
    ) -> Dict[str, object]:
        """``POST /v1/updates`` — a seeded §4.5 churn batch."""
        return self._post("/v1/updates", {
            "connects": connects, "rehomes": rehomes,
            "disconnects": disconnects,
        })

    def traffic(self, packets: int = 200) -> Dict[str, object]:
        """``POST /v1/traffic`` — a differential traffic batch."""
        return self._post("/v1/traffic", {"packets": packets})

    def poll(self, rounds: int = 1) -> Dict[str, object]:
        """``POST /v1/poll`` — heartbeat round(s) + auto-fence sweep."""
        return self._post("/v1/poll", {"rounds": rounds})

    def shutdown(self) -> Dict[str, object]:
        """``POST /v1/shutdown`` — stop the cluster, report leaks."""
        return self._post("/v1/shutdown")
