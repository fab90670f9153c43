"""The operator control plane: REST API daemon, client and fencing.

Three layers, each usable on its own:

* :class:`ClusterOps` (:mod:`repro.ops.manager`) — the management
  facade owning one live deployment (daemon processes, socket
  controller, shadow gateway) with typed errors and a lock that
  serialises concurrent mutation;
* :class:`OpsApiServer` (:mod:`repro.ops.api`) — the stdlib HTTP
  daemon exposing it as a versioned JSON API (``/v1/...``) plus a
  Prometheus ``/v1/metrics`` page;
* :class:`OpsClient` (:mod:`repro.ops.client`) — the HTTP client the
  ``repro ctl`` CLI, the fence drill and the CI smoke job speak.

Start one from the command line with ``repro serve-api`` and drive it
with ``repro ctl`` — see ``docs/operator.md`` for the walkthrough.
"""

from repro.ops.api import API_PREFIX, OpsApiServer
from repro.ops.client import OpsApiError, OpsClient
from repro.ops.manager import (
    BadRequestError,
    ClusterOps,
    ConflictError,
    NotFoundError,
    OpsError,
)

__all__ = [
    "API_PREFIX",
    "OpsApiServer",
    "OpsApiError",
    "OpsClient",
    "BadRequestError",
    "ClusterOps",
    "ConflictError",
    "NotFoundError",
    "OpsError",
]
