"""Observability: metrics registry and per-stage latency tracing.

The reproduction's hot paths (SetSep lookups, cluster routing, the EPC
gateway, the update protocol) all accept an
injectable :class:`MetricsRegistry` and default to the shared
:data:`NULL_REGISTRY`, so instrumentation costs nothing until a caller
opts in::

    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    gateway = EpcGateway(..., registry=registry)
    ...
    print(registry.to_json(indent=2))

``repro stats`` and ``repro gateway --metrics-json`` expose the same
snapshot from the command line; :func:`prometheus_text` renders one or
more registries in the Prometheus text exposition format (served by the
operator API's ``GET /v1/metrics``).
"""

from repro.obs.exposition import CONTENT_TYPE, metric_name, prometheus_text
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    LATENCY_BUCKETS_US,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    resolve_registry,
)
from repro.obs.trace import Span, span_histogram_name

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Span",
    "span_histogram_name",
    "resolve_registry",
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS_US",
    "CONTENT_TYPE",
    "metric_name",
    "prometheus_text",
]
