"""Lightweight per-stage latency tracing.

A :class:`Span` times one named stage of the data path (ingress, SetSep
lookup, fabric hop, DPE, egress) and records the wall-clock duration in
microseconds into a registry histogram named ``span.<name>_us``.  Spans
nest: a span opened while another is active takes the active span's name
as a dotted prefix, so::

    with registry.span("downstream"):
        with registry.span("dpe"):
            ...

records into ``span.downstream_us`` and ``span.downstream.dpe_us``.

A span keeps no timing state of its own: entering pushes the resolved
histogram and the start time on its registry's span stack (one stack per
registry; the reproduction is single-threaded per data path), and leaving
pops them.  So one :class:`Span` per name serves every ``with`` block
that names it, nested in itself or not, and
:meth:`~repro.obs.metrics.MetricsRegistry.span` hands the same one out
each time.  Each span resolves the histogram of a dotted name once, the
first time it opens under that parent, and remembers it: a later block
pays one dict hit, a perf-counter pair and one ``observe``.
"""

from __future__ import annotations

import time
from typing import Dict, Tuple

from repro.obs.metrics import LATENCY_BUCKETS_US, Histogram, MetricsRegistry

_now = time.perf_counter


class Span:
    """Times each ``with`` block into ``span.<dotted name>_us``."""

    __slots__ = ("registry", "name", "_resolved")

    def __init__(self, registry: MetricsRegistry, name: str) -> None:
        if not name:
            raise ValueError("span name must be non-empty")
        self.registry = registry
        self.name = name
        #: Parent's dotted name ("" at the top) -> (this span's dotted
        #: name there, its histogram).
        self._resolved: Dict[str, Tuple[str, Histogram]] = {}

    def __enter__(self) -> "Span":
        stack = self.registry._span_stack
        parent = stack[-1][0] if stack else ""
        resolved = self._resolved.get(parent) or self._resolve(parent)
        stack.append((*resolved, _now()))
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        _name, histogram, started = self.registry._span_stack.pop()
        histogram.observe((_now() - started) * 1e6)
        return False

    def _resolve(self, parent: str) -> Tuple[str, Histogram]:
        full_name = f"{parent}.{self.name}" if parent else self.name
        resolved = self._resolved[parent] = (
            full_name,
            self.registry.histogram(
                span_histogram_name(full_name), buckets=LATENCY_BUCKETS_US
            ),
        )
        return resolved

    def __repr__(self) -> str:
        return f"Span({self.name})"


def span_histogram_name(name: str) -> str:
    """Registry histogram name for a (dotted) span name."""
    return f"span.{name}_us"
