"""Process-local metrics: counters, gauges and fixed-bucket histograms.

The paper's headline results are all *measurements* — lookup throughput
(Fig. 7), forwarding rate (Fig. 8), update latency (§6.2), load balance
(Table 1) — so the reproduction's data path must be observable without
perturbing it.  This module provides the substrate:

* :class:`Counter` / :class:`Gauge` — one attribute increment per event;
* :class:`Histogram` — fixed upper-bound buckets backed by a NumPy counts
  array, so the hot-path cost is one array increment (and batch
  observations are a single ``searchsorted`` + ``bincount``);
* :class:`MetricsRegistry` — the named instrument namespace with
  ``snapshot()`` / ``to_json()`` export and ``span()`` tracing
  (see :mod:`repro.obs.trace`);
* :class:`NullRegistry` / :data:`NULL_REGISTRY` — the shared disabled
  registry every instrumented component defaults to, making
  instrumentation zero-cost until a caller injects a real registry.

Instrumented components take ``registry`` as a constructor argument and
cache their instrument handles once, so the per-event cost with the null
registry is a single no-op method call.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

Number = Union[int, float]

#: Default histogram bucket upper bounds (unit-agnostic; spans use
#: :data:`LATENCY_BUCKETS_US`).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000,
    2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
)

#: Span-duration buckets in microseconds: 100 ns to 1 s.
LATENCY_BUCKETS_US: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500,
    1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 1_000_000,
)


class Counter:
    """A monotonically increasing count of events."""

    __slots__ = ("name", "description", "_value")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._value = 0

    @property
    def value(self) -> int:
        """Current count."""
        return self._value

    def inc(self, amount: int = 1) -> None:
        """Count ``amount`` more events."""
        self._value += amount

    def reset(self) -> None:
        """Zero the counter."""
        self._value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name}={self._value})"


class Gauge:
    """A value that can go up and down (queue depth, table size, ...)."""

    __slots__ = ("name", "description", "_value")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._value: Number = 0

    @property
    def value(self) -> Number:
        """Current level."""
        return self._value

    def set(self, value: Number) -> None:
        """Set the level."""
        self._value = value

    def inc(self, amount: Number = 1) -> None:
        """Raise the level."""
        self._value += amount

    def dec(self, amount: Number = 1) -> None:
        """Lower the level."""
        self._value -= amount

    def reset(self) -> None:
        """Return the level to zero."""
        self._value = 0

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self._value})"


class Histogram:
    """Fixed-bucket histogram: counts of observations per upper bound.

    Buckets are cumulative-style upper bounds (``value <= bound`` lands in
    that bucket); one extra overflow bucket catches everything beyond the
    last bound.  The counts live in a NumPy array so a scalar observation
    is one array increment and a batch observation is fully vectorised.
    """

    __slots__ = (
        "name", "description", "_bounds", "_bound_array", "_counts",
        "_count", "_sum", "_min", "_max",
    )

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        description: str = "",
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ValueError("buckets must be strictly increasing and non-empty")
        self.name = name
        self.description = description
        self._bounds = bounds
        #: The bounds as an array, for :meth:`observe_many`'s search.
        self._bound_array = np.array(bounds)
        self._counts = np.zeros(len(bounds) + 1, dtype=np.int64)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    # -- observation ---------------------------------------------------

    def observe(self, value: Number, count: int = 1) -> None:
        """Record ``count`` observations of ``value`` (one by default);
        the sum gains ``value * count`` in one addition."""
        self._counts[bisect_left(self._bounds, value)] += count
        self._count += count
        self._sum += value * count
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def observe_many(self, values: Union[Sequence[Number], np.ndarray]) -> None:
        """Record a batch of observations in one vectorised pass.

        The state is what :meth:`observe` one value at a time leaves, so
        a stream split into batches of any size leaves the same state:
        float values are added to the sum left to right (a running sum),
        integers as their exact total.  (Array and ufunc methods, not
        their ``np.`` wrappers: each wrapper is Python calls per batch.)
        """
        arr = np.asarray(values)
        if arr.size == 0:
            return
        self._counts += np.bincount(
            self._bound_array.searchsorted(arr), minlength=self._counts.size
        )
        self._count += arr.size
        if arr.dtype.kind == "f":
            running = np.empty(arr.size + 1)
            running[0] = self._sum
            running[1:] = arr
            self._sum = float(np.add.accumulate(running, out=running)[-1])
        else:
            self._sum += int(np.add.reduce(arr))
        self._min = min(self._min, float(np.minimum.reduce(arr)))
        self._max = max(self._max, float(np.maximum.reduce(arr)))

    # -- reading -------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    @property
    def mean(self) -> float:
        """Average observed value (0 when empty)."""
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        """Smallest observed value (0 when empty)."""
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        """Largest observed value (0 when empty)."""
        return self._max if self._count else 0.0

    @property
    def bucket_counts(self) -> Tuple[Tuple[Optional[float], int], ...]:
        """(upper bound, count) pairs; the overflow bound is ``None``."""
        bounds: Tuple[Optional[float], ...] = self._bounds + (None,)
        return tuple(zip(bounds, (int(c) for c in self._counts)))

    def quantile(self, q: float) -> float:
        """Approximate quantile from the bucket boundaries.

        Returns the upper bound of the bucket holding the ``q``-th
        observation (the observed maximum for the overflow bucket) — the
        usual fixed-bucket estimate, good to one bucket's resolution.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if not self._count:
            return 0.0
        target = q * self._count
        cumulative = 0
        for bound, count in zip(self._bounds, self._counts):
            cumulative += int(count)
            if cumulative >= target:
                return bound
        return self.max

    def reset(self) -> None:
        """Drop all observations."""
        self._counts[:] = 0
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready description of the histogram state."""
        return {
            "buckets": list(self._bounds),
            "counts": [int(c) for c in self._counts],
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}, count={self._count}, mean={self.mean:.3g})"


class MetricsRegistry:
    """A named namespace of instruments with snapshot/JSON export.

    Instruments are get-or-create by name (dots conventionally separate
    subsystem/direction, e.g. ``gateway.downstream.packets_in``); a name
    always refers to one instrument of one kind.  Components cache the
    handles they use at construction time, so the registry dict is only
    touched once per instrument, not per event.
    """

    #: Real registries record; :class:`NullRegistry` overrides to False so
    #: components can skip optional work entirely when disabled.
    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._spans: Dict[str, "Span"] = {}
        #: ``(dotted name, histogram, start time)`` of each open span.
        self._span_stack: list = []

    # -- instrument access ---------------------------------------------

    def _check_unique(self, name: str, kind: Dict[str, object]) -> None:
        for existing in (self._counters, self._gauges, self._histograms):
            if existing is not kind and name in existing:
                raise ValueError(
                    f"metric name {name!r} already registered as a different kind"
                )

    def counter(self, name: str, description: str = "") -> Counter:
        """Get or create the counter called ``name``."""
        found = self._counters.get(name)
        if found is None:
            self._check_unique(name, self._counters)
            found = self._counters[name] = Counter(name, description)
        return found

    def gauge(self, name: str, description: str = "") -> Gauge:
        """Get or create the gauge called ``name``."""
        found = self._gauges.get(name)
        if found is None:
            self._check_unique(name, self._gauges)
            found = self._gauges[name] = Gauge(name, description)
        return found

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        description: str = "",
    ) -> Histogram:
        """Get or create the histogram called ``name``."""
        found = self._histograms.get(name)
        if found is None:
            self._check_unique(name, self._histograms)
            found = self._histograms[name] = Histogram(name, buckets, description)
        return found

    def span(self, name: str) -> "Span":
        """A context manager timing one stage into a latency histogram.

        See :class:`repro.obs.trace.Span`; nested spans produce dotted
        names (``downstream.dpe``) recorded as ``span.<name>_us``.  The
        span for a name is made once and handed out again, so a caller
        may also keep it.
        """
        found = self._spans.get(name)
        if found is None:
            from repro.obs.trace import Span

            found = self._spans[name] = Span(self, name)
        return found

    # -- export --------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """All counter values by name."""
        return {name: c.value for name, c in sorted(self._counters.items())}

    def snapshot(self) -> Dict[str, object]:
        """One JSON-ready dict of every instrument's current state."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.snapshot()
                for name, h in sorted(self._histograms.items())
            },
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """The snapshot as a JSON document (the CLI's ``--json`` schema)."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def reset(self) -> None:
        """Zero every instrument (names and handles stay valid)."""
        for counter in self._counters.values():
            counter.reset()
        for gauge in self._gauges.values():
            gauge.reset()
        for histogram in self._histograms.values():
            histogram.reset()

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )


class _NullCounter(Counter):
    """A counter that never counts (shared by all null-registry users)."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:  # noqa: D102 - no-op
        pass


class _NullGauge(Gauge):
    """A gauge pinned at zero."""

    __slots__ = ()

    def set(self, value: Number) -> None:
        pass

    def inc(self, amount: Number = 1) -> None:
        pass

    def dec(self, amount: Number = 1) -> None:
        pass


class _NullHistogram(Histogram):
    """A histogram that records nothing."""

    __slots__ = ()

    def observe(self, value: Number, count: int = 1) -> None:
        pass

    def observe_many(self, values: Union[Sequence[Number], np.ndarray]) -> None:
        pass


class _NullSpan:
    """A reusable no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


class NullRegistry(MetricsRegistry):
    """The disabled registry: every instrument is a shared no-op.

    Instrumented components default to :data:`NULL_REGISTRY`, so with no
    registry injected the only per-event cost is a no-op method call on a
    shared singleton — nothing is allocated, nothing is recorded.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter("null")
        self._null_gauge = _NullGauge("null")
        self._null_histogram = _NullHistogram("null")
        self._null_span = _NullSpan()

    def counter(self, name: str, description: str = "") -> Counter:
        return self._null_counter

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._null_gauge

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        description: str = "",
    ) -> Histogram:
        return self._null_histogram

    def span(self, name: str) -> "_NullSpan":  # type: ignore[override]
        return self._null_span

    def __repr__(self) -> str:
        return "NullRegistry()"


#: The module-level disabled registry instrumented components default to.
NULL_REGISTRY = NullRegistry()


def resolve_registry(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """``registry`` if given, else the shared :data:`NULL_REGISTRY`."""
    return registry if registry is not None else NULL_REGISTRY
