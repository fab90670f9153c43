"""The observability layer: instruments, spans, null registry, export."""

import json

import numpy as np
import pytest

from repro.obs import (
    LATENCY_BUCKETS_US,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    resolve_registry,
    span_histogram_name,
)


class TestCounter:
    def test_counts(self):
        c = Counter("c")
        assert c.value == 0
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_reset(self):
        c = Counter("c")
        c.inc(7)
        c.reset()
        assert c.value == 0


class TestGauge:
    def test_moves_both_ways(self):
        g = Gauge("g")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value == 12
        g.reset()
        assert g.value == 0


class TestHistogram:
    def test_bucket_placement(self):
        h = Histogram("h", buckets=(1, 10, 100))
        for v in (0.5, 1.0, 5, 50, 5000):
            h.observe(v)
        counts = dict(h.bucket_counts)
        # <=1 gets 0.5 and 1.0; <=10 gets 5; <=100 gets 50; overflow 5000.
        assert counts[1.0] == 2
        assert counts[10.0] == 1
        assert counts[100.0] == 1
        assert counts[None] == 1
        assert h.count == 5
        assert h.sum == pytest.approx(5056.5)
        assert h.min == 0.5
        assert h.max == 5000

    def test_observe_many_matches_scalar(self):
        values = np.array([0.2, 3.0, 12.5, 99.0, 1e6])
        one = Histogram("one", buckets=(1, 10, 100))
        many = Histogram("many", buckets=(1, 10, 100))
        for v in values:
            one.observe(float(v))
        many.observe_many(values)
        assert one.bucket_counts == many.bucket_counts
        assert one.count == many.count
        assert one.sum == pytest.approx(many.sum)
        assert (one.min, one.max) == (many.min, many.max)

    def test_observe_with_a_count_is_that_many_observations(self):
        once = Histogram("once", buckets=(16, 128, 256))
        repeated = Histogram("repeated", buckets=(16, 128, 256))
        for value, count in ((97, 3), (161, 1), (97, 2)):
            once.observe(value, count)
            for _ in range(count):
                repeated.observe(value)
        assert once.snapshot() == repeated.snapshot()
        assert once.count == 6 and once.sum == 97 * 5 + 161

    def test_quantile_estimate(self):
        h = Histogram("h", buckets=(1, 2, 4, 8))
        h.observe_many([0.5] * 50 + [3.0] * 45 + [7.0] * 5)
        assert h.quantile(0.5) == 1.0
        assert h.quantile(0.99) == 8.0

    def test_empty_stats_are_zero(self):
        h = Histogram("h")
        assert (h.count, h.sum, h.mean, h.min, h.max) == (0, 0.0, 0.0, 0.0, 0.0)
        assert h.quantile(0.99) == 0.0

    def test_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1, 1, 2))


class TestMetricsRegistry:
    def test_get_or_create_is_stable(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert r.gauge("g") is r.gauge("g")
        assert r.histogram("h") is r.histogram("h")

    def test_name_kind_collision_rejected(self):
        r = MetricsRegistry()
        r.counter("x")
        with pytest.raises(ValueError):
            r.gauge("x")
        with pytest.raises(ValueError):
            r.histogram("x")

    def test_reset_zeroes_but_keeps_handles(self):
        r = MetricsRegistry()
        c = r.counter("c")
        h = r.histogram("h")
        c.inc(3)
        h.observe(1.0)
        r.reset()
        assert c.value == 0 and h.count == 0
        c.inc()
        assert r.counter("c").value == 1

    def test_snapshot_json_round_trip(self):
        r = MetricsRegistry()
        r.counter("pkts").inc(7)
        r.gauge("depth").set(3)
        r.histogram("lat", buckets=(1, 10)).observe(2.5)
        parsed = json.loads(r.to_json())
        assert parsed == json.loads(json.dumps(r.snapshot()))
        assert parsed["counters"]["pkts"] == 7
        assert parsed["gauges"]["depth"] == 3
        assert parsed["histograms"]["lat"]["count"] == 1
        assert parsed["histograms"]["lat"]["buckets"] == [1.0, 10.0]


class TestSpans:
    def test_span_records_into_latency_histogram(self):
        r = MetricsRegistry()
        with r.span("stage"):
            pass
        h = r.histogram(span_histogram_name("stage"))
        assert h.count == 1
        assert h.sum >= 0.0
        assert tuple(h.snapshot()["buckets"]) == LATENCY_BUCKETS_US

    def test_nested_spans_take_dotted_names(self):
        r = MetricsRegistry()
        with r.span("outer"):
            with r.span("inner"):
                pass
            with r.span("inner"):
                pass
        snap = r.snapshot()["histograms"]
        assert snap[span_histogram_name("outer")]["count"] == 1
        assert snap[span_histogram_name("outer.inner")]["count"] == 2
        assert span_histogram_name("inner") not in snap

    def test_span_stack_unwinds_on_error(self):
        r = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with r.span("outer"):
                raise RuntimeError("boom")
        # The stack is clean: a later span is not treated as nested.
        with r.span("later"):
            pass
        assert span_histogram_name("later") in r.snapshot()["histograms"]

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            MetricsRegistry().span("")

    def test_one_span_per_name_serves_every_block(self):
        """The span of a name is handed out again and keeps no timing
        state of its own: it nests in itself, and each dotted name it
        opens under keeps its own histogram across a reset."""
        r = MetricsRegistry()
        span = r.span("stage")
        assert r.span("stage") is span
        for rounds in range(3):
            if rounds == 1:
                r.reset()
            with span:
                with r.span("stage"):
                    pass
        with r.span("outer"):
            with span:
                pass
        snap = r.snapshot()["histograms"]
        assert snap[span_histogram_name("stage")]["count"] == 2
        assert snap[span_histogram_name("stage.stage")]["count"] == 2
        assert snap[span_histogram_name("outer.stage")]["count"] == 1
        assert r._span_stack == []


class TestNullRegistry:
    def test_shared_singletons_record_nothing(self):
        assert NULL_REGISTRY.counter("a") is NULL_REGISTRY.counter("b")
        NULL_REGISTRY.counter("a").inc(100)
        assert NULL_REGISTRY.counter("a").value == 0
        NULL_REGISTRY.gauge("g").set(5)
        assert NULL_REGISTRY.gauge("g").value == 0
        NULL_REGISTRY.histogram("h").observe(1.0)
        NULL_REGISTRY.histogram("h").observe_many([1.0, 2.0])
        assert NULL_REGISTRY.histogram("h").count == 0

    def test_null_span_is_a_shared_noop(self):
        span = NULL_REGISTRY.span("anything")
        assert span is NULL_REGISTRY.span("other")
        with span:
            pass
        assert NULL_REGISTRY.snapshot()["histograms"] == {}

    def test_enabled_flag(self):
        assert MetricsRegistry().enabled
        assert not NullRegistry().enabled

    def test_resolve_registry(self):
        assert resolve_registry(None) is NULL_REGISTRY
        live = MetricsRegistry()
        assert resolve_registry(live) is live
