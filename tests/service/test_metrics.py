"""Metrics instruments and Prometheus text exposition."""

import threading

import pytest

from repro.service.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ServiceMetrics,
)


class TestCounter:
    def test_inc_and_labels(self):
        counter = Counter("requests_total", "requests")
        counter.inc()
        counter.inc(2, status="ok")
        counter.inc(status="err")
        assert counter.value() == 1
        assert counter.value(status="ok") == 2
        assert counter.total == 4

    def test_counters_cannot_decrease(self):
        counter = Counter("x_total", "x")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_render_format(self):
        counter = Counter("hits_total", "cache hits")
        counter.inc(3, cache="plan")
        lines = counter.render()
        assert lines[0] == "# HELP hits_total cache hits"
        assert lines[1] == "# TYPE hits_total counter"
        assert 'hits_total{cache="plan"} 3' in lines

    def test_thread_safe_increments(self):
        counter = Counter("n_total", "n")

        def bump():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value() == 8000


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("inflight", "in flight")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value() == 4


class TestHistogram:
    def test_bucket_counts_are_cumulative(self):
        hist = Histogram("lat", "latency", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.05, 0.5, 5.0):
            hist.observe(value)
        samples = {(suffix, labels.get("le")): value
                   for suffix, labels, value in hist.samples()}
        assert samples[("_bucket", "0.01")] == 1
        assert samples[("_bucket", "0.1")] == 3
        assert samples[("_bucket", "1")] == 4
        assert samples[("_bucket", "+Inf")] == 5
        assert samples[("_count", None)] == 5
        assert samples[("_sum", None)] == pytest.approx(5.605)

    def test_quantile_upper_bound(self):
        hist = Histogram("lat", "latency", buckets=(0.01, 0.1, 1.0))
        for _ in range(90):
            hist.observe(0.005)
        for _ in range(10):
            hist.observe(0.5)
        assert hist.quantile(0.5) == 0.01
        assert hist.quantile(0.99) == 1.0


class TestRegistry:
    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        a = registry.counter("c_total", "c")
        b = registry.counter("c_total", "c")
        assert a is b

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("m", "m")
        with pytest.raises(ValueError):
            registry.gauge("m", "m")

    def test_render_ends_with_newline(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "a").inc()
        text = registry.render()
        assert text.endswith("\n")
        assert "# TYPE a_total counter" in text

    def test_callback_gauge_sampled_at_scrape(self):
        registry = MetricsRegistry()
        state = {"value": 1.0}
        registry.gauge_callback("dyn", "dynamic", lambda: state["value"])
        assert "dyn 1" in registry.render()
        state["value"] = 7.0
        assert "dyn 7" in registry.render()

    def test_callback_gauge_with_label_sets(self):
        registry = MetricsRegistry()
        registry.gauge_callback(
            "pins", "pins",
            lambda: [({"version": "3"}, 2.0), ({"version": "4"}, 0.0)])
        text = registry.render()
        assert 'pins{version="3"} 2' in text
        assert 'pins{version="4"} 0' in text


class TestServiceMetrics:
    def _outcome(self, elapsed=0.01, work=5, cache_hit=True, view=None):
        class Stats:
            total_work = work

        class Result:
            stats = Stats()

        class Outcome:
            elapsed_seconds = elapsed
            result = Result()
            plan_cache_hit = cache_hit
            used_view = view
            used_view_name = view

        return Outcome()

    def test_observe_query_routes_to_instruments(self):
        metrics = ServiceMetrics()
        metrics.observe_query(self._outcome(cache_hit=True))
        metrics.observe_query(self._outcome(cache_hit=False, view="conn"))
        assert metrics.query_latency.count == 2
        assert metrics.plan_cache_hits.total == 1
        assert metrics.plan_cache_misses.total == 1
        assert metrics.view_hits.value(view="conn") == 1
        assert metrics.view_misses.total == 1
        assert metrics.work_total.total == 10
        assert metrics.queries_total.value(status="ok") == 2

    def test_observe_shed_and_commit(self):
        metrics = ServiceMetrics()
        metrics.observe_shed("overloaded")
        metrics.observe_commit(12)
        metrics.observe_error("stale")
        text = metrics.render()
        assert 'kaskade_shed_requests_total{reason="overloaded"} 1' in text
        assert "kaskade_commits_total 1" in text
        assert "kaskade_mutations_total 12" in text
        assert 'kaskade_queries_total{status="stale"} 1' in text

    def test_exposition_has_required_series(self):
        metrics = ServiceMetrics()
        metrics.observe_query(self._outcome())
        text = metrics.render()
        assert "# TYPE kaskade_query_latency_seconds histogram" in text
        assert "kaskade_query_latency_seconds_bucket" in text
        assert "kaskade_query_latency_seconds_sum" in text
        assert "kaskade_query_latency_seconds_count 1" in text
