"""Dependency-free metrics: counters, gauges, histograms, Prometheus text.

The serving layer needs the observability surface of a production graph tier
(query latency, plan-cache and view hit rates, snapshot pin counts,
maintenance lag, shed requests) without adding a client-library dependency.
This module implements the minimal instrument set and the Prometheus text
exposition format (``GET /metrics``) over plain stdlib:

* :class:`Counter` — monotonically increasing, optionally labelled;
* :class:`Gauge` — settable point-in-time value, optionally labelled;
* :class:`Histogram` — fixed buckets with ``_bucket``/``_sum``/``_count``
  series, cumulative ``le`` semantics;
* callback gauges (:meth:`MetricsRegistry.gauge_callback`) — sampled at
  scrape time, for values owned elsewhere (pin counts per snapshot version,
  versions-behind-head lag, in-flight admission slots).

Every instrument is thread-safe: increments and observations take a small
per-metric lock.  That lock is *not* on the query hot path — queries execute
entirely against frozen snapshots and record their metrics once, after the
rows are produced.

:class:`ServiceMetrics` bundles the standard instruments of the graph
service and plugs into :class:`~repro.core.kaskade.Kaskade` through the
``metrics`` attribute: every ``execute()`` hands its
:class:`~repro.core.kaskade.QueryOutcome` to :meth:`ServiceMetrics.observe_query`.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Mapping, Sequence

#: Default latency buckets (seconds): sub-millisecond through multi-second.
DEFAULT_LATENCY_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                           0.1, 0.25, 0.5, 1.0, 2.5, 5.0)


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        '%s="%s"' % (key, str(value).replace("\\", r"\\").replace('"', r"\""))
        for key, value in sorted(labels.items()))
    return "{" + inner + "}"


class _Metric:
    """Shared bookkeeping: name, help text, per-metric lock, labelled children."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str) -> None:
        self.name = name
        self.help = help_text
        self._lock = threading.Lock()

    def samples(self) -> Iterable[tuple[str, Mapping[str, str], float]]:
        raise NotImplementedError

    def render(self) -> list[str]:
        lines = [f"# HELP {self.name} {self.help}",
                 f"# TYPE {self.name} {self.kind}"]
        for suffix, labels, value in self.samples():
            lines.append(f"{self.name}{suffix}{_format_labels(labels)} "
                         f"{_format_value(value)}")
        return lines


class Counter(_Metric):
    """A monotonically increasing value, optionally split by one label set."""

    kind = "counter"

    def __init__(self, name: str, help_text: str) -> None:
        super().__init__(name, help_text)
        self._values: dict[tuple[tuple[str, str], ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        key = tuple(sorted(labels.items()))
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        key = tuple(sorted(labels.items()))
        with self._lock:
            return self._values.get(key, 0.0)

    @property
    def total(self) -> float:
        with self._lock:
            return sum(self._values.values())

    def samples(self):
        with self._lock:
            items = list(self._values.items())
        if not items:
            items = [((), 0.0)]
        return [("", dict(key), value) for key, value in items]


class Gauge(_Metric):
    """A point-in-time value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str) -> None:
        super().__init__(name, help_text)
        self._values: dict[tuple[tuple[str, str], ...], float] = {}

    def set(self, value: float, **labels: str) -> None:
        key = tuple(sorted(labels.items()))
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = tuple(sorted(labels.items()))
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        key = tuple(sorted(labels.items()))
        with self._lock:
            return self._values.get(key, 0.0)

    def samples(self):
        with self._lock:
            items = list(self._values.items())
        if not items:
            items = [((), 0.0)]
        return [("", dict(key), value) for key, value in items]


class CallbackGauge(_Metric):
    """A gauge whose value(s) are sampled from a callback at scrape time.

    The callback returns either a single number or an iterable of
    ``(labels_dict, value)`` pairs (for per-snapshot pin counts and similar
    dynamic label sets).
    """

    kind = "gauge"

    def __init__(self, name: str, help_text: str,
                 collect: Callable[[], float | Iterable[tuple[Mapping[str, str], float]]]) -> None:
        super().__init__(name, help_text)
        self._collect = collect

    def samples(self):
        collected = self._collect()
        if isinstance(collected, (int, float)):
            return [("", {}, float(collected))]
        return [("", dict(labels), float(value)) for labels, value in collected]


class CallbackCounter(CallbackGauge):
    """A counter whose value is owned elsewhere and sampled at scrape time.

    Used for totals the durability engine already tracks (WAL records
    appended, batches replayed) — the engine stays metrics-agnostic and the
    scrape reads its counters through a callback.
    """

    kind = "counter"


class Histogram(_Metric):
    """Fixed-bucket histogram with Prometheus cumulative-``le`` exposition."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        super().__init__(name, help_text)
        self.buckets = tuple(sorted(buckets))
        self._counts = [0] * (len(self.buckets) + 1)  # last slot: +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[index] += 1
                    return
            self._counts[-1] += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Approximate quantile from bucket bounds (upper bound of the bucket
        the q-th observation falls in; +Inf collapses to the largest bound)."""
        with self._lock:
            total = self._count
            counts = list(self._counts)
        if total == 0:
            return 0.0
        target = q * total
        cumulative = 0
        for index, bound in enumerate(self.buckets):
            cumulative += counts[index]
            if cumulative >= target:
                return bound
        return self.buckets[-1] if self.buckets else float("inf")

    def samples(self):
        with self._lock:
            counts = list(self._counts)
            total_sum, total_count = self._sum, self._count
        out = []
        cumulative = 0
        for index, bound in enumerate(self.buckets):
            cumulative += counts[index]
            out.append(("_bucket", {"le": _format_value(bound)}, cumulative))
        out.append(("_bucket", {"le": "+Inf"}, total_count))
        out.append(("_sum", {}, total_sum))
        out.append(("_count", {}, total_count))
        return out


class MetricsRegistry:
    """An ordered collection of metrics with one text-exposition endpoint."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()
        # Registered first so a scrape that drops a broken metric still
        # reports *that it dropped one* on the same page.
        self.callback_errors = self.counter(
            "kaskade_metrics_callback_errors_total",
            "Metrics whose render raised during a scrape, by metric name "
            "(the scrape itself never fails)")

    def _register(self, metric: _Metric) -> _Metric:
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                if type(existing) is not type(metric):
                    raise ValueError(
                        f"metric {metric.name!r} already registered with a "
                        f"different type")
                return existing
            self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help_text: str) -> Counter:
        return self._register(Counter(name, help_text))  # type: ignore[return-value]

    def gauge(self, name: str, help_text: str) -> Gauge:
        return self._register(Gauge(name, help_text))  # type: ignore[return-value]

    def gauge_callback(self, name: str, help_text: str, collect) -> CallbackGauge:
        return self._register(CallbackGauge(name, help_text, collect))  # type: ignore[return-value]

    def counter_callback(self, name: str, help_text: str, collect) -> CallbackCounter:
        return self._register(CallbackCounter(name, help_text, collect))  # type: ignore[return-value]

    def histogram(self, name: str, help_text: str,
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> Histogram:
        return self._register(Histogram(name, help_text, buckets))  # type: ignore[return-value]

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def render(self) -> str:
        """The full registry in Prometheus text exposition format.

        Hardened: a metric whose render raises (typically a callback gauge
        sampling an object that is mid-teardown) is skipped and counted in
        ``kaskade_metrics_callback_errors_total`` instead of failing the
        whole scrape — ``GET /metrics`` must never 500.
        """
        with self._lock:
            metrics = list(self._metrics.values())
        lines: list[str] = []
        for metric in metrics:
            if metric is self.callback_errors:
                continue  # rendered last, so this scrape's drops show up in it
            try:
                rendered = metric.render()
            except Exception:  # noqa: BLE001 - scrape must survive any metric
                self.callback_errors.inc(metric=metric.name)
                rendered = [f"# HELP {metric.name} {metric.help}",
                            f"# TYPE {metric.name} {metric.kind}"]
            lines.extend(rendered)
        lines.extend(self.callback_errors.render())
        return "\n".join(lines) + "\n"


class ServiceMetrics:
    """The graph service's standard instrument set over one registry.

    Attach to a :class:`~repro.core.kaskade.Kaskade` instance via
    ``kaskade.metrics = service_metrics`` (done by
    :class:`~repro.service.server.GraphService`); every executed query's
    :class:`~repro.core.kaskade.QueryOutcome` then flows through
    :meth:`observe_query`.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry or MetricsRegistry()
        r = self.registry
        self.query_latency = r.histogram(
            "kaskade_query_latency_seconds",
            "End-to-end latency of served queries")
        self.queries_total = r.counter(
            "kaskade_queries_total",
            "Queries by terminal status (ok/shed/stale/error)")
        self.plan_cache_hits = r.counter(
            "kaskade_plan_cache_hits_total",
            "Executed queries whose plan was served from the plan cache")
        self.plan_cache_misses = r.counter(
            "kaskade_plan_cache_misses_total",
            "Executed queries that had to be planned from scratch")
        self.view_hits = r.counter(
            "kaskade_view_hits_total",
            "Queries answered through a materialized-view rewrite")
        self.view_misses = r.counter(
            "kaskade_view_misses_total",
            "Queries answered from the base graph")
        self.shed_total = r.counter(
            "kaskade_shed_requests_total",
            "Requests rejected by admission control, by reason")
        self.mutations_total = r.counter(
            "kaskade_mutations_total",
            "Topological mutations applied through the commit path")
        self.commits_total = r.counter(
            "kaskade_commits_total",
            "Write batches committed (each publishes one snapshot version)")
        self.work_total = r.counter(
            "kaskade_query_work_total",
            "Traversal work (vertices scanned + edges expanded) of served queries")
        self.wal_fsync_latency = r.histogram(
            "kaskade_wal_fsync_latency_seconds",
            "Duration of WAL segment fsyncs (the commit acknowledgement "
            "critical path)",
            buckets=(0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
                     0.025, 0.05, 0.1, 0.25, 1.0))
        self.injected_faults = r.counter(
            "kaskade_injected_faults_total",
            "Faults the chaos injector actually fired, by point and mode")
        self.kernel_dispatch = r.counter(
            "kaskade_kernel_dispatch_total",
            "Kernel tier decisions (path=vectorized/reference) made "
            "while this registry is subscribed")
        # Pre-seed both tiers so /metrics always exposes both series,
        # then mirror the analytics dispatcher's decisions into the counter.
        # The subscription holds only a weak reference, so a discarded
        # ServiceMetrics (and its registry) is dropped automatically.
        for path in ("vectorized", "reference"):
            self.kernel_dispatch.inc(0.0, path=path)
        from repro.analytics import kernels

        kernels.subscribe_dispatch(self.kernel_dispatch)

    # ------------------------------------------------------------- observers
    def observe_query(self, outcome) -> None:
        """Record one executed query's latency, plan-cache, and view usage."""
        self.query_latency.observe(outcome.elapsed_seconds)
        self.queries_total.inc(status="ok")
        self.work_total.inc(outcome.result.stats.total_work)
        if outcome.plan_cache_hit is not None:
            (self.plan_cache_hits if outcome.plan_cache_hit
             else self.plan_cache_misses).inc()
        if outcome.used_view is not None:
            self.view_hits.inc(view=outcome.used_view_name or "?")
        else:
            self.view_misses.inc()

    def observe_shed(self, reason: str) -> None:
        self.queries_total.inc(status="shed")
        self.shed_total.inc(reason=reason)

    def observe_error(self, status: str = "error") -> None:
        self.queries_total.inc(status=status)

    def observe_commit(self, mutations: int) -> None:
        self.commits_total.inc()
        self.mutations_total.inc(mutations)

    # ---------------------------------------------------------- registration
    def bind_snapshots(self, snapshots) -> None:
        """Register callback gauges over a :class:`SnapshotManager`."""
        r = self.registry
        r.gauge_callback(
            "kaskade_snapshot_pins",
            "Active reader pins per retained snapshot version",
            lambda: [({"version": str(info["version"])}, info["pins"])
                     for info in snapshots.describe()])
        r.gauge_callback(
            "kaskade_snapshots_retained",
            "Snapshot versions currently retained",
            lambda: float(len(snapshots.versions())))
        r.gauge_callback(
            "kaskade_maintenance_lag_versions",
            "Versions the oldest pinned snapshot trails behind head",
            lambda: float(snapshots.maintenance_lag()))
        r.gauge_callback(
            "kaskade_changelog_floor_version",
            "Oldest graph version the mutation log can still replay from",
            lambda: float(snapshots.changelog_floor()))
        r.gauge_callback(
            "kaskade_head_version",
            "Graph version of the current head snapshot",
            lambda: float(snapshots.head_version()))

    def bind_durability(self, engine) -> None:
        """Wire a :class:`~repro.durability.DurabilityEngine` into the scrape.

        The WAL's fsync observer feeds the latency histogram; record,
        replay, and checkpoint totals are sampled from the engine's own
        counters at scrape time.
        """
        engine.wal.fsync_observer = self.wal_fsync_latency.observe
        r = self.registry
        r.counter_callback(
            "kaskade_wal_records_total",
            "WAL records appended (batches + markers) by the live engine",
            lambda: float(engine.wal.records_appended))
        r.counter_callback(
            "kaskade_wal_replayed_records_total",
            "WAL records read back by recovery passes",
            lambda: float(engine.counters["replayed_records"]))
        r.counter_callback(
            "kaskade_wal_replayed_batches_total",
            "Acknowledged commit batches re-applied by recovery passes",
            lambda: float(engine.counters["replayed_batches"]))
        r.counter_callback(
            "kaskade_checkpoints_total",
            "Checkpoints written (baseline, periodic, and post-recovery)",
            lambda: float(engine.counters["checkpoints_written"]))
        r.gauge_callback(
            "kaskade_wal_segments",
            "WAL segment files currently on disk",
            lambda: float(len(engine.wal.segment_paths())))
        r.gauge_callback(
            "kaskade_commits_since_checkpoint",
            "Durable commits accumulated since the last checkpoint",
            lambda: float(engine.describe()["commits_since_checkpoint"]))
        r.gauge_callback(
            "kaskade_durability_ready",
            "1 once recovery/initialization completed and commits are "
            "accepted, else 0",
            lambda: 1.0 if engine.ready else 0.0)

    def bind_faults(self, injector) -> None:
        """Mirror every injected fault into ``kaskade_injected_faults_total``."""
        injector.attach_counter(self.injected_faults)

    def bind_admission(self, admission) -> None:
        """Register callback gauges over an :class:`AdmissionController`."""
        r = self.registry
        r.gauge_callback(
            "kaskade_inflight_requests",
            "Requests currently holding an admission slot",
            lambda: float(admission.in_flight))
        r.gauge_callback(
            "kaskade_queued_requests",
            "Requests waiting in the bounded admission queue",
            lambda: float(admission.queued))

    def render(self) -> str:
        return self.registry.render()
