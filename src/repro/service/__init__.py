"""Concurrent graph service: MVCC snapshots, admission control, metrics, HTTP.

The serving layer for the Kaskade engine.  :class:`SnapshotManager` provides
snapshot-isolated reads over single-writer commits;
:class:`AdmissionController` sheds load with budgets, bounded queueing, and
token buckets; :class:`ServiceMetrics` exposes Prometheus-format telemetry;
:class:`GraphService` ties them together behind HTTP via
:class:`KaskadeHTTPServer` (stdlib asyncio).
Commits become crash-safe when a :class:`~repro.durability.DurabilityEngine`
is threaded through (``GraphService.open_durable``), and
:class:`KaskadeClient` gives callers retries and deadlines over the whole
stack.
"""

from repro.durability import MUTATION_OPS
from repro.service.admission import (
    SHED_REASONS,
    AdmissionController,
    AdmissionPolicy,
    Ticket,
    TokenBucket,
)
from repro.service.client import (
    RETRYABLE_STATUSES,
    ClientResponse,
    KaskadeClient,
    RetryPolicy,
)
from repro.service.metrics import (
    CallbackCounter,
    CallbackGauge,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ServiceMetrics,
)
from repro.service.mvcc import (
    CommitResult,
    Snapshot,
    SnapshotManager,
    SnapshotView,
)
from repro.service.server import (
    GraphService,
    KaskadeHTTPServer,
    Response,
    ServerHandle,
    serve_in_thread,
)

__all__ = [
    "SHED_REASONS",
    "AdmissionController",
    "AdmissionPolicy",
    "Ticket",
    "TokenBucket",
    "RETRYABLE_STATUSES",
    "ClientResponse",
    "KaskadeClient",
    "RetryPolicy",
    "CallbackCounter",
    "CallbackGauge",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ServiceMetrics",
    "MUTATION_OPS",
    "CommitResult",
    "Snapshot",
    "SnapshotManager",
    "SnapshotView",
    "GraphService",
    "KaskadeHTTPServer",
    "Response",
    "ServerHandle",
    "serve_in_thread",
]
