"""Exception hierarchy shared across the Kaskade reproduction.

Every subpackage raises exceptions derived from :class:`KaskadeError` so that
callers embedding the library can catch a single base class, while tests can
assert on precise subclasses.
"""

from __future__ import annotations


class KaskadeError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SchemaError(KaskadeError):
    """Raised when a graph schema is malformed or a schema constraint is violated."""


class GraphError(KaskadeError):
    """Raised for invalid operations on a :class:`~repro.graph.PropertyGraph`."""


class VertexNotFoundError(GraphError):
    """Raised when a vertex id is referenced but not present in the graph."""

    def __init__(self, vertex_id: object) -> None:
        super().__init__(f"vertex {vertex_id!r} does not exist")
        self.vertex_id = vertex_id


class EdgeNotFoundError(GraphError):
    """Raised when an edge id is referenced but not present in the graph."""

    def __init__(self, edge_id: object) -> None:
        super().__init__(f"edge {edge_id!r} does not exist")
        self.edge_id = edge_id


class QueryError(KaskadeError):
    """Base class for query-layer errors."""


class QuerySyntaxError(QueryError):
    """Raised when the Cypher-like query text cannot be parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class QueryExecutionError(QueryError):
    """Raised when a parsed query cannot be evaluated against a graph."""


class InferenceError(KaskadeError):
    """Base class for errors in the Prolog-like inference engine."""


class UnknownPredicateError(InferenceError):
    """Raised when resolution reaches a predicate with no facts, rules, or builtin."""

    def __init__(self, name: str, arity: int) -> None:
        super().__init__(f"unknown predicate {name}/{arity}")
        self.name = name
        self.arity = arity


class ViewError(KaskadeError):
    """Base class for errors in view definition, materialization, or rewriting."""


class ViewNotMaterializedError(ViewError):
    """Raised when a rewrite references a view that is not in the catalog."""


class EstimationError(KaskadeError):
    """Raised when a view size estimate cannot be computed (e.g. missing stats)."""


class SelectionError(KaskadeError):
    """Raised when view selection is given an infeasible or malformed problem."""


class DatasetError(KaskadeError):
    """Raised when a synthetic dataset generator receives invalid parameters."""


class ServiceError(KaskadeError):
    """Base class for errors in the concurrent serving layer (:mod:`repro.service`)."""


class StaleSnapshotError(ServiceError):
    """Raised when a consumer's version fell behind what the system retains.

    Two producers raise it: :meth:`~repro.graph.changelog.ChangeLog.events_since`
    in strict mode, when the requested delta has been partially evicted from
    the bounded log (the floor version moved past the consumer); and
    :meth:`~repro.service.mvcc.SnapshotManager.pin`, when the requested
    snapshot version has already been reclaimed.  Either way the consumer
    cannot be served a consistent delta or frozen state for that version and
    must restart from a retained one.
    """

    def __init__(self, requested_version: int, floor_version: int,
                 what: str = "changelog delta") -> None:
        super().__init__(
            f"{what} for version {requested_version} is no longer available "
            f"(floor is {floor_version})")
        self.requested_version = requested_version
        self.floor_version = floor_version


class AdmissionError(ServiceError):
    """Raised when admission control sheds a request instead of serving it.

    Carries the machine-readable shed ``reason`` and the suggested
    ``retry_after_seconds`` the HTTP layer surfaces as a 429 + Retry-After.
    """

    def __init__(self, reason: str, retry_after_seconds: float = 0.0) -> None:
        super().__init__(f"request shed by admission control ({reason}); "
                         f"retry after {retry_after_seconds:.3f}s")
        self.reason = reason
        self.retry_after_seconds = retry_after_seconds


class DurabilityError(KaskadeError):
    """Base class for errors in the crash-safe durability layer
    (:mod:`repro.durability`)."""


class WALCorruptionError(DurabilityError):
    """Raised when the write-ahead log contains corruption that cannot be
    explained by a torn trailing write.

    A torn or checksum-failing record at the *tail* of the log is the
    expected signature of a crash mid-append and is tolerated (recovery stops
    there); a bad record *followed by valid data* means the log was damaged
    after it was written, which recovery must refuse to paper over.
    """


class RecoveryError(DurabilityError):
    """Raised when checkpoint + WAL replay cannot reproduce a consistent
    state (e.g. a replayed batch lands on a different graph version than the
    one its commit marker recorded)."""


class ClientError(ServiceError):
    """Base class for errors raised by the resilient service client
    (:mod:`repro.service.client`)."""


class DeadlineExceededError(ClientError):
    """Raised when a client request (including its retries) exhausted its
    per-request deadline before receiving a successful response."""
