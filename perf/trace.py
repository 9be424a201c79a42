"""Spans around the engine's layer boundaries, recorded from outside ``src/``.

:func:`install` replaces the layers' public callables (class attributes and
module functions) with wrappers that record one span per call while the
:class:`Recorder` is ``active`` and cost one flag test while it is not.  The
load generator installs them in its own process (the client and, for the
embedded analytics workload, the kernels); the server child installs the same
set when started with the trace flag and hands its spans back at shutdown.

A span is ``(id, parent, rid, name, tag, start_ns, end_ns, n)``: ``parent`` is
the enclosing span on the same thread, ``rid`` the request id shared by every
span one client request caused (it travels to the server as a ``trace_id``
key in the request payload, which the service ignores), ``n`` an optional
count taken at the same boundary (bytes encoded, edges frozen, ops replayed).
Timestamps are ``time.perf_counter_ns()``, which is ``CLOCK_MONOTONIC`` on
Linux and therefore comparable between the parent and the server child.

A layer's *self time* is its span minus the part its children cover; server
spans that carry a client request's ``rid`` and have no parent on their own
thread count as children of that client span, so what remains of the client
span is transport: connect, HTTP framing and JSON on both sides.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

SPAN_FIELDS = ("id", "parent", "rid", "name", "tag", "start", "end", "n")


class Recorder:
    """In-memory span sink for one process; written out only at exit."""

    def __init__(self, process: str) -> None:
        self.process = process
        self.active = False
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    def new_id(self) -> str:
        return f"{self.process}{next(self._ids)}"

    def recording(self) -> bool:
        return self.active and not getattr(self._local, "muted", False)

    @contextlib.contextmanager
    def muted(self):
        """Suspend recording on the calling thread only (untimed checks)."""
        self._local.muted = True
        try:
            yield
        finally:
            self._local.muted = False

    def _stack(self) -> list[tuple[str, str]]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def span(self, name: str, fn: Callable, args: tuple, kwargs: Mapping[str, Any],
             *, rid: str | None = None, tag: str | None = None,
             count: Callable[..., float] | None = None) -> Any:
        """Call ``fn(*args, **kwargs)`` inside a span named ``name``."""
        stack = self._stack()
        span_id = self.new_id()
        parent = None
        if stack:
            parent, inherited = stack[-1]
            rid = rid or inherited
        rid = rid or span_id
        stack.append((span_id, rid))
        n = None
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                n = count(result, args, kwargs)
            return result
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((span_id, parent, rid, name, tag, start, end, n))

    def drain(self) -> list[dict[str, Any]]:
        """Every span recorded so far, as dicts; the sink is left empty."""
        spans, self.spans = self.spans, []
        return [dict(zip(SPAN_FIELDS, span)) for span in spans]


def _patch(recorder: Recorder, owner: Any, attr: str, name: str | Callable, *,
           count: Callable | None = None) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper of itself."""
    raw = inspect.getattr_static(owner, attr)
    static = isinstance(raw, staticmethod)
    fn = raw.__func__ if static else raw

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not recorder.recording():
            return fn(*args, **kwargs)
        return recorder.span(name(args, kwargs) if callable(name) else name,
                             fn, args, kwargs, count=count)

    setattr(owner, attr, staticmethod(traced) if static else traced)


def _patch_client(recorder: Recorder) -> None:
    """``KaskadeClient.request`` starts a request id and sends it along."""
    from repro.service.client import KaskadeClient

    fn = KaskadeClient.request

    @functools.wraps(fn)
    def traced(self, method, path, payload=None, **kwargs):
        if not recorder.recording():
            return fn(self, method, path, payload, **kwargs)
        rid = recorder.new_id()
        if payload is not None:
            payload = {**payload, "trace_id": rid}
        return recorder.span("client.request", fn, (self, method, path, payload),
                             kwargs, rid=rid, tag=path)

    KaskadeClient.request = traced


def _patch_service(recorder: Recorder) -> None:
    """``GraphService.handle`` adopts the client's request id and passes it to
    the response, whose ``encode`` runs later on the event-loop thread."""
    from repro.service.server import GraphService, Response

    handle = GraphService.handle

    @functools.wraps(handle)
    def traced_handle(self, method, path, payload):
        if not recorder.recording():
            return handle(self, method, path, payload)
        rid = payload.get("trace_id") if isinstance(payload, Mapping) else None
        response = recorder.span("service.handle", handle,
                                 (self, method, path, payload), {}, rid=rid, tag=path)
        if rid is not None:
            response._trace_rid = rid
        return response

    GraphService.handle = traced_handle

    encode = Response.encode

    @functools.wraps(encode)
    def traced_encode(self):
        if not recorder.recording():
            return encode(self)
        return recorder.span("service.encode", encode, (self,), {},
                             rid=getattr(self, "_trace_rid", None),
                             count=lambda body, *_: len(body))

    Response.encode = traced_encode


def _patch_kernel_stats(recorder: Recorder) -> None:
    """Hand each CSR kernel a ``KernelStats`` so its span carries the edges it
    traversed (the public analytics functions do not expose the counter)."""
    from repro.analytics import kernels

    for attr in ("bulk_k_hop_counts", "label_propagation", "blast_radius_rows"):
        fn = getattr(kernels, attr)

        def traced(*args, _fn=fn, _name=f"kernel.{attr}", **kwargs):
            if not recorder.recording() or "stats" in kwargs:
                return _fn(*args, **kwargs)
            stats = kwargs["stats"] = kernels.KernelStats()
            return recorder.span(_name, _fn, args, kwargs,
                                 count=lambda *_: stats.traversal_edges)

        setattr(kernels, attr, functools.wraps(fn)(traced))


def install(process: str) -> Recorder:
    """Wrap every layer boundary in this process; returns the (inactive) sink."""
    from repro.analytics import community, traversal
    from repro.core.kaskade import Kaskade
    from repro.durability import manager as durability
    from repro.durability import wal
    from repro.durability.checkpoint import CheckpointManager
    from repro.query.plan import PhysicalExecutor
    from repro.service.admission import AdmissionController
    from repro.service.mvcc import SnapshotManager
    from repro.storage.manager import StorageManager
    from repro.storage.persistent import PersistentViewStore
    from repro.views.catalog import ViewCatalog

    recorder = Recorder(process)
    _patch_client(recorder)
    _patch_service(recorder)
    _patch_kernel_stats(recorder)
    patch = functools.partial(_patch, recorder)

    patch(AdmissionController, "admit", "service.admit")
    patch(SnapshotManager, "pin", "service.pin")
    patch(SnapshotManager, "commit", "service.commit")
    patch(Kaskade, "parse", "query.parse")
    patch(Kaskade, "plan_for", "query.plan")
    patch(Kaskade, "rewrite", "core.rewrite")
    patch(Kaskade, "select_views", "core.select")
    patch(Kaskade, "refresh_views", "views.refresh")
    patch(PhysicalExecutor, "execute", "query.execute")
    patch(ViewCatalog, "materialize", "views.materialize")
    patch(StorageManager, "freeze", "storage.freeze",
          count=lambda store, *_: store.num_edges)
    patch(PersistentViewStore, "load_views", "views.restore")
    patch(CheckpointManager, "load", "durability.checkpoint_load")
    patch(durability.DurabilityEngine, "log_batch", "durability.log_batch")
    patch(durability.DurabilityEngine, "log_marker", "durability.log_marker")
    patch(durability.DurabilityEngine, "checkpoint", "durability.checkpoint")
    patch(durability.DurabilityEngine, "recover", "durability.recover",
          count=lambda recovered, *_: recovered[1].replayed_ops)
    patch(wal.WriteAheadLog, "append", "durability.wal_append")
    patch(wal.WriteAheadLog, "sync", "durability.fsync")
    patch(wal, "encode_record", "durability.encode_record",
          count=lambda frame, *_: len(frame))
    # One interpreter, two references to it: WAL replay resolves the module
    # global, the live commit path a staticmethod bound at class creation.
    patch(durability, "apply_op", "graph.apply_op")
    patch(SnapshotManager, "_apply", "graph.apply_op")
    patch(traversal, "bulk_k_hop_counts",
          lambda args, kwargs: f"analytics.bulk_k_hop_{kwargs.get('direction', 'out')}")
    patch(traversal, "blast_radius", "analytics.blast_radius")
    patch(community, "label_propagation", "analytics.label_propagation")
    return recorder


# ------------------------------------------------------------------ analysis
def write_spans(spans: Iterable[Mapping[str, Any]], path: Path) -> None:
    with path.open("w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def read_spans(path: Path) -> list[dict[str, Any]]:
    with path.open("r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def self_times(spans: list[dict[str, Any]]) -> dict[str, int]:
    """``{span id: self time in ns}`` for every span (module docstring)."""
    covered: dict[str, int] = defaultdict(int)
    client_of = {s["rid"]: s["id"] for s in spans if s["name"] == "client.request"}
    for span in spans:
        parent = span["parent"]
        if parent is None and span["name"] != "client.request":
            parent = client_of.get(span["rid"])
        if parent is not None:
            covered[parent] += span["end"] - span["start"]
    return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in spans}

