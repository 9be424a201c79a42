"""Concurrent graph service: asyncio HTTP front end over the MVCC layer.

Two layers:

* :class:`GraphService` is the protocol-agnostic core — it ties a
  :class:`~repro.service.mvcc.SnapshotManager`, an
  :class:`~repro.service.admission.AdmissionController`, and a
  :class:`~repro.service.metrics.ServiceMetrics` registry together and maps
  request payloads to (status, body) pairs.  Tests and embedders can drive
  it directly without sockets.
* :class:`KaskadeHTTPServer` is a stdlib-only ``asyncio`` HTTP/1.1 front end
  (no new hard dependency): the event loop parses requests and writes
  responses, while query/mutate work runs on a thread pool sized to the
  admission policy so the loop never blocks on graph traversal.

Endpoints::

    POST /query      {"query": "MATCH ...", "max_work": 10000,
                      "client": "alice", "version": 42, "use_views": true}
    POST /mutate     {"ops": [{"op": "add_edge", "source": ..., ...}]}
    GET  /views      materialized views + freshness
    GET  /snapshots  retained snapshot versions, pins, changelog floor
    GET  /metrics    Prometheus text exposition
    GET  /health     liveness probe

Readers run lock-free against pinned snapshots; writers serialize on the
single-writer commit path; admission sheds with 429 + Retry-After instead of
queueing unboundedly.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.core.kaskade import Kaskade
from repro.durability.manager import DurabilityEngine
from repro.durability.wal import DEFAULT_SEGMENT_BYTES
from repro.errors import (
    AdmissionError,
    KaskadeError,
    QueryExecutionError,
    QuerySyntaxError,
    ServiceError,
    StaleSnapshotError,
)
from repro.graph.property_graph import PropertyGraph
from repro.service.admission import AdmissionController, AdmissionPolicy
from repro.service.metrics import ServiceMetrics
from repro.service.mvcc import SnapshotManager
from repro.storage.csr import CSRGraphStore
from repro.testing.faults import FaultInjector, InjectedCrash

logger = logging.getLogger("repro.service")

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 410: "Gone", 413: "Payload Too Large",
            422: "Unprocessable Entity", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable"}


@dataclass
class Response:
    """One service-level response: status, JSON-or-text body, extra headers."""

    status: int
    body: Any
    content_type: str = "application/json"
    headers: dict[str, str] | None = None

    def encode(self) -> bytes:
        if self.content_type == "application/json":
            return json.dumps(self.body, default=str).encode()
        return str(self.body).encode()


class GraphService:
    """The serving core: snapshots + admission + metrics over one Kaskade.

    Example:
        >>> from repro.datasets.provenance import provenance_graph
        >>> service = GraphService(graph=provenance_graph(num_jobs=20, seed=3))
        >>> response = service.handle_query({"query":
        ...     "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f"})
        >>> response.status
        200
    """

    def __init__(self, kaskade: Kaskade | None = None, *,
                 graph: PropertyGraph | None = None,
                 policy: AdmissionPolicy | None = None,
                 metrics: ServiceMetrics | None = None,
                 snapshots: SnapshotManager | None = None,
                 max_retained_snapshots: int = 8,
                 durability: DurabilityEngine | None = None,
                 faults: FaultInjector | None = None) -> None:
        if kaskade is None:
            if graph is None:
                raise ServiceError("GraphService needs a Kaskade instance or a graph")
            kaskade = Kaskade(graph)
        self.kaskade = kaskade
        self.durability = durability
        self.faults = faults
        self.snapshots = snapshots or SnapshotManager(
            kaskade, max_retained=max_retained_snapshots, durability=durability)
        self.admission = AdmissionController(policy)
        self.metrics = metrics or ServiceMetrics()
        self.metrics.bind_snapshots(self.snapshots)
        self.metrics.bind_admission(self.admission)
        if durability is not None:
            self.metrics.bind_durability(durability)
        if faults is not None:
            self.metrics.bind_faults(faults)
        # Thread the registry through Kaskade.execute: direct library calls
        # and snapshot-pinned serving both feed the same instruments.
        kaskade.metrics = self.metrics
        self.started_at = time.time()

    @classmethod
    def open_durable(cls, root: str | Path, *,
                     graph: PropertyGraph | None = None,
                     policy: AdmissionPolicy | None = None,
                     metrics: ServiceMetrics | None = None,
                     faults: FaultInjector | None = None,
                     checkpoint_every: int = 64,
                     segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                     fsync: bool = True) -> "GraphService":
        """Open a crash-safe service rooted at ``root``.

        First start: checkpoints ``graph`` (an empty graph by default) as the
        recovery baseline.  Restart: recovers from the newest valid
        checkpoint + WAL tail before serving — ``/health/ready`` reports 503
        until that completes, and every subsequent commit is write-ahead
        logged.
        """
        engine = DurabilityEngine(root, faults=faults,
                                  checkpoint_every=checkpoint_every,
                                  segment_bytes=segment_bytes, fsync=fsync)
        if engine.checkpoints.latest_valid() is not None:
            kaskade, result = engine.recover()
            logger.info("recovered %s: %s", str(root), result.describe())
        else:
            kaskade = Kaskade(graph if graph is not None
                              else PropertyGraph(name="graph"))
        return cls(kaskade, policy=policy, metrics=metrics,
                   durability=engine, faults=faults)

    @property
    def ready(self) -> bool:
        """Readiness: durable services are not ready until recovery finished."""
        return self.durability.ready if self.durability is not None else True

    # ----------------------------------------------------------------- routes
    def handle(self, method: str, path: str, payload: Mapping[str, Any] | None) -> Response:
        """Dispatch one request (transport-agnostic).

        Error hygiene: an unexpected exception never leaks a traceback to
        the client — it becomes a 500 carrying a short ``error_id`` while
        the full traceback goes to the server-side log under the same id.
        :class:`~repro.testing.faults.InjectedCrash` is *not* caught: a
        simulated process death must kill the serving loop, exactly like a
        real one.
        """
        try:
            if self.faults is not None:
                self.faults.check("server.handle")
            return self._route(method, path, payload)
        except InjectedCrash:
            raise
        except Exception:  # noqa: BLE001 - translated to an opaque 500
            error_id = uuid.uuid4().hex[:8]
            logger.exception("unhandled error %s serving %s %s",
                             error_id, method, path)
            self.metrics.observe_error()
            return Response(500, {"error": "internal server error",
                                  "error_id": error_id})

    def _route(self, method: str, path: str,
               payload: Mapping[str, Any] | None) -> Response:
        route = (method.upper(), path.rstrip("/") or "/")
        if route == ("POST", "/query"):
            return self.handle_query(payload or {})
        if route == ("POST", "/mutate"):
            return self.handle_mutate(payload or {})
        if route == ("GET", "/views"):
            return self.handle_views()
        if route == ("GET", "/snapshots"):
            return self.handle_snapshots()
        if route == ("GET", "/metrics"):
            return Response(200, self.metrics.render(),
                            content_type="text/plain; version=0.0.4")
        if route == ("GET", "/health"):
            return Response(200, {"status": "ok", "ready": self.ready,
                                  "uptime_seconds": time.time() - self.started_at})
        if route == ("GET", "/health/live"):
            # Liveness: the process answers requests at all.
            return Response(200, {"status": "alive"})
        if route == ("GET", "/health/ready"):
            return self.handle_ready()
        if path.rstrip("/") in ("/query", "/mutate", "/views", "/snapshots",
                                "/metrics", "/health", "/health/live",
                                "/health/ready"):
            return Response(405, {"error": f"method {method} not allowed for {path}"})
        return Response(404, {"error": f"no route for {path}"})

    def handle_ready(self) -> Response:
        """GET /health/ready — 503 until recovery/initialization completed."""
        body: dict[str, Any] = {"ready": self.ready}
        if self.durability is not None and self.durability.last_recovery is not None:
            body["recovery"] = self.durability.last_recovery.describe()
        if not self.ready:
            body["status"] = "recovering"
            return Response(503, body, headers={"Retry-After": "1"})
        body["status"] = "ready"
        return Response(200, body)

    def handle_query(self, payload: Mapping[str, Any]) -> Response:
        """POST /query — admission-controlled, snapshot-isolated execution."""
        text = payload.get("query")
        if not isinstance(text, str) or not text.strip():
            return Response(400, {"error": "body must include a 'query' string"})
        client = str(payload.get("client", "anonymous"))
        version = payload.get("version")
        use_views = bool(payload.get("use_views", True))
        try:
            ticket = self.admission.admit(client, max_work=payload.get("max_work"))
        except AdmissionError as exc:
            self.metrics.observe_shed(exc.reason)
            retry_after = max(exc.retry_after_seconds, 0.001)
            return Response(429, {"error": str(exc), "reason": exc.reason,
                                  "retry_after_seconds": retry_after},
                            headers={"Retry-After": f"{retry_after:.3f}"})
        try:
            query = self.kaskade.parse(text)
            outcome = self.snapshots.execute(
                query, version=version, max_work=ticket.max_work,
                use_views=use_views)
            return Response(200, {
                "rows": outcome.result.rows,
                "row_count": len(outcome.result.rows),
                "version": outcome.executed_version,
                "engine": outcome.engine,
                "work": outcome.result.stats.total_work,
                "base_cost": outcome.base_cost,
                "rewrite_cost": outcome.rewrite_cost,
                "used_view": outcome.used_view_name,
                "plan_cache_hit": outcome.plan_cache_hit,
                "plan": outcome.plan.explain() if outcome.plan is not None else None,
                "elapsed_seconds": outcome.elapsed_seconds,
            })
        except QuerySyntaxError as exc:
            self.metrics.observe_error("bad_request")
            return Response(400, {"error": str(exc)})
        except StaleSnapshotError as exc:
            self.metrics.observe_error("stale")
            return Response(410, {"error": str(exc),
                                  "requested_version": exc.requested_version,
                                  "floor_version": exc.floor_version})
        except QueryExecutionError as exc:
            self.metrics.observe_error("budget_exceeded")
            return Response(422, {"error": str(exc),
                                  "max_work": ticket.max_work})
        except KaskadeError as exc:
            self.metrics.observe_error()
            return Response(500, {"error": str(exc)})
        finally:
            self.admission.release(ticket)

    def handle_mutate(self, payload: Mapping[str, Any]) -> Response:
        """POST /mutate — batched ops through the single-writer commit path."""
        ops = payload.get("ops")
        if not isinstance(ops, list) or not ops:
            return Response(400, {"error": "body must include a non-empty 'ops' list"})
        client = str(payload.get("client", "anonymous"))
        try:
            ticket = self.admission.admit(client)
        except AdmissionError as exc:
            self.metrics.observe_shed(exc.reason)
            retry_after = max(exc.retry_after_seconds, 0.001)
            return Response(429, {"error": str(exc), "reason": exc.reason,
                                  "retry_after_seconds": retry_after},
                            headers={"Retry-After": f"{retry_after:.3f}"})
        try:
            result = self.snapshots.commit(ops)
            self.metrics.observe_commit(result.applied)
            refresh = result.refresh
            return Response(200, {
                "version": result.version,
                "applied": result.applied,
                "errors": result.errors,
                "views_refreshed": refresh.refreshed if refresh is not None else 0,
                "views_incremental": refresh.incremental if refresh is not None else 0,
                "elapsed_seconds": result.elapsed_seconds,
            })
        except KaskadeError as exc:
            self.metrics.observe_error()
            return Response(500, {"error": str(exc)})
        finally:
            self.admission.release(ticket)

    def handle_views(self) -> Response:
        views = []
        with self.snapshots.pinned() as snapshot:
            head = snapshot.version
            # "frozen": the head snapshot serves the view from a CSR store.
            frozen = {name for name, view in snapshot.views.items()
                      if isinstance(view.store, CSRGraphStore)}
        for view in self.kaskade.catalog:
            views.append({
                "name": view.definition.name,
                "kind": type(view.definition).__name__,
                "vertices": view.num_vertices,
                "edges": view.num_edges,
                "base_version": view.base_version,
                "fresh": view.base_version == head,
                "frozen": view.definition.name in frozen,
            })
        return Response(200, {"views": views, "head_version": head})

    def handle_snapshots(self) -> Response:
        return Response(200, {
            "head_version": self.snapshots.head_version(),
            "changelog_floor": self.snapshots.changelog_floor(),
            "maintenance_lag": self.snapshots.maintenance_lag(),
            "snapshots": self.snapshots.describe(),
        })


class KaskadeHTTPServer:
    """Minimal asyncio HTTP/1.1 server over a :class:`GraphService`.

    Hand-rolled on ``asyncio.start_server`` so the serving layer adds zero
    dependencies; one connection carries one request (``Connection: close``),
    which keeps the parser honest and is plenty for benchmark-scale fan-out.
    """

    def __init__(self, service: GraphService, host: str = "127.0.0.1",
                 port: int = 0, max_body_bytes: int = 4 * 1024 * 1024) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.max_body_bytes = max_body_bytes
        self._server: asyncio.AbstractServer | None = None
        # Strictly larger than admission capacity (slots + queue): overload
        # must reach the admission controller and shed with an explicit 429,
        # not stack up invisibly in the executor's unbounded queue.
        policy = service.admission.policy
        workers = policy.max_concurrent + policy.max_queued + 8
        self._pool = ThreadPoolExecutor(max_workers=workers,
                                        thread_name_prefix="kaskade-http")

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._handle_connection,
                                                  self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._pool.shutdown(wait=False)

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------- connection
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, payload, parse_error = request
            if parse_error is not None:
                response = Response(400, {"error": parse_error})
            else:
                loop = asyncio.get_running_loop()
                response = await loop.run_in_executor(
                    self._pool, self.service.handle, method, path, payload)
            await self._write_response(writer, response)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return "GET", "/", None, "malformed request line"
        method, raw_path = parts[0], parts[1]
        path = raw_path.split("?", 1)[0]
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0) or 0)
        if length > self.max_body_bytes:
            return method, path, None, "request body too large"
        payload = None
        parse_error = None
        if length:
            body = await reader.readexactly(length)
            try:
                payload = json.loads(body)
            except json.JSONDecodeError as exc:
                parse_error = f"invalid JSON body: {exc}"
        return method, path, payload, parse_error

    async def _write_response(self, writer: asyncio.StreamWriter,
                              response: Response) -> None:
        body = response.encode()
        reason = _REASONS.get(response.status, "Unknown")
        head = [f"HTTP/1.1 {response.status} {reason}",
                f"Content-Type: {response.content_type}",
                f"Content-Length: {len(body)}",
                "Connection: close"]
        for key, value in (response.headers or {}).items():
            head.append(f"{key}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
        await writer.drain()


@dataclass
class ServerHandle:
    """A running server on a background thread (tests, benchmarks, examples)."""

    server: KaskadeHTTPServer
    thread: threading.Thread
    loop: asyncio.AbstractEventLoop

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def address(self) -> str:
        return f"http://{self.server.host}:{self.server.port}"

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the server and join its thread (idempotent)."""
        if not self.thread.is_alive():
            return
        asyncio.run_coroutine_threadsafe(self.server.stop(), self.loop).result(timeout)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout)


def serve_in_thread(service: GraphService, host: str = "127.0.0.1",
                    port: int = 0) -> ServerHandle:
    """Start a :class:`KaskadeHTTPServer` on a daemon thread; returns a handle
    whose ``port`` is the bound ephemeral port."""
    server = KaskadeHTTPServer(service, host=host, port=port)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def _run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_forever()
        # Drain cancelled tasks so the loop closes cleanly.
        pending = asyncio.all_tasks(loop)
        for task in pending:
            task.cancel()
        if pending:
            loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True))
        loop.close()

    thread = threading.Thread(target=_run, name="kaskade-server", daemon=True)
    thread.start()
    if not started.wait(timeout=10.0):
        raise ServiceError("server failed to start within 10s")
    return ServerHandle(server=server, thread=thread, loop=loop)
