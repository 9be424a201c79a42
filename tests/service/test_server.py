"""GraphService routing + the stdlib asyncio HTTP front end."""

import json
import urllib.error
import urllib.request

import pytest

from repro.core import Kaskade
from repro.datasets.provenance import provenance_graph
from repro.errors import ServiceError
from repro.service.admission import AdmissionPolicy
from repro.service.server import GraphService, serve_in_thread
from repro.storage.csr import CSRGraphStore
from repro.views.definitions import job_to_job_connector

WRITES = "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f"


@pytest.fixture
def service() -> GraphService:
    return GraphService(graph=provenance_graph(num_jobs=20, seed=3))


class TestGraphServiceRouting:
    def test_query_roundtrip(self, service):
        response = service.handle("POST", "/query", {"query": WRITES})
        assert response.status == 200
        assert response.body["row_count"] == len(response.body["rows"])
        assert response.body["row_count"] > 0
        assert response.body["version"] == service.snapshots.head_version()
        assert response.body["plan"] is not None

    def test_query_requires_query_string(self, service):
        assert service.handle("POST", "/query", {}).status == 400
        assert service.handle("POST", "/query", {"query": "  "}).status == 400

    def test_syntax_error_maps_to_400(self, service):
        response = service.handle("POST", "/query", {"query": "MATCH (x:"})
        assert response.status == 400
        assert "error" in response.body

    def test_budget_exceeded_maps_to_422(self):
        service = GraphService(
            graph=provenance_graph(num_jobs=20, seed=3),
            policy=AdmissionPolicy(default_max_work=1))
        response = service.handle("POST", "/query", {"query": WRITES})
        assert response.status == 422
        assert response.body["max_work"] == 1

    def test_stale_version_maps_to_410(self, service):
        head = service.snapshots.head_version()
        for index in range(12):  # push the old head out of retention
            service.handle("POST", "/mutate", {"ops": [
                {"op": "add_vertex", "id": f"zz{index}", "type": "Job"}]})
        response = service.handle("POST", "/query",
                                  {"query": WRITES, "version": head})
        assert response.status == 410
        assert response.body["requested_version"] == head

    def test_mutate_roundtrip(self, service):
        before = service.snapshots.head_version()
        response = service.handle("POST", "/mutate", {"ops": [
            {"op": "add_vertex", "id": "new1", "type": "Job"}]})
        assert response.status == 200
        assert response.body["applied"] == 1
        assert response.body["version"] > before

    def test_mutate_requires_ops(self, service):
        assert service.handle("POST", "/mutate", {}).status == 400
        assert service.handle("POST", "/mutate", {"ops": []}).status == 400

    def test_views_and_snapshots_endpoints(self, service):
        views = service.handle("GET", "/views", None)
        assert views.status == 200
        assert views.body["head_version"] == service.snapshots.head_version()
        snaps = service.handle("GET", "/snapshots", None)
        assert snaps.status == 200
        assert snaps.body["snapshots"][0]["version"] in snaps.body["snapshots"][0].values()

    def test_views_frozen_reports_the_head_snapshot(self):
        """A view below any size floor is still served from CSR at head, and
        /views must say so."""
        kaskade = Kaskade(provenance_graph(num_jobs=8, seed=3))
        view = kaskade.materialize_view(job_to_job_connector(2))
        assert view.num_edges == 9
        service = GraphService(kaskade)
        with service.snapshots.pinned() as head:
            assert isinstance(head.views[view.definition.name].store, CSRGraphStore)
        [entry] = service.handle("GET", "/views", None).body["views"]
        assert entry["name"] == view.definition.name
        assert entry["frozen"] is True

    def test_views_stay_frozen_after_a_maintained_commit(self):
        kaskade = Kaskade(provenance_graph(num_jobs=8, seed=3))
        view = kaskade.materialize_view(job_to_job_connector(2))
        service = GraphService(kaskade)
        jobs = kaskade.graph.vertex_ids("Job")
        files = kaskade.graph.vertex_ids("File")
        response = service.handle("POST", "/mutate", {"ops": [
            {"op": "add_edge", "source": jobs[0], "target": files[0],
             "label": "WRITES_TO"},
            {"op": "add_edge", "source": files[0], "target": jobs[1],
             "label": "IS_READ_BY"},
        ]})
        assert response.status == 200
        body = service.handle("GET", "/views", None).body
        [entry] = body["views"]
        assert entry["name"] == view.definition.name
        assert entry["fresh"] is True
        assert entry["frozen"] is True

    def test_metrics_exposition(self, service):
        service.handle("POST", "/query", {"query": WRITES})
        response = service.handle("GET", "/metrics", None)
        assert response.status == 200
        assert response.content_type.startswith("text/plain")
        text = response.body
        assert "kaskade_query_latency_seconds_bucket" in text
        assert "kaskade_plan_cache_misses_total 1" in text
        assert "kaskade_snapshot_pins" in text
        assert "kaskade_maintenance_lag_versions 0" in text

    def test_unknown_route_404_and_bad_method_405(self, service):
        assert service.handle("GET", "/nope", None).status == 404
        assert service.handle("DELETE", "/query", None).status == 405

    def test_needs_kaskade_or_graph(self):
        with pytest.raises(ServiceError):
            GraphService()

    def test_429_when_rate_limited(self):
        service = GraphService(
            graph=provenance_graph(num_jobs=20, seed=3),
            policy=AdmissionPolicy(tokens_per_second=0.0001,
                                   bucket_capacity=1.0))
        assert service.handle("POST", "/query",
                              {"query": WRITES, "client": "c"}).status == 200
        shed = service.handle("POST", "/query",
                              {"query": WRITES, "client": "c"})
        assert shed.status == 429
        assert shed.body["reason"] == "rate_limited"
        assert float(shed.headers["Retry-After"]) > 0
        assert 'kaskade_shed_requests_total{reason="rate_limited"} 1' \
            in service.metrics.render()


class TestHTTPServer:
    @pytest.fixture
    def handle(self, service):
        handle = serve_in_thread(service)
        yield handle
        handle.stop()

    @staticmethod
    def _request(handle, method, path, body=None):
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            handle.address + path, data=data, method=method,
            headers={"Content-Type": "application/json"} if data else {})
        try:
            with urllib.request.urlopen(request, timeout=10) as response:
                return response.status, dict(response.headers), response.read()
        except urllib.error.HTTPError as error:
            return error.code, dict(error.headers), error.read()

    def test_query_over_http(self, handle):
        status, _, raw = self._request(handle, "POST", "/query",
                                       {"query": WRITES})
        assert status == 200
        body = json.loads(raw)
        assert body["row_count"] > 0
        assert body["engine"] == "planner"

    def test_mutate_then_query_sees_new_version(self, handle):
        status, _, raw = self._request(handle, "POST", "/mutate", {"ops": [
            {"op": "add_vertex", "id": "http1", "type": "Job"}]})
        assert status == 200
        new_version = json.loads(raw)["version"]
        status, _, raw = self._request(handle, "POST", "/query",
                                       {"query": WRITES})
        assert json.loads(raw)["version"] == new_version

    def test_health_metrics_snapshots_views(self, handle):
        for path in ("/health", "/snapshots", "/views"):
            status, headers, _ = self._request(handle, "GET", path)
            assert status == 200
            assert headers["Content-Type"].startswith("application/json")
        status, headers, raw = self._request(handle, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert b"kaskade_head_version" in raw

    def test_invalid_json_body_400(self, handle):
        request = urllib.request.Request(
            handle.address + "/query", data=b"{not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_429_carries_retry_after_header(self):
        service = GraphService(
            graph=provenance_graph(num_jobs=20, seed=3),
            policy=AdmissionPolicy(tokens_per_second=0.0001,
                                   bucket_capacity=1.0))
        handle = serve_in_thread(service)
        try:
            self._request(handle, "POST", "/query",
                          {"query": WRITES, "client": "x"})
            status, headers, raw = self._request(
                handle, "POST", "/query", {"query": WRITES, "client": "x"})
            assert status == 429
            assert float(headers["Retry-After"]) > 0
            assert json.loads(raw)["reason"] == "rate_limited"
        finally:
            handle.stop()

    def test_stop_is_idempotent(self, service):
        handle = serve_in_thread(service)
        handle.stop()
        handle.stop()


class TestKaskadeMetricsIntegration:
    def test_direct_execute_feeds_service_metrics(self, service):
        kaskade: Kaskade = service.kaskade
        query = kaskade.parse(WRITES)
        kaskade.execute(query)
        assert service.metrics.query_latency.count == 1
        assert kaskade.plan_cache_hit_rate == 0.0
        kaskade.execute(query)
        assert kaskade.plan_cache_hit_rate == 0.5
        assert service.metrics.plan_cache_hits.total == 1
