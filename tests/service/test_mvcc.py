"""SnapshotManager: pin/release, single-writer commits, reclamation, views."""

from collections import Counter

import pytest

from repro.core import Kaskade
from repro.datasets.provenance import provenance_graph
from repro.errors import ServiceError, StaleSnapshotError
from repro.durability import MUTATION_OPS
from repro.service.mvcc import SnapshotManager
from repro.views.definitions import job_to_job_connector, keep_types_summarizer
from repro.workloads.queries import workload_for_dataset

#: The paper's blast-radius query (Listing 4 shape): rewritable onto a 2-hop
#: job-to-job connector, and expensive enough on the base graph that the
#: rewrite wins the cost comparison.
BLAST_RADIUS = (
    "MATCH (q_j1:Job)-[:WRITES_TO]->(q_f1:File), "
    "(q_f1:File)-[r*0..8]->(q_f2:File), "
    "(q_f2:File)-[:IS_READ_BY]->(q_j2:Job) "
    "RETURN q_j1 AS A, q_j2 AS B"
)


@pytest.fixture
def kaskade() -> Kaskade:
    return Kaskade(provenance_graph(num_jobs=20, seed=3))


@pytest.fixture
def manager(kaskade) -> SnapshotManager:
    return SnapshotManager(kaskade, max_retained=3)


def _writes_query(kaskade):
    return kaskade.parse("MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f")


class TestPinRelease:
    def test_pin_defaults_to_head(self, manager):
        snapshot = manager.pin()
        assert snapshot.version == manager.head_version()
        assert snapshot.pins == 1
        manager.release(snapshot)
        assert snapshot.pins == 0

    def test_pinned_context_manager(self, manager):
        with manager.pinned() as snapshot:
            assert snapshot.pins == 1
        assert snapshot.pins == 0

    def test_pin_unpublished_version_raises(self, manager):
        with pytest.raises(ServiceError):
            manager.pin(manager.head_version() + 100)

    def test_head_survives_at_zero_pins(self, manager):
        snapshot = manager.pin()
        manager.release(snapshot)
        assert manager.head_version() in manager.versions()


class TestCommit:
    def test_commit_publishes_new_version(self, manager):
        before = manager.head_version()
        result = manager.commit([
            {"op": "add_vertex", "id": "jX", "type": "Job"},
        ])
        assert result.applied == 1
        assert result.errors == []
        assert result.version > before
        assert manager.head_version() == result.version

    def test_per_op_errors_do_not_abort_batch(self, manager):
        result = manager.commit([
            {"op": "add_vertex", "id": "jY", "type": "Job"},
            {"op": "remove_vertex", "id": "does-not-exist"},
            {"op": "bogus_kind"},
        ])
        assert result.applied == 1
        assert len(result.errors) == 2
        assert any("bogus_kind" in e for e in result.errors)
        # The applied op is visible at the new head.
        with manager.pinned() as snapshot:
            assert "jY" in snapshot.store.vertex_ids("Job")

    def test_empty_commit_keeps_head(self, manager):
        before = manager.head_version()
        result = manager.commit([])
        assert result.version == before
        assert manager.versions().count(before) == 1

    def test_all_mutation_ops_roundtrip(self, manager):
        graph = manager.kaskade.graph
        jobs = graph.vertex_ids("Job")
        result = manager.commit([
            {"op": "add_vertex", "id": "v1", "type": "File",
             "properties": {"size": 3}},
            {"op": "add_edge", "source": jobs[0], "target": "v1",
             "label": "WRITES_TO"},
            {"op": "remove_edge", "source": jobs[0], "target": "v1",
             "label": "WRITES_TO"},
            {"op": "remove_vertex", "id": "v1"},
        ])
        assert result.applied == 4
        assert result.errors == []
        assert set(MUTATION_OPS) == {"add_vertex", "remove_vertex",
                                     "add_edge", "remove_edge"}


class TestSnapshotIsolation:
    def test_pinned_reader_is_isolated_from_commits(self, manager, kaskade):
        query = _writes_query(kaskade)
        with manager.pinned() as old:
            rows_before = manager.execute_pinned(query, old).result.rows
            jobs = kaskade.graph.vertex_ids("Job")
            files = kaskade.graph.vertex_ids("File")
            manager.commit([{"op": "add_edge", "source": jobs[0],
                             "target": files[0], "label": "WRITES_TO"}])
            rows_after = manager.execute_pinned(query, old).result.rows
            assert len(rows_after) == len(rows_before)
        # A fresh head read sees the new edge.
        outcome = manager.execute(query)
        assert len(outcome.result.rows) == len(rows_before) + 1
        assert outcome.executed_version == manager.head_version()

    def test_execute_records_version_and_cache_hit(self, manager, kaskade):
        query = _writes_query(kaskade)
        first = manager.execute(query)
        second = manager.execute(query)
        assert first.plan_cache_hit is False
        assert second.plan_cache_hit is True
        assert first.executed_version == second.executed_version


class TestReclamation:
    def _commit_n(self, manager, n):
        for index in range(n):
            manager.commit([{"op": "add_vertex", "id": f"extra{index}",
                             "type": "Job"}])

    def test_old_unpinned_snapshots_retired(self, manager):
        self._commit_n(manager, 6)
        assert len(manager.versions()) <= manager.max_retained

    def test_pinned_snapshot_survives_retention(self, manager):
        pinned = manager.pin()
        self._commit_n(manager, 6)
        assert pinned.version in manager.versions()
        manager.release(pinned)
        self._commit_n(manager, 1)
        assert pinned.version not in manager.versions()

    def test_pinning_reclaimed_version_raises_stale(self, manager):
        oldest = manager.head_version()
        self._commit_n(manager, 6)
        with pytest.raises(StaleSnapshotError) as excinfo:
            manager.pin(oldest)
        assert excinfo.value.requested_version == oldest

    def test_changelog_floor_advances_with_reclamation(self, manager):
        initial_floor = manager.changelog_floor()
        self._commit_n(manager, 6)
        assert manager.changelog_floor() > initial_floor
        assert manager.changelog_floor() <= min(manager.versions())

    def test_maintenance_lag(self, manager):
        assert manager.maintenance_lag() == 0
        pinned = manager.pin()
        self._commit_n(manager, 2)
        assert manager.maintenance_lag() == manager.head_version() - pinned.version
        manager.release(pinned)
        assert manager.maintenance_lag() == 0


class TestViewsInSnapshots:
    @staticmethod
    def _lineage_graph(num_jobs=40, seed=3):
        import random

        from repro.graph import provenance_schema
        from repro.graph.property_graph import PropertyGraph

        rng = random.Random(seed)
        graph = PropertyGraph(name="prov-small",
                              schema=provenance_schema(include_tasks=False))
        for j in range(num_jobs):
            graph.add_vertex(f"j{j}", "Job", cpu=rng.uniform(1, 100))
        num_files = num_jobs * 2
        for f in range(num_files):
            graph.add_vertex(f"f{f}", "File", bytes=rng.randint(1, 1000))
        for j in range(num_jobs):
            for _ in range(rng.randint(1, 3)):
                graph.add_edge(f"j{j}", f"f{rng.randrange(num_files)}",
                               "WRITES_TO")
        for f in range(num_files):
            if rng.random() < 0.7:
                graph.add_edge(f"f{f}", f"j{rng.randrange(num_jobs)}",
                               "IS_READ_BY")
        return graph

    def _manager_with_connector(self):
        kaskade = Kaskade(self._lineage_graph())
        kaskade.materialize_view(job_to_job_connector(k=2, name="j2j"))
        return kaskade, SnapshotManager(kaskade)

    def test_snapshot_captures_view_stores(self):
        _, manager = self._manager_with_connector()
        with manager.pinned() as snapshot:
            assert "j2j" in snapshot.views
            assert snapshot.views["j2j"].store is not None

    def test_commit_refreshes_views_before_publish(self):
        kaskade, manager = self._manager_with_connector()
        jobs = kaskade.graph.vertex_ids("Job")
        files = kaskade.graph.vertex_ids("File")
        result = manager.commit([
            {"op": "add_edge", "source": jobs[0], "target": files[0],
             "label": "WRITES_TO"},
            {"op": "add_edge", "source": files[0], "target": jobs[1],
             "label": "IS_READ_BY"},
        ])
        assert result.refresh is not None
        view = next(iter(kaskade.catalog))
        assert view.base_version == manager.head_version()

    def test_query_served_from_captured_view(self):
        kaskade, manager = self._manager_with_connector()
        query = kaskade.parse(BLAST_RADIUS, name="blast_radius")
        outcome = manager.execute(query)
        assert outcome.used_view_name == "j2j"
        assert outcome.rewrite_cost is not None
        assert outcome.rewrite_cost <= outcome.base_cost
        assert outcome.executed_version == manager.head_version()
        # Answer sets must match a base-graph execution of the same snapshot
        # (sets, not multisets: the connector contracts parallel paths).
        plain = manager.execute(query, use_views=False)
        assert ({(r["A"], r["B"]) for r in outcome.result.rows}
                == {(r["A"], r["B"]) for r in plain.result.rows})

    def test_refresh_head_publishes_external_mutations(self):
        kaskade, manager = self._manager_with_connector()
        before = manager.head_version()
        kaskade.graph.add_vertex("ext", "Job")
        snapshot = manager.refresh_head()
        assert snapshot.version > before
        assert manager.head_version() == snapshot.version


#: A connector rewrite of this query is *mixed*: the trailing raw WRITES_TO
#: hop stays beside the connector edge, so it cannot run wholly on the view.
MIXED = ("MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job)"
         "-[:WRITES_TO]->(h:File) RETURN a, b, h")

#: The benchmark's query shapes (Listing 1, two-hop with WHERE, one-hop), the
#: Table IV Cypher queries, and the mixed query.
PARITY_QUERIES = {
    "blast_radius": BLAST_RADIUS,
    "two_hop_where": ("MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job) "
                      "WHERE a.cpu > 50 RETURN a, b"),
    "one_hop": "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f",
    **{query.query_id: query.cypher
       for query in workload_for_dataset("prov") if query.cypher},
    "mixed": MIXED,
}

PARITY_GRAPHS = {
    "lineage": TestViewsInSnapshots._lineage_graph,
    "provenance": lambda: provenance_graph(num_jobs=60, seed=3),
}

#: Every view kind the catalog serves rewrites from.
PARITY_VIEWS = {
    "k_hop": job_to_job_connector(k=2, name="j2j"),
    "keep_file_job": keep_types_summarizer(["File", "Job"]),
    "keep_job": keep_types_summarizer(["Job"]),
}


def _decision(outcome):
    rows = Counter(tuple(sorted(row.items())) for row in outcome.result.rows)
    return (outcome.used_view_name, outcome.base_cost, outcome.rewrite_cost,
            outcome.executed_version, outcome.result.stats.total_work, rows)


class TestServedEmbeddedParity:
    """Served and embedded queries take one base-vs-view decision."""

    @pytest.mark.parametrize("query_id", sorted(PARITY_QUERIES))
    @pytest.mark.parametrize("view_id", sorted(PARITY_VIEWS))
    @pytest.mark.parametrize("graph_id", sorted(PARITY_GRAPHS))
    def test_served_equals_embedded_at_head(self, graph_id, view_id, query_id):
        kaskade = Kaskade(PARITY_GRAPHS[graph_id]())
        kaskade.materialize_view(PARITY_VIEWS[view_id])
        manager = SnapshotManager(kaskade)
        query = kaskade.parse(PARITY_QUERIES[query_id], name=query_id)
        embedded = kaskade.execute(query)
        served = manager.execute(query)
        assert served.executed_version == manager.head_version()
        assert _decision(served) == _decision(embedded)

    def test_mixed_rewrite_declined_on_both_paths(self):
        kaskade = Kaskade(provenance_graph(num_jobs=60, seed=3))
        kaskade.materialize_view(job_to_job_connector(2))
        manager = SnapshotManager(kaskade)
        query = kaskade.parse(MIXED)
        base = kaskade.execute(query, use_views=False)
        for outcome in (kaskade.execute(query), manager.execute(query)):
            assert outcome.used_view is None
            assert outcome.rewrite_cost is None
            assert len(outcome.result.rows) == len(base.result.rows) == 680
