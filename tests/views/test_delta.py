"""Differential tests for the delta-driven maintenance subsystem.

The correctness bar for incremental view maintenance is *edge-set identity*:
after any mutation stream, a maintained view must equal a from-scratch
re-materialization against the current base graph.  These tests drive
randomized insert/delete streams (including vertex deletions) through
:class:`~repro.views.delta.MaintenanceManager` and assert that identity for
labeled and unlabeled k-hop connectors and for filter summarizers.
"""

import random

import pytest

from repro.graph import PropertyGraph
from repro.storage import CSRGraphStore, StorageManager
from repro.storage.manager import lookup_snapshot
from repro.views import (
    ConnectorView,
    MaintenanceManager,
    SummarizerView,
    ViewCatalog,
    job_to_job_connector,
    keep_types_summarizer,
    materialize_connector,
    materialize_summarizer,
)


def edge_set(graph: PropertyGraph) -> set[tuple]:
    return {(e.source, e.target, e.label) for e in graph.edges()}


def make_lineage(num_jobs: int, num_files: int, num_edges: int,
                 seed: int) -> PropertyGraph:
    rng = random.Random(seed)
    g = PropertyGraph(name="lineage")
    for j in range(num_jobs):
        g.add_vertex(f"j{j}", "Job", cpu=rng.uniform(1, 100))
    for f in range(num_files):
        g.add_vertex(f"f{f}", "File")
    for _ in range(num_edges):
        if rng.random() < 0.5:
            g.add_edge(f"j{rng.randrange(num_jobs)}", f"f{rng.randrange(num_files)}",
                       "WRITES_TO")
        else:
            g.add_edge(f"f{rng.randrange(num_files)}", f"j{rng.randrange(num_jobs)}",
                       "IS_READ_BY")
    return g


def mutate(graph: PropertyGraph, rng: random.Random, steps: int,
           vertex_delete_probability: float = 0.0) -> None:
    """Random topological churn within the lineage shape."""
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.35 and graph.num_edges:
            victim = rng.choice(list(graph.edges()))
            graph.remove_edge(victim.id)
        elif roll < 0.35 + vertex_delete_probability:
            files = graph.vertex_ids("File")
            if len(files) > 4:
                graph.remove_vertex(rng.choice(files))
        else:
            jobs = graph.vertex_ids("Job")
            files = graph.vertex_ids("File")
            if not jobs or not files:
                continue
            if rng.random() < 0.5:
                graph.add_edge(rng.choice(jobs), rng.choice(files), "WRITES_TO")
            else:
                graph.add_edge(rng.choice(files), rng.choice(jobs), "IS_READ_BY")


def assert_views_match_rematerialization(catalog: ViewCatalog,
                                         graph: PropertyGraph) -> None:
    for view in catalog:
        definition = view.definition
        if isinstance(definition, ConnectorView):
            fresh = materialize_connector(graph, definition)
        else:
            fresh = materialize_summarizer(graph, definition)
        assert edge_set(view.graph) == edge_set(fresh), (
            f"view {definition.name!r} drifted from re-materialization")
        if isinstance(definition, ConnectorView):
            # Connectors also pin their vertex set: path endpoints only.
            assert set(view.graph.vertex_ids()) == set(fresh.vertex_ids())


@pytest.fixture
def catalog_under_test():
    graph = make_lineage(num_jobs=24, num_files=30, num_edges=110, seed=11)
    catalog = ViewCatalog()
    catalog.materialize(graph, job_to_job_connector())  # unlabeled 2-hop
    catalog.materialize(graph, job_to_job_connector(k=3, name="j2j_3hop"))
    catalog.materialize(graph, ConnectorView(
        name="writes_1hop", connector_kind="k_hop", source_type="Job",
        target_type="File", k=1, edge_label="WRITES_TO"))
    catalog.materialize(graph, ConnectorView(
        name="labeled_2hop", connector_kind="k_hop", source_type="Job",
        target_type="Job", k=2, edge_label="WRITES_TO"))
    catalog.materialize(graph, keep_types_summarizer(["Job"]))
    catalog.materialize(graph, SummarizerView(
        name="no_reads", summarizer_kind="edge_removal",
        edge_labels=("IS_READ_BY",)))
    return graph, catalog


class TestDifferentialMaintenance:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_randomized_streams_keep_all_views_fresh(self, catalog_under_test, seed):
        graph, catalog = catalog_under_test
        manager = MaintenanceManager(graph, catalog)
        rng = random.Random(seed)
        for _ in range(6):
            mutate(graph, rng, steps=25)
            report = manager.refresh()
            assert report.base_version == graph.version
            assert_views_match_rematerialization(catalog, graph)

    def test_vertex_deletions(self, catalog_under_test):
        graph, catalog = catalog_under_test
        manager = MaintenanceManager(graph, catalog)
        rng = random.Random(99)
        for _ in range(4):
            mutate(graph, rng, steps=30, vertex_delete_probability=0.1)
            manager.refresh()
            assert_views_match_rematerialization(catalog, graph)

    def test_batched_refresh_equals_per_event_refresh(self, catalog_under_test):
        """One refresh over N events must equal N refreshes over one event."""
        graph, catalog = catalog_under_test
        manager = MaintenanceManager(graph, catalog)
        rng = random.Random(5)
        mutate(graph, rng, steps=40)
        manager.refresh()
        assert_views_match_rematerialization(catalog, graph)
        # Per-event refresh over a second stream.
        for _ in range(15):
            mutate(graph, rng, steps=1)
            manager.refresh()
        assert_views_match_rematerialization(catalog, graph)

    def test_refresh_is_noop_when_graph_unchanged(self, catalog_under_test):
        graph, catalog = catalog_under_test
        manager = MaintenanceManager(graph, catalog)
        report = manager.refresh()
        assert report.refreshed == 0
        assert all(v.strategy == "fresh" for v in report.views)
        assert not report.changed


class TestRefreshStrategies:
    def test_incremental_strategy_for_supported_views(self, catalog_under_test):
        graph, catalog = catalog_under_test
        manager = MaintenanceManager(graph, catalog)
        mutate(graph, random.Random(1), steps=5)
        report = manager.refresh()
        assert report.incremental == len(catalog)
        assert report.rematerialized == 0

    def test_log_overflow_forces_rematerialization(self):
        graph = make_lineage(num_jobs=10, num_files=12, num_edges=40, seed=2)
        catalog = ViewCatalog()
        catalog.materialize(graph, job_to_job_connector())
        manager = MaintenanceManager(graph, catalog, log_capacity=4)
        mutate(graph, random.Random(3), steps=30)  # far beyond the log bound
        report = manager.refresh()
        assert report.rematerialized == 1
        assert_views_match_rematerialization(catalog, graph)

    def test_event_budget_forces_rematerialization(self):
        graph = make_lineage(num_jobs=10, num_files=12, num_edges=40, seed=2)
        catalog = ViewCatalog()
        catalog.materialize(graph, job_to_job_connector())
        manager = MaintenanceManager(graph, catalog, max_events_incremental=3)
        mutate(graph, random.Random(4), steps=20)
        report = manager.refresh()
        assert report.rematerialized == 1
        assert_views_match_rematerialization(catalog, graph)

    def test_aggregator_summarizer_falls_back_to_rematerialization(self):
        graph = make_lineage(num_jobs=12, num_files=12, num_edges=50, seed=6)
        catalog = ViewCatalog()
        view = catalog.materialize(graph, SummarizerView(
            name="by_type", summarizer_kind="vertex_aggregator", group_by="type",
            aggregations=(("cpu", "sum"),)))
        manager = MaintenanceManager(graph, catalog)
        assert not manager.supports_incremental(view)
        mutate(graph, random.Random(7), steps=10)
        report = manager.refresh()
        assert report.rematerialized == 1
        assert edge_set(view.graph) == edge_set(
            materialize_summarizer(graph, view.definition))

    def test_detached_changelog_forces_rematerialization(self):
        """Disabling change capture must not let refresh() mark stale views fresh."""
        graph = make_lineage(num_jobs=10, num_files=10, num_edges=30, seed=15)
        catalog = ViewCatalog()
        catalog.materialize(graph, job_to_job_connector())
        manager = MaintenanceManager(graph, catalog)
        graph.disable_change_capture()
        mutate(graph, random.Random(16), steps=10)  # unobserved mutations
        report = manager.refresh()
        assert report.rematerialized == 1
        assert_views_match_rematerialization(catalog, graph)
        # The manager re-attached capture, so the next delta replays normally.
        mutate(graph, random.Random(17), steps=5)
        report = manager.refresh()
        assert report.incremental == 1
        assert_views_match_rematerialization(catalog, graph)

    def test_unknown_base_version_forces_rematerialization(self):
        graph = make_lineage(num_jobs=10, num_files=10, num_edges=30, seed=8)
        catalog = ViewCatalog()
        view = catalog.materialize(graph, job_to_job_connector())
        view.base_version = None  # e.g. a view restored from disk
        manager = MaintenanceManager(graph, catalog)
        report = manager.refresh()
        assert report.rematerialized == 1
        assert view.base_version == graph.version


class TestSummarizerDeltas:
    def test_property_predicate_inclusion(self):
        graph = make_lineage(num_jobs=20, num_files=10, num_edges=60, seed=9)
        catalog = ViewCatalog()
        definition = SummarizerView(
            name="hot_jobs", summarizer_kind="vertex_inclusion",
            vertex_types=("Job",), property_predicates=(("cpu", ">", 50.0),))
        view = catalog.materialize(graph, definition)
        manager = MaintenanceManager(graph, catalog)
        rng = random.Random(10)
        graph.add_vertex("j_hot", "Job", cpu=99.0)
        graph.add_vertex("j_cold", "Job", cpu=1.0)
        mutate(graph, rng, steps=25)
        manager.refresh()
        assert edge_set(view.graph) == edge_set(materialize_summarizer(graph, definition))
        assert view.graph.has_vertex("j_hot")
        assert not view.graph.has_vertex("j_cold")

    def test_edge_add_then_remove_within_one_delta(self):
        graph = make_lineage(num_jobs=6, num_files=6, num_edges=20, seed=12)
        catalog = ViewCatalog()
        definition = keep_types_summarizer(["Job", "File"])
        view = catalog.materialize(graph, definition)
        manager = MaintenanceManager(graph, catalog)
        edge = graph.add_edge("j0", "f0", "WRITES_TO")
        graph.remove_edge(edge.id)
        manager.refresh()
        assert edge_set(view.graph) == edge_set(materialize_summarizer(graph, definition))


class TestStorageIntegration:
    def test_refresh_refreezes_snapshots(self):
        graph = make_lineage(num_jobs=24, num_files=30, num_edges=120, seed=13)
        storage = StorageManager()
        catalog = ViewCatalog(storage=storage)
        view = catalog.materialize(graph, job_to_job_connector())
        assert isinstance(view.read_store(), CSRGraphStore)
        manager = MaintenanceManager(graph, catalog, storage=storage)
        mutate(graph, random.Random(14), steps=20)
        manager.refresh()
        # The snapshot was re-frozen at the maintained graph's version, so
        # hot reads stay on the CSR backend instead of degrading to dict.
        store = view.read_store()
        assert isinstance(store, CSRGraphStore)
        assert store.source_version == view.graph.version
        assert store is lookup_snapshot(view.graph)
        assert storage.stats.views_refrozen >= 1
