"""StorageManager: backend-selection heuristics, view freezing, durability."""

import pytest

from repro.datasets.provenance import summarized_provenance_graph
from repro.datasets.random_graphs import erdos_renyi_graph
from repro.errors import ViewError
from repro.storage.base import GraphStore, PropertyGraphStore, ensure_store
from repro.storage.csr import CSRGraphStore
from repro.storage.manager import StorageManager, StoragePolicy
from repro.views.catalog import ViewCatalog
from repro.views.definitions import job_to_job_connector


def big_graph():
    return erdos_renyi_graph(80, 400, seed=2)


class TestBackendSelection:
    def test_small_graphs_stay_on_dict(self):
        manager = StorageManager(StoragePolicy(min_edges_to_freeze=1000))
        graph = big_graph()  # 400 edges < 1000 floor
        for _ in range(5):
            assert manager.store_for(graph) is graph
        assert manager.stats.snapshots_built == 0

    def test_auto_freezes_after_read_threshold(self):
        manager = StorageManager(StoragePolicy(read_threshold=3))
        graph = big_graph()
        assert manager.store_for(graph) is graph        # read 1
        assert manager.store_for(graph) is graph        # read 2
        frozen = manager.store_for(graph)               # read 3 -> freeze
        assert isinstance(frozen, CSRGraphStore)
        assert manager.store_for(graph) is frozen       # cached snapshot
        assert manager.stats.snapshots_built == 1
        assert manager.stats.snapshot_hits >= 1

    def test_read_mostly_hint_freezes_immediately(self):
        manager = StorageManager()
        graph = big_graph()
        frozen = manager.store_for(graph, workload="read_mostly")
        assert isinstance(frozen, CSRGraphStore)

    def test_mutating_hint_serves_dict_and_drops_snapshot(self):
        manager = StorageManager()
        graph = big_graph()
        frozen = manager.store_for(graph, workload="read_mostly")
        assert isinstance(frozen, CSRGraphStore)
        assert manager.store_for(graph, workload="mutating") is graph
        # The read streak restarts: the next auto read is served from dict.
        assert manager.store_for(graph) is graph

    def test_mutation_invalidates_snapshot(self):
        manager = StorageManager(StoragePolicy(read_threshold=2))
        graph = big_graph()
        manager.store_for(graph)
        frozen = manager.store_for(graph)
        assert isinstance(frozen, CSRGraphStore)
        graph.add_vertex("extra", "Vertex")
        served = manager.store_for(graph)               # stale -> dict again
        assert served is graph
        refrozen = manager.store_for(graph)             # new streak -> refreeze
        assert isinstance(refrozen, CSRGraphStore)
        assert refrozen is not frozen
        assert refrozen.has_vertex("extra")

    def test_existing_stores_pass_through(self):
        manager = StorageManager()
        graph = big_graph()
        csr = CSRGraphStore.from_graph(graph)
        assert manager.store_for(csr) is csr
        adapter = PropertyGraphStore(graph)
        assert manager.store_for(adapter) is adapter

    def test_backend_names_and_bad_hint(self):
        manager = StorageManager(StoragePolicy(read_threshold=1))
        graph = big_graph()
        assert manager.backend_for(graph) == "csr"
        with pytest.raises(ValueError):
            manager.store_for(graph, workload="nonsense")

    def test_invalidate_drops_cached_snapshot(self):
        manager = StorageManager(StoragePolicy(read_threshold=2))
        graph = big_graph()
        manager.store_for(graph)
        frozen = manager.store_for(graph)
        assert isinstance(frozen, CSRGraphStore)
        manager.invalidate(graph)
        # The read streak restarted, so the next read is served from dict.
        assert manager.store_for(graph) is graph


class TestEnsureStore:
    def test_wraps_graphs_and_passes_stores(self):
        graph = big_graph()
        wrapped = ensure_store(graph)
        assert isinstance(wrapped, PropertyGraphStore)
        assert wrapped.num_edges == graph.num_edges
        assert isinstance(wrapped, GraphStore)
        csr = CSRGraphStore.from_graph(graph)
        assert ensure_store(csr) is csr

    def test_adapter_sees_mutations(self):
        graph = big_graph()
        adapter = ensure_store(graph)
        before = adapter.num_vertices
        graph.add_vertex("x", "Vertex")
        assert adapter.num_vertices == before + 1
        assert adapter.version == graph.version


class TestViewFreezing:
    def test_catalog_materialization_attaches_snapshot(self):
        manager = StorageManager(StoragePolicy(min_edges_to_freeze=1))
        catalog = ViewCatalog(storage=manager)
        graph = summarized_provenance_graph(num_jobs=40, seed=7)
        view = catalog.materialize(graph, job_to_job_connector())
        assert view.store is not None
        assert view.read_store() is view.store
        assert manager.stats.views_frozen == 1

    def test_tiny_views_not_frozen(self):
        manager = StorageManager(StoragePolicy(min_edges_to_freeze=10**9))
        catalog = ViewCatalog(storage=manager)
        graph = summarized_provenance_graph(num_jobs=40, seed=7)
        view = catalog.materialize(graph, job_to_job_connector())
        assert view.store is None
        assert view.read_store() is view.graph

    def test_freeze_views_policy_off(self):
        manager = StorageManager(StoragePolicy(min_edges_to_freeze=1,
                                               freeze_views=False))
        catalog = ViewCatalog(storage=manager)
        graph = summarized_provenance_graph(num_jobs=40, seed=7)
        view = catalog.materialize(graph, job_to_job_connector())
        assert view.store is None

    def test_stale_view_snapshot_falls_back_to_graph(self):
        manager = StorageManager(StoragePolicy(min_edges_to_freeze=1))
        catalog = ViewCatalog(storage=manager)
        graph = summarized_provenance_graph(num_jobs=40, seed=7)
        view = catalog.materialize(graph, job_to_job_connector())
        assert view.read_store() is view.store
        # Incremental maintenance mutates the view graph behind the snapshot.
        jobs = view.graph.vertex_ids("Job")
        view.graph.add_edge(jobs[0], jobs[1], view.definition.output_label)
        assert view.read_store() is view.graph
        assert view.store is None  # stale snapshot dropped


class TestDurabilityWiring:
    def test_save_and_load_catalog_through_manager(self, tmp_path):
        manager = StorageManager(persist_path=tmp_path / "views.jsonl")
        catalog = ViewCatalog(storage=manager)
        graph = summarized_provenance_graph(num_jobs=30, seed=7)
        catalog.materialize(graph, job_to_job_connector())
        assert manager.save_catalog(catalog) == 1

        fresh_manager = StorageManager(persist_path=tmp_path / "views.jsonl")
        restored = fresh_manager.load_catalog()
        assert len(restored) == 1
        assert restored.storage is fresh_manager

    def test_manager_without_persistence_raises(self):
        manager = StorageManager()
        with pytest.raises(ViewError):
            manager.save_catalog(ViewCatalog())
        with pytest.raises(ViewError):
            manager.load_catalog()


class TestMaintenanceRefreeze:
    def test_on_maintained_refreezes_instead_of_dropping(self):
        manager = StorageManager(StoragePolicy(min_edges_to_freeze=1))
        catalog = ViewCatalog(storage=manager)
        graph = summarized_provenance_graph(num_jobs=40, seed=7)
        view = catalog.materialize(graph, job_to_job_connector())
        jobs = view.graph.vertex_ids("Job")
        view.graph.add_edge(jobs[0], jobs[1], view.definition.output_label)
        assert view.read_store() is view.graph  # stale without the hook
        manager.on_maintained(view)
        assert view.store is not None
        assert view.store.source_version == view.graph.version
        assert view.read_store() is view.store
        assert manager.stats.views_refrozen == 1

    def test_on_maintained_fresh_snapshot_is_noop(self):
        manager = StorageManager(StoragePolicy(min_edges_to_freeze=1))
        catalog = ViewCatalog(storage=manager)
        graph = summarized_provenance_graph(num_jobs=40, seed=7)
        view = catalog.materialize(graph, job_to_job_connector())
        store = view.store
        manager.on_maintained(view)
        assert view.store is store
        assert manager.stats.views_refrozen == 0

    def test_on_maintained_respects_size_floor(self):
        manager = StorageManager(StoragePolicy(min_edges_to_freeze=1_000_000))
        catalog = ViewCatalog(storage=manager)
        graph = summarized_provenance_graph(num_jobs=40, seed=7)
        view = catalog.materialize(graph, job_to_job_connector())
        manager.on_maintained(view)
        assert view.store is None


class TestDropHook:
    def test_on_dropped_releases_snapshot_and_registry(self):
        from repro.storage.manager import lookup_snapshot

        manager = StorageManager(StoragePolicy(min_edges_to_freeze=1))
        catalog = ViewCatalog(storage=manager)
        graph = summarized_provenance_graph(num_jobs=40, seed=7)
        view = catalog.materialize(graph, job_to_job_connector())
        view_graph = view.graph
        assert view.store is not None
        assert lookup_snapshot(view_graph) is not None

        catalog.drop(view.definition)
        assert view.store is None
        assert lookup_snapshot(view_graph) is None
        assert manager.cached_snapshot(view_graph) is None
        assert manager.stats.views_dropped == 1

    def test_on_dropped_deletes_persisted_record(self, tmp_path):
        manager = StorageManager(persist_path=tmp_path / "views.jsonl")
        catalog = ViewCatalog(storage=manager)
        graph = summarized_provenance_graph(num_jobs=30, seed=7)
        view = catalog.materialize(graph, job_to_job_connector())
        manager.save_catalog(catalog)
        assert view.definition.name in manager.persistent.view_names()
        catalog.drop(view.definition)
        assert view.definition.name not in manager.persistent.view_names()
        # A later restore cannot resurrect the dropped view.
        assert len(StorageManager(
            persist_path=tmp_path / "views.jsonl").load_catalog()) == 0

    def test_clear_notifies_for_every_view(self, tmp_path):
        manager = StorageManager(persist_path=tmp_path / "views.jsonl")
        catalog = ViewCatalog(storage=manager)
        graph = summarized_provenance_graph(num_jobs=30, seed=7)
        catalog.materialize(graph, job_to_job_connector())
        from repro.views.definitions import keep_types_summarizer
        catalog.materialize(graph, keep_types_summarizer(["Job"]))
        manager.save_catalog(catalog)
        catalog.clear()
        assert len(catalog) == 0
        assert manager.persistent.view_names() == []
        assert manager.stats.views_dropped == 2


class TestSnapshotRegistryThreadSafety:
    """The module-level snapshot registry is shared across StorageManagers and
    threads (the concurrent service freezes from reader/writer threads)."""

    def test_concurrent_freeze_converges_to_one_snapshot(self):
        import threading

        graph = big_graph()
        managers = [StorageManager() for _ in range(8)]
        results: list[CSRGraphStore] = []
        barrier = threading.Barrier(len(managers))

        def freeze(manager):
            barrier.wait()
            results.append(manager.freeze(graph))

        threads = [threading.Thread(target=freeze, args=(m,)) for m in managers]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == len(managers)
        # All threads must have adopted a snapshot of the same version; the
        # registry keeps exactly one entry for the graph.
        assert {s.source_version for s in results} == {graph.version}
        from repro.storage.manager import lookup_snapshot
        assert lookup_snapshot(graph) is not None

    def test_concurrent_freeze_and_mutate_never_serves_stale(self):
        import threading

        graph = big_graph()
        manager = StorageManager()
        jobs = graph.vertex_ids()
        errors: list[str] = []
        stop = threading.Event()

        def freezer():
            while not stop.is_set():
                version = graph.version
                snapshot = manager.freeze(graph)
                # The snapshot can lag or lead the sampled version (the writer
                # races us) but must always be a self-consistent publication.
                if snapshot.source_version < version:
                    errors.append(f"stale: {snapshot.source_version} < {version}")

        def writer():
            for i in range(50):
                graph.add_edge(jobs[i % len(jobs)],
                               jobs[(i + 1) % len(jobs)], "CALLS")
                manager.invalidate(graph)
            stop.set()

        threads = [threading.Thread(target=freezer) for _ in range(4)]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_discard_and_lookup_race_is_safe(self):
        import threading

        graph = big_graph()
        manager = StorageManager()
        manager.freeze(graph)
        from repro.storage.manager import discard_snapshot, lookup_snapshot

        def churn():
            for _ in range(200):
                manager.freeze(graph)
                discard_snapshot(graph)
                lookup_snapshot(graph)

        threads = [threading.Thread(target=churn) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Registry ends in a coherent state: a fresh freeze is served again.
        assert manager.freeze(graph).source_version == graph.version
