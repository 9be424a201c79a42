"""StorageManager: the one freeze trigger, view freezing, and the one shared
snapshot cache."""

from repro.analytics import kernels
from repro.core import Kaskade
from repro.datasets.provenance import provenance_graph, summarized_provenance_graph
from repro.datasets.random_graphs import erdos_renyi_graph
from repro.service.mvcc import SnapshotManager
from repro.storage.base import GraphStore, PropertyGraphStore, ensure_store
from repro.storage.csr import CSRGraphStore
from repro.storage.manager import StorageManager, discard_snapshot, lookup_snapshot
from repro.views.catalog import ViewCatalog
from repro.views.definitions import job_to_job_connector, keep_types_summarizer


def big_graph():
    return erdos_renyi_graph(80, 400, seed=2)


class TestBackendSelection:
    def test_registry_snapshot_is_reused_by_a_new_manager(self):
        graph = big_graph()
        frozen = StorageManager().freeze(graph)
        manager = StorageManager()
        assert manager.freeze(graph) is frozen
        assert manager.stats.snapshots_built == 0

    def test_freeze_builds_once_then_reuses(self):
        manager = StorageManager()
        graph = big_graph()
        frozen = manager.freeze(graph)
        assert isinstance(frozen, CSRGraphStore)
        assert frozen.source_version == graph.version
        assert manager.freeze(graph) is frozen
        assert lookup_snapshot(graph) is frozen
        assert manager.stats.snapshots_built == 1

    def test_existing_stores_pass_through_dispatch(self):
        graph = big_graph()
        csr = CSRGraphStore.from_graph(graph)
        assert kernels.resolve_store(csr) is csr
        adapter = PropertyGraphStore(graph)
        assert kernels.resolve_store(adapter) is None   # nothing frozen yet
        frozen = StorageManager().freeze(graph)
        assert kernels.resolve_store(adapter) is frozen
        discard_snapshot(graph)

    def test_freeze_has_no_size_floor(self):
        manager = StorageManager()
        graph = erdos_renyi_graph(20, 32, seed=2)
        frozen = manager.freeze(graph)
        assert isinstance(frozen, CSRGraphStore)
        assert frozen.num_edges == graph.num_edges
        other = StorageManager()
        assert other.freeze(graph) is frozen
        assert other.stats.snapshots_built == 0

    def test_managers_share_one_snapshot(self):
        graph = big_graph()
        first, second = StorageManager(), StorageManager()
        frozen = first.freeze(graph)
        assert second.freeze(graph) is frozen
        assert (first.stats.snapshots_built, second.stats.snapshots_built) == (1, 0)
        assert second.stats.snapshot_hits == 1

    def test_stale_entry_is_evicted_and_rebuilt(self):
        manager = StorageManager()
        graph = big_graph()
        frozen = manager.freeze(graph)
        graph.add_vertex("extra", "Vertex")
        assert lookup_snapshot(graph) is None
        rebuilt = manager.freeze(graph)
        assert rebuilt is not frozen
        assert rebuilt.source_version == graph.version
        assert manager.stats.snapshots_built == 2

    def test_small_graphs_stay_on_dict(self):
        graph = erdos_renyi_graph(40, 32, seed=2)
        for _ in range(5):
            assert kernels.resolve_store(graph) is None
            assert kernels.engine_for(graph) == "reference"
        assert lookup_snapshot(graph) is None

    def test_mutation_invalidates_snapshot(self):
        manager = StorageManager()
        graph = big_graph()
        frozen = manager.freeze(graph)
        assert kernels.resolve_store(graph) is frozen
        graph.add_vertex("extra", "Vertex")
        assert kernels.resolve_store(graph) is None     # stale -> dict again
        refrozen = manager.freeze(graph)
        assert isinstance(refrozen, CSRGraphStore)
        assert refrozen is not frozen
        assert refrozen.has_vertex("extra")
        assert not frozen.has_vertex("extra")

    def test_discard_then_freeze_rebuilds(self):
        manager = StorageManager()
        graph = big_graph()
        frozen = manager.freeze(graph)
        discard_snapshot(graph)
        assert lookup_snapshot(graph) is None
        assert kernels.resolve_store(graph) is None
        rebuilt = manager.freeze(graph)
        assert rebuilt is not frozen
        assert lookup_snapshot(graph) is rebuilt
        assert manager.stats.snapshots_built == 2

    def test_discard_of_an_unfrozen_graph_is_a_noop(self):
        graph = big_graph()
        discard_snapshot(graph)
        assert lookup_snapshot(graph) is None

    def test_registry_entry_dies_with_its_graph(self):
        import gc

        from repro.storage.manager import _SNAPSHOT_REGISTRY

        graph = big_graph()
        key = id(graph)
        StorageManager().freeze(graph)
        assert key in _SNAPSHOT_REGISTRY
        del graph
        gc.collect()
        assert key not in _SNAPSHOT_REGISTRY


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


def _materialized(manager):
    catalog = ViewCatalog(storage=manager)
    graph = summarized_provenance_graph(num_jobs=40, seed=7)
    return catalog, catalog.materialize(graph, job_to_job_connector())


class TestViewFreezing:
    def test_catalog_materialization_freezes_view(self):
        manager = StorageManager()
        _, view = _materialized(manager)
        store = view.read_store()
        assert isinstance(store, CSRGraphStore)
        assert store is lookup_snapshot(view.graph)
        assert manager.stats.views_frozen == 1

    def test_tiny_views_are_frozen_too(self):
        manager = StorageManager()
        catalog = ViewCatalog(storage=manager)
        graph = provenance_graph(num_jobs=8, seed=3)
        view = catalog.materialize(graph, job_to_job_connector(2))
        assert view.num_edges == 9
        assert isinstance(view.read_store(), CSRGraphStore)

    def test_register_freezes_view(self):
        _, view = _materialized(StorageManager())
        discard_snapshot(view.graph)
        manager = StorageManager()
        ViewCatalog(storage=manager).register(view)
        assert view.read_store() is lookup_snapshot(view.graph)
        assert manager.stats.views_frozen == 1

    def test_embedded_reads_of_a_view_graph_reuse_its_snapshot(self):
        _, view = _materialized(StorageManager())
        other = StorageManager()
        assert other.freeze(view.graph) is view.read_store()
        assert other.stats.snapshots_built == 0

    def test_stale_view_snapshot_falls_back_to_graph(self):
        _, view = _materialized(StorageManager())
        assert isinstance(view.read_store(), CSRGraphStore)
        # Incremental maintenance mutates the view graph behind the snapshot.
        jobs = view.graph.vertex_ids("Job")
        view.graph.add_edge(jobs[0], jobs[1], view.definition.output_label)
        assert view.read_store() is view.graph
        assert lookup_snapshot(view.graph) is None  # stale entry evicted

    def test_read_store_never_builds(self):
        manager = StorageManager()
        _, view = _materialized(manager)
        discard_snapshot(view.graph)
        assert view.read_store() is view.graph
        assert lookup_snapshot(view.graph) is None


class TestMaintenanceRefreeze:
    def test_on_maintained_refreezes_instead_of_dropping(self):
        manager = StorageManager()
        _, view = _materialized(manager)
        jobs = view.graph.vertex_ids("Job")
        view.graph.add_edge(jobs[0], jobs[1], view.definition.output_label)
        assert view.read_store() is view.graph  # stale without the hook
        manager.on_maintained(view)
        store = view.read_store()
        assert isinstance(store, CSRGraphStore)
        assert store.source_version == view.graph.version
        assert manager.stats.views_refrozen == 1

    def test_on_maintained_fresh_snapshot_is_reused(self):
        manager = StorageManager()
        _, view = _materialized(manager)
        store = view.read_store()
        built = manager.stats.snapshots_built
        manager.on_maintained(view)
        assert view.read_store() is store
        assert manager.stats.snapshots_built == built


class TestDropHook:
    def test_on_dropped_releases_registry_entry(self):
        manager = StorageManager()
        catalog, view = _materialized(manager)
        view_graph = view.graph
        assert lookup_snapshot(view_graph) is not None

        catalog.drop(view.definition)
        assert lookup_snapshot(view_graph) is None
        assert view.read_store() is view_graph
        assert manager.stats.views_dropped == 1

    def test_clear_notifies_for_every_view(self):
        manager = StorageManager()
        catalog = ViewCatalog(storage=manager)
        graph = summarized_provenance_graph(num_jobs=30, seed=7)
        first = catalog.materialize(graph, job_to_job_connector())
        second = catalog.materialize(graph, keep_types_summarizer(["Job"]))
        catalog.clear()
        assert len(catalog) == 0
        assert lookup_snapshot(first.graph) is None
        assert lookup_snapshot(second.graph) is None
        assert manager.stats.views_dropped == 2


class TestEmbeddedReads:
    def test_first_read_runs_on_the_snapshot_it_publishes(self):
        graph = provenance_graph(num_jobs=20, seed=3)
        kaskade = Kaskade(graph)
        stores = []
        execute_on = kaskade.execute_on

        def spy(query, base, *args, **kwargs):
            stores.append(base)
            return execute_on(query, base, *args, **kwargs)

        kaskade.execute_on = spy
        kaskade.execute(kaskade.parse("MATCH (a:Job)-[:WRITES_TO]->(f:File) RETURN a, f"))
        assert len(stores) == 1
        assert isinstance(stores[0], CSRGraphStore)
        assert lookup_snapshot(graph) is stores[0]
        assert kaskade.storage.stats.snapshots_built == 1

    def test_repeated_reads_reuse_the_snapshot(self):
        graph = provenance_graph(num_jobs=20, seed=3)
        kaskade = Kaskade(graph)
        query = kaskade.parse("MATCH (a:Job)-[:WRITES_TO]->(f:File) RETURN a, f")
        first = kaskade.execute(query)
        second = kaskade.execute(query)
        assert len(first.result) == len(second.result)
        assert kaskade.storage.stats.snapshots_built == 1
        assert kaskade.storage.stats.snapshot_hits >= 1

    def test_read_after_mutation_sees_the_new_version(self):
        graph = provenance_graph(num_jobs=20, seed=3)
        kaskade = Kaskade(graph)
        query = kaskade.parse("MATCH (a:Job)-[:WRITES_TO]->(f:File) RETURN a, f")
        before = kaskade.execute(query)
        stale = lookup_snapshot(graph)
        graph.add_vertex("fresh_job", "Job")
        graph.add_vertex("fresh_file", "File")
        graph.add_edge("fresh_job", "fresh_file", "WRITES_TO")
        after = kaskade.execute(query)
        assert len(after.result) == len(before.result) + 1
        assert after.executed_version == graph.version
        assert lookup_snapshot(graph) is not stale
        assert lookup_snapshot(graph).source_version == graph.version
        assert kaskade.storage.stats.snapshots_built == 2


class TestOneSnapshotCache:
    """Embedded reads, the registry and the served head snapshot all hold the
    very same CSR store of a view."""

    def test_view_store_is_the_registry_entry_through_its_lifecycle(self):
        kaskade = Kaskade(provenance_graph(num_jobs=20, seed=3))
        view = kaskade.materialize_view(job_to_job_connector(k=2, name="j2j"))
        service = SnapshotManager(kaskade)

        def served():
            with service.pinned() as snapshot:
                return snapshot.views["j2j"].store

        assert isinstance(view.read_store(), CSRGraphStore)
        assert view.read_store() is lookup_snapshot(view.graph)
        assert served() is view.read_store()

        jobs = kaskade.graph.vertex_ids("Job")
        files = kaskade.graph.vertex_ids("File")
        service.commit([
            {"op": "add_edge", "source": jobs[0], "target": files[0],
             "label": "WRITES_TO"},
            {"op": "add_edge", "source": files[0], "target": jobs[1],
             "label": "IS_READ_BY"},
        ])
        assert view.base_version == kaskade.graph.version
        assert view.read_store() is lookup_snapshot(view.graph)
        assert view.read_store().source_version == view.graph.version
        assert served() is view.read_store()

        view_graph = view.graph
        kaskade.evict_view(view.definition)
        assert lookup_snapshot(view_graph) is None
        assert view.read_store() is view_graph


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
                discard_snapshot(graph)
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
