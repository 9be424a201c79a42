"""PersistentViewStore: snapshot + reload of materialized view catalogs."""

import json

import pytest

from repro.core.kaskade import Kaskade
from repro.datasets.provenance import summarized_provenance_graph
from repro.errors import ViewError
from repro.storage.csr import CSRGraphStore
from repro.storage.manager import StorageManager, lookup_snapshot
from repro.storage.persistent import PersistentViewStore
from repro.views.catalog import ViewCatalog
from repro.views.definitions import (
    SummarizerView,
    definition_from_dict,
    definition_to_dict,
    job_to_job_connector,
    keep_types_summarizer,
)

BLAST_RADIUS = (
    "MATCH (q_j1:Job)-[:WRITES_TO]->(q_f1:File), "
    "(q_f1:File)-[r*0..8]->(q_f2:File), "
    "(q_f2:File)-[:IS_READ_BY]->(q_j2:Job) "
    "RETURN q_j1 AS A, q_j2 AS B"
)


@pytest.fixture
def store_path(tmp_path):
    return tmp_path / "views.jsonl"


class TestDefinitionSerialization:
    @pytest.mark.parametrize("definition", [
        job_to_job_connector(k=2),
        keep_types_summarizer(["Job", "File"]),
        SummarizerView(
            name="grouped", summarizer_kind="vertex_aggregator", group_by="type",
            aggregations=(("cpu", "sum"),),
            property_predicates=(("cpu", ">", 1.0),),
        ),
    ])
    def test_round_trip_preserves_signature(self, definition):
        payload = json.loads(json.dumps(definition_to_dict(definition)))
        restored = definition_from_dict(payload)
        assert restored.signature() == definition.signature()
        assert restored == definition

    def test_unknown_class_rejected(self):
        with pytest.raises(ViewError):
            definition_from_dict({"view_class": "mystery", "name": "x"})

    def test_nested_predicate_values_stay_hashable(self):
        # Predicate *values* may be sequences; the reloaded signature must
        # still be hashable (it is used as the catalog dict key).
        definition = SummarizerView(
            name="tagged", summarizer_kind="vertex_inclusion",
            vertex_types=("Job",),
            property_predicates=(("tags", "in", ("prod", "etl")),),
        )
        payload = json.loads(json.dumps(definition_to_dict(definition)))
        restored = definition_from_dict(payload)
        assert restored.signature() == definition.signature()
        hash(restored.signature())  # would raise TypeError on nested lists


class TestCatalogRoundTrip:
    def test_save_and_reload_views(self, store_path):
        graph = summarized_provenance_graph(num_jobs=30, seed=7)
        catalog = ViewCatalog()
        catalog.materialize(graph, job_to_job_connector())
        catalog.materialize(graph, keep_types_summarizer(["Job"]))
        store = PersistentViewStore(store_path)
        assert store.save_catalog(catalog) == 2
        assert len(store) == 2
        assert sorted(store.view_names()) == sorted(
            v.definition.name for v in catalog)

        restored = store.load_catalog()
        assert len(restored) == 2
        for original in catalog:
            reloaded = restored.get(original.definition)
            assert reloaded.num_vertices == original.num_vertices
            assert reloaded.num_edges == original.num_edges
            assert {(e.source, e.target, e.label) for e in reloaded.graph.edges()} == \
                {(e.source, e.target, e.label) for e in original.graph.edges()}

    def test_save_view_creates_parent_directories(self, tmp_path):
        graph = summarized_provenance_graph(num_jobs=20, seed=3)
        catalog = ViewCatalog()
        view = catalog.materialize(graph, job_to_job_connector())
        store = PersistentViewStore(tmp_path / "nested/deeper/views.jsonl")
        store.save_view(view)  # must not require pre-existing directories
        assert len(store) == 1

    def test_save_view_upsert_and_delete(self, store_path):
        graph = summarized_provenance_graph(num_jobs=20, seed=3)
        catalog = ViewCatalog()
        view = catalog.materialize(graph, job_to_job_connector())
        store = PersistentViewStore(store_path)
        store.save_view(view)
        store.save_view(view)  # upsert: still one record
        assert len(store) == 1
        assert store.delete_view(view.definition) is True
        assert store.delete_view(view.definition) is False
        assert len(store) == 0

    def test_clear(self, store_path):
        graph = summarized_provenance_graph(num_jobs=20, seed=3)
        catalog = ViewCatalog()
        catalog.materialize(graph, job_to_job_connector())
        store = PersistentViewStore(store_path)
        store.save_catalog(catalog)
        store.clear()
        assert len(store) == 0
        assert store.load_views() == []


    def test_missing_file_reads_as_empty_store(self, tmp_path):
        store = PersistentViewStore(tmp_path / "absent.jsonl")
        assert len(store) == 0
        assert store.load_views() == []
        assert store.view_names() == []
        assert not store.path.exists()  # reads never create the file

    def test_reopened_store_sees_saved_views(self, store_path):
        graph = summarized_provenance_graph(num_jobs=20, seed=3)
        catalog = ViewCatalog()
        view = catalog.materialize(graph, job_to_job_connector())
        PersistentViewStore(store_path).save_view(view)
        reopened = PersistentViewStore(store_path)
        assert reopened.view_names() == [view.definition.name]
        [loaded] = reopened.load_views()
        assert loaded.definition == view.definition
        assert loaded.creation_seconds == view.creation_seconds
        assert loaded.num_edges == view.num_edges

    def test_writes_are_atomic_renames(self, store_path):
        graph = summarized_provenance_graph(num_jobs=20, seed=3)
        catalog = ViewCatalog()
        view = catalog.materialize(graph, job_to_job_connector())
        store = PersistentViewStore(store_path)
        store.save_view(view)
        store.save_state("lifecycle", {"cycle": 1})
        store.delete_view(view.definition)
        leftovers = sorted(p.name for p in store_path.parent.iterdir())
        assert leftovers == ["views.jsonl", "views.jsonl.state.json"]


class TestJsonlFormat:
    def test_one_json_record_per_view(self, store_path):
        graph = summarized_provenance_graph(num_jobs=30, seed=7)
        catalog = ViewCatalog()
        catalog.materialize(graph, job_to_job_connector())
        catalog.materialize(graph, keep_types_summarizer(["Job"]))
        PersistentViewStore(store_path).save_catalog(catalog)
        lines = store_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        records = [json.loads(line) for line in lines]
        assert sorted(r["definition"]["name"] for r in records) == sorted(
            v.definition.name for v in catalog)
        assert all({"signature", "definition", "graph", "creation_seconds"}
                   <= set(r) for r in records)

    def test_any_suffix_is_written_as_jsonl(self, tmp_path):
        """There is one on-disk format; the path suffix selects nothing."""
        graph = summarized_provenance_graph(num_jobs=20, seed=3)
        catalog = ViewCatalog()
        view = catalog.materialize(graph, job_to_job_connector())
        store = PersistentViewStore(tmp_path / "views.db")
        store.save_view(view)
        [line] = store.path.read_text(encoding="utf-8").splitlines()
        assert json.loads(line)["definition"]["name"] == view.definition.name
        assert [v.definition for v in store.load_views()] == [view.definition]


class TestAdvisorState:
    def test_state_round_trip(self, store_path):
        store = PersistentViewStore(store_path)
        payload = {"cycle": 3, "entries": [{"signature": "MATCH x", "count": 2.5}]}
        store.save_state("lifecycle", payload)
        assert store.load_state("lifecycle") == payload
        assert store.state_keys() == ["lifecycle"]

    def test_state_upsert_and_delete(self, store_path):
        store = PersistentViewStore(store_path)
        store.save_state("lifecycle", {"cycle": 1})
        store.save_state("lifecycle", {"cycle": 2})  # upsert
        assert store.load_state("lifecycle") == {"cycle": 2}
        assert store.delete_state("lifecycle") is True
        assert store.delete_state("lifecycle") is False
        assert store.load_state("lifecycle") is None
        assert store.state_keys() == []

    def test_missing_state_is_none(self, store_path):
        store = PersistentViewStore(store_path)
        assert store.load_state("nope") is None
        assert store.state_keys() == []

    def test_state_survives_catalog_clear(self, store_path):
        """clear()/save_catalog replace views, never advisor state."""
        graph = summarized_provenance_graph(num_jobs=20, seed=3)
        catalog = ViewCatalog()
        catalog.materialize(graph, job_to_job_connector())
        store = PersistentViewStore(store_path)
        store.save_catalog(catalog)
        store.save_state("lifecycle", {"cycle": 7})
        store.clear()
        store.save_catalog(ViewCatalog())
        assert store.load_state("lifecycle") == {"cycle": 7}

    def test_independent_keys(self, store_path):
        store = PersistentViewStore(store_path)
        store.save_state("a", {"x": 1})
        store.save_state("b", {"y": [1, 2]})
        assert store.load_state("a") == {"x": 1}
        assert store.load_state("b") == {"y": [1, 2]}
        assert store.state_keys() == ["a", "b"]


class TestRewriteEquivalenceAfterReload:
    def test_reloaded_catalog_produces_identical_query_results(self, store_path):
        """materialize -> save -> reload -> byte-identical rewrite answers."""
        graph = summarized_provenance_graph(num_jobs=60, seed=7)
        kaskade = Kaskade(graph)
        query = kaskade.parse(BLAST_RADIUS, name="blast-radius")
        kaskade.select_views([query], budget_edges=4 * graph.num_edges)
        assert len(kaskade.catalog) > 0

        first = kaskade.execute(query)
        assert first.used_view is not None
        kaskade.persist_views(store_path)

        # A fresh process: same base graph, empty catalog, restore from disk.
        resumed = Kaskade(graph)
        restored = resumed.restore_views(store_path)
        assert restored == len(kaskade.catalog)
        second = resumed.execute(query)

        assert second.used_view is not None
        assert second.used_view_name == first.used_view_name
        # Byte-identical answers through the rewriter.
        assert json.dumps(second.result.rows, sort_keys=True, default=str) == \
            json.dumps(first.result.rows, sort_keys=True, default=str)

    def test_load_catalog_freezes_views_into_the_registry(self, store_path):
        graph = summarized_provenance_graph(num_jobs=30, seed=7)
        catalog = ViewCatalog()
        catalog.materialize(graph, job_to_job_connector())
        catalog.materialize(graph, keep_types_summarizer(["Job"]))
        PersistentViewStore(store_path).save_catalog(catalog)

        manager = StorageManager()
        restored = PersistentViewStore(store_path).load_catalog(
            ViewCatalog(storage=manager))
        assert len(restored) == 2
        assert manager.stats.views_frozen == 2
        for view in restored:
            assert isinstance(view.read_store(), CSRGraphStore)
            assert view.read_store() is lookup_snapshot(view.graph)

    def test_restore_views_serves_queries_from_frozen_views(self, store_path):
        graph = summarized_provenance_graph(num_jobs=40, seed=7)
        kaskade = Kaskade(graph)
        kaskade.materialize_view(job_to_job_connector(k=2, name="j2j"))
        kaskade.persist_views(store_path)

        resumed = Kaskade(graph)
        assert resumed.restore_views(store_path) == 1
        [view] = list(resumed.catalog)
        assert view.read_store() is lookup_snapshot(view.graph)
        assert isinstance(view.read_store(), CSRGraphStore)
