"""Integration test: streaming updates + delta maintenance + query serving.

Drives the new streaming workload end to end on a small dataset: batches of
schema-respecting mutations hit the base graph, the maintenance subsystem
refreshes the connector view between batches, queries are served from the
maintained (re-frozen) view, and the final view is verified edge-set-identical
to a from-scratch re-materialization.
"""

import pytest

from repro.datasets import dataset
from repro.views import MaintenanceManager, materialize_connector
from repro.workloads import (
    prepare_dataset,
    run_streaming_workload,
)


@pytest.fixture(scope="module")
def prepared():
    return prepare_dataset(dataset("prov", "tiny"))


class TestStreamingWorkload:
    def test_mutation_stream_keeps_view_consistent(self, prepared):
        result = run_streaming_workload(prepared, num_batches=3,
                                        mutations_per_batch=25,
                                        query_ids=["Q2"], seed=23)
        assert len(result.batches) == 3
        assert result.total_mutations > 0
        assert result.final_view_consistent is True
        for batch in result.batches:
            assert batch.refresh_seconds >= 0
            assert batch.query_runtimes, "queries must run in every round"
            for runtime in batch.query_runtimes:
                assert runtime.mode == "connector"

    def test_streaming_requires_catalog(self, prepared):
        stripped = prepare_dataset(dataset("prov", "tiny"))
        stripped.catalog = None
        with pytest.raises(ValueError):
            run_streaming_workload(stripped)

    def test_served_view_is_refrozen_between_batches(self):
        prepared = prepare_dataset(dataset("prov", "tiny"))
        result = run_streaming_workload(prepared, num_batches=2,
                                        mutations_per_batch=20,
                                        query_ids=["Q2"], seed=31)
        assert result.final_view_consistent is True
        view = prepared.view
        store = prepared.graph_for("connector")
        assert getattr(store, "backend", "dict") == "csr"
        assert store.source_version == view.graph.version
        assert store is view.read_store()

    def test_manual_manager_equivalent(self):
        """The runner's behaviour decomposes into public pieces."""
        prepared = prepare_dataset(dataset("prov", "tiny"))
        manager = MaintenanceManager(prepared.base_graph, prepared.catalog,
                                     storage=prepared.storage)
        graph = prepared.base_graph
        jobs = graph.vertex_ids("Job")
        files = graph.vertex_ids("File")
        graph.add_edge(jobs[0], files[-1], "WRITES_TO")
        graph.add_edge(files[-1], jobs[-1], "IS_READ_BY")
        report = manager.refresh()
        assert report.refreshed >= 1
        fresh = materialize_connector(graph, prepared.connector_definition)
        assert ({(e.source, e.target) for e in prepared.view.graph.edges()}
                == {(e.source, e.target) for e in fresh.edges()})
