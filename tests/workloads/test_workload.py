"""Unit tests for the Q1-Q8 workload definitions and runner."""

import pytest

from repro.datasets import dataset
from repro.storage.csr import CSRGraphStore
from repro.storage.manager import lookup_snapshot
from repro.workloads import (
    WorkloadQuery,
    build_workload,
    prepare_dataset,
    run_query,
    run_workload,
    workload_for_dataset,
)


@pytest.fixture(scope="module")
def prov_prepared():
    return prepare_dataset(dataset("prov", "tiny"))


@pytest.fixture(scope="module")
def roadnet_prepared():
    return prepare_dataset(dataset("roadnet-usa", "tiny"))


class TestWorkloadDefinitions:
    def test_prov_workload_has_all_eight_queries(self):
        queries = workload_for_dataset("prov")
        assert [q.query_id for q in queries] == [f"Q{i}" for i in range(1, 9)]

    def test_non_prov_workloads_skip_q1(self):
        for name in ("dblp", "soc-livejournal", "roadnet-usa"):
            ids = [q.query_id for q in workload_for_dataset(name)]
            assert "Q1" not in ids
            assert ids == [f"Q{i}" for i in range(2, 9)]

    def test_table_iv_metadata(self):
        queries = {q.query_id: q for q in workload_for_dataset("prov")}
        assert queries["Q1"].result_kind == "Subgraph"
        assert queries["Q2"].result_kind == "Set of vertices"
        assert queries["Q4"].result_kind == "Bag of scalars"
        assert queries["Q5"].result_kind == "Single scalar"
        assert queries["Q7"].operation == "Update"
        assert queries["Q8"].result_kind == "Subgraph"

    def test_cypher_text_present_for_pattern_queries(self):
        queries = {q.query_id: q for q in workload_for_dataset("prov")}
        assert "MATCH" in queries["Q1"].cypher
        assert "MATCH" in queries["Q2"].cypher

    def test_build_workload_anchor_type(self):
        queries = build_workload("Author", heterogeneous=True, blast_radius_supported=False)
        assert all(isinstance(q, WorkloadQuery) for q in queries)
        assert ":Author" in {q.query_id: q for q in queries}["Q2"].cypher


class TestPreparedDatasets:
    def test_prov_base_is_filtered(self, prov_prepared):
        assert prov_prepared.base_mode == "filter"
        assert set(prov_prepared.base_graph.vertex_types()) <= {"Job", "File"}

    def test_prov_connector_is_job_to_job(self, prov_prepared):
        connector = prov_prepared.connector_graph
        assert set(connector.vertex_types()) <= {"Job"}
        assert connector.num_edges > 0

    def test_homogeneous_base_is_raw(self, roadnet_prepared):
        assert roadnet_prepared.base_mode == "raw"
        assert roadnet_prepared.base_graph.num_edges > 0
        assert roadnet_prepared.connector_graph.num_edges > 0

    def test_graph_for_serves_registry_snapshots(self, prov_prepared):
        base = prov_prepared.graph_for(prov_prepared.base_mode)
        assert isinstance(base, CSRGraphStore)
        assert lookup_snapshot(prov_prepared.base_graph) is base
        assert prov_prepared.graph_for(prov_prepared.base_mode) is base
        connector = prov_prepared.graph_for("connector")
        assert isinstance(connector, CSRGraphStore)
        assert connector is prov_prepared.view.read_store()


class TestRunner:
    def test_run_single_query_records_runtime(self, prov_prepared):
        q5 = next(q for q in workload_for_dataset("prov") if q.query_id == "Q5")
        record = run_query(q5, prov_prepared, "filter")
        assert record.seconds >= 0
        assert record.result_size == 1
        assert record.mode == "filter"

    def test_run_workload_subset(self, prov_prepared):
        result = run_workload(prov_prepared, query_ids=["Q5", "Q6"])
        assert {r.query_id for r in result.runtimes} == {"Q5", "Q6"}
        assert {r.mode for r in result.runtimes} == {"filter", "connector"}

    def test_counts_match_graph_sizes(self, prov_prepared):
        result = run_workload(prov_prepared, query_ids=["Q5", "Q6"])
        q5_filter = result.runtime("Q5", "filter")
        q6_filter = result.runtime("Q6", "filter")
        assert q5_filter.result_size == 1
        assert q6_filter.result_size == 1

    def test_traversal_queries_run_both_modes(self, prov_prepared):
        result = run_workload(prov_prepared, query_ids=["Q2", "Q3"])
        for query_id in ("Q2", "Q3"):
            assert result.runtime(query_id, "filter") is not None
            assert result.runtime(query_id, "connector") is not None
            assert result.speedup(query_id) is not None

    def test_q1_blast_radius_runs_on_prov(self, prov_prepared):
        result = run_workload(prov_prepared, query_ids=["Q1"])
        assert result.runtime("Q1", "filter").result_size > 0
        assert result.runtime("Q1", "connector").result_size > 0

    def test_community_queries_run(self, roadnet_prepared):
        result = run_workload(roadnet_prepared, query_ids=["Q7", "Q8"])
        assert result.runtime("Q7", "raw") is not None
        assert result.runtime("Q8", "connector") is not None

    def test_speedup_none_for_missing_query(self, prov_prepared):
        result = run_workload(prov_prepared, query_ids=["Q5"])
        assert result.speedup("Q4") is None


class TestAdaptiveWorkload:
    BLAST = (
        "MATCH (q_j1:Job)-[:WRITES_TO]->(q_f1:File), "
        "(q_f1:File)-[r*0..8]->(q_f2:File), "
        "(q_f2:File)-[:IS_READ_BY]->(q_j2:Job) "
        "RETURN q_j1 AS A, q_j2 AS B"
    )
    FANOUT = (
        "MATCH (q_f1:File)-[:IS_READ_BY]->(q_j:Job), "
        "(q_j:Job)-[:WRITES_TO]->(q_f2:File) "
        "RETURN q_f1 AS A, q_f2 AS B"
    )

    def _phases(self):
        from repro.query import parse_query

        fanout = parse_query(self.FANOUT, name="fanout")
        blast = parse_query(self.BLAST, name="blast")
        return [[fanout] * 4, [blast] * 8]

    def _graph(self):
        from repro.datasets.provenance import summarized_provenance_graph

        return summarized_provenance_graph(num_jobs=40, seed=7)

    def test_adaptive_run_adapts_and_records(self):
        from repro.workloads import run_adaptive_workload

        result = run_adaptive_workload(self._graph(), self._phases(),
                                       budget_edges=10_000, adapt_every=4)
        assert result.adaptive
        assert len(result.records) == 12
        assert {r.phase for r in result.records} == {0, 1}
        assert result.adaptations, "the cadence must trigger cycles"
        assert any("job_to_job" in name
                   for name in result.materialized_view_names)
        assert any("job_to_job" in name for name in result.final_views)
        # Once adapted, later blast queries are served by the connector.
        assert any(r.used_view for r in result.records if r.phase == 1)

    def test_frozen_run_never_adapts(self):
        from repro.workloads import run_adaptive_workload

        result = run_adaptive_workload(self._graph(), self._phases(),
                                       budget_edges=10_000, adapt_every=4,
                                       adaptive=False)
        assert not result.adaptive
        assert result.adaptations == []
        assert result.final_views == result.initial_views

    def test_total_work_sums_records(self):
        from repro.workloads import run_adaptive_workload

        result = run_adaptive_workload(self._graph(), self._phases(),
                                       budget_edges=10_000, adapt_every=4)
        assert result.total_work == sum(r.total_work for r in result.records)
        assert result.total_work == result.phase_work(0) + result.phase_work(1)
