"""Unit tests for the view cost model, view selection, and the Kaskade facade."""

import random

import pytest

from repro.core import (
    Kaskade,
    ViewCostModel,
    ViewSelector,
)
from repro.errors import SelectionError
from repro.graph import PropertyGraph, provenance_schema
from repro.query import parse_query
from repro.views import job_to_job_connector

BLAST_RADIUS = (
    "MATCH (q_j1:Job)-[:WRITES_TO]->(q_f1:File), "
    "(q_f1:File)-[r*0..8]->(q_f2:File), "
    "(q_f2:File)-[:IS_READ_BY]->(q_j2:Job) "
    "RETURN q_j1 AS A, q_j2 AS B"
)

DESCENDANTS = (
    "MATCH (q_j1:Job)-[:WRITES_TO]->(q_f1:File), "
    "(q_f1:File)-[r*0..2]->(q_f2:File), "
    "(q_f2:File)-[:IS_READ_BY]->(q_j2:Job) "
    "RETURN q_j1 AS A, q_j2 AS B"
)


def lineage_graph(num_jobs: int = 40, seed: int = 3) -> PropertyGraph:
    rng = random.Random(seed)
    g = PropertyGraph(name="prov-small", schema=provenance_schema(include_tasks=False))
    for j in range(num_jobs):
        g.add_vertex(f"j{j}", "Job", cpu=rng.uniform(1, 100), pipeline=f"p{j % 4}")
    num_files = num_jobs * 2
    for f in range(num_files):
        g.add_vertex(f"f{f}", "File", bytes=rng.randint(1, 1000))
    for j in range(num_jobs):
        for _ in range(rng.randint(1, 3)):
            g.add_edge(f"j{j}", f"f{rng.randrange(num_files)}", "WRITES_TO")
    for f in range(num_files):
        if rng.random() < 0.7:
            g.add_edge(f"f{f}", f"j{rng.randrange(num_jobs)}", "IS_READ_BY")
    return g


@pytest.fixture(scope="module")
def graph():
    return lineage_graph()


@pytest.fixture(scope="module")
def workload():
    return [
        parse_query(BLAST_RADIUS, name="Q1"),
        parse_query(DESCENDANTS, name="Q3"),
    ]


class TestViewCostModel:
    def test_creation_cost_tracks_size(self, graph):
        model = ViewCostModel.for_graph(graph)
        small = model.creation_cost(_candidate(job_to_job_connector(2)))
        large = model.creation_cost(_candidate(job_to_job_connector(4)))
        assert large >= small > 0

    def test_rewritten_cost_lower_than_raw(self, graph, workload):
        model = ViewCostModel.for_graph(graph)
        candidate = _candidate(job_to_job_connector(2))
        assessment = model.assess(candidate, workload)
        assert assessment.benefits, "the 2-hop connector should help the workload"
        for benefit in assessment.benefits:
            assert benefit.rewritten_cost < benefit.raw_cost
            assert benefit.improvement > 1

    def test_assessment_knapsack_fields(self, graph, workload):
        model = ViewCostModel.for_graph(graph)
        assessment = model.assess(_candidate(job_to_job_connector(2)), workload)
        assert assessment.knapsack_weight == pytest.approx(assessment.size_estimate.edges)
        assert assessment.knapsack_value > 0

    def test_unhelpful_candidate_has_zero_value(self, graph, workload):
        model = ViewCostModel.for_graph(graph)
        # A 10-hop connector cannot cover the 2-hop raw paths -> no rewrites.
        assessment = model.assess(_candidate(job_to_job_connector(10)), workload)
        assert assessment.total_improvement == 0
        assert assessment.knapsack_value == 0


def _candidate(definition):
    from repro.core import ViewCandidate
    return ViewCandidate(definition=definition, template="manual",
                         source_variable="q_j1", target_variable="q_j2",
                         query_name="Q1")


class TestViewSelection:
    def test_selects_two_hop_connector(self, graph, workload):
        kaskade = Kaskade(graph)
        selector = ViewSelector(kaskade.enumerator, kaskade.cost_model)
        result = selector.select(workload, budget=10_000_000)
        names = [a.candidate.definition.name for a in result.selected]
        assert any("2hop" in name for name in names)
        assert result.total_weight <= 10_000_000

    def test_budget_zero_selects_nothing(self, graph, workload):
        kaskade = Kaskade(graph)
        selector = ViewSelector(kaskade.enumerator, kaskade.cost_model)
        assert len(selector.select(workload, budget=0)) == 0

    def test_negative_budget_rejected(self, graph, workload):
        kaskade = Kaskade(graph)
        selector = ViewSelector(kaskade.enumerator, kaskade.cost_model)
        with pytest.raises(SelectionError):
            selector.select(workload, budget=-1)

    def test_shared_candidates_accumulate_benefits(self, graph, workload):
        kaskade = Kaskade(graph)
        selector = ViewSelector(kaskade.enumerator, kaskade.cost_model)
        assessments = selector.assess_workload(workload)
        two_hop = next(a for a in assessments
                       if getattr(a.candidate.definition, "k", None) == 2
                       and a.candidate.definition.source_type == "Job")
        helped = {benefit.query_name for benefit in two_hop.benefits}
        assert helped == {"Q1", "Q3"}

    def test_query_weights_scale_value(self, graph, workload):
        kaskade = Kaskade(graph)
        selector = ViewSelector(kaskade.enumerator, kaskade.cost_model)
        plain = selector.assess_workload(workload)
        weighted = selector.assess_workload(workload, query_weights={"Q1": 10.0})
        plain_two_hop = next(a for a in plain
                             if getattr(a.candidate.definition, "k", None) == 2)
        weighted_two_hop = next(a for a in weighted
                                if getattr(a.candidate.definition, "k", None) == 2)
        assert weighted_two_hop.total_improvement > plain_two_hop.total_improvement

    def test_rewrites_for_query(self, graph, workload):
        kaskade = Kaskade(graph)
        selector = ViewSelector(kaskade.enumerator, kaskade.cost_model)
        result = selector.select(workload, budget=10_000_000)
        rewrites = result.rewrites_for(workload[0])
        assert rewrites, "selection should record a rewrite for Q1"
        assert all(r.original.name == "Q1" for r in rewrites)


class TestKaskadeFacade:
    def test_select_views_materializes_catalog(self, graph, workload):
        kaskade = Kaskade(graph)
        report = kaskade.select_views(workload, budget_edges=10_000_000)
        assert report.materialized
        assert len(kaskade.catalog) == len(report.materialized)
        assert any("2hop" in name for name in report.view_names)

    def test_execute_with_and_without_views_agree(self, graph, workload):
        kaskade = Kaskade(graph)
        kaskade.select_views(workload, budget_edges=10_000_000)
        for query in workload:
            raw = kaskade.execute(query, use_views=False)
            optimized = kaskade.execute(query)
            raw_pairs = {(r["A"], r["B"]) for r in raw.result.rows}
            opt_pairs = {(r["A"], r["B"]) for r in optimized.result.rows}
            assert raw_pairs == opt_pairs
            assert raw.used_view is None

    def test_view_reduces_traversal_work(self, graph, workload):
        kaskade = Kaskade(graph)
        kaskade.select_views(workload, budget_edges=10_000_000)
        query = workload[0]
        raw = kaskade.execute(query, use_views=False)
        optimized = kaskade.execute(query)
        if optimized.used_view is not None and "2hop" in optimized.used_view_name:
            assert optimized.result.stats.total_work < raw.result.stats.total_work

    def test_view_served_outcome_reports_base_version(self, graph, workload):
        kaskade = Kaskade(graph)
        kaskade.materialize_view(job_to_job_connector())
        outcome = kaskade.execute(workload[0])
        assert outcome.used_view is not None
        assert outcome.executed_version == kaskade.graph.version

    def test_rewrite_returns_none_without_materialized_views(self, graph, workload):
        kaskade = Kaskade(graph)
        assert kaskade.rewrite(workload[0]) is None

    def test_execute_text_and_parse(self, graph):
        kaskade = Kaskade(graph)
        outcome = kaskade.execute_text(
            "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, count(f) AS n", name="counts")
        assert outcome.result.rows
        assert outcome.used_view is None

    def test_materialize_view_directly(self, graph):
        kaskade = Kaskade(graph)
        view = kaskade.materialize_view(job_to_job_connector())
        assert kaskade.catalog.contains(job_to_job_connector())
        assert view.num_edges >= 0

    def test_rewrite_without_saved_state_re_enumerates(self, graph, workload):
        kaskade = Kaskade(graph)
        kaskade.materialize_view(job_to_job_connector())
        # No select_views call, so the rewrite path must re-enumerate.
        rewrite = kaskade.rewrite(workload[0])
        assert rewrite is not None
        assert rewrite.candidate.definition.signature() == job_to_job_connector().signature()

    def test_enumerate_views_exposed(self, graph, workload):
        kaskade = Kaskade(graph)
        result = kaskade.enumerate_views(workload[0])
        assert len(result) > 0


class TestSavedRewriteKeying:
    def test_unnamed_queries_share_structural_key(self, graph):
        kaskade = Kaskade(graph)
        first = parse_query(BLAST_RADIUS)   # no name
        kaskade.select_views([first], budget_edges=10_000_000)
        assert kaskade._saved_rewrites
        # A structurally identical (but distinct, differently-named) query
        # object hits the same saved entry — id()-keyed storage could not.
        twin = parse_query(BLAST_RADIUS, name="renamed")
        assert (twin.structural_signature() in kaskade._saved_rewrites)
        rewrite = kaskade.rewrite(twin)
        assert rewrite is not None

    def test_saved_rewrites_bounded(self, graph):
        from repro.core.kaskade import _MAX_SAVED_REWRITES

        kaskade = Kaskade(graph)
        for index in range(_MAX_SAVED_REWRITES + 20):
            query = parse_query(
                f"MATCH (a:Job)-[:WRITES_TO]->(b:File) RETURN a LIMIT {index + 1}")
            kaskade._save_rewrites(query, [])
        assert len(kaskade._saved_rewrites) == _MAX_SAVED_REWRITES


class TestKaskadeMaintenance:
    def test_refresh_views_keeps_rewrites_correct(self, workload):
        graph = lineage_graph(num_jobs=30, seed=9)
        kaskade = Kaskade(graph)
        kaskade.select_views([workload[1]], budget_edges=10_000_000)
        # Mutate the base graph, refresh, and compare the rewritten execution
        # against a raw execution of the same query.
        rng = random.Random(21)
        jobs = graph.vertex_ids("Job")
        files = graph.vertex_ids("File")
        for _ in range(20):
            if rng.random() < 0.3 and graph.num_edges:
                graph.remove_edge(rng.choice(list(graph.edges())).id)
            elif rng.random() < 0.5:
                graph.add_edge(rng.choice(jobs), rng.choice(files), "WRITES_TO")
            else:
                graph.add_edge(rng.choice(files), rng.choice(jobs), "IS_READ_BY")
        report = kaskade.refresh_views()
        assert report.refreshed >= 1
        with_views = kaskade.execute(workload[1])
        without_views = kaskade.execute(workload[1], use_views=False)
        assert with_views.used_view is not None
        assert ({(r["A"], r["B"]) for r in with_views.result.rows}
                == {(r["A"], r["B"]) for r in without_views.result.rows})

    def test_auto_refresh_on_execute(self, workload):
        graph = lineage_graph(num_jobs=25, seed=4)
        kaskade = Kaskade(graph, auto_refresh=True)
        kaskade.select_views([workload[1]], budget_edges=10_000_000)
        before = kaskade.execute(workload[1])
        assert before.used_view is not None
        # New lineage appears; the next execute must serve post-mutation data
        # without an explicit refresh_views call.
        job = graph.vertex_ids("Job")[0]
        graph.add_vertex("f_new", "File")
        graph.add_vertex("j_new", "Job")
        graph.add_edge(job, "f_new", "WRITES_TO")
        graph.add_edge("f_new", "j_new", "IS_READ_BY")
        after = kaskade.execute(workload[1])
        assert after.used_view is not None
        raw = kaskade.execute(workload[1], use_views=False)
        after_pairs = {(r["A"], r["B"]) for r in after.result.rows}
        raw_pairs = {(r["A"], r["B"]) for r in raw.result.rows}
        # The new lineage must be visible (j_new only exists post-mutation),
        # and the auto-refreshed view must serve exactly the raw answer.
        assert any(target == "j_new" for _, target in raw_pairs)
        assert after_pairs == raw_pairs
