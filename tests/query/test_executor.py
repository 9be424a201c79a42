"""Unit tests for the graph-pattern executor."""

import pytest

from repro.errors import QueryExecutionError
from repro.graph import PropertyGraph
from repro.query import QueryExecutor, execute_query, parse_query


@pytest.fixture
def lineage() -> PropertyGraph:
    """A three-level job/file lineage: j1 -> f1 -> j2 -> f2 -> j3, plus a side file."""
    g = PropertyGraph(name="lineage")
    g.add_vertex("j1", "Job", cpu=10.0, pipeline="ingest")
    g.add_vertex("j2", "Job", cpu=20.0, pipeline="transform")
    g.add_vertex("j3", "Job", cpu=30.0, pipeline="transform")
    g.add_vertex("f1", "File", size=100)
    g.add_vertex("f2", "File", size=200)
    g.add_vertex("f3", "File", size=300)
    g.add_edge("j1", "f1", "WRITES_TO")
    g.add_edge("f1", "j2", "IS_READ_BY")
    g.add_edge("j2", "f2", "WRITES_TO")
    g.add_edge("f2", "j3", "IS_READ_BY")
    g.add_edge("j1", "f3", "WRITES_TO")
    return g


class TestBasicMatching:
    def test_single_hop(self, lineage):
        result = execute_query(lineage, parse_query(
            "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f"))
        pairs = {(row["j"], row["f"]) for row in result}
        assert pairs == {("j1", "f1"), ("j2", "f2"), ("j1", "f3")}

    def test_label_filter_restricts_start(self, lineage):
        result = execute_query(lineage, parse_query(
            "MATCH (f:File)-[:IS_READ_BY]->(j:Job) RETURN f, j"))
        assert {(r["f"], r["j"]) for r in result} == {("f1", "j2"), ("f2", "j3")}

    def test_incoming_direction(self, lineage):
        result = execute_query(lineage, parse_query(
            "MATCH (f:File)<-[:WRITES_TO]-(j:Job) RETURN f, j"))
        assert {(r["f"], r["j"]) for r in result} == {
            ("f1", "j1"), ("f2", "j2"), ("f3", "j1")}

    def test_two_hop_join_across_paths(self, lineage):
        result = execute_query(lineage, parse_query(
            "MATCH (a:Job)-[:WRITES_TO]->(f:File), (f)-[:IS_READ_BY]->(b:Job) "
            "RETURN a, b"))
        assert {(r["a"], r["b"]) for r in result} == {("j1", "j2"), ("j2", "j3")}

    def test_property_pattern_filter(self, lineage):
        result = execute_query(lineage, parse_query(
            "MATCH (j:Job {pipeline: 'ingest'})-[:WRITES_TO]->(f:File) RETURN f"))
        assert set(result.column("f")) == {"f1", "f3"}

    def test_no_match_returns_empty(self, lineage):
        result = execute_query(lineage, parse_query(
            "MATCH (a:Job)-[:NONEXISTENT]->(b) RETURN a"))
        assert result.rows == []

    def test_bare_match_returns_bindings(self, lineage):
        result = execute_query(lineage, parse_query("MATCH (j:Job)-[:WRITES_TO]->(f:File)"))
        assert all({"j", "f"} <= set(row) for row in result.rows)


class TestVariableLengthPaths:
    def test_descendants_within_bounds(self, lineage):
        result = execute_query(lineage, parse_query(
            "MATCH (j:Job {pipeline: 'ingest'})-[*1..4]->(x) RETURN x"))
        assert set(result.column("x")) == {"f1", "f3", "j2", "f2", "j3"}

    def test_zero_hop_includes_source(self, lineage):
        result = execute_query(lineage, parse_query(
            "MATCH (f:File)-[r*0..2]->(g:File) RETURN f, g"))
        pairs = {(r["f"], r["g"]) for r in result}
        assert ("f1", "f1") in pairs  # zero hops
        assert ("f1", "f2") in pairs  # f1 -> j2 -> f2

    def test_min_hops_excludes_closer_vertices(self, lineage):
        result = execute_query(lineage, parse_query(
            "MATCH (j:Job {pipeline: 'ingest'})-[*3..4]->(x:Job) RETURN x"))
        assert set(result.column("x")) == {"j3"}

    def test_blast_radius_query_shape(self, lineage):
        # Listing 1's MATCH clause (hop bound shrunk to the test graph).
        result = execute_query(lineage, parse_query(
            "MATCH (q_j1:Job)-[:WRITES_TO]->(q_f1:File), "
            "(q_f1:File)-[r*0..8]->(q_f2:File), "
            "(q_f2:File)-[:IS_READ_BY]->(q_j2:Job) "
            "RETURN q_j1 AS A, q_j2 AS B"))
        assert {(r["A"], r["B"]) for r in result} == {
            ("j1", "j2"), ("j1", "j3"), ("j2", "j3")}


class TestWhereAndProjection:
    def test_where_filters_rows(self, lineage):
        result = execute_query(lineage, parse_query(
            "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.cpu > 15 RETURN j"))
        assert set(result.column("j")) == {"j2"}

    def test_where_on_property_reference(self, lineage):
        result = execute_query(lineage, parse_query(
            "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE f.size >= 200 RETURN f"))
        assert set(result.column("f")) == {"f2", "f3"}

    def test_projection_of_properties(self, lineage):
        result = execute_query(lineage, parse_query(
            "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j.pipeline AS p, f.size AS s"))
        assert {"p", "s"} == set(result.rows[0])

    def test_distinct(self, lineage):
        result = execute_query(lineage, parse_query(
            "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN DISTINCT j.pipeline AS p"))
        assert sorted(result.column("p")) == ["ingest", "transform"]

    def test_limit(self, lineage):
        result = execute_query(lineage, parse_query(
            "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j LIMIT 1"))
        assert len(result) == 1

    def test_missing_variable_in_where_raises(self, lineage):
        query = parse_query("MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j")
        # Manually sneak in a bad reference to exercise the executor-side check.
        from repro.query.ast import Condition, PropertyRef
        object.__setattr__(query, "where",
                           (Condition(PropertyRef("ghost", "x"), "=", 1),))
        with pytest.raises(QueryExecutionError):
            execute_query(lineage, query)


class TestAggregation:
    def test_count_per_group(self, lineage):
        result = execute_query(lineage, parse_query(
            "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, count(f) AS n"))
        counts = {row["j"]: row["n"] for row in result}
        assert counts == {"j1": 2, "j2": 1}

    def test_sum_avg_min_max(self, lineage):
        result = execute_query(lineage, parse_query(
            "MATCH (j:Job)-[:WRITES_TO]->(f:File) "
            "RETURN j, sum(f.size) AS total, avg(f.size) AS mean, "
            "min(f.size) AS lo, max(f.size) AS hi"))
        by_job = {row["j"]: row for row in result}
        assert by_job["j1"]["total"] == 400
        assert by_job["j1"]["mean"] == 200
        assert by_job["j1"]["lo"] == 100
        assert by_job["j1"]["hi"] == 300
        assert by_job["j2"]["total"] == 200

    def test_global_aggregate(self, lineage):
        result = execute_query(lineage, parse_query(
            "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN count(f) AS n"))
        assert result.rows == [{"n": 3}]

    def test_collect(self, lineage):
        result = execute_query(lineage, parse_query(
            "MATCH (j:Job {pipeline: 'ingest'})-[:WRITES_TO]->(f:File) "
            "RETURN j, collect(f) AS files"))
        assert sorted(result.rows[0]["files"]) == ["f1", "f3"]


class TestStatsAndBudget:
    def test_stats_accumulate_work(self, lineage):
        result = execute_query(lineage, parse_query(
            "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j"))
        assert result.stats.vertices_scanned > 0
        assert result.stats.edges_expanded > 0
        assert result.stats.total_work == (
            result.stats.vertices_scanned + result.stats.edges_expanded)

    def test_smaller_graph_means_less_work(self, lineage):
        query = parse_query("MATCH (j:Job)-[*1..4]->(x) RETURN x")
        small = PropertyGraph()
        small.add_vertex("j1", "Job")
        small.add_vertex("f1", "File")
        small.add_edge("j1", "f1", "WRITES_TO")
        big_work = execute_query(lineage, query).stats.total_work
        small_work = execute_query(small, query).stats.total_work
        assert small_work < big_work

    def test_work_budget_enforced(self, lineage):
        executor = QueryExecutor(lineage, max_work=1)
        with pytest.raises(QueryExecutionError):
            executor.execute(parse_query(
                "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f"))

    def test_executor_bindings_api(self, lineage):
        executor = QueryExecutor(lineage)
        bindings = executor.bindings(parse_query(
            "MATCH (a:Job)-[:WRITES_TO]->(f:File), (f)-[:IS_READ_BY]->(b:Job) RETURN a, b"))
        assert {"a", "f", "b"} <= set(bindings[0])
