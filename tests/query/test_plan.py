"""Unit tests for the cost-based planner and the batched physical executor."""

import pytest

from repro.errors import QueryExecutionError
from repro.graph import PropertyGraph
from repro.query import (
    QueryExecutor,
    QueryPlanner,
    distinct_rows,
    execute_query,
    parse_query,
    plan_query,
)
from repro.query.plan.logical import ExpandOp, FilterOp, ScanOp, VarExpandOp


@pytest.fixture
def lineage() -> PropertyGraph:
    """Jobs writing files read by other jobs, with a selective cpu spread."""
    g = PropertyGraph(name="lineage")
    for j in range(8):
        g.add_vertex(f"j{j}", "Job", cpu=10.0 * (j + 1), pipeline=f"p{j % 2}")
    for f in range(8):
        g.add_vertex(f"f{f}", "File", size=100 * (f + 1))
    for j in range(8):
        g.add_edge(f"j{j}", f"f{j}", "WRITES_TO")
        g.add_edge(f"f{j}", f"j{(j + 1) % 8}", "IS_READ_BY")
    return g


class TestPlanShape:
    def test_pushdown_attaches_where_to_scan(self, lineage):
        plan = plan_query(lineage, parse_query(
            "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.cpu > 50 RETURN j"))
        scans = [op for op in plan.ops if isinstance(op, ScanOp)]
        assert scans and scans[0].variable == "j"
        assert len(scans[0].conditions) == 1
        assert plan.pushed_condition_count == 1
        # Nothing left for a residual filter.
        assert not any(isinstance(op, FilterOp) for op in plan.ops)

    def test_pushdown_attaches_conditions_to_expansion_target(self, lineage):
        plan = plan_query(lineage, parse_query(
            "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE f.size >= 300 RETURN f"))
        expands = [op for op in plan.ops if isinstance(op, (ExpandOp, VarExpandOp))]
        scans = [op for op in plan.ops if isinstance(op, ScanOp)]
        # The condition sits wherever f is first bound (scan or expand, the
        # planner may orient either way), never in a residual filter.
        bound_sites = [op for op in scans if op.variable == "f" and op.conditions]
        bound_sites += [op for op in expands if op.target == "f" and op.conditions]
        assert len(bound_sites) == 1
        assert not any(isinstance(op, FilterOp) for op in plan.ops)

    def test_explain_lists_operators_and_cost(self, lineage):
        plan = plan_query(lineage, parse_query(
            "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.cpu > 50 "
            "RETURN DISTINCT j LIMIT 3"))
        text = plan.explain()
        assert "Scan(" in text
        assert "Expand(" in text
        assert "Distinct" in text
        assert "Limit(3)" in text
        assert "cost=" in text
        assert plan.estimated_cost > 0

    def test_orientation_starts_from_selective_label(self):
        g = PropertyGraph(name="skew")
        g.add_vertex("hub", "Rare")
        for i in range(50):
            g.add_vertex(f"v{i}", "Common")
            g.add_edge(f"v{i}", "hub", "POINTS")
        plan = plan_query(g, parse_query("MATCH (a:Common)-[:POINTS]->(b:Rare) RETURN a"))
        first_scan = next(op for op in plan.ops if isinstance(op, ScanOp))
        # Scanning the single Rare vertex and expanding its in-edges beats
        # scanning all 50 Common vertices.
        assert first_scan.variable == "b"
        result = QueryExecutor(g).execute(parse_query(
            "MATCH (a:Common)-[:POINTS]->(b:Rare) RETURN a"))
        assert len(result.rows) == 50

    def test_connected_path_ordered_before_cartesian(self, lineage):
        plan = plan_query(lineage, parse_query(
            "MATCH (a:Job)-[:WRITES_TO]->(f:File), (f)-[:IS_READ_BY]->(b:Job) "
            "RETURN a, b"))
        # Second path joins on the already-bound f: its scan must be a
        # verification of a bound variable, not a fresh label scan.
        bound_vars = set()
        for op in plan.ops:
            if isinstance(op, ScanOp):
                if bound_vars:
                    assert op.variable in bound_vars, "joined path must stay connected"
                bound_vars.add(op.variable)
            elif isinstance(op, (ExpandOp, VarExpandOp)):
                bound_vars.add(op.target)

    def test_statistics_make_costs_monotone(self):
        def chain(n):
            g = PropertyGraph(name=f"chain{n}")
            for i in range(n):
                g.add_vertex(f"v{i}", "V")
            for i in range(n - 1):
                g.add_edge(f"v{i}", f"v{i+1}", "L")
            return g

        query = parse_query("MATCH (a:V)-[:L]->(b:V) RETURN a")
        small = plan_query(chain(5), query).estimated_cost
        large = plan_query(chain(50), query).estimated_cost
        assert 0 < small < large

    def test_planner_without_statistics_still_plans(self, lineage):
        plan = QueryPlanner().plan(parse_query(
            "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j"))
        assert any(isinstance(op, ScanOp) for op in plan.ops)
        # Neutral estimates, but the plan is executable.
        from repro.query.plan import PhysicalExecutor
        result = PhysicalExecutor(lineage).execute(plan)
        assert len(result.rows) == 8


class TestPhysicalExecution:
    def test_pushdown_reduces_work(self, lineage):
        query = parse_query(
            "MATCH (j:Job)-[:WRITES_TO]->(f:File), (f)-[:IS_READ_BY]->(b:Job) "
            "WHERE j.cpu > 75 RETURN j, b")
        interpreted = execute_query(lineage, query, engine="interpreter")
        planned = execute_query(lineage, query, engine="planner")
        assert sorted(map(str, planned.rows)) == sorted(map(str, interpreted.rows))
        assert planned.stats.total_work < interpreted.stats.total_work

    def test_result_carries_plan(self, lineage):
        result = execute_query(lineage, parse_query(
            "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j"))
        assert result.plan is not None
        assert "Scan(" in result.explain()
        interpreted = execute_query(lineage, parse_query(
            "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j"), engine="interpreter")
        assert interpreted.plan is None
        assert interpreted.explain() == "engine=interpreter"

    def test_work_budget_enforced_by_planner_engine(self, lineage):
        with pytest.raises(QueryExecutionError):
            execute_query(lineage, parse_query(
                "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j"), max_work=1)

    def test_unknown_engine_rejected(self, lineage):
        with pytest.raises(QueryExecutionError):
            QueryExecutor(lineage, engine="volcano")

    def test_residual_filter_raises_like_interpreter(self, lineage):
        query = parse_query("MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j")
        from repro.query.ast import Condition, PropertyRef
        object.__setattr__(query, "where",
                           (Condition(PropertyRef("ghost", "x"), "=", 1),))
        for engine in ("planner", "interpreter"):
            with pytest.raises(QueryExecutionError):
                execute_query(lineage, query, engine=engine)

    def test_max_work_budget_enforced(self, lineage):
        executor = QueryExecutor(lineage, max_work=1)
        assert executor.max_work == 1
        with pytest.raises(QueryExecutionError):
            executor.execute(parse_query(
                "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f"))


class TestDistinctRows:
    def test_hashable_fast_path_preserves_order(self):
        rows = [{"a": 1}, {"a": 2}, {"a": 1}, {"a": 3}, {"a": 2}]
        assert distinct_rows(rows) == [{"a": 1}, {"a": 2}, {"a": 3}]

    def test_unhashable_values_fall_back(self):
        rows = [{"xs": [1, 2]}, {"xs": [1, 2]}, {"xs": [3]}, {"a": 1}, {"a": 1}]
        assert distinct_rows(rows) == [{"xs": [1, 2]}, {"xs": [3]}, {"a": 1}]

    def test_large_hashable_input_is_fast(self):
        import time
        rows = [{"a": i % 100, "b": i % 97} for i in range(20000)]
        start = time.perf_counter()
        deduped = distinct_rows(rows)
        elapsed = time.perf_counter() - start
        assert len(deduped) < len(rows)
        # The old O(n^2) list-membership scan took seconds at this size.
        assert elapsed < 1.0
