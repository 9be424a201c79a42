"""Benchmark: planned operator pipeline vs the seed backtracking interpreter.

The planner's value claim is machine-independent: predicate pushdown and
statistics-driven join order must make the executor do measurably **less
traversal work** (``ExecutionStats.total_work`` — vertices scanned + edges
expanded), not just run faster on one machine.  This benchmark runs selective
workload-shaped queries over a provenance-style graph with both engines,
differentially checks the row multisets, prints the work table, and asserts
the headline: at least ``MIN_WORK_REDUCTION``x less work on the most
selective query.

Because the assertion is on deterministic work counters (never wall-clock),
it holds in CI too: ``BENCH_SMOKE=1`` merely shrinks the graph.
"""

from __future__ import annotations

import os

from repro.datasets.provenance import summarized_provenance_graph
from repro.graph.statistics import percentile
from repro.query import execute_query, parse_query

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

#: Required work advantage of the planned pipeline on the most selective query.
MIN_WORK_REDUCTION = 2.0

NUM_JOBS = 60 if SMOKE else 600


def _rows_multiset(result):
    return sorted(
        tuple(sorted((k, str(v)) for k, v in row.items())) for row in result.rows
    )


def _selective_queries(graph):
    """Workload-shaped queries with a selective predicate on the anchor jobs."""
    cpus = [v.get("cpu") for v in graph.vertices("Job")]
    p95 = percentile(cpus, 95.0)
    return [
        ("blast-radius+cpu", parse_query(
            "MATCH (q_j1:Job)-[:WRITES_TO]->(q_f1:File), "
            "(q_f1:File)-[r*0..4]->(q_f2:File), "
            "(q_f2:File)-[:IS_READ_BY]->(q_j2:Job) "
            f"WHERE q_j1.cpu > {p95} "
            "RETURN q_j1 AS A, q_j2 AS B")),
        ("lineage-join+cpu", parse_query(
            "MATCH (a:Job)-[:WRITES_TO]->(f:File), (f)-[:IS_READ_BY]->(b:Job) "
            f"WHERE b.cpu > {p95} "
            "RETURN a, b")),
        ("two-hop+both-ends", parse_query(
            "MATCH (a:Job)-[:WRITES_TO]->(f:File), (f)-[:IS_READ_BY]->(b:Job) "
            f"WHERE a.cpu > {p95} AND b.cpu > {p95} "
            "RETURN a, b")),
    ]


def test_planner_does_less_traversal_work_than_interpreter():
    graph = summarized_provenance_graph(num_jobs=NUM_JOBS, seed=17)
    ratios = []
    print(f"\n[planner] {graph.num_vertices} vertices / {graph.num_edges} edges")
    print(f"{'query':>20} {'interpreter':>12} {'planner':>12} {'reduction':>10}")
    for name, query in _selective_queries(graph):
        interpreted = execute_query(graph, query, engine="interpreter")
        planned = execute_query(graph, query, engine="planner")
        # Differential identity first — a fast wrong answer is no answer.
        assert _rows_multiset(interpreted) == _rows_multiset(planned), name
        ratio = interpreted.stats.total_work / max(planned.stats.total_work, 1)
        ratios.append((name, ratio))
        print(f"{name:>20} {interpreted.stats.total_work:>12} "
              f"{planned.stats.total_work:>12} {ratio:>9.1f}x")
    best_name, best = max(ratios, key=lambda item: item[1])
    assert best >= MIN_WORK_REDUCTION, (
        f"pushdown + join order should cut traversal work >= "
        f"{MIN_WORK_REDUCTION}x on a selective query; best was {best_name} at "
        f"{best:.1f}x"
    )
    # Every query must at least not regress.
    assert all(ratio >= 1.0 for _, ratio in ratios), ratios


def test_plan_text_reports_pushdown():
    """The EXPLAIN output names the pushed predicate at its bind site."""
    graph = summarized_provenance_graph(num_jobs=NUM_JOBS, seed=17)
    _, query = _selective_queries(graph)[0]
    result = execute_query(graph, query, engine="planner")
    assert result.plan is not None
    assert result.plan.pushed_condition_count == 1
    assert "q_j1.cpu >" in result.explain()
