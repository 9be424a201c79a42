"""Query execution facade: plan-then-run, with the seed interpreter on tap.

This module evaluates :class:`~repro.query.ast.GraphQuery` objects over a
:class:`~repro.graph.PropertyGraph` or any pluggable
:class:`~repro.storage.base.GraphStore`, playing the role of Neo4j's
cost-based execution engine in the paper (§II, §VII-A).  Since the planner
refactor it is a thin facade over two engines:

* ``engine="planner"`` (default) — build a :class:`~repro.query.plan.logical.
  LogicalPlan` with the statistics-driven planner (scan ordering, path
  orientation, predicate pushdown) and run it through the batched physical
  operators of :mod:`repro.query.plan.physical`;
* ``engine="interpreter"`` — the seed one-binding-at-a-time backtracking
  interpreter (:mod:`repro.query.interpreter`), kept as the differential
  oracle for planner changes.

Both engines share the RETURN-clause machinery
(:mod:`repro.query.projection`) and the work counters
(:class:`~repro.query.stats.ExecutionStats`) that the benchmarks report next
to wall-clock time — the machine-independent signal that connector views
*and* planned execution reduce traversal work.
"""

from __future__ import annotations

from repro.errors import QueryExecutionError
from repro.query.ast import GraphQuery
from repro.query.interpreter import BacktrackingInterpreter
from repro.query.plan.logical import LogicalPlan
from repro.query.plan.physical import PhysicalExecutor
from repro.query.plan.planner import QueryPlanner
from repro.query.projection import Binding, finalize_rows
from repro.query.stats import ExecutionResult, ExecutionStats
from repro.storage.base import GraphLike

#: Engines selectable on :class:`QueryExecutor`.
ENGINES = ("planner", "interpreter")


class QueryExecutor:
    """Evaluates graph-pattern queries against a property graph.

    Args:
        graph: Graph (or read-optimized store) to evaluate queries against.
        max_work: Optional **work budget**: an upper bound on traversal work
            (``vertices scanned + edges expanded``, i.e.
            :attr:`ExecutionStats.total_work`).  Exceeding it raises
            :class:`QueryExecutionError`, protecting benchmarks from runaway
            cartesian products.
        engine: ``"planner"`` (default) for cost-based planning + batched
            operators, ``"interpreter"`` for the seed backtracking matcher.
        planner: Optional pre-built :class:`QueryPlanner` (e.g. one sharing
            cached statistics); a fresh one is built from ``graph`` when
            omitted.
    """

    def __init__(self, graph: GraphLike, max_work: int | None = None,
                 engine: str = "planner", planner: QueryPlanner | None = None
                 ) -> None:
        if engine not in ENGINES:
            raise QueryExecutionError(
                f"unknown engine {engine!r}; expected one of {ENGINES}")
        self.graph = graph
        self.max_work = max_work
        self.engine = engine
        self._planner = planner

    # ------------------------------------------------------------------ public
    def plan(self, query: GraphQuery) -> LogicalPlan:
        """The logical plan this executor would run for ``query``."""
        if self._planner is None:
            self._planner = QueryPlanner(self.graph)
        return self._planner.plan(query)

    def execute(self, query: GraphQuery) -> ExecutionResult:
        """Evaluate a query and return projected rows plus work counters."""
        if self.engine == "interpreter":
            return self._execute_interpreter(query)
        return PhysicalExecutor(self.graph, max_work=self.max_work).execute(
            self.plan(query))

    def bindings(self, query: GraphQuery) -> list[Binding]:
        """All pattern bindings (variable -> vertex id), before projection."""
        stats = ExecutionStats()
        if self.engine == "interpreter":
            matcher = BacktrackingInterpreter(self.graph, max_work=self.max_work)
            return list(matcher.match_all(query, stats))
        runner = PhysicalExecutor(self.graph, max_work=self.max_work)
        return runner.run_bindings(self.plan(query), stats)

    # ---------------------------------------------------------------- internal
    def _execute_interpreter(self, query: GraphQuery) -> ExecutionResult:
        stats = ExecutionStats()
        matcher = BacktrackingInterpreter(self.graph, max_work=self.max_work)
        bindings = list(matcher.match_all(query, stats))
        stats.bindings_produced = len(bindings)
        rows = finalize_rows(self.graph, query, bindings)
        return ExecutionResult(rows=rows, stats=stats)


def execute_query(graph: GraphLike, query: GraphQuery,
                  max_work: int | None = None, engine: str = "planner"
                  ) -> ExecutionResult:
    """Convenience wrapper: evaluate ``query`` against ``graph``."""
    return QueryExecutor(graph, max_work=max_work, engine=engine).execute(query)
