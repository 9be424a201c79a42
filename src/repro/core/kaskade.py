"""The KASKADE facade: workload analyzer + query rewriter + execution engine.

This module ties every component of Fig. 2 together around one base graph:

* the **workload analyzer** (:meth:`Kaskade.select_views`) runs constraint-
  based view enumeration for a workload, assesses candidates with the cost
  model, solves the knapsack, and materializes the chosen views into the view
  catalog;
* the **query rewriter** (:meth:`Kaskade.rewrite`) finds, among the
  *materialized* views, the rewrite that runs wholly on its view with the
  smallest planned evaluation cost for an incoming query;
* the **execution engine** (:meth:`Kaskade.execute_on`) plans the original
  query against a base store and the best rewrite against its view's store,
  compares the *planned* costs (cached per query signature + graph version),
  and runs the cheaper plan through the batched operator pipeline
  (:mod:`repro.query.plan`).  Embedded callers reach it through
  :meth:`Kaskade.execute` (live graph + catalog), the MVCC service through
  :meth:`~repro.service.mvcc.SnapshotManager.execute_pinned` (a pinned
  snapshot's frozen stores): one decision for both.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.core.cost_model import ViewCostModel
from repro.errors import QueryExecutionError, ViewError
from repro.core.enumerator import EnumerationResult, ViewEnumerator
from repro.core.estimator import DEFAULT_ALPHA
from repro.core.lifecycle import AdaptationReport, LifecycleConfig, ViewLifecycleEngine
from repro.core.rewriter import QueryRewriter, RewrittenQuery
from repro.core.selection import SelectionResult, ViewSelector
from repro.core.templates import ViewCandidate
from repro.graph.property_graph import PropertyGraph
from repro.graph.schema import GraphSchema
from repro.graph.statistics import compute_statistics
from repro.query.ast import GraphQuery
from repro.query.executor import ENGINES, ExecutionResult, QueryExecutor
from repro.query.stats import WorkFeedback
from repro.query.plan import LogicalPlan, PhysicalExecutor, QueryPlanner
from repro.query.parser import parse_query
from repro.storage.base import GraphLike
from repro.storage.manager import StorageManager
from repro.storage.persistent import PersistentViewStore
from repro.views.catalog import MaterializedView, ViewCatalog
from repro.views.definitions import ConnectorView, SummarizerView
from repro.views.delta import MaintenanceManager, RefreshReport

#: Saved per-query rewrites retained at once (oldest evicted first).
_MAX_SAVED_REWRITES = 512

#: Cached logical plans retained at once (keyed like saved rewrites, plus the
#: target graph's identity and version; oldest evicted first).
_MAX_SAVED_PLANS = 1024

#: Cached per-(graph, version) planners retained at once.  Under mutating
#: traffic every refresh mints a new version key, so these must be bounded
#: like the plan cache (oldest evicted first).
_MAX_CACHED_PLANNERS = 64


@dataclass
class MaterializationReport:
    """What `select_views` chose and materialized."""

    selection: SelectionResult
    materialized: list[MaterializedView] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def view_names(self) -> list[str]:
        return [view.definition.name for view in self.materialized]


@dataclass
class QueryOutcome:
    """Result of executing a query through KASKADE.

    Besides the rows and work counters, the outcome records the *decision*
    the optimizer made: the planned cost of running the query on the base
    graph (``base_cost``), the planned cost of the best view rewrite
    (``rewrite_cost``, None when no rewrite applied), and the logical plan
    that was actually executed (``plan``, None under the interpreter
    engine).  ``explain()`` renders the whole decision for humans.
    """

    query: GraphQuery
    result: ExecutionResult
    #: The view that served the query: a catalog ``MaterializedView`` when
    #: run embedded, the snapshot's captured ``SnapshotView`` when served.
    used_view: Any = None
    rewrite: RewrittenQuery | None = None
    elapsed_seconds: float = 0.0
    plan: LogicalPlan | None = None
    base_cost: float | None = None
    rewrite_cost: float | None = None
    #: Name of the best applicable rewrite's view, set even when the base
    #: plan won the cost comparison and the view did not run.
    considered_view: str | None = None
    engine: str = "planner"
    #: When the adaptive lifecycle engine is enabled and this execution
    #: triggered an adaptation cycle, the cycle's report.
    adaptation: AdaptationReport | None = None
    #: Whether the plan that ran was served from the plan cache (None under
    #: the interpreter engine, which never plans).  The serving layer's
    #: metrics read this to report the plan-cache hit rate.
    plan_cache_hit: bool | None = None
    #: Base graph ``version`` the query executed at (the pinned snapshot's
    #: version under MVCC serving, the live graph's otherwise) — also when a
    #: view served it.
    executed_version: int | None = None

    @property
    def used_view_name(self) -> str | None:
        return self.used_view.definition.name if self.used_view else None

    def feedback(self) -> WorkFeedback:
        """The execution-feedback sample this outcome contributes (stats hook).

        ``planned_cost`` is the cost of the plan that actually ran — the
        rewrite's when a view served the query, the base plan's otherwise —
        so observed/planned ratios compare like with like.
        """
        planned = self.rewrite_cost if self.used_view is not None else self.base_cost
        return WorkFeedback(
            signature=self.query.structural_signature(),
            observed_work=self.result.stats.total_work,
            planned_cost=planned,
            used_view=self.used_view_name,
            rows=len(self.result.rows),
        )

    def explain(self) -> str:
        """Human-readable account of the base-vs-view decision and the plan."""
        lines = []
        if self.base_cost is not None:
            lines.append(f"base plan cost: {self.base_cost:.1f}")
        if self.rewrite_cost is not None:
            label = self.used_view_name or self.considered_view or "?"
            lines.append(f"best view rewrite ({label}): {self.rewrite_cost:.1f}")
        chosen = "view rewrite" if self.used_view is not None else "base query"
        lines.append(f"chosen: {chosen} [engine={self.engine}]")
        if self.plan is not None:
            lines.append(self.plan.explain())
        return "\n".join(lines)


class Kaskade:
    """Graph query optimization framework with materialized graph views."""

    def __init__(self, graph: PropertyGraph, schema: GraphSchema | None = None,
                 alpha: float = DEFAULT_ALPHA,
                 knapsack_method: str = "branch_and_bound",
                 materialization_max_paths: int | None = None,
                 storage: StorageManager | None = None,
                 auto_refresh: bool = False,
                 change_log_capacity: int = 100_000) -> None:
        """Create a KASKADE instance for one base graph.

        Args:
            graph: The raw (or pre-summarized) graph.
            schema: Graph schema; inferred from the data when omitted.
            alpha: Out-degree percentile for view size estimation (§V-A).
            knapsack_method: Solver used for view selection.
            materialization_max_paths: Optional cap on paths contracted per
                connector view (protects dense homogeneous graphs).
            storage: Storage manager that freezes the base graph on every
                read of a new version and each view when it is materialized
                or maintained; a fresh one is created when omitted.
            auto_refresh: When true, every :meth:`execute` call that may use
                views first runs delta maintenance so rewrites never read a
                stale view; when false (default) the caller decides when to
                invoke :meth:`refresh_views`.
            change_log_capacity: Bound on the base graph's mutation log;
                deltas longer than this force view re-materialization.
        """
        self.graph = graph
        self.schema = schema or graph.infer_schema()
        self.alpha = alpha
        self.storage = storage or StorageManager()
        self.catalog = ViewCatalog(storage=self.storage)
        self.enumerator = ViewEnumerator(self.schema)
        self.statistics = compute_statistics(graph)
        self.cost_model = ViewCostModel(self.statistics, alpha=alpha, schema=self.schema)
        self.selector = ViewSelector(self.enumerator, self.cost_model,
                                     knapsack_method=knapsack_method)
        self.rewriter = QueryRewriter(self.schema)
        self.materialization_max_paths = materialization_max_paths
        self.auto_refresh = auto_refresh
        self.change_log_capacity = change_log_capacity
        # Delta-driven view maintenance.  The manager attaches change capture
        # to the base graph, so it is only created when maintenance is
        # actually wanted: eagerly under auto_refresh (capture must start
        # before the first mutation for deltas to be replayable), lazily on
        # the first refresh_views() call otherwise — read-only users keep the
        # graph's zero-overhead no-logging default.
        self._maintenance: MaintenanceManager | None = None
        if auto_refresh:
            self._maintenance = self._make_maintenance()
        # Query-signature -> rewrites discovered during selection, reused at
        # query time ("if this information is saved from the view selection
        # step ... we can leverage it without having to invoke the view
        # enumeration again").  Keyed by the *structural* signature: object
        # ids can be recycled after GC (serving another query's rewrites) and
        # per-object keys grow without bound.
        self._saved_rewrites: dict[str, list[RewrittenQuery]] = {}
        # Planner cache, keyed by (graph name, version): rewrite assessment
        # touches every rewrite of every query, so planners must not be
        # rebuilt per rewrite.  Versioned keys make mutations (base graph
        # updates, view maintenance) invalidate naturally.
        self._planners: dict[tuple[str, int | None], QueryPlanner] = {}
        # (query signature, graph name, graph version) -> logical plan; the
        # per-query analogue of saved rewrites.
        self._saved_plans: dict[tuple[str, str, int | None], LogicalPlan] = {}
        # Workload-adaptive view lifecycle engine (opt-in via
        # enable_adaptive); when attached, every execute() feeds it.
        self.lifecycle: ViewLifecycleEngine | None = None
        # Optional metrics sink (duck-typed: anything with
        # observe_query(outcome)); every execute() notifies it.  The serving
        # layer attaches its registry here so query latency, plan-cache hit
        # rate, and view hit rate flow out of QueryOutcome without the core
        # importing the service package.
        self.metrics = None
        # Plan-cache hit/miss counters (read by the metrics layer).  Plain
        # ints updated without a lock: under concurrent readers a lost
        # increment skews the rate marginally, which is acceptable for
        # telemetry — the caches themselves are protected below.
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        # Guards cache *mutation* (insert + eviction) in the planner/plan
        # caches.  Lookups stay lock-free dict reads; only the cold miss path
        # takes the lock, so concurrent snapshot readers never serialize on
        # cache hits.
        self._cache_lock = threading.Lock()

    # ----------------------------------------------------------------- parsing
    def parse(self, text: str, name: str = "") -> GraphQuery:
        """Parse query text with the Cypher-like parser."""
        return parse_query(text, name=name)

    # --------------------------------------------------------------- analytics
    def analytics_store(self) -> GraphLike:
        """The representation analytics (Q1–Q8) should run against: the base
        graph's CSR snapshot, which routes every :mod:`repro.analytics`
        function onto the index-space kernels (:mod:`repro.analytics.kernels`)
        instead of the per-vertex dict reference path.
        """
        return self.storage.freeze(self.graph)

    # ------------------------------------------------------------- enumeration
    def enumerate_views(self, query: GraphQuery) -> EnumerationResult:
        """Run constraint-based view enumeration for one query (§IV)."""
        return self.enumerator.enumerate(query)

    # --------------------------------------------------------------- selection
    def select_views(self, workload: Sequence[GraphQuery], budget_edges: float,
                     query_weights: Mapping[str, float] | None = None,
                     materialize: bool = True) -> MaterializationReport:
        """Select (and by default materialize) the best views for a workload (§V-B)."""
        start = time.perf_counter()
        selection = self.selector.select(workload, budget_edges, query_weights)
        materialized: list[MaterializedView] = []
        if materialize:
            for assessment in selection.selected:
                view = self.catalog.materialize(
                    self.graph, assessment.candidate.definition,
                    max_paths=self.materialization_max_paths)
                materialized.append(view)
                if self.lifecycle is not None:
                    # Against the raw estimate, never the calibrated one —
                    # see ViewLifecycleEngine._observe_view_size.
                    self.lifecycle.calibration.observe_view_size(
                        view.definition,
                        self.cost_model.estimator.raw_estimate(view.definition).edges,
                        view.graph.num_edges)
        for query in workload:
            self._save_rewrites(query, selection.rewrites_for(query))
        elapsed = time.perf_counter() - start
        return MaterializationReport(selection=selection, materialized=materialized,
                                     elapsed_seconds=elapsed)

    def materialize_view(self, candidate: ViewCandidate | ConnectorView | SummarizerView
                         ) -> MaterializedView:
        """Materialize a single view (bypassing selection)."""
        definition = candidate.definition if isinstance(candidate, ViewCandidate) else candidate
        return self.catalog.materialize(self.graph, definition,
                                        max_paths=self.materialization_max_paths)

    def evict_view(self, definition: ConnectorView | SummarizerView) -> MaterializedView:
        """Completely evict a materialized view.

        Beyond :meth:`ViewCatalog.drop` (which already releases the CSR
        snapshot through the storage manager), the planner/plan caches keyed
        by the view graph's name are purged: a later re-materialization under
        the same name starts a fresh version counter, so stale per-version
        entries could otherwise serve outdated statistics.
        """
        view = self.catalog.drop(definition)
        graph_name = getattr(view.graph, "name", None)
        if graph_name is not None:
            self._planners = {key: planner for key, planner in self._planners.items()
                              if key[0] != graph_name}
            self._saved_plans = {key: plan for key, plan in self._saved_plans.items()
                                 if key[1] != graph_name}
        return view

    # ------------------------------------------------------ adaptive lifecycle
    def enable_adaptive(self, budget_edges: float | None = None, *,
                        adapt_every: int = 32,
                        config: LifecycleConfig | None = None) -> ViewLifecycleEngine:
        """Turn on the workload-adaptive view lifecycle engine.

        Every subsequent :meth:`execute` call (with ``use_views=True``)
        records the query's structural signature, frequency, and observed
        work in the engine's :class:`~repro.core.lifecycle.WorkloadLog`;
        after every ``adapt_every`` queries the engine re-runs
        frequency-weighted view selection under ``budget_edges``,
        materializes newly winning views, evicts the rest, and calibrates
        the cost model from execution feedback.

        Args:
            budget_edges: Space budget for re-selection (required unless a
                full ``config`` is given).
            adapt_every: Queries between automatic adaptation cycles.
            config: Full :class:`LifecycleConfig`, overriding the two
                shorthand arguments.

        Returns:
            The attached engine (also available as ``self.lifecycle``).
        """
        if config is None:
            if budget_edges is None:
                raise ViewError("enable_adaptive needs budget_edges or a config")
            config = LifecycleConfig(budget_edges=budget_edges,
                                     adapt_every=adapt_every)
        self.lifecycle = ViewLifecycleEngine(self, config)
        self.cost_model.attach_calibration(self.lifecycle.calibration)
        return self.lifecycle

    def adapt_views(self) -> AdaptationReport:
        """Run one adaptation cycle on demand (engine must be enabled)."""
        if self.lifecycle is None:
            raise ViewError("adaptive lifecycle not enabled; call enable_adaptive first")
        return self.lifecycle.adapt()

    # --------------------------------------------------------------- rewriting
    def _save_rewrites(self, query: GraphQuery, rewrites: list[RewrittenQuery]) -> None:
        """Remember selection-time rewrites under the query's structural key."""
        key = query.structural_signature()
        with self._cache_lock:
            if key not in self._saved_rewrites and len(self._saved_rewrites) >= _MAX_SAVED_REWRITES:
                self._saved_rewrites.pop(next(iter(self._saved_rewrites)), None)
            self._saved_rewrites[key] = rewrites

    def rewrite(self, query: GraphQuery, views: Mapping[tuple, Any] | None = None
                ) -> RewrittenQuery | None:
        """The cheapest rewrite of a query that runs wholly on one view (§V-C).

        ``views`` maps definition signatures to the views a rewrite may use,
        each exposing ``definition`` and ``read_store()``; the catalog's views
        by default.  Each candidate is costed by planning the rewritten query
        on the store it would run on.  Mixed rewrites — raw hops kept beside
        the connector edge — are never chosen
        (:attr:`~repro.core.rewriter.RewrittenQuery.runs_on_view`).

        Returns None when no view produces such a rewrite.
        """
        if views is None:
            views = self.catalog.by_signature
        saved = self._saved_rewrites.get(query.structural_signature(), [])
        rewrites = [r for r in saved if r.candidate.definition.signature() in views]
        if not rewrites:
            # Re-enumerate: generate candidates, prune those not materialized.
            candidates = [
                candidate for candidate in self.enumerate_views(query).candidates
                if candidate.definition.signature() in views
            ]
            rewrites = self.rewriter.applicable(query, candidates)

        def cost(rewrite: RewrittenQuery) -> float:
            store = views[rewrite.candidate.definition.signature()].read_store()
            return self.plan_for(rewrite.rewritten, store).estimated_cost

        return min((r for r in rewrites if r.runs_on_view), key=cost, default=None)

    # ------------------------------------------------------ planning & costing
    def _graph_key(self, graph: GraphLike) -> tuple[str, int | None]:
        return (getattr(graph, "name", "?"), getattr(graph, "version", None))

    def planner_for(self, graph: GraphLike) -> QueryPlanner:
        """The query planner for a graph, cached per (name, version).

        Its statistics come from :func:`compute_statistics`, memoised per
        graph version, so assessing N rewrites against one view costs one
        degree scan total.
        """
        key = self._graph_key(graph)
        planner = self._planners.get(key)
        if planner is None:
            planner = QueryPlanner(graph)
            with self._cache_lock:
                existing = self._planners.get(key)
                if existing is not None:
                    return existing
                if len(self._planners) >= _MAX_CACHED_PLANNERS:
                    self._planners.pop(next(iter(self._planners)), None)
                self._planners[key] = planner
        return planner

    def plan_for(self, query: GraphQuery, graph: GraphLike) -> LogicalPlan:
        """The logical plan of ``query`` over ``graph``.

        Cached per (structural query signature, graph name, graph version) —
        the execution-layer analogue of saved rewrites: repeated queries of a
        serving workload skip planning entirely until the target mutates.
        """
        name, version = self._graph_key(graph)
        key = (query.structural_signature(), name, version)
        plan = self._saved_plans.get(key)
        if plan is None:
            plan = self.planner_for(graph).plan(query)
            with self._cache_lock:
                if key not in self._saved_plans and len(self._saved_plans) >= _MAX_SAVED_PLANS:
                    self._saved_plans.pop(next(iter(self._saved_plans)), None)
                self._saved_plans[key] = plan
        return plan

    def plan_cached(self, query: GraphQuery, graph: GraphLike) -> bool:
        """Whether :meth:`plan_for` would hit the plan cache (no side effects)."""
        name, version = self._graph_key(graph)
        return (query.structural_signature(), name, version) in self._saved_plans

    def _count_plan_cache(self, cached: bool | None) -> None:
        """Tally one *executed query's* cache outcome (not raw lookups: one
        ``execute()`` calls :meth:`plan_for` more than once internally)."""
        if cached is None:
            return
        if cached:
            self.plan_cache_hits += 1
        else:
            self.plan_cache_misses += 1

    @property
    def plan_cache_hit_rate(self) -> float:
        """Fraction of executed queries whose plan came from the plan cache."""
        total = self.plan_cache_hits + self.plan_cache_misses
        return self.plan_cache_hits / total if total else 0.0

    # -------------------------------------------------------------- maintenance
    def _make_maintenance(self) -> MaintenanceManager:
        return MaintenanceManager(
            self.graph, self.catalog, storage=self.storage,
            log_capacity=self.change_log_capacity,
            max_paths=self.materialization_max_paths)

    @property
    def maintenance(self) -> MaintenanceManager:
        """The delta-maintenance subsystem (created — and change capture
        enabled — on first use)."""
        if self._maintenance is None:
            self._maintenance = self._make_maintenance()
        return self._maintenance

    def refresh_views(self) -> RefreshReport:
        """Bring every materialized view up to date with the base graph.

        Replays the change-capture delta through the maintenance subsystem:
        k-hop connectors and filter summarizers are maintained incrementally,
        the rest re-materialized; refreshed views get their read-optimized
        snapshots re-frozen by the storage manager.  On the very first call
        change capture may only just have been attached, in which case stale
        views are re-materialized once and maintained incrementally from then
        on.
        """
        return self.maintenance.refresh()

    # ---------------------------------------------------------------- execution
    def execute(self, query: GraphQuery, use_views: bool = True,
                max_work: int | None = None, engine: str = "planner"
                ) -> QueryOutcome:
        """Execute a query on the live graph, choosing base vs. best view.

        Runs :meth:`execute_on` over the base graph's CSR snapshot (frozen
        once per version read, like the served publish) and the catalog's
        views, plus the two embedded-only steps: delta maintenance first
        under ``auto_refresh``, and the adaptive lifecycle engine fed
        afterwards (served readers never mutate the catalog).

        Args:
            query: Parsed query to run.
            use_views: Consider materialized-view rewrites at all.
            max_work: Work budget forwarded to the executor.
            engine: ``"planner"`` (default) or ``"interpreter"`` — the
                latter runs the seed backtracking engine (the same
                base-vs-view choice still applies) and is what differential
                tests compare against.
        """
        if use_views and self.auto_refresh and len(self.catalog):
            self.refresh_views()
        outcome = self.execute_on(query, self.storage.freeze(self.graph),
                                  self.catalog.by_signature, use_views=use_views,
                                  max_work=max_work, engine=engine)
        # Feed the adaptive lifecycle engine; raw baselines (use_views=False)
        # stay out of the log so A/B comparisons don't skew the mix.
        if self.lifecycle is not None and use_views:
            outcome.adaptation = self.lifecycle.observe(query, outcome)
        return outcome

    def execute_on(self, query: GraphQuery, base: GraphLike,
                   views: Mapping[tuple, Any], *, use_views: bool = True,
                   max_work: int | None = None, engine: str = "planner"
                   ) -> QueryOutcome:
        """The base-vs-view decision of §V-C over explicit stores, executed.

        The base query is planned on ``base``; the cheapest rewrite that runs
        wholly on one of ``views`` (see :meth:`rewrite`) is planned on that
        view's store; the cheaper plan runs (the view wins ties — its
        statistics are exact where the base estimate saturates).  The outcome
        records both costs, the executed plan, and ``base``'s version.
        :meth:`execute` and the MVCC service's ``execute_pinned`` both decide
        here, so embedded and served answers agree at the same version.
        """
        start = time.perf_counter()
        if engine not in ENGINES:
            raise QueryExecutionError(
                f"unknown engine {engine!r}; expected one of {ENGINES}")
        # Sampled *before* planning: the base-plan lookup below populates the
        # cache within this very call, so a check afterwards would always
        # report a hit.  "Had we already planned this query shape against
        # this graph version" is the signal serving metrics want.
        cached = self.plan_cached(query, base) if engine == "planner" else None
        self._count_plan_cache(cached)
        plan = self.plan_for(query, base)
        base_cost = plan.estimated_cost
        rewrite = self.rewrite(query, views) if use_views and views else None
        rewrite_cost = used_view = None
        target, run_query = base, query
        if rewrite is not None:
            view = views[rewrite.candidate.definition.signature()]
            store = view.read_store()
            rewrite_plan = self.plan_for(rewrite.rewritten, store)
            rewrite_cost = rewrite_plan.estimated_cost
            if rewrite_cost <= base_cost:
                used_view, target = view, store
                run_query, plan = rewrite.rewritten, rewrite_plan
        if engine == "interpreter":
            plan = None
            result = QueryExecutor(target, max_work=max_work,
                                   engine="interpreter").execute(run_query)
        else:
            result = PhysicalExecutor(target, max_work=max_work).execute(plan)
        outcome = QueryOutcome(
            query=query, result=result, used_view=used_view,
            rewrite=rewrite if used_view is not None else None, plan=plan,
            base_cost=base_cost, rewrite_cost=rewrite_cost,
            considered_view=rewrite.candidate.definition.name if rewrite else None,
            engine=engine, plan_cache_hit=cached,
            executed_version=getattr(base, "version", None),
            elapsed_seconds=time.perf_counter() - start)
        if self.metrics is not None:
            self.metrics.observe_query(outcome)
        return outcome

    def execute_text(self, text: str, name: str = "", use_views: bool = True,
                     engine: str = "planner") -> QueryOutcome:
        """Parse and execute query text."""
        return self.execute(self.parse(text, name=name), use_views=use_views,
                            engine=engine)

    # -------------------------------------------------------------- durability
    def persist_views(self, path) -> PersistentViewStore:
        """Snapshot the current view catalog to ``path``; returns the store used.

        When the adaptive lifecycle engine is enabled, its advisor state
        (workload log + cost calibration) is checkpointed alongside the
        views, so a restarted process resumes selection from the same
        evidence.
        """
        store = PersistentViewStore(path)
        store.save_catalog(self.catalog)
        if self.lifecycle is not None:
            self.lifecycle.checkpoint(store)
        return store

    def restore_views(self, path) -> int:
        """Reload the views persisted at ``path`` into the catalog.

        Returns the number of views restored.  Restored views flow through
        :meth:`ViewCatalog.register`, so the storage manager freezes them just
        like fresh materializations.  When the adaptive lifecycle engine is
        enabled, any checkpointed advisor state is restored too (enable the
        engine *before* restoring).
        """
        store = PersistentViewStore(path)
        views = store.load_views()
        for view in views:
            self.catalog.register(view)
        if self.lifecycle is not None:
            self.lifecycle.restore(store)
        return len(views)
