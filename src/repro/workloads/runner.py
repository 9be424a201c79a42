"""Workload runner: evaluates Q1–Q8 over base graphs and connector views.

The Fig. 7 experiment measures total query runtime over the filtered graph vs
an equivalent 2-hop connector view (heterogeneous datasets), or the raw graph
vs the connector (homogeneous datasets).  The runner prepares both graphs for
a dataset, runs every workload query in both modes, and reports wall-clock
time, a machine-independent work proxy (result size), the speedup, and which
analytics engine served each query (index-space CSR ``kernel`` vs dict-store
``reference`` — see :mod:`repro.analytics.kernels`).

Beyond the paper's read-only setup, :func:`run_streaming_workload` models the
production serving scenario the ROADMAP targets: batches of base-graph
mutations interleaved with workload queries, with the delta-maintenance
subsystem (:class:`~repro.views.delta.MaintenanceManager`) keeping the
connector view fresh between batches instead of re-materializing it.

:func:`run_adaptive_workload` models the other serving axis: the *query mix*
drifts mid-stream (phases), and the workload-adaptive view lifecycle engine
(:mod:`repro.core.lifecycle`) re-selects, materializes, and evicts views
online — compared against freezing the initial selection forever.

:func:`run_concurrent_workload` closes the loop on the concurrent service:
reader *threads* execute against MVCC-pinned snapshots while a writer thread
commits mutation batches through the single-writer path, and every read is
differentially checked against a serial-oracle replay (a frozen
:meth:`~repro.graph.property_graph.PropertyGraph.copy` per published version,
queried through the backtracking interpreter).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.analytics import kernels
from repro.datasets.registry import DatasetSpec
from repro.graph.property_graph import PropertyGraph
from repro.graph.transform import induced_subgraph_by_vertex_types
from repro.query.ast import GraphQuery
from repro.query.parser import parse_query
from repro.storage.base import GraphLike
from repro.storage.manager import StorageManager
from repro.views.catalog import MaterializedView, ViewCatalog
from repro.views.connectors import materialize_connector
from repro.views.definitions import ConnectorView
from repro.views.delta import MaintenanceManager
from repro.workloads.queries import WorkloadQuery, _result_size, workload_for_dataset


@dataclass(frozen=True)
class QueryRuntime:
    """Runtime of one query in one execution mode."""

    dataset: str
    query_id: str
    mode: str  # "filter" / "raw" / "connector"
    seconds: float
    result_size: int
    #: Which analytics implementation the query's graph dispatches to:
    #: ``"kernel"`` (index-space CSR kernels) or ``"reference"`` (dict-store
    #: oracle).  Count-only queries (Q5/Q6) answer from size counters either
    #: way; the field reports the dispatch decision, not per-query coverage.
    engine: str = "reference"


@dataclass
class WorkloadRunResult:
    """All runtimes collected for one dataset."""

    dataset: str
    runtimes: list[QueryRuntime] = field(default_factory=list)

    def runtime(self, query_id: str, mode: str) -> QueryRuntime | None:
        for record in self.runtimes:
            if record.query_id == query_id and record.mode == mode:
                return record
        return None

    def speedup(self, query_id: str) -> float | None:
        """Base-mode time divided by connector-mode time for one query."""
        base = next((r for r in self.runtimes
                     if r.query_id == query_id and r.mode != "connector"), None)
        connector = self.runtime(query_id, "connector")
        if base is None or connector is None or connector.seconds == 0:
            return None
        return base.seconds / connector.seconds


@dataclass
class PreparedDataset:
    """A dataset with its base (filter/raw) graph and 2-hop connector view."""

    spec: DatasetSpec
    base_graph: PropertyGraph
    connector_graph: PropertyGraph
    base_mode: str  # "filter" for heterogeneous, "raw" for homogeneous
    connector_definition: ConnectorView
    #: Storage manager that freezes both sides for the run.
    storage: StorageManager
    #: Catalog holding the materialized connector (drives delta maintenance
    #: in the streaming workload).
    catalog: ViewCatalog | None = None
    #: The materialized connector view itself.
    view: MaterializedView | None = None
    #: Path cap the connector was materialized with; forwarded to maintenance
    #: fallbacks and verification rebuilds so they stay comparable.
    max_connector_paths: int | None = None

    def graph_for(self, mode: str) -> GraphLike:
        """The representation queries in ``mode`` should run against.

        Both the base graph and the connector view are read-only for the
        duration of a workload run (Q7's community write-back only annotates
        vertex properties), so both sides are served from read-optimized
        snapshots — keeping the base-vs-connector comparison on equal
        physical footing.
        """
        if mode == "connector":
            # Prefer the live view graph: maintenance may have replaced it.
            graph = self.view.graph if self.view is not None else self.connector_graph
        else:
            graph = self.base_graph
        return self.storage.freeze(graph)


#: Types kept by the schema-level summarizer per heterogeneous dataset (§VII-B).
_FILTER_TYPES = {
    "prov": ("Job", "File"),
    "prov-summarized": ("Job", "File"),
    "dblp": ("Author", "Article", "InProc"),
    "dblp-summarized": ("Author", "Article", "InProc"),
}


def prepare_dataset(spec: DatasetSpec,
                    max_connector_paths: int | None = 2_000_000) -> PreparedDataset:
    """Build the base graph and materialize its 2-hop connector view.

    For the heterogeneous datasets the base graph is the summarizer-filtered
    graph (jobs+files / authors+publications); for the homogeneous ones it is
    the raw graph, exactly mirroring the §VII-F setup.

    Args:
        spec: Dataset to prepare.
        max_connector_paths: Cap on paths contracted into the connector.
    """
    storage = StorageManager()
    raw = spec.build()
    if spec.heterogeneous:
        keep = _FILTER_TYPES.get(spec.name, tuple(raw.vertex_types()))
        base_graph = induced_subgraph_by_vertex_types(raw, keep,
                                                      name=f"{spec.name}|filter")
        base_mode = "filter"
    else:
        base_graph = raw
        base_mode = "raw"

    connector_definition = ConnectorView(
        name=f"{spec.name}_2hop_connector",
        connector_kind="k_hop_same_vertex_type",
        source_type=spec.connector_vertex_type,
        target_type=spec.connector_vertex_type,
        k=2,
    )
    catalog = ViewCatalog(storage=storage)
    view = catalog.materialize(base_graph, connector_definition,
                               max_paths=max_connector_paths)
    return PreparedDataset(
        spec=spec,
        base_graph=base_graph,
        connector_graph=view.graph,
        base_mode=base_mode,
        connector_definition=connector_definition,
        storage=storage,
        catalog=catalog,
        view=view,
        max_connector_paths=max_connector_paths,
    )


def run_query(query: WorkloadQuery, prepared: PreparedDataset,
              mode: str) -> QueryRuntime:
    """Run one workload query in one mode and record its runtime + engine."""
    graph = prepared.graph_for(mode)
    engine = kernels.engine_for(graph)
    runner = query.run_connector if mode == "connector" else query.run_base
    start = time.perf_counter()
    result = runner(graph)
    elapsed = time.perf_counter() - start
    return QueryRuntime(
        dataset=prepared.spec.name,
        query_id=query.query_id,
        mode=mode,
        seconds=elapsed,
        result_size=_result_size(result),
        engine=engine,
    )


def run_workload(prepared: PreparedDataset,
                 query_ids: Iterable[str] | None = None,
                 repetitions: int = 1) -> WorkloadRunResult:
    """Run the Table IV workload over a prepared dataset in both modes.

    Args:
        prepared: Output of :func:`prepare_dataset`.
        query_ids: Restrict to specific queries (e.g. ``["Q2", "Q4"]``).
        repetitions: Average wall-clock time over this many runs (the paper
            averages over 10 runs; benchmarks use fewer for speed).
    """
    wanted = set(query_ids) if query_ids is not None else None
    result = WorkloadRunResult(dataset=prepared.spec.name)
    for query in workload_for_dataset(prepared.spec.name):
        if wanted is not None and query.query_id not in wanted:
            continue
        for mode in (prepared.base_mode, "connector"):
            total = 0.0
            size = 0
            engine = "reference"
            for _ in range(max(repetitions, 1)):
                record = run_query(query, prepared, mode)
                total += record.seconds
                size = record.result_size
                engine = record.engine
            result.runtimes.append(QueryRuntime(
                dataset=prepared.spec.name,
                query_id=query.query_id,
                mode=mode,
                seconds=total / max(repetitions, 1),
                result_size=size,
                engine=engine,
            ))
    return result


# ------------------------------------------------------- pattern-query mode
@dataclass(frozen=True)
class PatternQueryRecord:
    """One Cypher workload query run through the Kaskade optimizer.

    Next to the work counters it carries the *planner decision*: the planned
    cost of the base query, the planned cost of the best view rewrite (None
    when no rewrite applied), which view actually served the query, and the
    EXPLAIN-style plan text of whatever was executed.
    """

    dataset: str
    query_id: str
    engine: str
    rows: int
    total_work: int
    seconds: float
    used_view: str | None
    base_cost: float | None
    rewrite_cost: float | None
    plan_text: str


def pattern_queries_for_dataset(dataset_name: str) -> list[tuple[str, GraphQuery]]:
    """The parsed graph-pattern (Cypher) queries of the Table IV workload."""
    parsed: list[tuple[str, GraphQuery]] = []
    for query in workload_for_dataset(dataset_name):
        if query.cypher is not None:
            parsed.append((query.query_id,
                           parse_query(query.cypher, name=query.query_id)))
    return parsed


def run_pattern_workload(prepared: PreparedDataset, engine: str = "planner",
                         use_views: bool = True,
                         max_work: int | None = None) -> list[PatternQueryRecord]:
    """Run the workload's Cypher queries through the full optimizer path.

    Unlike :func:`run_workload` (which evaluates the Q1–Q8 analytics
    callables), this drives parse → plan → base-vs-view decision → batched
    execution for every pattern query, against the prepared dataset's base
    graph with its 2-hop connector registered — and reports the planner's
    decisions next to the work counters, which is how benchmarks and serving
    dashboards see *why* a query was fast.
    """
    from repro.core.kaskade import Kaskade  # deferred: core imports workloads' peers

    kaskade = Kaskade(prepared.base_graph, storage=prepared.storage)
    if prepared.view is not None:
        kaskade.catalog.register(prepared.view)
    records: list[PatternQueryRecord] = []
    for query_id, query in pattern_queries_for_dataset(prepared.spec.name):
        outcome = kaskade.execute(query, use_views=use_views, engine=engine,
                                  max_work=max_work)
        records.append(PatternQueryRecord(
            dataset=prepared.spec.name,
            query_id=query_id,
            engine=engine,
            rows=len(outcome.result.rows),
            total_work=outcome.result.stats.total_work,
            seconds=outcome.elapsed_seconds,
            used_view=outcome.used_view_name,
            base_cost=outcome.base_cost,
            rewrite_cost=outcome.rewrite_cost,
            plan_text=outcome.explain(),
        ))
    return records


# --------------------------------------------------------------- adaptive mode
@dataclass(frozen=True)
class AdaptiveQueryRecord:
    """One query served during an adaptive (drifting-mix) workload run."""

    dataset: str
    phase: int
    index: int
    query_name: str
    total_work: int
    used_view: str | None
    #: Whether serving this query triggered an adaptation cycle.
    adapted: bool = False


@dataclass
class AdaptiveRunResult:
    """Result of one :func:`run_adaptive_workload` pass (one arm of the A/B)."""

    dataset: str
    adaptive: bool
    records: list[AdaptiveQueryRecord] = field(default_factory=list)
    #: Reports of every adaptation cycle (empty for the frozen arm).
    adaptations: list = field(default_factory=list)
    initial_views: list[str] = field(default_factory=list)
    final_views: list[str] = field(default_factory=list)

    @property
    def total_work(self) -> int:
        """Total traversal work across every query of every phase."""
        return sum(record.total_work for record in self.records)

    def phase_work(self, phase: int) -> int:
        return sum(r.total_work for r in self.records if r.phase == phase)

    @property
    def evicted_view_names(self) -> list[str]:
        names: list[str] = []
        for report in self.adaptations:
            names.extend(report.evicted_names)
        return names

    @property
    def materialized_view_names(self) -> list[str]:
        names: list[str] = []
        for report in self.adaptations:
            names.extend(report.materialized)
        return names


def run_adaptive_workload(graph: PropertyGraph,
                          phases: Sequence[Sequence[GraphQuery]],
                          budget_edges: float,
                          adapt_every: int = 16,
                          adaptive: bool = True,
                          initial_selection: bool = True,
                          engine: str = "planner",
                          lifecycle_config=None,
                          kaskade=None) -> AdaptiveRunResult:
    """Serve a drifting query mix, optionally with the adaptive lifecycle on.

    Both arms of the frozen-vs-adaptive comparison start identically: view
    selection runs once over the *first* phase's distinct queries under the
    space budget.  The frozen arm (``adaptive=False``) then serves every
    phase from that initial catalog; the adaptive arm re-selects every
    ``adapt_every`` queries from the decayed workload log, materializing
    newly winning views and evicting the rest.

    Args:
        graph: Base graph to serve.
        phases: The query stream, one sequence per phase, executed in order —
            the mix "flips" at each phase boundary.
        budget_edges: Space budget (estimated edges) for selection.
        adapt_every: Queries between adaptation cycles (adaptive arm only).
        adaptive: Enable the lifecycle engine, or freeze the initial catalog.
        initial_selection: Run the offline §V-B selection on phase 0's
            distinct queries before serving (both arms).
        engine: Execution engine forwarded to :meth:`Kaskade.execute`.
        lifecycle_config: Optional :class:`~repro.core.lifecycle.LifecycleConfig`
            overriding ``budget_edges``/``adapt_every``.
        kaskade: Pre-built :class:`~repro.core.kaskade.Kaskade` to reuse
            (a fresh one is created when omitted).
    """
    from repro.core.kaskade import Kaskade  # deferred: core imports workloads' peers

    if kaskade is None:
        kaskade = Kaskade(graph, storage=StorageManager())
    if adaptive:
        # Enable before the initial selection so the calibrator observes the
        # actual sizes of the initially materialized views.
        if lifecycle_config is not None:
            kaskade.enable_adaptive(config=lifecycle_config)
        else:
            kaskade.enable_adaptive(budget_edges, adapt_every=adapt_every)
    result = AdaptiveRunResult(dataset=graph.name, adaptive=adaptive)
    if initial_selection and phases:
        distinct: dict[str, GraphQuery] = {}
        for query in phases[0]:
            distinct.setdefault(query.structural_signature(), query)
        report = kaskade.select_views(list(distinct.values()), budget_edges)
        result.initial_views = report.view_names
    for phase_index, phase in enumerate(phases):
        for index, query in enumerate(phase):
            outcome = kaskade.execute(query, engine=engine)
            if outcome.adaptation is not None:
                result.adaptations.append(outcome.adaptation)
            result.records.append(AdaptiveQueryRecord(
                dataset=graph.name,
                phase=phase_index,
                index=index,
                query_name=query.name or query.structural_signature(),
                total_work=outcome.result.stats.total_work,
                used_view=outcome.used_view_name,
                adapted=outcome.adaptation is not None,
            ))
    result.final_views = [view.definition.name for view in kaskade.catalog]
    return result


# -------------------------------------------------------------- streaming mode
@dataclass
class StreamingBatchRecord:
    """One mutation batch: what changed, how long maintenance took, queries run."""

    batch_index: int
    edges_added: int
    edges_removed: int
    refresh_seconds: float
    view_edges_after: int
    query_runtimes: list[QueryRuntime] = field(default_factory=list)


@dataclass
class StreamingRunResult:
    """Result of a streaming-update workload run."""

    dataset: str
    batches: list[StreamingBatchRecord] = field(default_factory=list)
    #: Whether the maintained view's edge set matched a from-scratch
    #: re-materialization after the final batch (None when not verified).
    final_view_consistent: bool | None = None

    @property
    def total_refresh_seconds(self) -> float:
        return sum(batch.refresh_seconds for batch in self.batches)

    @property
    def total_mutations(self) -> int:
        return sum(batch.edges_added + batch.edges_removed for batch in self.batches)


def generate_edge_mutations(graph: PropertyGraph, count: int,
                            rng: random.Random,
                            remove_fraction: float = 0.3) -> tuple[int, int]:
    """Apply ``count`` random schema-respecting edge mutations to ``graph``.

    Removals pick a random existing edge; insertions clone the shape of a
    random existing edge (same label, endpoint types drawn from the same
    types), so the stream stays within the dataset's schema — mirroring
    "new jobs write new files" style production traffic.

    Returns:
        (edges_added, edges_removed).
    """
    added = removed = 0
    # One edge pool per call keeps generation O(E + count) instead of
    # re-listing every edge per mutation; popped entries guarantee unique
    # removal victims, and templates only need label + endpoint types.
    pool = list(graph.edges())
    type_ids: dict[str, list] = {}
    for _ in range(count):
        if not pool:
            pool = list(graph.edges())
            if not pool:
                break
        if rng.random() < remove_fraction:
            index = rng.randrange(len(pool))
            pool[index], pool[-1] = pool[-1], pool[index]
            victim = pool.pop()
            graph.remove_edge(victim.id)
            removed += 1
            continue
        template = rng.choice(pool)
        source_type = graph.vertex(template.source).type
        target_type = graph.vertex(template.target).type
        for vertex_type in (source_type, target_type):
            if vertex_type not in type_ids:
                type_ids[vertex_type] = graph.vertex_ids(vertex_type)
        source = rng.choice(type_ids[source_type])
        target = rng.choice(type_ids[target_type])
        if source == target:
            continue
        graph.add_edge(source, target, template.label)
        added += 1
    return added, removed


def run_streaming_workload(prepared: PreparedDataset,
                           num_batches: int = 4,
                           mutations_per_batch: int = 40,
                           query_ids: Iterable[str] | None = None,
                           seed: int = 17,
                           remove_fraction: float = 0.3,
                           verify: bool = True) -> StreamingRunResult:
    """Interleave base-graph mutation batches with connector-mode queries.

    Each round applies a batch of random edge mutations to the base graph,
    refreshes every catalog view through the delta-maintenance subsystem, and
    runs the workload queries in connector mode against the freshly
    maintained (and re-frozen) view — the serving pattern of a system under
    heavy mutating traffic.

    Args:
        prepared: Output of :func:`prepare_dataset` (must carry its catalog).
        num_batches: Number of mutation/query rounds.
        mutations_per_batch: Edge mutations applied per round.
        query_ids: Restrict to specific queries (e.g. ``["Q2"]``).
        seed: Mutation-stream RNG seed.
        remove_fraction: Fraction of mutations that delete an edge.
        verify: After the final batch, re-materialize the connector from
            scratch and record whether the maintained edge set matches.
    """
    if prepared.catalog is None or prepared.view is None:
        raise ValueError("run_streaming_workload needs a PreparedDataset with its catalog")
    rng = random.Random(seed)
    manager = MaintenanceManager(prepared.base_graph, prepared.catalog,
                                 storage=prepared.storage,
                                 max_paths=prepared.max_connector_paths)
    wanted = set(query_ids) if query_ids is not None else None
    queries = [query for query in workload_for_dataset(prepared.spec.name)
               if wanted is None or query.query_id in wanted]
    result = StreamingRunResult(dataset=prepared.spec.name)

    for batch_index in range(num_batches):
        added, removed = generate_edge_mutations(
            prepared.base_graph, mutations_per_batch, rng,
            remove_fraction=remove_fraction)
        refresh = manager.refresh()
        record = StreamingBatchRecord(
            batch_index=batch_index,
            edges_added=added,
            edges_removed=removed,
            refresh_seconds=refresh.elapsed_seconds,
            view_edges_after=prepared.view.graph.num_edges,
        )
        for query in queries:
            record.query_runtimes.append(run_query(query, prepared, "connector"))
        result.batches.append(record)

    if verify:
        fresh = materialize_connector(prepared.base_graph,
                                      prepared.connector_definition,
                                      max_paths=prepared.max_connector_paths)
        maintained_edges = {(e.source, e.target)
                            for e in prepared.view.graph.edges()}
        fresh_edges = {(e.source, e.target) for e in fresh.edges()}
        result.final_view_consistent = maintained_edges == fresh_edges
    return result


# -------------------------------------------------------------- concurrent mode
@dataclass(frozen=True)
class ConcurrentReadRecord:
    """One snapshot-pinned read performed by a reader thread."""

    reader: int
    query_name: str
    #: Snapshot version the read executed against (``executed_version``).
    version: int
    rows: int
    seconds: float
    used_view: str | None = None


@dataclass
class ConcurrentRunResult:
    """Result of one :func:`run_concurrent_workload` pass."""

    dataset: str
    reads: list[ConcurrentReadRecord] = field(default_factory=list)
    #: Versions published by the writer, in commit order (head first entry is
    #: the initial version that existed before the writer started).
    published_versions: list[int] = field(default_factory=list)
    #: Human-readable descriptions of every isolation violation found.  Empty
    #: means every read saw a published version and matched the serial oracle.
    isolation_violations: list[str] = field(default_factory=list)
    #: Reads that were differentially replayed against the oracle.
    oracle_checked: int = 0
    commit_errors: list[str] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return not self.isolation_violations

    @property
    def versions_observed(self) -> list[int]:
        return sorted({record.version for record in self.reads})


def generate_mutation_ops(graph: PropertyGraph, count: int, rng: random.Random,
                          remove_fraction: float = 0.3) -> list[dict]:
    """Build ``count`` schema-respecting edge-mutation *op dicts*.

    The service-level twin of :func:`generate_edge_mutations`: instead of
    mutating ``graph`` directly it emits ``{"op": ...}`` dicts for
    :meth:`~repro.service.mvcc.SnapshotManager.commit`, generated against the
    graph's current state (call it from the writer thread, between commits).
    """
    ops: list[dict] = []
    pool = list(graph.edges())
    type_ids: dict[str, list] = {}
    for _ in range(count):
        if not pool:
            break
        if rng.random() < remove_fraction:
            index = rng.randrange(len(pool))
            pool[index], pool[-1] = pool[-1], pool[index]
            victim = pool.pop()
            ops.append({"op": "remove_edge", "edge_id": victim.id})
            continue
        template = rng.choice(pool)
        source_type = graph.vertex(template.source).type
        target_type = graph.vertex(template.target).type
        for vertex_type in (source_type, target_type):
            if vertex_type not in type_ids:
                type_ids[vertex_type] = graph.vertex_ids(vertex_type)
        source = rng.choice(type_ids[source_type])
        target = rng.choice(type_ids[target_type])
        if source == target:
            continue
        ops.append({"op": "add_edge", "source": source, "target": target,
                    "label": template.label})
    return ops


def _normalize_rows(rows: Sequence) -> list[str]:
    """Order-insensitive, hash-free row multiset (rows may hold dicts)."""
    return sorted(repr(row) for row in rows)


def run_concurrent_workload(graph: PropertyGraph,
                            queries: Sequence[GraphQuery],
                            num_readers: int = 4,
                            num_batches: int = 6,
                            mutations_per_batch: int = 20,
                            reads_per_reader: int = 12,
                            seed: int = 17,
                            remove_fraction: float = 0.3,
                            use_views: bool = False,
                            max_work: int | None = None,
                            verify_oracle: bool = True,
                            kaskade=None) -> ConcurrentRunResult:
    """Readers on pinned snapshots vs a committing writer, oracle-checked.

    One writer thread pushes ``num_batches`` mutation batches through
    :meth:`~repro.service.mvcc.SnapshotManager.commit` while ``num_readers``
    threads concurrently pin snapshots and execute queries against the frozen
    stores.  Snapshot isolation is then asserted two ways:

    1. **Published versions only** — every read's ``executed_version`` must be
       one of the versions the writer actually published (or the initial
       head); a reader can never observe a half-applied batch.
    2. **Serial-oracle equality** — the writer snapshots a
       :meth:`~repro.graph.property_graph.PropertyGraph.copy` of the base
       graph at every published version; afterwards each distinct
       ``(version, query)`` read is replayed serially through the
       backtracking interpreter on that copy, and the row multisets must
       match exactly.

    Violations are *collected* (not raised) in
    :attr:`ConcurrentRunResult.isolation_violations` so tests can report all
    of them at once.

    Args:
        graph: Base graph to serve (mutated by the writer's commits).
        queries: Parsed pattern queries the readers draw from.
        use_views: Let snapshot reads use captured view rewrites (needs a
            ``kaskade`` with a populated catalog to have any effect).
        verify_oracle: Run the serial interpreter replay (pass False for
            pure throughput runs — e.g. benchmarks).
        kaskade: Pre-built :class:`~repro.core.kaskade.Kaskade` to reuse.
    """
    from repro.core.kaskade import Kaskade  # deferred: core imports workloads' peers
    from repro.query.executor import QueryExecutor
    from repro.service.mvcc import SnapshotManager

    if not queries:
        raise ValueError("run_concurrent_workload needs at least one query")
    if kaskade is None:
        kaskade = Kaskade(graph, storage=StorageManager())
    manager = SnapshotManager(kaskade, max_retained=max(4, num_batches + 2))
    result = ConcurrentRunResult(dataset=graph.name)
    result.published_versions.append(manager.head_version())

    # Serial oracle: a frozen deep copy of the base graph per published
    # version.  Only the writer thread touches it (and the live graph).
    oracle: dict[int, PropertyGraph] = {}
    if verify_oracle:
        oracle[manager.head_version()] = graph.copy()
    writer_rng = random.Random(seed)
    reads_lock = threading.Lock()
    stop = threading.Event()

    def writer() -> None:
        try:
            for _ in range(num_batches):
                ops = generate_mutation_ops(graph, mutations_per_batch,
                                            writer_rng,
                                            remove_fraction=remove_fraction)
                commit = manager.commit(ops)
                result.commit_errors.extend(commit.errors)
                result.published_versions.append(commit.version)
                if verify_oracle and commit.version not in oracle:
                    oracle[commit.version] = graph.copy()
                time.sleep(0.001)  # let readers interleave between batches
        finally:
            stop.set()

    def reader(reader_id: int) -> None:
        rng = random.Random(seed + 1000 + reader_id)
        for _ in range(reads_per_reader):
            query = rng.choice(list(queries))
            start = time.perf_counter()
            outcome = manager.execute(query, max_work=max_work,
                                      use_views=use_views)
            record = ConcurrentReadRecord(
                reader=reader_id,
                query_name=query.name or query.structural_signature(),
                version=outcome.executed_version,
                rows=len(outcome.result.rows),
                seconds=time.perf_counter() - start,
                used_view=outcome.used_view_name,
            )
            with reads_lock:
                result.reads.append(record)
                # Keep the *observed rows* for the differential check without
                # holding them on the frozen record (they can be large).
                _observed.setdefault((record.version, record.query_name),
                                     _normalize_rows(outcome.result.rows))
            if stop.is_set() and rng.random() < 0.25:
                break  # some readers finish early; others outlive the writer

    _observed: dict[tuple[int, str], list[str]] = {}
    query_by_name = {(q.name or q.structural_signature()): q for q in queries}
    threads = [threading.Thread(target=writer, name="concurrent-writer")]
    threads.extend(threading.Thread(target=reader, args=(i,),
                                    name=f"concurrent-reader-{i}")
                   for i in range(num_readers))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    published = set(result.published_versions)
    for record in result.reads:
        if record.version not in published:
            result.isolation_violations.append(
                f"reader {record.reader} observed unpublished version "
                f"{record.version} (published: {sorted(published)})")

    if verify_oracle:
        for (version, query_name), observed in sorted(_observed.items()):
            frozen = oracle.get(version)
            query = query_by_name.get(query_name)
            if frozen is None or query is None:
                continue  # unpublished version: already reported above
            replay = QueryExecutor(frozen, engine="interpreter").execute(query)
            expected = _normalize_rows(replay.rows)
            result.oracle_checked += 1
            if observed != expected:
                result.isolation_violations.append(
                    f"rows diverge from serial oracle at version {version} "
                    f"for {query_name}: {len(observed)} observed vs "
                    f"{len(expected)} expected")
    return result


# --------------------------------------------------------- crash-recovery
@dataclass
class CrashRecoveryResult:
    """Outcome of one crash-recovery torture run.

    The invariant the differential asserts: after a crash at any fault
    point, the recovered graph is **exactly** the acknowledged prefix —
    identical fingerprint (vertices, edges *with ids*, properties),
    identical version counter, identical interpreter rows.  No acknowledged
    commit lost, no unacknowledged commit resurrected.
    """

    fault_point: str | None
    crashed: bool = False
    attempted_batches: int = 0
    acknowledged_batches: int = 0
    failed_batches: int = 0
    recovered_version: int = 0
    oracle_version: int = 0
    recovery: object | None = None
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def run_crash_recovery_workload(graph: PropertyGraph, *, root,
                                fault_point: str | None = None,
                                fault_mode: str = "crash",
                                crash_after: int = 0,
                                num_batches: int = 12,
                                mutations_per_batch: int = 6,
                                seed: int = 17,
                                checkpoint_every: int = 4,
                                segment_bytes: int = 4096,
                                remove_fraction: float = 0.3,
                                queries: Sequence[GraphQuery] | None = None
                                ) -> CrashRecoveryResult:
    """Drive durable commits into a crash, recover, and differentially verify.

    Mutation batches go through the full service stack
    (:meth:`~repro.service.server.GraphService.handle` — so the
    ``server.handle`` fault point participates), with one fault armed at
    ``fault_point`` (hit number ``crash_after``).  A serial **oracle** graph
    — an id-preserving clone of the seed — applies exactly the batches the
    service *acknowledged* (HTTP 200).  On crash the harness simulates power
    loss (unsynced WAL bytes vanish), recovers in a "new process", and
    asserts oracle equality three ways: graph fingerprint (edge ids
    included), version counter, and interpreter rows for ``queries``.

    Args:
        graph: Seed graph; mutated in place by the live service.
        root: Durability root directory (WAL + checkpoints).
        fault_point: One of :data:`~repro.testing.faults.FAULT_POINTS`, or
            None for a fault-free run ending in an abrupt power cut.
        fault_mode: Plan mode (``"crash"``, ``"raise"``, ``"torn_write"``).
        crash_after: Hits of the point to let pass before firing.
        checkpoint_every: Commits between checkpoints — kept small so the
            sweep exercises checkpoint boundaries, not just WAL replay.
        segment_bytes: WAL rollover threshold — small, to cross segments.
        queries: Parsed queries for the interpreter row differential.
    """
    from repro.core.kaskade import Kaskade  # deferred: core imports workloads' peers
    from repro.durability import DurabilityEngine, apply_op, recover_kaskade
    from repro.graph.io import graph_fingerprint, graph_from_dict, graph_to_dict
    from repro.query.executor import QueryExecutor
    from repro.service.server import GraphService
    from repro.testing.faults import FaultInjector, InjectedCrash

    # Id-preserving clone: remove_edge-by-id ops must mean the same edge on
    # both sides, which PropertyGraph.copy (it renumbers ids) cannot give.
    oracle = graph_from_dict(graph_to_dict(graph, include_ids=True))
    faults = FaultInjector(seed=seed)
    engine = DurabilityEngine(root, faults=faults,
                              checkpoint_every=checkpoint_every,
                              segment_bytes=segment_bytes)
    service = GraphService(Kaskade(graph), durability=engine, faults=faults)
    # Arm only after boot: the baseline checkpoint is setup, not traffic.
    if fault_point is not None:
        faults.plan(fault_point, mode=fault_mode, after=crash_after)
    result = CrashRecoveryResult(fault_point=fault_point)
    rng = random.Random(seed + 1)
    vertex_type = next(iter(sorted(graph.vertex_types())), "Vertex")
    for batch in range(num_batches):
        ops = generate_mutation_ops(oracle, mutations_per_batch, rng,
                                    remove_fraction=remove_fraction)
        ops.append({"op": "add_vertex", "id": f"crash_v{batch}",
                    "type": vertex_type})
        result.attempted_batches += 1
        try:
            response = service.handle("POST", "/mutate", {"ops": ops})
        except InjectedCrash:
            result.crashed = True
            break
        if response.status == 200:
            # Acknowledged: the durable marker fsynced.  Mirror the batch
            # into the oracle with the same per-op error tolerance.
            result.acknowledged_batches += 1
            for op in ops:
                try:
                    apply_op(oracle, op)
                except Exception:  # noqa: BLE001 - mirrors commit semantics
                    pass
        else:
            # 500 with an error id (injected raise): the service survived
            # and nothing was applied or acknowledged.
            result.failed_batches += 1
    # Power cut — abrupt even when no fault fired: every run must recover
    # from exactly its fsynced bytes.
    engine.simulate_power_loss()
    recovered, _engine, recovery = recover_kaskade(root)
    result.recovery = recovery
    result.recovered_version = recovered.graph.version
    result.oracle_version = oracle.version
    if recovered.graph.version != oracle.version:
        result.violations.append(
            f"recovered version {recovered.graph.version} != acknowledged "
            f"oracle version {oracle.version}")
    if graph_fingerprint(recovered.graph) != graph_fingerprint(oracle):
        result.violations.append(
            "recovered graph fingerprint diverges from the "
            "acknowledged-prefix oracle")
    for query in queries or ():
        expected = _normalize_rows(
            QueryExecutor(oracle, engine="interpreter").execute(query).rows)
        actual = _normalize_rows(
            QueryExecutor(recovered.graph,
                          engine="interpreter").execute(query).rows)
        if expected != actual:
            result.violations.append(
                f"interpreter rows diverge after recovery for "
                f"{query.name or query.structural_signature()}: "
                f"{len(actual)} recovered vs {len(expected)} oracle")
    return result
