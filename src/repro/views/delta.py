"""Delta-driven maintenance of every view in a catalog.

:class:`~repro.views.maintenance.ConnectorMaintainer` is the single-view
primitive; this module is the *subsystem* around it (§VIII [23], Zhuge &
Garcia-Molina): a :class:`MaintenanceManager` consumes the base graph's
bounded mutation log (:class:`~repro.graph.changelog.ChangeLog`) in batches
and brings **every** materialized view in a
:class:`~repro.views.catalog.ViewCatalog` back in sync:

* **k-hop connectors** are maintained incrementally — inserts via the
  backward x forward path join, deletes via the targeted simple-path witness
  check — replaying each edge event through the corrected maintainer;
* **filter summarizers** (vertex/edge inclusion and removal) are maintained
  by applying the *same keep-predicates materialization uses* to each delta
  event, so the maintained subgraph can never drift from
  :func:`~repro.views.summarizers.materialize_summarizer` semantics;
* everything else (aggregator summarizers, variable-length connectors) falls
  back to full re-materialization, as does any view whose delta has been
  evicted from the bounded log or is larger than the incremental path is
  worth (``max_events_incremental``).

After a view is refreshed the attached
:class:`~repro.storage.manager.StorageManager` (when present) re-freezes its
read-optimized snapshot instead of leaving hot reads on the dict graph.

Events replay in log order against the *current* graph state; the handlers
are written so that out-of-order knowledge (an edge added then removed later
in the same batch, a deleted endpoint) converges to exactly the view a fresh
materialization of the current graph would produce — the differential tests
in ``tests/views/test_delta.py`` assert edge-set identity under randomized
mutation streams.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import EdgeNotFoundError
from repro.graph.changelog import ChangeLog, GraphMutation
from repro.graph.property_graph import Edge, PropertyGraph
from repro.views.catalog import MaterializedView, ViewCatalog
from repro.views.connectors import materialize_connector
from repro.views.definitions import ConnectorView, SummarizerView
from repro.views.maintenance import ConnectorMaintainer, MaintenanceReport
from repro.views.summarizers import (
    FILTER_SUMMARIZER_KINDS,
    edge_keep_predicate,
    materialize_summarizer,
    vertex_keep_predicate,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (manager -> catalog)
    from repro.storage.manager import StorageManager

#: Refresh strategies reported per view.
REFRESH_STRATEGIES = ("fresh", "incremental", "rematerialized")


@dataclass
class ViewRefresh:
    """How one view was brought up to date."""

    name: str
    strategy: str  # one of REFRESH_STRATEGIES
    events_applied: int = 0
    added_edges: int = 0
    removed_edges: int = 0
    seconds: float = 0.0


@dataclass
class RefreshReport:
    """Summary of one :meth:`MaintenanceManager.refresh` pass."""

    base_version: int
    views: list[ViewRefresh] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def refreshed(self) -> int:
        """Views that were stale and got updated (incrementally or rebuilt)."""
        return sum(1 for v in self.views if v.strategy != "fresh")

    @property
    def incremental(self) -> int:
        return sum(1 for v in self.views if v.strategy == "incremental")

    @property
    def rematerialized(self) -> int:
        return sum(1 for v in self.views if v.strategy == "rematerialized")

    @property
    def changed(self) -> bool:
        return any(v.added_edges or v.removed_edges or v.strategy == "rematerialized"
                   for v in self.views)


class MaintenanceManager:
    """Keeps every view of a catalog consistent with one mutating base graph.

    Example:
        >>> from repro.graph import PropertyGraph
        >>> from repro.views import ViewCatalog, job_to_job_connector
        >>> g = PropertyGraph()
        >>> for j in ("j1", "j2"): _ = g.add_vertex(j, "Job")
        >>> _ = g.add_vertex("f1", "File")
        >>> catalog = ViewCatalog()
        >>> view = catalog.materialize(g, job_to_job_connector())
        >>> manager = MaintenanceManager(g, catalog)
        >>> _ = g.add_edge("j1", "f1", "WRITES_TO")
        >>> _ = g.add_edge("f1", "j2", "IS_READ_BY")
        >>> report = manager.refresh()
        >>> view.graph.has_edge("j1", "j2")
        True
    """

    def __init__(self, graph: PropertyGraph, catalog: ViewCatalog,
                 storage: "StorageManager | None" = None,
                 log_capacity: int = 100_000,
                 max_paths: int | None = None,
                 max_events_incremental: int = 50_000) -> None:
        """Attach to a base graph and start capturing its mutations.

        Args:
            graph: The base graph every catalog view is defined over.
            catalog: Views to keep fresh.
            storage: When given, refreshed views get their read-optimized
                snapshots re-frozen after every refresh.
            log_capacity: Bound on the mutation log; deltas evicted past this
                bound force re-materialization instead of incremental replay.
            max_paths: Cap forwarded to connector re-materialization.
            max_events_incremental: Deltas longer than this are assumed
                cheaper to re-materialize than to replay event by event.
        """
        self.graph = graph
        self.catalog = catalog
        self.storage = storage
        self.max_paths = max_paths
        self.max_events_incremental = max_events_incremental
        self.log: ChangeLog = graph.enable_change_capture(capacity=log_capacity)

    # ----------------------------------------------------------------- refresh
    def refresh(self) -> RefreshReport:
        """Bring every catalog view up to date with the base graph.

        Views already at the current graph version are skipped (reported with
        strategy ``"fresh"``).  Stale views are maintained incrementally when
        the view class supports it and the full delta is still in the log;
        otherwise they are re-materialized from scratch.
        """
        start = time.perf_counter()
        attached = self.graph.changelog
        if attached is not self.log:
            # Capture was disabled (or swapped) behind our back: our log no
            # longer sees the graph's mutations.  Adopt the graph's current
            # log — its floor version reflects any unobserved gap, so views
            # older than it fail the replay check below and are rebuilt.
            self.log = (attached if attached is not None
                        else self.graph.enable_change_capture(capacity=self.log.capacity))
        current = self.graph.version
        report = RefreshReport(base_version=current)
        events_cache: dict[int, list[GraphMutation] | None] = {}
        for view in self.catalog:
            view_start = time.perf_counter()
            refresh = self._refresh_view(view, current, events_cache)
            refresh.seconds = time.perf_counter() - view_start
            report.views.append(refresh)
            if refresh.strategy != "fresh" and self.storage is not None:
                self.storage.on_maintained(view)
        report.elapsed_seconds = time.perf_counter() - start
        return report

    def _refresh_view(self, view: MaterializedView, current: int,
                      events_cache: dict[int, list[GraphMutation] | None]) -> ViewRefresh:
        name = view.definition.name
        if view.base_version == current:
            return ViewRefresh(name=name, strategy="fresh")
        events: list[GraphMutation] | None = None
        if view.base_version is not None:
            if view.base_version in events_cache:
                events = events_cache[view.base_version]
            else:
                events = self.log.events_since(view.base_version)
                events_cache[view.base_version] = events
        if (events is None
                or len(events) > self.max_events_incremental
                or not self.supports_incremental(view)):
            self._rematerialize(view)
            view.base_version = current
            return ViewRefresh(name=name, strategy="rematerialized",
                               events_applied=len(events or ()))
        if isinstance(view.definition, ConnectorView):
            maintenance = self._apply_connector_delta(view, events)
        else:
            maintenance = self._apply_summarizer_delta(view, events)
        view.base_version = current
        return ViewRefresh(name=name, strategy="incremental",
                           events_applied=len(events),
                           added_edges=maintenance.added_edges,
                           removed_edges=maintenance.removed_edges)

    def supports_incremental(self, view: MaterializedView) -> bool:
        """Whether this view class has a delta-replay maintenance path."""
        definition = view.definition
        if isinstance(definition, ConnectorView):
            return (definition.connector_kind in ("k_hop", "k_hop_same_vertex_type")
                    and definition.k is not None)
        if isinstance(definition, SummarizerView):
            return definition.summarizer_kind in FILTER_SUMMARIZER_KINDS
        return False

    # -------------------------------------------------------------- connectors
    def _apply_connector_delta(self, view: MaterializedView,
                               events: list[GraphMutation]) -> MaintenanceReport:
        """Replay a delta through the connector maintainer.

        Insert events replay in order against the current graph (an edge that
        was re-removed later in the delta is skipped outright — every path it
        contributed is gone, and replaying it would contract phantom
        witnesses).  Delete events are handed to the maintainer as **one
        batch**: witnesses can lose several hops in the same delta, so the
        targeted staleness scan must see all removed edges together.
        """
        maintainer = ConnectorMaintainer(self.graph, view)
        report = MaintenanceReport()
        view_graph = view.graph
        removed: list[tuple] = []
        skipped_edge_ids: set[int] = set()
        for event in events:
            if event.kind == "add_edge":
                assert event.edge_id is not None
                if not self.graph.has_edge_id(event.edge_id):
                    skipped_edge_ids.add(event.edge_id)
                    continue
                report.merge(maintainer.on_edge_added(event.source, event.target,
                                                      event.label))
            elif event.kind == "remove_edge":
                # Removal of an edge added (and skipped) within this delta
                # cannot invalidate any witness the view currently contracts.
                if event.edge_id not in skipped_edge_ids:
                    removed.append((event.source, event.target, event.label))
            elif event.kind == "remove_vertex" and view_graph.has_vertex(event.vertex_id):
                # An endpoint that left the base graph cannot anchor any
                # path; neighbors isolated by the cascade leave with it
                # (materialization only emits path endpoints).
                neighbors = view_graph.neighbors(event.vertex_id)
                report.removed_edges += view_graph.degree(event.vertex_id)
                view_graph.remove_vertex(event.vertex_id)
                for neighbor in neighbors:
                    if view_graph.has_vertex(neighbor) and view_graph.degree(neighbor) == 0:
                        view_graph.remove_vertex(neighbor)
        if removed:
            report.merge(maintainer.on_edges_removed(removed))
        return report

    # ------------------------------------------------------------- summarizers
    def _apply_summarizer_delta(self, view: MaterializedView,
                                events: list[GraphMutation]) -> MaintenanceReport:
        """Replay a delta through the summarizer's own keep-predicates."""
        definition = view.definition
        assert isinstance(definition, SummarizerView)
        keep_vertex = vertex_keep_predicate(definition)
        keep_edge = edge_keep_predicate(definition)
        view_graph = view.graph
        graph = self.graph
        report = MaintenanceReport()
        # Base edges added then re-removed within the delta are never copied
        # into the view; their remove events must then be skipped too.
        skipped_edge_ids: set[int] = set()
        for event in events:
            if event.kind == "add_vertex":
                if graph.has_vertex(event.vertex_id) and not view_graph.has_vertex(event.vertex_id):
                    vertex = graph.vertex(event.vertex_id)
                    if keep_vertex(vertex):
                        view_graph.add_vertex(vertex.id, vertex.type, **vertex.properties)
            elif event.kind == "remove_vertex":
                if view_graph.has_vertex(event.vertex_id):
                    report.removed_edges += view_graph.degree(event.vertex_id)
                    view_graph.remove_vertex(event.vertex_id)
            elif event.kind == "add_edge":
                assert event.edge_id is not None
                try:
                    edge = graph.edge(event.edge_id)
                except EdgeNotFoundError:
                    # The edge is already gone from the base graph (edge ids
                    # are never reused); skip its remove event symmetrically.
                    skipped_edge_ids.add(event.edge_id)
                    continue
                if (view_graph.has_vertex(edge.source) and view_graph.has_vertex(edge.target)
                        and keep_edge(edge)):
                    view_graph.add_edge(edge.source, edge.target, edge.label,
                                        **edge.properties)
                    report.added_edges += 1
            elif event.kind == "remove_edge":
                if event.edge_id in skipped_edge_ids:
                    continue
                report.removed_edges += self._remove_matching_edge(view_graph, event)
        return report

    @staticmethod
    def _remove_matching_edge(view_graph: PropertyGraph, event: GraphMutation) -> int:
        """Remove one view edge matching a base remove_edge event.

        View edges carry their own ids, so the match is by (source, target,
        label).  Removing any one parallel match keeps the edge multiset
        identical to a fresh materialization.  A missing match is a no-op: the
        edge was filtered out, or already dropped by a remove_vertex cascade.
        """
        if not view_graph.has_vertex(event.source):
            return 0
        match: Edge | None = None
        for edge in view_graph.out_edges(event.source, event.label):
            if edge.target == event.target:
                match = edge
                break
        if match is None:
            return 0
        view_graph.remove_edge(match.id)
        return 1

    # ------------------------------------------------------------ full rebuild
    def _rematerialize(self, view: MaterializedView) -> None:
        """Replace the view's graph with a from-scratch materialization."""
        definition = view.definition
        start = time.perf_counter()
        if isinstance(definition, ConnectorView):
            fresh = materialize_connector(self.graph, definition, max_paths=self.max_paths)
        elif isinstance(definition, SummarizerView):
            fresh = materialize_summarizer(self.graph, definition)
        else:  # pragma: no cover - catalog only holds the two view classes
            raise TypeError(f"cannot rematerialize view of type {type(definition)!r}")
        view.graph = fresh
        view.creation_seconds = time.perf_counter() - start

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MaintenanceManager(graph={self.graph.name!r}, views={len(self.catalog)}, "
            f"log={self.log!r})"
        )
