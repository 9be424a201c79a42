"""Materialized view catalog.

Kaskade materializes the views selected by the workload analyzer and keeps
them available for view-based query rewriting (§II, Fig. 2: the "graph views"
v1, v2, v3 next to the raw graph inside the graph engine).  The catalog tracks
each materialized view's definition, the materialized graph, its actual size,
and how long materialization took (the measured creation cost).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterator, Mapping

from repro.errors import ViewError, ViewNotMaterializedError
from repro.graph.property_graph import PropertyGraph
from repro.views.connectors import materialize_connector
from repro.views.definitions import ConnectorView, SummarizerView, ViewDefinition
from repro.views.summarizers import materialize_summarizer

if TYPE_CHECKING:  # pragma: no cover - avoids a storage <-> views import cycle
    from repro.storage.base import GraphLike
    from repro.storage.manager import StorageManager


@dataclass
class MaterializedView:
    """A materialized graph view: definition + physical graph + statistics."""

    definition: ViewDefinition
    graph: PropertyGraph
    creation_seconds: float = 0.0
    #: Base-graph ``version`` this view is consistent with, or None when
    #: unknown (externally registered / restored views).  Maintained by
    #: :meth:`ViewCatalog.materialize` and the delta-maintenance subsystem
    #: (:class:`~repro.views.delta.MaintenanceManager`).
    base_version: int | None = None

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    @property
    def size(self) -> int:
        """View size in edges — the unit the cost model uses (§V-A)."""
        return self.graph.num_edges

    def footprint(self) -> int:
        """Estimated in-memory footprint in bytes (for space budgets)."""
        return self.graph.estimated_footprint()

    def read_store(self) -> "GraphLike":
        """The representation hot read paths should use: the view graph's
        fresh CSR snapshot in the shared cache, else the graph itself.  Never
        builds one."""
        from repro.storage.manager import lookup_snapshot

        snapshot = lookup_snapshot(self.graph)
        return self.graph if snapshot is None else snapshot

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MaterializedView({self.definition.name!r}, vertices={self.num_vertices}, "
            f"edges={self.num_edges})"
        )


class ViewCatalog:
    """The set of currently materialized views, keyed by definition signature.

    When a :class:`~repro.storage.manager.StorageManager` is attached, the
    catalog notifies it of every (re)materialization and registration so that
    view graphs are frozen into read-optimized snapshots.
    """

    def __init__(self, storage: "StorageManager | None" = None) -> None:
        self._views: dict[tuple, MaterializedView] = {}
        #: Live read-only view of the catalog keyed by definition signature —
        #: the mapping :meth:`Kaskade.rewrite` matches candidates against.
        self.by_signature: Mapping[tuple, MaterializedView] = MappingProxyType(self._views)
        self.storage = storage

    # ------------------------------------------------------------------ manage
    def materialize(self, graph: PropertyGraph, definition: ViewDefinition,
                    max_paths: int | None = None) -> MaterializedView:
        """Materialize a view over ``graph`` and register it.

        Re-materializing a view with the same signature replaces the stored one.
        """
        start = time.perf_counter()
        if isinstance(definition, ConnectorView):
            view_graph = materialize_connector(graph, definition, max_paths=max_paths)
        elif isinstance(definition, SummarizerView):
            view_graph = materialize_summarizer(graph, definition)
        else:
            raise ViewError(f"cannot materialize view definition of type {type(definition)!r}")
        elapsed = time.perf_counter() - start
        materialized = MaterializedView(definition=definition, graph=view_graph,
                                        creation_seconds=elapsed,
                                        base_version=graph.version)
        self.register(materialized)
        return materialized

    def register(self, view: MaterializedView) -> None:
        """Register an externally materialized view."""
        self._views[view.definition.signature()] = view
        if self.storage is not None:
            self.storage.on_materialized(view)

    def drop(self, definition: ViewDefinition) -> MaterializedView:
        """Remove a view from the catalog; returns the dropped view.

        The attached storage manager (when present) is notified so the
        view's CSR snapshot leaves the shared snapshot cache.

        Raises:
            ViewNotMaterializedError: If the view is not in the catalog.
        """
        try:
            view = self._views.pop(definition.signature())
        except KeyError as exc:
            raise ViewNotMaterializedError(
                f"view {definition.name!r} is not materialized") from exc
        if self.storage is not None:
            self.storage.on_dropped(view)
        return view

    def clear(self) -> None:
        """Drop every materialized view (completely — see :meth:`drop`)."""
        for view in list(self._views.values()):
            self.drop(view.definition)

    # ------------------------------------------------------------------- query
    def get(self, definition: ViewDefinition) -> MaterializedView:
        """Look up the materialized view for a definition.

        Raises:
            ViewNotMaterializedError: If the view is not in the catalog.
        """
        try:
            return self._views[definition.signature()]
        except KeyError as exc:
            raise ViewNotMaterializedError(
                f"view {definition.name!r} is not materialized") from exc

    def find(self, definition: ViewDefinition) -> MaterializedView | None:
        """Like :meth:`get` but returns None when absent."""
        return self._views.get(definition.signature())

    def contains(self, definition: ViewDefinition) -> bool:
        """Whether a view with this definition is materialized."""
        return definition.signature() in self._views

    def connectors(self) -> list[MaterializedView]:
        """All materialized connector views."""
        return [v for v in self._views.values() if isinstance(v.definition, ConnectorView)]

    def summarizers(self) -> list[MaterializedView]:
        """All materialized summarizer views."""
        return [v for v in self._views.values() if isinstance(v.definition, SummarizerView)]

    def total_size(self) -> int:
        """Total size (in edges) of all materialized views."""
        return sum(view.size for view in self._views.values())

    def total_footprint(self) -> int:
        """Total estimated in-memory footprint (bytes) of all materialized views."""
        return sum(view.footprint() for view in self._views.values())

    def __iter__(self) -> Iterator[MaterializedView]:
        return iter(self._views.values())

    def __len__(self) -> int:
        return len(self._views)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ViewCatalog(views={len(self._views)}, total_edges={self.total_size()})"
