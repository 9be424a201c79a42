"""The snapshot cache and the freeze rule.

Every CSR snapshot of a live graph lives in one place, the module registry
(:func:`lookup_snapshot`): entries are keyed by graph identity, validated
against the graph's ``version`` counter, and reaped when the graph is
collected.  :meth:`StorageManager.freeze` is the only code that builds one;
it reuses the registry entry when there is a fresh one and publishes its
build otherwise, so independent managers never build duplicate snapshots of
the same graph version.

Only code that publishes or reads a version freezes it: embedded queries
(``Kaskade.execute``) and ``Kaskade.analytics_store`` freeze the base graph,
the served commit path freezes every version it publishes, and the catalog
hooks below freeze every view when it is materialized or registered,
re-freeze it after delta maintenance, and discard its snapshot when it is
dropped.  Every other consumer (analytics dispatch, connector enumeration,
view reads) only looks the snapshot up.  Every rewrite runs wholly on one
such store; there is no base ∪ view graph.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.graph.property_graph import PropertyGraph
from repro.storage.csr import CSRGraphStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (catalog -> manager)
    from repro.views.catalog import MaterializedView


@dataclass
class StorageStats:
    """Counters describing what the manager has done (for reports/tests)."""

    snapshots_built: int = 0
    snapshot_hits: int = 0
    views_frozen: int = 0
    views_refrozen: int = 0
    views_dropped: int = 0


# All access goes through _REGISTRY_LOCK: the registry is shared across
# every manager in the process, and the serving layer freezes from a writer
# thread while readers freeze or look up from others — unsynchronized
# check-then-pop sequences could drop a concurrent publisher's entry or
# leave two managers each believing their build won.
_SNAPSHOT_REGISTRY: dict[int, tuple[weakref.ref, CSRGraphStore]] = {}
_REGISTRY_LOCK = threading.Lock()


def _publish_snapshot(graph: PropertyGraph, snapshot: CSRGraphStore) -> CSRGraphStore:
    """Publish ``snapshot`` unless a fresh one won the race; returns the winner."""
    key = id(graph)

    def _reap(_ref: weakref.ref, *, _key=key) -> None:
        with _REGISTRY_LOCK:
            _SNAPSHOT_REGISTRY.pop(_key, None)

    with _REGISTRY_LOCK:
        current = _SNAPSHOT_REGISTRY.get(key)
        if (current is not None and current[0]() is graph
                and current[1].source_version == graph.version):
            # A concurrent freeze already published a fresh snapshot for this
            # exact version; keep the first one so every manager adopts it.
            return current[1]
        _SNAPSHOT_REGISTRY[key] = (weakref.ref(graph, _reap), snapshot)
        return snapshot


def lookup_snapshot(graph: PropertyGraph) -> CSRGraphStore | None:
    """The fresh CSR snapshot of ``graph`` in the registry, or ``None``.

    Consumers that neither publish nor read a version themselves (analytics
    dispatch, connector enumeration, view reads) probe this instead of
    freezing; staleness is detected via the
    graph's ``version`` counter.  A stale entry can never become fresh again
    (the counter is monotonic), so it is evicted on sight instead of pinning
    the snapshot until the graph dies.
    """
    key = id(graph)
    with _REGISTRY_LOCK:
        entry = _SNAPSHOT_REGISTRY.get(key)
        if entry is None or entry[0]() is not graph:
            return None
        if entry[1].source_version != graph.version:
            _SNAPSHOT_REGISTRY.pop(key, None)
            return None
        return entry[1]


def discard_snapshot(graph: PropertyGraph) -> None:
    """Drop ``graph``'s published snapshot (explicit memory release)."""
    with _REGISTRY_LOCK:
        entry = _SNAPSHOT_REGISTRY.get(id(graph))
        if entry is not None and entry[0]() is graph:
            _SNAPSHOT_REGISTRY.pop(id(graph), None)


class StorageManager:
    """Freezes live graphs into the shared snapshot cache and counts it.

    Example:
        >>> from repro.datasets.random_graphs import erdos_renyi_graph
        >>> manager = StorageManager()
        >>> graph = erdos_renyi_graph(64, 256)
        >>> frozen = manager.freeze(graph)
        >>> frozen.backend
        'csr'
        >>> lookup_snapshot(graph) is frozen   # every consumer now finds it
        True
    """

    def __init__(self) -> None:
        self.stats = StorageStats()

    def freeze(self, graph: PropertyGraph) -> CSRGraphStore:
        """The CSR snapshot of ``graph`` at its current version.

        Reuses the registry entry when it is fresh; otherwise builds one and
        publishes it (:func:`lookup_snapshot`).
        """
        snapshot = lookup_snapshot(graph)
        if snapshot is not None:
            self.stats.snapshot_hits += 1
            return snapshot
        self.stats.snapshots_built += 1
        return _publish_snapshot(graph, CSRGraphStore.from_graph(graph))

    # ------------------------------------------------------------ view hooks
    def on_materialized(self, view: "MaterializedView") -> None:
        """Catalog hook: a view was (re)materialized or registered — freeze it."""
        self.freeze(view.graph)
        self.stats.views_frozen += 1

    def on_maintained(self, view: "MaterializedView") -> None:
        """Maintenance hook: a view's graph was updated (in place or rebuilt).

        The view is frozen at its new version, so rewritten queries stay on
        the read-optimized path.
        """
        self.freeze(view.graph)
        self.stats.views_refrozen += 1

    def on_dropped(self, view: "MaterializedView") -> None:
        """Catalog hook: a view was dropped or evicted — discard its snapshot."""
        discard_snapshot(view.graph)
        self.stats.views_dropped += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StorageManager(stats={self.stats})"
