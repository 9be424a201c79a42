"""The snapshot cache and the freeze rule.

Every CSR snapshot of a live graph lives in one place, the module registry
(:func:`lookup_snapshot`): entries are keyed by graph identity, validated
against the graph's ``version`` counter, and reaped when the graph is
collected.  :meth:`StorageManager.freeze` is the only code that builds one;
it reuses the registry entry when there is a fresh one and publishes its
build otherwise, so independent managers never build duplicate snapshots of
the same graph version.

The :class:`StorageManager` decides *when* a live graph is frozen:

* **Embedded reads** — :meth:`StorageManager.store_for` serves a snapshot
  already in the registry, and freezes a graph of at least
  :data:`MIN_EDGES_TO_FREEZE` edges once it has been read
  :data:`READ_THRESHOLD` times with no topological mutation in between;
  otherwise the caller reads the dict-based ``PropertyGraph``.
* **Views** — materialized views are read-mostly by construction, so the
  catalog hooks freeze every view when it is materialized or registered,
  re-freeze it after delta maintenance, and discard its snapshot when it is
  dropped.  Every rewrite runs wholly on one such store; there is no base ∪
  view graph.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.graph.property_graph import PropertyGraph
from repro.storage.base import GraphLike, GraphStore
from repro.storage.csr import CSRGraphStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (catalog -> manager)
    from repro.views.catalog import MaterializedView

#: Graphs below this edge count stay on the dict representation in
#: :meth:`StorageManager.store_for` — the CSR build would cost more than it
#: saves.
MIN_EDGES_TO_FREEZE = 128

#: Consecutive :meth:`StorageManager.store_for` reads of one graph version
#: before the graph counts as read-mostly and is frozen.
READ_THRESHOLD = 2


@dataclass
class StorageStats:
    """Counters describing what the manager has done (for reports/tests)."""

    snapshots_built: int = 0
    snapshot_hits: int = 0
    views_frozen: int = 0
    views_refrozen: int = 0
    views_dropped: int = 0


@dataclass
class _GraphState:
    """Per-graph read streak (kept alive only while the graph is)."""

    ref: weakref.ref
    observed_version: int = -1
    reads_since_change: int = 0


# All access goes through _REGISTRY_LOCK: the registry is shared across
# every manager in the process, and the serving layer freezes from a writer
# thread while analytics dispatch may freeze from readers — unsynchronized
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

    Consumers that only profit from a snapshot when the build cost is
    already paid (analytics dispatch, one-shot connector enumeration, view
    reads) probe this instead of freezing; staleness is detected via the
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
    """Decides when a live graph is frozen into the shared snapshot cache.

    Example:
        >>> from repro.datasets.random_graphs import erdos_renyi_graph
        >>> manager = StorageManager()
        >>> graph = erdos_renyi_graph(64, 256)
        >>> manager.store_for(graph) is graph   # first sight: not yet proven read-mostly
        True
        >>> frozen = manager.store_for(graph)   # second read with no mutation
        >>> frozen.backend
        'csr'
    """

    def __init__(self) -> None:
        self.stats = StorageStats()
        self._states: dict[int, _GraphState] = {}

    # -------------------------------------------------------- backend selection
    def store_for(self, graph: GraphLike) -> GraphLike:
        """The representation an embedded read should use.

        Stores pass through.  A live graph is served as its registry
        snapshot when one is fresh, is frozen once it is read-mostly (see
        :data:`READ_THRESHOLD` and :data:`MIN_EDGES_TO_FREEZE`), and is
        otherwise served as itself.
        """
        if isinstance(graph, GraphStore):
            return graph
        state = self._state_of(graph)
        if state.observed_version == graph.version:
            state.reads_since_change += 1
        else:
            # The graph mutated since we last looked: restart the read streak.
            state.observed_version = graph.version
            state.reads_since_change = 1
        snapshot = lookup_snapshot(graph)
        if snapshot is not None:
            self.stats.snapshot_hits += 1
            return snapshot
        if (graph.num_edges >= MIN_EDGES_TO_FREEZE
                and state.reads_since_change >= READ_THRESHOLD):
            return self.freeze(graph)
        return graph

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

    def invalidate(self, graph: PropertyGraph) -> None:
        """Discard ``graph``'s snapshot and restart its read streak."""
        state = self._states.get(id(graph))
        if state is not None:
            state.reads_since_change = 0
        discard_snapshot(graph)

    def _state_of(self, graph: PropertyGraph) -> _GraphState:
        key = id(graph)
        state = self._states.get(key)
        if state is None or state.ref() is not graph:
            # New graph, or a dead graph's id was recycled.
            state = _GraphState(ref=weakref.ref(graph, self._make_reaper(key)))
            self._states[key] = state
        return state

    def _make_reaper(self, key: int):
        def _reap(_ref: weakref.ref, *, _states=self._states, _key=key) -> None:
            _states.pop(_key, None)
        return _reap

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
        """Catalog hook: a view was dropped or evicted — discard its snapshot
        and forget its read streak."""
        discard_snapshot(view.graph)
        self._states.pop(id(view.graph), None)
        self.stats.views_dropped += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StorageManager(stats={self.stats})"
