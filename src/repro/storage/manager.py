"""Backend selection: which physical representation serves which workload.

The :class:`StorageManager` owns the storage decisions the rest of the
codebase should not have to make:

* **Freeze-to-CSR heuristic** — a graph that is *read-mostly* (repeatedly
  consulted without topological mutations in between) and large enough to
  matter is frozen into an immutable
  :class:`~repro.storage.csr.CSRGraphStore` snapshot; small or actively
  mutated graphs stay on the flexible dict-based ``PropertyGraph``.
  Snapshots are cached per graph and invalidated automatically via the
  graph's ``version`` counter.
* **View freezing** — materialized views are read-mostly by construction
  (they are rebuilt or incrementally maintained, never queried mid-mutation),
  so the manager freezes them eagerly when the
  :class:`~repro.views.catalog.ViewCatalog` reports a new materialization,
  re-freezes them after delta maintenance, and releases the snapshot when a
  view is dropped.  Every rewrite runs wholly on one such store; there is
  no base ∪ view graph.
* **Durability** — the manager optionally owns a
  :class:`~repro.storage.persistent.PersistentViewStore` so catalogs can be
  snapshotted to disk and reloaded across process restarts.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.graph.property_graph import PropertyGraph
from repro.storage.base import GraphLike, GraphStore
from repro.storage.csr import CSRGraphStore
from repro.storage.persistent import PersistentViewStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (catalog -> manager)
    from repro.views.catalog import MaterializedView, ViewCatalog

#: Valid workload hints for :meth:`StorageManager.store_for`.
WORKLOAD_HINTS = ("auto", "read_mostly", "mutating")


@dataclass(frozen=True)
class StoragePolicy:
    """Tunable thresholds for the freeze-to-CSR heuristic.

    Attributes:
        min_edges_to_freeze: Graphs below this edge count stay on the dict
            representation — CSR build cost would exceed any traversal gain.
        read_threshold: Consecutive reads (``store_for`` calls without an
            intervening topological mutation) before an ``auto`` graph is
            considered read-mostly and frozen.
        freeze_views: Whether freshly materialized views are frozen eagerly.
    """

    min_edges_to_freeze: int = 128
    read_threshold: int = 2
    freeze_views: bool = True


@dataclass
class StorageStats:
    """Counters describing what the manager has done (for reports/tests)."""

    snapshots_built: int = 0
    snapshot_hits: int = 0
    dict_served: int = 0
    views_frozen: int = 0
    views_refrozen: int = 0
    views_dropped: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "snapshots_built": self.snapshots_built,
            "snapshot_hits": self.snapshot_hits,
            "dict_served": self.dict_served,
            "views_frozen": self.views_frozen,
            "views_refrozen": self.views_refrozen,
            "views_dropped": self.views_dropped,
        }


@dataclass
class _GraphState:
    """Per-graph bookkeeping (kept alive only while the graph is)."""

    ref: weakref.ref
    observed_version: int = -1
    reads_since_change: int = 0
    snapshot: CSRGraphStore | None = None


# Every manager's freeze() publishes its snapshot here, so independent
# managers (e.g. a Kaskade instance's and the analytics-kernel dispatch's)
# never build duplicate CSR snapshots of the same live graph.  Entries are
# validated against both the graph identity (ids can be recycled after GC)
# and the graph's version counter, and reaped when the graph is collected.
# All access goes through _REGISTRY_LOCK: the registry is shared across
# every manager in the process, and the serving layer freezes from a writer
# thread while analytics dispatch may freeze from readers — unsynchronized
# check-then-pop sequences could drop a concurrent publisher's entry or
# leave two managers each believing their build won.
_SNAPSHOT_REGISTRY: dict[int, tuple[weakref.ref, CSRGraphStore]] = {}
_REGISTRY_LOCK = threading.Lock()


def _publish_snapshot(graph: PropertyGraph, snapshot: CSRGraphStore) -> None:
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
            return
        _SNAPSHOT_REGISTRY[key] = (weakref.ref(graph, _reap), snapshot)


def lookup_snapshot(graph: PropertyGraph) -> CSRGraphStore | None:
    """A fresh CSR snapshot of ``graph`` built by *any* manager, or ``None``.

    Consumers that only profit from a snapshot when the build cost is
    already paid (analytics dispatch, one-shot connector enumeration) probe
    this instead of freezing; staleness is detected via the graph's
    ``version`` counter.  A stale entry can never become fresh again (the
    counter is monotonic), so it is evicted on sight instead of pinning the
    snapshot until the graph dies.
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
    """Selects the physical graph representation per workload.

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

    def __init__(self, policy: StoragePolicy | None = None,
                 persist_path: str | Path | None = None,
                 persist_backend: str | None = None) -> None:
        """Create a manager.

        Args:
            policy: Freeze heuristics (defaults to :class:`StoragePolicy`).
            persist_path: When given, the manager owns a
                :class:`PersistentViewStore` at this path.
            persist_backend: Backend override for the persistent store.
        """
        self.policy = policy or StoragePolicy()
        self.stats = StorageStats()
        self.persistent: PersistentViewStore | None = None
        if persist_path is not None:
            self.persistent = PersistentViewStore(persist_path, backend=persist_backend)
        self._states: dict[int, _GraphState] = {}

    # -------------------------------------------------------- backend selection
    def store_for(self, graph: GraphLike, workload: str = "auto") -> GraphLike:
        """The representation the caller should read from.

        Args:
            graph: A mutable graph or an existing store (stores pass through).
            workload: ``"auto"`` applies the read-mostly heuristic,
                ``"read_mostly"`` freezes immediately (subject to the size
                floor), ``"mutating"`` always serves the dict graph and drops
                any cached snapshot.

        Returns:
            A :class:`CSRGraphStore` snapshot when the heuristic (or hint)
            selects the read-optimized backend, otherwise ``graph`` itself.
        """
        if workload not in WORKLOAD_HINTS:
            raise ValueError(
                f"workload must be one of {WORKLOAD_HINTS}, got {workload!r}")
        if isinstance(graph, GraphStore):
            return graph
        state = self._state_of(graph)

        if workload == "mutating":
            state.snapshot = None
            state.reads_since_change = 0
            state.observed_version = graph.version
            self.stats.dict_served += 1
            return graph

        if state.observed_version == graph.version:
            state.reads_since_change += 1
        else:
            # The graph mutated since we last looked: restart the read streak.
            state.observed_version = graph.version
            state.reads_since_change = 1
            state.snapshot = None

        if state.snapshot is not None and state.snapshot.source_version == graph.version:
            self.stats.snapshot_hits += 1
            return state.snapshot

        eligible = graph.num_edges >= self.policy.min_edges_to_freeze
        read_mostly = (workload == "read_mostly"
                       or state.reads_since_change >= self.policy.read_threshold)
        if eligible and read_mostly:
            return self.freeze(graph)
        self.stats.dict_served += 1
        return graph

    def backend_for(self, graph: GraphLike, workload: str = "auto") -> str:
        """Name of the backend :meth:`store_for` would serve (``csr``/``dict``)."""
        store = self.store_for(graph, workload)
        return getattr(store, "backend", "dict")

    def freeze(self, graph: PropertyGraph) -> CSRGraphStore:
        """Force a CSR snapshot of ``graph`` (cached until the graph mutates).

        Fresh snapshots published by *other* managers are adopted instead of
        rebuilt, and every build is published to the shared registry
        (:func:`lookup_snapshot`).
        """
        state = self._state_of(graph)
        if state.snapshot is not None and state.snapshot.source_version == graph.version:
            self.stats.snapshot_hits += 1
            return state.snapshot
        snapshot = lookup_snapshot(graph)
        if snapshot is not None:
            self.stats.snapshot_hits += 1
        else:
            snapshot = CSRGraphStore.from_graph(graph)
            self.stats.snapshots_built += 1
            _publish_snapshot(graph, snapshot)
        state.snapshot = snapshot
        state.observed_version = graph.version
        return snapshot

    def cached_snapshot(self, graph: PropertyGraph) -> CSRGraphStore | None:
        """An already-built CSR snapshot of ``graph`` at its *current* version.

        Returns ``None`` instead of building: callers that only profit from a
        snapshot when the build cost is already paid (e.g. one-shot connector
        path enumeration) use this to probe without triggering a freeze.
        """
        state = self._states.get(id(graph))
        if (state is not None and state.ref() is graph
                and state.snapshot is not None
                and state.snapshot.source_version == graph.version):
            return state.snapshot
        return None

    def invalidate(self, graph: PropertyGraph) -> None:
        """Drop any cached snapshot of ``graph`` (e.g. before bulk mutation).

        Also retracts the snapshot from the shared registry, so explicit
        invalidation releases the memory everywhere at once.
        """
        state = self._states.get(id(graph))
        if state is not None:
            state.snapshot = None
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
        """Catalog hook: a view was (re)materialized or registered.

        Views are read-mostly by construction, so eligible ones are frozen
        eagerly and the snapshot is attached to the view for hot-path reads.
        """
        if not self.policy.freeze_views:
            return
        if view.graph.num_edges < self.policy.min_edges_to_freeze:
            return
        view.store = self.freeze(view.graph)
        self.stats.views_frozen += 1

    def on_dropped(self, view: "MaterializedView") -> None:
        """Catalog hook: a view was dropped/evicted — release every artifact.

        The view's CSR snapshot is detached and retracted from the shared
        registry, per-graph freeze bookkeeping is forgotten, and — when a
        persistent store is attached — the view's on-disk record is deleted
        so a later catalog restore cannot resurrect it.
        """
        view.store = None
        self.invalidate(view.graph)
        self._states.pop(id(view.graph), None)
        if self.persistent is not None:
            self.persistent.delete_view(view.definition)
        self.stats.views_dropped += 1

    def on_maintained(self, view: "MaterializedView") -> None:
        """Maintenance hook: a view's graph was updated (in place or rebuilt).

        Instead of letting the stale CSR snapshot be dropped and hot reads
        degrade to the dict graph forever (the pre-delta behaviour of
        ``MaterializedView.read_store``), the snapshot is re-frozen at the
        view's new version so rewritten queries stay on the read-optimized
        path.  Views that shrank below the freeze floor fall back to the dict
        graph.
        """
        if not self.policy.freeze_views:
            return
        if view.graph.num_edges < self.policy.min_edges_to_freeze:
            view.store = None
            return
        already_fresh = (view.store is not None
                         and getattr(view.store, "source_version", None) == view.graph.version)
        if already_fresh:
            return
        view.store = self.freeze(view.graph)
        self.stats.views_refrozen += 1

    # ------------------------------------------------------------- durability
    def save_catalog(self, catalog: "ViewCatalog") -> int:
        """Snapshot a catalog to the attached persistent store.

        Raises:
            ViewError: If the manager was created without ``persist_path``.
        """
        store = self._require_persistent()
        return store.save_catalog(catalog)

    def load_catalog(self, catalog: "ViewCatalog | None" = None) -> "ViewCatalog":
        """Reload the persisted views into ``catalog`` (a fresh one by default)."""
        from repro.views.catalog import ViewCatalog

        store = self._require_persistent()
        catalog = catalog if catalog is not None else ViewCatalog(storage=self)
        return store.load_catalog(catalog)

    def _require_persistent(self) -> PersistentViewStore:
        if self.persistent is None:
            from repro.errors import ViewError

            raise ViewError(
                "no persistent store attached; create the StorageManager with "
                "persist_path=... or use PersistentViewStore directly")
        return self.persistent

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StorageManager(policy={self.policy}, persistent={self.persistent!r}, "
            f"stats={self.stats.as_dict()})"
        )
