"""MVCC snapshot management: single-writer commits, lock-free pinned reads.

This module turns the storage substrate the earlier layers built — the
monotonic :attr:`~repro.graph.property_graph.PropertyGraph.version` counter,
immutable :class:`~repro.storage.csr.CSRGraphStore` snapshots, the bounded
:class:`~repro.graph.changelog.ChangeLog`, and delta-driven view maintenance —
into multi-version concurrency control for a concurrent graph service:

* **Writers** go through a single-writer commit path
  (:meth:`SnapshotManager.commit`): a batch of topological mutations is
  applied to the base graph (each one appending to the changelog), delta
  maintenance brings every materialized view up to date, and an immutable
  ``(version, CSR store, frozen view stores)`` :class:`Snapshot` is
  published atomically.
* **Readers** :meth:`~SnapshotManager.pin` a published version (head by
  default) and execute entirely against its frozen stores — topology can
  never change under them, and the hot path takes **no locks**: pin/release
  are short control-plane critical sections, while planning hits lock-free
  per-version plan caches and execution walks immutable CSR arrays.
* **Reclamation**: a snapshot that is no longer head is retired once its pin
  count drops to zero; retiring the oldest retained version advances the
  changelog floor (``truncate_before``), so the mutation log stays bounded
  by actual consumer lag instead of its capacity alone.  Pinning a reclaimed
  version raises :class:`~repro.errors.StaleSnapshotError`.

One known (and documented) seam: CSR snapshots share vertex/edge *property*
dictionaries with the live graph, so MVCC isolates **topology and row
outputs derived from it**, not concurrent property writes — the same sharing
contract :class:`~repro.storage.csr.CSRGraphStore` has always had.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

from repro.core.kaskade import Kaskade, QueryOutcome
from repro.durability.manager import DurabilityEngine, apply_op
from repro.errors import ServiceError, StaleSnapshotError
from repro.query.ast import GraphQuery
from repro.storage.base import GraphStore
from repro.storage.csr import CSRGraphStore
from repro.views.delta import RefreshReport


@dataclass(frozen=True)
class SnapshotView:
    """One materialized view as captured (frozen) inside a snapshot."""

    definition: Any
    store: GraphStore

    @property
    def name(self) -> str:
        return self.definition.name

    def read_store(self) -> GraphStore:
        """The captured store (the accessor ``MaterializedView`` also has)."""
        return self.store


@dataclass
class Snapshot:
    """An immutable published version of the graph plus its view stores."""

    version: int
    store: CSRGraphStore
    views: dict[str, SnapshotView] = field(default_factory=dict)
    created_at: float = field(default_factory=time.time)
    #: Active reader pins.  Mutated only under the manager's control lock.
    pins: int = 0
    #: Set when the retention window moved past this snapshot while it was
    #: pinned; the last release() reclaims it instead of keeping it readable.
    retired: bool = False
    #: ``views`` keyed by definition signature, the key rewrites match on
    #: (an enumerated candidate's name can differ from the registered one).
    by_signature: dict[tuple, SnapshotView] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.by_signature = {view.definition.signature(): view
                             for view in self.views.values()}

    def describe(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "pins": self.pins,
            "vertices": self.store.num_vertices,
            "edges": self.store.num_edges,
            "views": sorted(self.views),
            "created_at": self.created_at,
        }


@dataclass
class CommitResult:
    """Outcome of one single-writer commit."""

    version: int
    applied: int
    errors: list[str] = field(default_factory=list)
    refresh: RefreshReport | None = None
    elapsed_seconds: float = 0.0


class SnapshotManager:
    """MVCC over one :class:`~repro.core.kaskade.Kaskade` instance.

    Example:
        >>> from repro.datasets.provenance import provenance_graph
        >>> from repro.core import Kaskade
        >>> manager = SnapshotManager(Kaskade(provenance_graph(num_jobs=20, seed=3)))
        >>> snap = manager.pin()
        >>> snap.version == manager.head_version()
        True
        >>> manager.release(snap)
    """

    def __init__(self, kaskade: Kaskade, *, max_retained: int = 8,
                 advance_changelog_floor: bool = True,
                 durability: DurabilityEngine | None = None) -> None:
        """Wrap a Kaskade instance with MVCC serving semantics.

        Args:
            kaskade: The engine owning the base graph, catalog, storage
                manager, and maintenance subsystem.  Change capture is
                enabled on the base graph so commits feed delta maintenance.
            max_retained: Retention bound on *unpinned* non-head snapshots;
                pinned snapshots are always kept until released.
            advance_changelog_floor: Truncate the mutation log up to the
                oldest version any retained snapshot or view still needs.
            durability: Optional :class:`~repro.durability.DurabilityEngine`;
                when given, every commit is write-ahead logged (batch record
                before apply, fsync'd marker before acknowledgement) and
                periodically checkpointed, making commits crash-safe.  An
                uninitialized engine is initialized here (baseline
                checkpoint of the current graph).
        """
        self.kaskade = kaskade
        self.max_retained = max(1, max_retained)
        self.advance_changelog_floor = advance_changelog_floor
        self.durability = durability
        if durability is not None and not durability.ready:
            durability.initialize(kaskade)
        # Single-writer commit path: held across apply + maintenance + publish.
        self._write_lock = threading.Lock()
        # Control-plane lock guarding the snapshot map, head pointer, and pin
        # counts.  Never held while planning or executing a query.
        self._lock = threading.Lock()
        self._snapshots: dict[int, Snapshot] = {}
        # Ensure the changelog exists before the first commit so deltas are
        # replayable from the initial published version onward.
        kaskade.maintenance
        self._head = self._build_snapshot()
        self._snapshots[self._head.version] = self._head

    # ------------------------------------------------------------- inspection
    def head_version(self) -> int:
        return self._head.version

    def versions(self) -> list[int]:
        """Retained snapshot versions, oldest first."""
        with self._lock:
            return sorted(self._snapshots)

    def describe(self) -> list[dict[str, Any]]:
        """Per-snapshot description (version, pins, sizes), oldest first."""
        with self._lock:
            return [self._snapshots[v].describe() for v in sorted(self._snapshots)]

    def pinned_versions(self) -> list[int]:
        with self._lock:
            return sorted(v for v, s in self._snapshots.items() if s.pins > 0)

    def maintenance_lag(self) -> int:
        """Versions the oldest *pinned* snapshot trails behind head (0 = none)."""
        with self._lock:
            head = self._head.version
            pinned = [s.version for s in self._snapshots.values() if s.pins > 0]
        return head - min(pinned) if pinned else 0

    def changelog_floor(self) -> int:
        log = self.kaskade.graph.changelog
        return log.floor_version if log is not None else self.kaskade.graph.version

    # ------------------------------------------------------------ pin/release
    def pin(self, version: int | None = None) -> Snapshot:
        """Pin a published snapshot (head by default) for reading.

        Raises:
            StaleSnapshotError: The requested version was published but has
                been reclaimed (it fell behind every retained snapshot).
            ServiceError: The requested version was never published (ahead of
                head, or between retained versions).
        """
        with self._lock:
            if version is None or version == self._head.version:
                snapshot = self._head
            else:
                snapshot = self._snapshots.get(version)
                if snapshot is None:
                    floor = min(self._snapshots)
                    if version < floor:
                        raise StaleSnapshotError(version, floor, what="snapshot")
                    raise ServiceError(
                        f"version {version} is not a published snapshot "
                        f"(retained: {sorted(self._snapshots)})")
            snapshot.pins += 1
            return snapshot

    def release(self, snapshot: Snapshot) -> None:
        """Release a pin; snapshots outside retention are reclaimed at zero pins.

        A snapshot that outlived the ``max_retained`` window only because a
        reader kept it pinned is dropped here; snapshots still inside the
        window stay readable (``pin(version)``) until commits push them out.
        Reclaiming the oldest retained version lets the changelog floor
        advance.  The truncation itself must not race the writer appending
        to the log, so it runs under the write lock — but *non-blocking*: if
        a commit is in flight the floor simply advances at that commit's own
        publish step, and the releasing reader never waits on the writer.
        """
        advance = False
        with self._lock:
            snapshot.pins -= 1
            if snapshot.pins <= 0 and snapshot.retired and snapshot is not self._head:
                self._snapshots.pop(snapshot.version, None)
                advance = True
        if advance and self._write_lock.acquire(blocking=False):
            try:
                self._advance_floor()
            finally:
                self._write_lock.release()

    @contextmanager
    def pinned(self, version: int | None = None) -> Iterator[Snapshot]:
        snapshot = self.pin(version)
        try:
            yield snapshot
        finally:
            self.release(snapshot)

    # ----------------------------------------------------------------- writes
    def commit(self, ops: Sequence[Mapping[str, Any]],
               refresh_views: bool = True) -> CommitResult:
        """Apply a mutation batch and publish the resulting snapshot.

        The single-writer lock serializes concurrent committers; readers are
        never blocked (they keep serving pinned versions).  Individual ops
        that fail (unknown vertex, malformed op) are collected as error
        strings rather than aborting the batch — the published snapshot
        reflects every op that applied.

        Args:
            ops: Mutation dicts, each with an ``"op"`` key from
                :data:`~repro.durability.MUTATION_OPS` — e.g.
                ``{"op": "add_edge", "source": "j1", "target": "f1",
                "label": "WRITES_TO"}`` or
                ``{"op": "add_vertex", "id": "j9", "type": "Job"}``.
            refresh_views: Run delta maintenance so the published snapshot's
                views are consistent with its base version.
        """
        start = time.perf_counter()
        graph = self.kaskade.graph
        durability = self.durability
        with self._write_lock:
            commit_id = None
            if durability is not None:
                # Checkpoint at the *start* of a commit: a crash inside the
                # checkpointer can then never make this (unacknowledged)
                # commit durable, and the WAL batch below lands in a log
                # whose base is exactly the checkpointed state.
                durability.maybe_checkpoint(self.kaskade)
                commit_id = durability.log_batch(ops, base_version=graph.version)
            applied = 0
            errors: list[str] = []
            for op in ops:
                if durability is not None:
                    # Fired outside the per-op try/except: an injected apply
                    # fault must surface as a crash, never be swallowed as a
                    # per-op error (replay would not re-fire it).
                    durability.check_apply_fault()
                try:
                    self._apply(graph, op)
                    applied += 1
                except Exception as exc:  # noqa: BLE001 - per-op error report
                    errors.append(f"{op.get('op', '?')}: {exc}")
            refresh = None
            if refresh_views and len(self.kaskade.catalog):
                refresh = self.kaskade.refresh_views()
            if durability is not None and commit_id is not None:
                # The marker's fsync is the durability point; only after it
                # returns is the commit acknowledged to the caller.
                durability.log_marker(commit_id, version=graph.version,
                                      applied=applied)
            snapshot = self._publish()
        return CommitResult(version=snapshot.version, applied=applied,
                            errors=errors, refresh=refresh,
                            elapsed_seconds=time.perf_counter() - start)

    #: Shared op interpreter — WAL replay runs the exact same code path.
    _apply = staticmethod(apply_op)

    def _build_snapshot(self) -> Snapshot:
        graph = self.kaskade.graph
        store = self.kaskade.storage.freeze(graph)
        views: dict[str, SnapshotView] = {}
        for view in self.kaskade.catalog:
            views[view.definition.name] = SnapshotView(definition=view.definition,
                                                       store=view.read_store())
        return Snapshot(version=graph.version, store=store, views=views)

    def _publish(self) -> Snapshot:
        """Freeze current state and swing the head pointer (writer-only)."""
        if self.kaskade.graph.version == self._head.version:
            return self._head  # no topological change: head is still current
        snapshot = self._build_snapshot()
        with self._lock:
            self._snapshots[snapshot.version] = snapshot
            self._head = snapshot
            # Enforce the retention bound: the newest ``max_retained``
            # versions stay readable; older unpinned snapshots are dropped
            # now, older pinned ones are marked retired and reclaimed by
            # their final release().
            keep = set(sorted(self._snapshots, reverse=True)[:self.max_retained])
            for version in list(self._snapshots):
                old = self._snapshots[version]
                if version in keep or old is self._head:
                    continue
                if old.pins == 0:
                    self._snapshots.pop(version)
                else:
                    old.retired = True
        self._advance_floor()
        return snapshot

    def refresh_head(self) -> Snapshot:
        """Publish a snapshot of the current graph state (no mutations).

        Useful when the base graph was mutated outside the commit path (e.g.
        directly by embedding code) and the service should start serving the
        new state.
        """
        with self._write_lock:
            if len(self.kaskade.catalog):
                self.kaskade.refresh_views()
            return self._publish()

    # ------------------------------------------------------------ reclamation
    def _advance_floor(self) -> None:
        """Move the changelog floor up to the oldest version still needed."""
        if not self.advance_changelog_floor:
            return
        log = self.kaskade.graph.changelog
        if log is None:
            return
        with self._lock:
            needed = [min(self._snapshots)]
        needed.extend(view.base_version for view in self.kaskade.catalog
                      if view.base_version is not None)
        log.truncate_before(min(needed))

    # -------------------------------------------------------------- execution
    def execute(self, query: GraphQuery, *, version: int | None = None,
                max_work: int | None = None, use_views: bool = True) -> QueryOutcome:
        """Pin, execute against the frozen snapshot, release.

        The hot path is lock-free: planning hits the per-version plan cache
        (a dict read) and execution walks the snapshot's immutable CSR
        arrays.  The outcome's ``executed_version`` records the pinned
        version, which is how clients correlate rows with graph state.
        """
        with self.pinned(version) as snapshot:
            return self.execute_pinned(query, snapshot, max_work=max_work,
                                       use_views=use_views)

    def execute_pinned(self, query: GraphQuery, snapshot: Snapshot, *,
                       max_work: int | None = None,
                       use_views: bool = True) -> QueryOutcome:
        """Execute against an already-pinned snapshot (caller releases).

        The same base-vs-view decision as embedded :meth:`Kaskade.execute`,
        taken over the snapshot's frozen base store and captured view stores.
        """
        return self.kaskade.execute_on(query, snapshot.store, snapshot.by_signature,
                                       use_views=use_views, max_work=max_work)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SnapshotManager(head={self._head.version}, "
                f"retained={len(self._snapshots)}, "
                f"pinned={self.pinned_versions()})")
