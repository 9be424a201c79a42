"""The durability engine: commit logging, checkpoint policy, and recovery.

:class:`DurabilityEngine` is what :class:`~repro.service.mvcc.SnapshotManager`
threads its commits through.  One commit produces two WAL records:

1. a **batch** record — appended (and flushed) *before* any op touches the
   live graph, carrying the ops and the graph version they apply on top of;
2. a **marker** record — appended *after* the batch fully applied, fsynced
   before the commit is acknowledged.

Recovery (:meth:`DurabilityEngine.recover`) loads the newest valid
checkpoint and replays exactly the batches whose markers survived: a batch
with no marker was never acknowledged and is discarded; a marker at or below
the checkpoint version is already folded into the checkpoint and is skipped.
Each replayed batch is version-checked on both sides — it must apply on the
graph version its batch recorded, and land on the version its marker
recorded — so silent divergence raises :class:`~repro.errors.RecoveryError`
instead of serving wrong data.

Checkpoints are taken at the **start** of a commit, never between a commit's
marker and its acknowledgement: a crash inside ``checkpoint.write`` can
therefore never make an unacknowledged commit durable, which is what keeps
the torture suite's "recovered state == acknowledged prefix" invariant exact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.core.kaskade import Kaskade
from repro.durability.checkpoint import CheckpointInfo, CheckpointManager
from repro.durability.wal import DEFAULT_SEGMENT_BYTES, WriteAheadLog
from repro.errors import RecoveryError, ServiceError
from repro.testing.faults import FaultInjector

#: Mutation op kinds accepted by :func:`apply_op` (and therefore by
#: :meth:`~repro.service.mvcc.SnapshotManager.commit`).
MUTATION_OPS = ("add_vertex", "remove_vertex", "add_edge", "remove_edge")


def apply_op(graph, op: Mapping[str, Any]) -> None:
    """Apply one mutation dict to a graph (the single shared interpreter).

    Both the live commit path and WAL replay run through this function, so a
    batch replays to byte-identical state by construction.  ``remove_edge``
    accepts either an explicit ``edge_id`` (stable across replay because
    checkpoints preserve edge ids) or a ``source``/``target``/``label``
    triple resolved against insertion order.
    """
    kind = op.get("op")
    if kind == "add_vertex":
        graph.add_vertex(op["id"], op["type"], **op.get("properties", {}))
    elif kind == "remove_vertex":
        graph.remove_vertex(op["id"])
    elif kind == "add_edge":
        graph.add_edge(op["source"], op["target"], op["label"],
                       **op.get("properties", {}))
    elif kind == "remove_edge":
        if "edge_id" in op:
            graph.remove_edge(op["edge_id"])
        else:
            edge = next((e for e in graph.out_edges(op["source"], op.get("label"))
                         if e.target == op["target"]), None)
            if edge is None:
                raise ServiceError(
                    f"no edge {op.get('source')!r}->{op.get('target')!r} "
                    f"with label {op.get('label')!r}")
            graph.remove_edge(edge.id)
    else:
        raise ServiceError(
            f"unknown mutation op {kind!r}; expected one of {MUTATION_OPS}")


@dataclass
class RecoveryResult:
    """What one recovery pass found and did."""

    checkpoint_id: int
    checkpoint_version: int
    recovered_version: int
    wal_records: int = 0
    replayed_batches: int = 0
    replayed_ops: int = 0
    skipped_batches: int = 0
    discarded_batches: int = 0
    op_errors: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def describe(self) -> dict[str, Any]:
        return {
            "checkpoint_id": self.checkpoint_id,
            "checkpoint_version": self.checkpoint_version,
            "recovered_version": self.recovered_version,
            "wal_records": self.wal_records,
            "replayed_batches": self.replayed_batches,
            "replayed_ops": self.replayed_ops,
            "skipped_batches": self.skipped_batches,
            "discarded_batches": self.discarded_batches,
            "op_errors": len(self.op_errors),
            "elapsed_seconds": self.elapsed_seconds,
        }


class DurabilityEngine:
    """WAL + checkpoints for one engine instance, rooted at one directory.

    Layout: ``<root>/wal/wal-*.log`` and ``<root>/checkpoints/checkpoint-*``.

    Example:
        >>> import tempfile
        >>> from repro.core import Kaskade
        >>> from repro.graph.property_graph import PropertyGraph
        >>> root = tempfile.mkdtemp()
        >>> kaskade = Kaskade(PropertyGraph(name="g"))
        >>> engine = DurabilityEngine(root)
        >>> engine.initialize(kaskade)   # checkpoint 0: empty graph
        >>> engine.ready
        True
    """

    def __init__(self, root: str | Path, *,
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 fsync: bool = True,
                 checkpoint_every: int = 64,
                 keep_checkpoints: int = 2,
                 faults: FaultInjector | None = None,
                 fsync_observer: Callable[[float], None] | None = None) -> None:
        """Open (or create) the durability root.

        Args:
            root: Directory owning the WAL and checkpoint subtrees.
            segment_bytes: WAL segment rollover threshold in bytes.
            fsync: Whether WAL syncs really hit the disk (False is for
                benchmarks only).
            checkpoint_every: Commits between automatic checkpoints; the
                checkpoint is taken at the *start* of the next commit.
            keep_checkpoints: Validated checkpoints retained after pruning.
            faults: Shared fault injector threaded into the WAL
                (``wal.append`` / ``wal.fsync``), the checkpointer
                (``checkpoint.write``), and the apply loop (``commit.apply``).
            fsync_observer: Per-fsync duration callback (latency histogram).
        """
        self.root = Path(root)
        self.faults = faults
        self.wal = WriteAheadLog(self.root / "wal", segment_bytes=segment_bytes,
                                 fsync=fsync, faults=faults,
                                 fsync_observer=fsync_observer)
        self.checkpoints = CheckpointManager(self.root / "checkpoints",
                                             faults=faults,
                                             keep=keep_checkpoints)
        self.checkpoint_every = max(1, checkpoint_every)
        self.ready = False
        self.last_recovery: RecoveryResult | None = None
        self._commit_seq = 0
        self._commits_since_checkpoint = 0
        self.counters: dict[str, int] = {
            "batches_logged": 0,
            "markers_logged": 0,
            "checkpoints_written": 0,
            "replayed_records": 0,
            "replayed_batches": 0,
            "discarded_batches": 0,
        }

    # ------------------------------------------------------------- lifecycle
    def initialize(self, kaskade: Kaskade) -> None:
        """Make the engine servable: ensure a baseline checkpoint exists.

        Checkpoint 0 (the current graph, usually empty or freshly seeded) is
        written before the first commit so :meth:`recover` always has a base
        to replay onto.
        """
        if self.checkpoints.latest_valid() is None:
            self.checkpoint(kaskade)
        self.ready = True

    def close(self) -> None:
        self.wal.close()
        self.ready = False

    def simulate_power_loss(self) -> None:
        """Torture hook: drop unsynced WAL bytes and kill this instance."""
        self.wal.simulate_power_loss()
        self.ready = False

    # ------------------------------------------------------------ commit path
    def maybe_checkpoint(self, kaskade: Kaskade) -> CheckpointInfo | None:
        """Checkpoint if enough commits accumulated since the last one.

        Called at the **start** of a commit (under the writer lock, before
        the batch record) — see the module docstring for why the ordering
        matters.
        """
        if self._commits_since_checkpoint < self.checkpoint_every:
            return None
        return self.checkpoint(kaskade)

    def checkpoint(self, kaskade: Kaskade) -> CheckpointInfo:
        """Write a checkpoint of the engine's current state, then reset the WAL.

        The manifest commit is the atomic point: once it lands, every WAL
        record is redundant (markers at or below the checkpoint version are
        skipped on replay), so the segments are deleted.  A crash between
        manifest and reset only costs replay the version filter.
        """
        graph = kaskade.graph
        info = self.checkpoints.write(graph, list(kaskade.catalog),
                                      version=graph.version)
        self.wal.reset()
        self.checkpoints.prune()
        self._commits_since_checkpoint = 0
        self.counters["checkpoints_written"] += 1
        return info

    def log_batch(self, ops: Sequence[Mapping[str, Any]], *,
                  base_version: int) -> int | None:
        """Append a commit's batch record (flushed, not yet fsynced).

        Returns the commit id to pass to :meth:`log_marker`, or None for an
        empty batch (nothing to make durable).
        """
        if not ops:
            return None
        self._commit_seq += 1
        commit_id = self._commit_seq
        self.wal.append({"type": "batch", "commit_id": commit_id,
                         "base_version": base_version, "ops": list(ops)})
        self.counters["batches_logged"] += 1
        return commit_id

    def check_apply_fault(self) -> None:
        """Fire the ``commit.apply`` fault point (before each op applies)."""
        if self.faults is not None:
            self.faults.check("commit.apply")

    def log_marker(self, commit_id: int, *, version: int, applied: int) -> None:
        """Append + fsync a commit's marker; the commit is durable after this."""
        self.wal.append({"type": "marker", "commit_id": commit_id,
                         "version": version, "applied": applied}, sync=True)
        self.counters["markers_logged"] += 1
        self._commits_since_checkpoint += 1

    # -------------------------------------------------------------- recovery
    def recover(self, *, checkpoint_after: bool = True
                ) -> tuple[Kaskade, RecoveryResult]:
        """Rebuild a Kaskade engine from checkpoint + WAL tail.

        Args:
            checkpoint_after: Fold the replayed tail into a fresh checkpoint
                (and reset the WAL) once recovery succeeds, so the next crash
                replays from here instead of re-paying this tail.

        Returns:
            The recovered engine and a :class:`RecoveryResult` accounting.

        Raises:
            DurabilityError: No valid checkpoint exists (``initialize`` was
                never run against this root).
            WALCorruptionError: Mid-log damage a crash cannot explain.
            RecoveryError: A replayed batch applied on, or landed on, a
                version other than the one its records promised.
        """
        start = time.perf_counter()
        info = self.checkpoints.latest_valid()
        graph, views = self.checkpoints.load(info)
        result = RecoveryResult(checkpoint_id=info.checkpoint_id,
                                checkpoint_version=info.version,
                                recovered_version=graph.version)
        pending: dict[str, Any] | None = None
        max_commit_id = 0
        for record in self.wal.iter_records():
            result.wal_records += 1
            kind = record.get("type")
            if kind == "batch":
                if pending is not None:
                    result.discarded_batches += 1  # no marker: never acked
                pending = record
                max_commit_id = max(max_commit_id, record.get("commit_id", 0))
            elif kind == "marker":
                max_commit_id = max(max_commit_id, record.get("commit_id", 0))
                if record.get("version", 0) <= info.version:
                    # Already folded into the checkpoint (crash between a
                    # checkpoint's manifest and its WAL reset).
                    if pending is not None:
                        result.skipped_batches += 1
                    pending = None
                    continue
                if (pending is None
                        or pending.get("commit_id") != record.get("commit_id")):
                    raise RecoveryError(
                        f"marker for commit {record.get('commit_id')} has no "
                        f"matching batch record")
                self._replay_batch(graph, pending, record, result)
                pending = None
            else:
                raise RecoveryError(f"unknown WAL record type {kind!r}")
        if pending is not None:
            result.discarded_batches += 1
        result.recovered_version = graph.version
        self.counters["replayed_records"] += result.wal_records
        self.counters["replayed_batches"] += result.replayed_batches
        self.counters["discarded_batches"] += result.discarded_batches
        kaskade = Kaskade(graph)
        for view in views:
            kaskade.catalog.register(view)
        if len(kaskade.catalog) and result.replayed_batches:
            kaskade.refresh_views()
        self._commit_seq = max_commit_id
        self._commits_since_checkpoint = result.replayed_batches
        result.elapsed_seconds = time.perf_counter() - start
        self.last_recovery = result
        if checkpoint_after:
            self.checkpoint(kaskade)
        self.ready = True
        return kaskade, result

    def _replay_batch(self, graph, batch: Mapping[str, Any],
                      marker: Mapping[str, Any],
                      result: RecoveryResult) -> None:
        commit_id = batch.get("commit_id")
        if graph.version != batch.get("base_version"):
            raise RecoveryError(
                f"batch {commit_id} expects base version "
                f"{batch.get('base_version')} but replay sits at "
                f"{graph.version}")
        for op in batch.get("ops", ()):
            try:
                apply_op(graph, op)
            except Exception as exc:  # noqa: BLE001 - mirrors commit semantics
                result.op_errors.append(f"{op.get('op', '?')}: {exc}")
            else:
                result.replayed_ops += 1
        if graph.version != marker.get("version"):
            raise RecoveryError(
                f"batch {commit_id} replayed to version {graph.version} but "
                f"its marker recorded {marker.get('version')}")
        result.replayed_batches += 1

    def describe(self) -> dict[str, Any]:
        """Machine-readable engine status (drives the metrics callbacks)."""
        return {
            "ready": self.ready,
            "wal_segments": len(self.wal.segment_paths()),
            "wal_records_appended": self.wal.records_appended,
            "wal_syncs": self.wal.syncs,
            "commits_since_checkpoint": self._commits_since_checkpoint,
            **self.counters,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"DurabilityEngine(root={str(self.root)!r}, "
                f"ready={self.ready}, commit_seq={self._commit_seq})")


def recover_kaskade(root: str | Path, **engine_kwargs
                    ) -> tuple[Kaskade, DurabilityEngine, RecoveryResult]:
    """One-call recovery: open the root, recover, return all three artifacts.

    This is what a restarted process (or the torture harness's "new
    process") calls — see ``examples/recover.py`` for the walkthrough.
    """
    engine = DurabilityEngine(root, **engine_kwargs)
    kaskade, result = engine.recover()
    return kaskade, engine, result
