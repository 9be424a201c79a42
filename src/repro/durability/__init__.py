"""Crash-safe durability: write-ahead log, checkpoints, and recovery.

The serving layer's commits (:meth:`~repro.service.mvcc.SnapshotManager.commit`)
thread through a :class:`~repro.durability.manager.DurabilityEngine`: a
fsync'd, checksummed WAL record precedes every mutation batch, a fsync'd
marker follows it, periodic checkpoints bound replay time, and
:meth:`~repro.durability.manager.DurabilityEngine.recover` rebuilds exactly
the acknowledged prefix after a crash.  Every interesting instant is
killable via the seeded fault injector in :mod:`repro.testing.faults`.
"""

from repro.durability.checkpoint import CheckpointInfo, CheckpointManager
from repro.durability.manager import (
    MUTATION_OPS,
    DurabilityEngine,
    RecoveryResult,
    apply_op,
    recover_kaskade,
)
from repro.durability.wal import (
    DEFAULT_SEGMENT_BYTES,
    WriteAheadLog,
    encode_record,
)

__all__ = [
    "CheckpointInfo",
    "CheckpointManager",
    "DEFAULT_SEGMENT_BYTES",
    "DurabilityEngine",
    "MUTATION_OPS",
    "RecoveryResult",
    "WriteAheadLog",
    "apply_op",
    "encode_record",
    "recover_kaskade",
]
