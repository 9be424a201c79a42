"""Segmented, checksummed, fsync'd write-ahead log.

The WAL is the durability layer's source of truth between checkpoints: every
commit appends a *batch* record before any mutation touches the live graph
and a *marker* record after the batch fully applied, and the commit is only
acknowledged once the marker's segment is fsynced.  Recovery replays exactly
the batches whose markers made it to disk — so an acknowledged commit can
never be lost, and an unacknowledged one can never resurrect.

On-disk format (one directory, segments named ``wal-<seq>.log``):

* each record is framed as ``struct '<II'`` — payload length, then CRC-32 of
  the payload — followed by the UTF-8 JSON payload;
* a segment rolls over once it would exceed ``segment_bytes`` (default
  1 MiB); the outgoing segment is fsynced *before* the next one opens, so a
  commit split across a rollover can never lose its batch while keeping its
  marker;
* replay tolerates a torn or checksum-failing record at the **tail** of the
  final segment (the expected signature of a crash mid-append) but raises
  :class:`~repro.errors.WALCorruptionError` for a bad record that is
  followed by valid data — that is damage, not a crash.

Durability testing is first-class: the log tracks, per segment, the highest
byte offset known to be fsynced, and :meth:`WriteAheadLog.simulate_power_loss`
truncates every segment back to that watermark — dropping written-but-unsynced
bytes exactly like a power cut would.  The ``wal.append`` and ``wal.fsync``
fault points (see :mod:`repro.testing.faults`) are checked on the
corresponding operations; torn-write plans persist a prefix of the frame
before the simulated crash.
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.errors import DurabilityError, WALCorruptionError
from repro.testing.faults import FaultInjector, InjectedCrash

#: Default segment rollover threshold.
DEFAULT_SEGMENT_BYTES = 1 << 20

#: Smallest accepted segment rollover threshold.
_MIN_SEGMENT_BYTES = 64

_HEADER = struct.Struct("<II")


def encode_record(record: dict[str, Any]) -> bytes:
    """Frame one record: ``<II`` (length, CRC-32) header + JSON payload."""
    payload = json.dumps(record, default=str).encode("utf-8")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


class WriteAheadLog:
    """Append-only segmented log with explicit sync watermarks.

    Example:
        >>> import tempfile
        >>> wal = WriteAheadLog(tempfile.mkdtemp())
        >>> wal.append({"type": "batch", "commit_id": 1, "ops": []})
        1
        >>> wal.append({"type": "marker", "commit_id": 1}, sync=True)
        2
        >>> [r["type"] for r in wal.replay()]
        ['batch', 'marker']
    """

    def __init__(self, directory: str | Path, *,
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 fsync: bool = True,
                 faults: FaultInjector | None = None,
                 fsync_observer: Callable[[float], None] | None = None) -> None:
        """Open (or create) a WAL in ``directory``.

        Args:
            directory: Segment directory; created if absent.  Appends resume
                in a **new** segment after any existing ones — a possibly
                torn tail segment is never extended.
            segment_bytes: Rollover threshold in bytes (at least 64).
            fsync: Whether :meth:`sync` really calls ``os.fsync``.  False is
                for benchmarks only: flushed bytes are then *treated* as
                durable by the power-loss simulator.
            faults: Optional injector for the ``wal.append`` / ``wal.fsync``
                fault points.
            fsync_observer: Called with each fsync's duration in seconds
                (feeds the WAL fsync-latency histogram).

        Raises:
            ValueError: ``segment_bytes`` is below 64.
        """
        if segment_bytes < _MIN_SEGMENT_BYTES:
            raise ValueError(f"segment_bytes must be at least {_MIN_SEGMENT_BYTES}, "
                             f"got {segment_bytes}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = segment_bytes
        self.fsync_enabled = fsync
        self.faults = faults
        self.fsync_observer = fsync_observer
        self.records_appended = 0
        self.syncs = 0
        #: Per-segment highest byte offset known durable.
        self._synced: dict[Path, int] = {p: p.stat().st_size
                                         for p in self.segment_paths()}
        self._handle = None
        self._segment: Path | None = None
        self._closed = False

    # -------------------------------------------------------------- segments
    def segment_paths(self) -> list[Path]:
        """Existing segment files, oldest first."""
        return sorted(self.directory.glob("wal-*.log"))

    def _next_seq(self) -> int:
        seqs = []
        for path in self.segment_paths():
            try:
                seqs.append(int(path.stem.split("-", 1)[1]))
            except (IndexError, ValueError):
                continue
        return max(seqs, default=0) + 1

    def _open_segment(self) -> None:
        path = self.directory / f"wal-{self._next_seq():08d}.log"
        self._handle = path.open("ab")
        self._segment = path
        self._synced.setdefault(path, 0)

    def _ensure_open(self) -> None:
        if self._closed:
            raise DurabilityError("write-ahead log is closed")
        if self._handle is None:
            self._open_segment()

    def size_bytes(self) -> int:
        """Total bytes across all segments (flushed, not necessarily synced)."""
        if self._handle is not None:
            self._handle.flush()
        return sum(p.stat().st_size for p in self.segment_paths())

    def start_new_segment(self) -> None:
        """Seal the current segment (fsync) and direct appends to a fresh one."""
        if self._handle is not None:
            self._sync_current()
            self._handle.close()
            self._handle = None
            self._segment = None

    # --------------------------------------------------------------- appends
    def append(self, record: dict[str, Any], *, sync: bool = False) -> int:
        """Append one record; returns the count of records appended so far.

        With ``sync=True`` the segment is fsynced after the write, making
        this record — and everything before it — durable.  The
        ``wal.append`` fault point fires before any byte is written; a
        torn-write plan persists (flush + fsync) a prefix of the frame and
        then raises :class:`~repro.testing.faults.InjectedCrash`, leaving the
        partial record on disk for recovery to tolerate.
        """
        frame = encode_record(record)
        self._ensure_open()
        if (self._handle.tell() + len(frame) > self.segment_bytes
                and self._handle.tell() > 0):
            self.start_new_segment()
            self._ensure_open()
        if self.faults is not None:
            action = self.faults.check("wal.append", payload_len=len(frame))
            if action is not None:
                # Torn write: a prefix reaches the disk, then the power cut.
                self._handle.write(frame[:action.write_bytes])
                self._handle.flush()
                os.fsync(self._handle.fileno())
                self._synced[self._segment] = self._handle.tell()
                raise InjectedCrash("wal.append")
        self._handle.write(frame)
        self._handle.flush()
        self.records_appended += 1
        if sync:
            self.sync()
        return self.records_appended

    def sync(self) -> None:
        """Make every appended byte durable (subject to ``fsync_enabled``)."""
        self._ensure_open()
        self._sync_current()

    def _sync_current(self) -> None:
        if self._handle is None:
            return
        self._handle.flush()
        if self.faults is not None and self.fsync_enabled:
            self.faults.check("wal.fsync")
        start = time.perf_counter()
        if self.fsync_enabled:
            os.fsync(self._handle.fileno())
        self.syncs += 1
        self._synced[self._segment] = self._handle.tell()
        if self.fsync_observer is not None:
            self.fsync_observer(time.perf_counter() - start)

    # ---------------------------------------------------------------- replay
    def replay(self) -> list[dict[str, Any]]:
        """Every intact record, oldest first, tolerating a torn tail.

        Raises:
            WALCorruptionError: A damaged record is followed by valid data,
                or a non-final segment fails to parse cleanly — corruption
                that a crash cannot explain.
        """
        return list(self.iter_records())

    def iter_records(self) -> Iterator[dict[str, Any]]:
        segments = self.segment_paths()
        for index, path in enumerate(segments):
            last_segment = index == len(segments) - 1
            data = path.read_bytes()
            offset = 0
            while offset < len(data):
                tail = len(data) - offset
                if tail < _HEADER.size:
                    if last_segment:
                        return  # torn header at the tail: crash signature
                    raise WALCorruptionError(
                        f"{path.name}: torn header at offset {offset} in a "
                        f"non-final segment")
                length, crc = _HEADER.unpack_from(data, offset)
                body_start = offset + _HEADER.size
                if tail < _HEADER.size + length:
                    if last_segment:
                        return  # torn payload at the tail
                    raise WALCorruptionError(
                        f"{path.name}: torn payload at offset {offset} in a "
                        f"non-final segment")
                payload = data[body_start:body_start + length]
                if zlib.crc32(payload) != crc:
                    if last_segment and body_start + length == len(data):
                        return  # corrupt final record: treated as torn
                    raise WALCorruptionError(
                        f"{path.name}: checksum mismatch at offset {offset} "
                        f"with valid data after it")
                try:
                    record = json.loads(payload.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    if last_segment and body_start + length == len(data):
                        return
                    raise WALCorruptionError(
                        f"{path.name}: undecodable record at offset {offset}"
                    ) from exc
                yield record
                offset = body_start + length

    # ------------------------------------------------------------- lifecycle
    def reset(self) -> None:
        """Delete every segment (checkpoint took over their contents)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
            self._segment = None
        for path in self.segment_paths():
            path.unlink()
        self._synced.clear()

    def simulate_power_loss(self) -> None:
        """Drop every byte that was never fsynced, then close the log.

        This is the torture harness's power cut: each segment is truncated
        back to its last durable watermark (with fsync disabled the flush
        watermark stands in — see the ``fsync`` argument).  The instance is
        unusable afterwards; recovery opens a fresh :class:`WriteAheadLog`
        over the same directory.
        """
        if self._handle is not None:
            self._handle.close()
            self._handle = None
            self._segment = None
        for path in self.segment_paths():
            keep = self._synced.get(path, 0) if self.fsync_enabled else path.stat().st_size
            if path.stat().st_size > keep:
                with path.open("r+b") as handle:
                    handle.truncate(keep)
        self._closed = True

    def close(self) -> None:
        if self._handle is not None:
            self._sync_current()
            self._handle.close()
            self._handle = None
            self._segment = None
        self._closed = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"WriteAheadLog(dir={str(self.directory)!r}, "
                f"segments={len(self.segment_paths())}, "
                f"appended={self.records_appended}, fsync={self.fsync_enabled})")
