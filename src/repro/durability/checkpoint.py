"""Checkpoint snapshots: full engine state with a CRC'd manifest commit point.

A checkpoint captures everything WAL replay would otherwise have to rebuild:
the base graph **with its edge ids and version counters** (the
``include_ids`` serialization from :mod:`repro.graph.io` — replayed
``remove_edge``-by-id ops depend on ids surviving the round trip) plus the
materialized-view catalog, stored through the same
:class:`~repro.storage.persistent.PersistentViewStore` machinery plain view
persistence uses.

Each checkpoint is one directory, ``checkpoint-<seq>-v<version>``, and its
``MANIFEST.json`` is the atomic commit point: the manifest records a CRC-32
per data file plus a CRC of its own body, is written via temp-file +
``os.replace``, and is only written **after** every data file is flushed and
fsynced.  A crash before the manifest lands (the ``checkpoint.write`` fault
point fires right before it) leaves a directory that
:meth:`CheckpointManager.latest_valid` simply skips — the previous
checkpoint keeps recovery correct.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import DurabilityError
from repro.graph.io import graph_from_dict, graph_to_dict
from repro.graph.property_graph import PropertyGraph
from repro.storage.persistent import PersistentViewStore
from repro.testing.faults import FaultInjector
from repro.views.catalog import MaterializedView

#: Name of the manifest file that commits a checkpoint.
MANIFEST_NAME = "MANIFEST.json"

#: State-blob key under which the base graph is stored.
GRAPH_STATE_KEY = "graph"


@dataclass(frozen=True)
class CheckpointInfo:
    """One validated checkpoint on disk."""

    checkpoint_id: int
    version: int
    path: Path
    manifest: dict[str, Any]


class CheckpointManager:
    """Write, validate, load, and prune checkpoint directories.

    Example:
        >>> import tempfile
        >>> from repro.graph.property_graph import PropertyGraph
        >>> graph = PropertyGraph(name="g")
        >>> _ = graph.add_vertex("a", "T")
        >>> manager = CheckpointManager(tempfile.mkdtemp())
        >>> info = manager.write(graph, [], version=graph.version)
        >>> manager.latest_valid().version == graph.version
        True
    """

    def __init__(self, directory: str | Path, *,
                 faults: FaultInjector | None = None,
                 keep: int = 2) -> None:
        """Manage checkpoints under ``directory``.

        Args:
            directory: Root for ``checkpoint-*`` subdirectories.
            faults: Optional injector for the ``checkpoint.write`` point.
            keep: Validated checkpoints retained by :meth:`prune`.
        """
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.faults = faults
        self.keep = max(1, keep)
        self.written = 0

    # --------------------------------------------------------------- writing
    def write(self, graph: PropertyGraph, views: list[MaterializedView], *,
              version: int | None = None,
              extra: dict[str, Any] | None = None) -> CheckpointInfo:
        """Write one checkpoint; returns its info once the manifest commits.

        The ``checkpoint.write`` fault point fires after the data files are
        on disk but **before** the manifest — the window where a crash leaves
        an invisible, harmless partial checkpoint.
        """
        if version is None:
            version = graph.version
        checkpoint_id = self._next_id()
        path = self.directory / f"checkpoint-{checkpoint_id:08d}-v{version}"
        path.mkdir(parents=True, exist_ok=True)
        store = PersistentViewStore(path / "views.jsonl")
        catalog_stub = _CatalogStub(views)
        store.save_catalog(catalog_stub)
        store.save_state(GRAPH_STATE_KEY, graph_to_dict(graph, include_ids=True))
        data_files = self._fsync_data_files(path)
        if self.faults is not None:
            self.faults.check("checkpoint.write")
        body = {
            "checkpoint_id": checkpoint_id,
            "version": version,
            "created_at": time.time(),
            "files": data_files,
        }
        if extra:
            body["extra"] = extra
        manifest = {"body": body, "crc": _body_crc(body)}
        manifest_path = path / MANIFEST_NAME
        tmp_path = path / (MANIFEST_NAME + ".tmp")
        with tmp_path.open("w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, manifest_path)
        self._fsync_dir(path)
        self._fsync_dir(self.directory)
        self.written += 1
        return CheckpointInfo(checkpoint_id=checkpoint_id, version=version,
                              path=path, manifest=manifest)

    def _fsync_data_files(self, path: Path) -> dict[str, int]:
        files: dict[str, int] = {}
        for child in sorted(path.iterdir()):
            if child.name == MANIFEST_NAME or child.name.endswith(".tmp"):
                continue
            data = child.read_bytes()
            files[child.name] = zlib.crc32(data)
            fd = os.open(child, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        return files

    @staticmethod
    def _fsync_dir(path: Path) -> None:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _next_id(self) -> int:
        ids = [self._parse_id(p) for p in self.directory.glob("checkpoint-*")]
        return max((i for i in ids if i is not None), default=0) + 1

    @staticmethod
    def _parse_id(path: Path) -> int | None:
        parts = path.name.split("-")
        try:
            return int(parts[1])
        except (IndexError, ValueError):
            return None

    # ------------------------------------------------------------ validation
    def latest_valid(self) -> CheckpointInfo | None:
        """Newest checkpoint whose manifest and data files all validate."""
        candidates = sorted(
            (p for p in self.directory.glob("checkpoint-*") if p.is_dir()),
            key=lambda p: self._parse_id(p) or 0, reverse=True)
        for path in candidates:
            info = self._validate(path)
            if info is not None:
                return info
        return None

    def _validate(self, path: Path) -> CheckpointInfo | None:
        manifest_path = path / MANIFEST_NAME
        if not manifest_path.exists():
            return None
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None
        body = manifest.get("body")
        if not isinstance(body, dict) or manifest.get("crc") != _body_crc(body):
            return None
        for name, crc in body.get("files", {}).items():
            child = path / name
            if not child.exists() or zlib.crc32(child.read_bytes()) != crc:
                return None
        return CheckpointInfo(checkpoint_id=body["checkpoint_id"],
                              version=body["version"], path=path,
                              manifest=manifest)

    # ---------------------------------------------------------------- loading
    def load(self, info: CheckpointInfo | None = None
             ) -> tuple[PropertyGraph, list[MaterializedView]]:
        """Rebuild the base graph (ids and counters intact) and its views."""
        if info is None:
            info = self.latest_valid()
        if info is None:
            raise DurabilityError(
                f"no valid checkpoint under {str(self.directory)!r}")
        store = PersistentViewStore(info.path / "views.jsonl")
        payload = store.load_state(GRAPH_STATE_KEY)
        if payload is None:
            raise DurabilityError(
                f"checkpoint {info.checkpoint_id} has no graph state blob")
        graph = graph_from_dict(payload)
        return graph, store.load_views()

    # ---------------------------------------------------------------- pruning
    def prune(self, keep: int | None = None) -> int:
        """Drop all but the newest ``keep`` *valid* checkpoints.

        Invalid (crash-torn) directories older than the newest valid one are
        removed too.  Returns the number of directories deleted.
        """
        keep = self.keep if keep is None else max(1, keep)
        valid: list[CheckpointInfo] = []
        invalid: list[Path] = []
        for path in self.directory.glob("checkpoint-*"):
            if not path.is_dir():
                continue
            info = self._validate(path)
            if info is None:
                invalid.append(path)
            else:
                valid.append(info)
        valid.sort(key=lambda i: i.checkpoint_id, reverse=True)
        doomed = [info.path for info in valid[keep:]]
        newest_valid = valid[0].checkpoint_id if valid else None
        doomed.extend(
            p for p in invalid
            if newest_valid is not None
            and (self._parse_id(p) or 0) < newest_valid)
        for path in doomed:
            for child in sorted(path.rglob("*"), reverse=True):
                child.unlink() if child.is_file() else child.rmdir()
            path.rmdir()
        return len(doomed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        latest = self.latest_valid()
        return (f"CheckpointManager(dir={str(self.directory)!r}, "
                f"latest={latest.checkpoint_id if latest else None})")


class _CatalogStub:
    """Just enough of :class:`~repro.views.catalog.ViewCatalog` to persist."""

    def __init__(self, views: list[MaterializedView]) -> None:
        self._views = list(views)

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)


def _body_crc(body: dict[str, Any]) -> int:
    return zlib.crc32(json.dumps(body, sort_keys=True, default=str).encode())
