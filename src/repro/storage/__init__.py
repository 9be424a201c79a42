"""Pluggable graph storage subsystem.

The paper's architecture (§II) delegates physical storage to an external
graph engine while the optimizer reasons about views abstractly; this
subpackage plays that role inside the reproduction and makes the physical
representation *pluggable*:

* :mod:`repro.storage.base` — the abstract :class:`GraphStore` read interface
  every backend implements (the dict ``PropertyGraph`` satisfies it
  structurally),
* :mod:`repro.storage.csr` — :class:`CSRGraphStore`, an immutable
  compressed-sparse-row snapshot with O(1) degrees and contiguous neighbor
  expansion for analytics and executor hot paths,
* :mod:`repro.storage.persistent` — :class:`PersistentViewStore`, JSONL- or
  SQLite-backed durability for materialized view catalogs,
* :mod:`repro.storage.manager` — :class:`StorageManager`, which owns backend
  selection (freeze-to-CSR when a graph or view is read-mostly) and the
  optional persistence wiring.

Once callers go through :class:`GraphStore`, new backends (sharded, cached,
remote) are drop-in.
"""

from repro.storage.base import (
    GraphLike,
    GraphStore,
    PropertyGraphStore,
    ensure_store,
    underlying_graph,
)
from repro.storage.csr import CSRGraphStore
from repro.storage.manager import (
    StorageManager,
    StoragePolicy,
    StorageStats,
    WORKLOAD_HINTS,
)
from repro.storage.persistent import BACKENDS, PersistentViewStore

__all__ = [
    "BACKENDS",
    "CSRGraphStore",
    "GraphLike",
    "GraphStore",
    "PersistentViewStore",
    "PropertyGraphStore",
    "StorageManager",
    "StoragePolicy",
    "StorageStats",
    "WORKLOAD_HINTS",
    "ensure_store",
    "underlying_graph",
]
