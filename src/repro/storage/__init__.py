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
* :mod:`repro.storage.persistent` — :class:`PersistentViewStore`, JSONL
  durability for materialized view catalogs,
* :mod:`repro.storage.manager` — the one CSR snapshot cache (a registry keyed
  by live graph and version) and :class:`StorageManager`, which owns the
  only freeze and decides when a graph or view is frozen.

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
from repro.storage.manager import StorageManager, StorageStats
from repro.storage.persistent import PersistentViewStore

__all__ = [
    "CSRGraphStore",
    "GraphLike",
    "GraphStore",
    "PersistentViewStore",
    "PropertyGraphStore",
    "StorageManager",
    "StorageStats",
    "ensure_store",
    "underlying_graph",
]
