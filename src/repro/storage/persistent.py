"""Durable storage for materialized views.

The paper materializes views as physical data objects inside the graph engine
(§III-C); in this reproduction the :class:`~repro.views.catalog.ViewCatalog`
lived only in process memory, so every restart re-paid the full
materialization cost.  :class:`PersistentViewStore` fixes that: it snapshots a
catalog — each view's definition, materialized graph, and measured creation
cost — to disk and reloads it, so a catalog survives process restarts and
large view sets can spill out of memory.

The format is JSONL: one JSON record per view per line, keyed by definition
signature — human-inspectable, diffable, and trivially streamable.  Every
write is an atomic whole-file rewrite (sibling temp file, then rename).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterator

from repro.graph.io import graph_from_dict, graph_to_dict
from repro.views.catalog import MaterializedView, ViewCatalog
from repro.views.definitions import (
    ViewDefinition,
    definition_from_dict,
    definition_to_dict,
)


def _signature_key(definition: ViewDefinition) -> str:
    """Stable string form of a definition signature (the record key)."""
    return json.dumps(definition.signature(), default=str)


def _view_to_record(view: MaterializedView) -> dict[str, Any]:
    return {
        "definition": definition_to_dict(view.definition),
        "graph": graph_to_dict(view.graph),
        "creation_seconds": view.creation_seconds,
    }


def _view_from_record(record: dict[str, Any]) -> MaterializedView:
    definition = definition_from_dict(record["definition"])
    graph = graph_from_dict(record["graph"])
    return MaterializedView(
        definition=definition,
        graph=graph,
        creation_seconds=record.get("creation_seconds", 0.0),
    )


class PersistentViewStore:
    """Disk-backed snapshot + reload of materialized views.

    Example:
        >>> store = PersistentViewStore("/tmp/views.jsonl")  # doctest: +SKIP
        >>> store.save_catalog(catalog)                      # doctest: +SKIP
        >>> restored = store.load_catalog()                  # doctest: +SKIP
    """

    def __init__(self, path: str | Path) -> None:
        """Open (or create) a persistent store at ``path``.

        Parent directories are created on first write.
        """
        self.path = Path(path)

    # ----------------------------------------------------------- catalog level
    def save_catalog(self, catalog: ViewCatalog) -> int:
        """Replace the stored snapshot with the catalog's current views.

        Returns the number of views written.
        """
        views = list(catalog)
        records = {_signature_key(v.definition): _view_to_record(v) for v in views}
        self._write_all(records)
        return len(views)

    def load_catalog(self, catalog: ViewCatalog | None = None) -> ViewCatalog:
        """Reload every stored view into ``catalog`` (a fresh one by default)."""
        catalog = catalog if catalog is not None else ViewCatalog()
        for view in self.load_views():
            catalog.register(view)
        return catalog

    def load_views(self) -> list[MaterializedView]:
        """Materialized views currently stored on disk."""
        return [_view_from_record(record) for _, record in self._read_all()]

    # -------------------------------------------------------------- view level
    def save_view(self, view: MaterializedView) -> None:
        """Insert or replace a single view (keyed by definition signature)."""
        key = _signature_key(view.definition)
        record = _view_to_record(view)
        records = dict(self._read_all())
        records[key] = record
        self._write_all(records)

    def delete_view(self, definition: ViewDefinition) -> bool:
        """Remove one stored view; returns whether it was present."""
        key = _signature_key(definition)
        records = dict(self._read_all())
        if key not in records:
            return False
        del records[key]
        self._write_all(records)
        return True

    def clear(self) -> None:
        """Drop every stored view."""
        self._write_all({})

    # ------------------------------------------------------------ advisor state
    def save_state(self, key: str, payload: dict[str, Any]) -> None:
        """Persist one JSON-serializable advisor-state blob under ``key``.

        State lives next to (but independent of) the view records: the
        workload-adaptive lifecycle engine checkpoints its workload log and
        calibration here, so a restarted process re-selects views from the
        same evidence it had before the restart.  ``clear()``/``save_catalog``
        do not touch state blobs.
        """
        states = self._read_states()
        states[key] = payload
        self._write_states(states)

    def load_state(self, key: str) -> dict[str, Any] | None:
        """The state blob stored under ``key``, or None when absent."""
        return self._read_states().get(key)

    def delete_state(self, key: str) -> bool:
        """Remove one state blob; returns whether it was present."""
        states = self._read_states()
        if key not in states:
            return False
        del states[key]
        self._write_states(states)
        return True

    def state_keys(self) -> list[str]:
        """Keys of every stored state blob."""
        return sorted(self._read_states())

    def _state_path(self) -> Path:
        return self.path.with_name(self.path.name + ".state.json")

    def _read_states(self) -> dict[str, dict[str, Any]]:
        path = self._state_path()
        if not path.exists():
            return {}
        with path.open("r", encoding="utf-8") as handle:
            return json.load(handle)

    def _write_states(self, states: dict[str, dict[str, Any]]) -> None:
        path = self._state_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp_path = path.with_name(path.name + ".tmp")
        with tmp_path.open("w", encoding="utf-8") as handle:
            json.dump(states, handle)
        os.replace(tmp_path, path)

    # -------------------------------------------------------------- inspection
    def view_names(self) -> list[str]:
        """Names of the stored views (without loading the graphs)."""
        return [record["definition"]["name"] for _, record in self._read_all()]

    def __len__(self) -> int:
        return sum(1 for _ in self._read_all())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PersistentViewStore(path={str(self.path)!r})"

    # ------------------------------------------------------------------ plumbing
    def _read_all(self) -> Iterator[tuple[str, dict[str, Any]]]:
        if not self.path.exists():
            return
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                key = record.pop("signature", None)
                if key is None:
                    key = _signature_key(definition_from_dict(record["definition"]))
                yield key, record

    def _write_all(self, records: dict[str, dict[str, Any]]) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Atomic whole-file rewrite: write a sibling temp file, then rename.
        tmp_path = self.path.with_name(self.path.name + ".tmp")
        with tmp_path.open("w", encoding="utf-8") as handle:
            for key, record in records.items():
                payload = {"signature": key, **record}
                handle.write(json.dumps(payload) + "\n")
        os.replace(tmp_path, self.path)
