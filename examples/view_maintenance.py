"""Incremental maintenance of a materialized connector view.

Production lineage graphs change constantly (new jobs write new files every
minute), so a materialized job-to-job connector must stay consistent without
being rebuilt from scratch.  This example materializes a 2-hop connector,
streams edge insertions into the base graph, keeps the view up to date with
:class:`~repro.views.maintenance.ConnectorMaintainer`, and verifies that the
maintained view always equals a from-scratch re-materialization.  Afterwards the
maintained view is frozen to a read-optimized CSR snapshot, persisted to
disk, and reloaded — showing that view maintenance, the storage manager, and
durable catalogs compose.

Run with::

    python examples/view_maintenance.py
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

from repro.datasets import summarized_provenance_graph
from repro.storage import PersistentViewStore, StorageManager
from repro.views import ViewCatalog, job_to_job_connector
from repro.views.maintenance import ConnectorMaintainer


def view_edge_set(graph):
    return {(edge.source, edge.target) for edge in graph.edges()}


def main() -> None:
    rng = random.Random(3)
    graph = summarized_provenance_graph(num_jobs=80, seed=11)
    print(f"base graph: {graph.num_vertices} vertices, {graph.num_edges} edges")

    storage = StorageManager()
    catalog = ViewCatalog(storage=storage)
    view = catalog.materialize(graph, job_to_job_connector())
    maintainer = ConnectorMaintainer(graph, view)
    print(f"initial 2-hop job-to-job connector: {view.num_edges} edges "
          f"(frozen to {getattr(view.read_store(), 'backend', 'dict')!r})")

    jobs = graph.vertex_ids("Job")
    files = graph.vertex_ids("File")
    added_view_edges = 0
    for step in range(1, 31):
        # Simulate new lineage: an existing file becomes input to another job,
        # or a job writes an existing file it did not before.
        if rng.random() < 0.5:
            source, target, label = rng.choice(files), rng.choice(jobs), "IS_READ_BY"
        else:
            source, target, label = rng.choice(jobs), rng.choice(files), "WRITES_TO"
        if graph.has_edge(source, target, label):
            continue
        graph.add_edge(source, target, label)
        report = maintainer.on_edge_added(source, target)
        added_view_edges += report.added_edges
        if report.changed:
            print(f"  step {step:>2}: +({source} -{label}-> {target}) "
                  f"added {report.added_edges} connector edge(s)")

    # Verify the maintained view equals a fresh materialization.
    fresh = ViewCatalog().materialize(graph, job_to_job_connector())
    maintained_edges = view_edge_set(view.graph)
    fresh_edges = view_edge_set(fresh.graph)
    print(f"\nafter 30 updates: maintained view has {len(maintained_edges)} edges, "
          f"fresh rebuild has {len(fresh_edges)} edges")
    assert maintained_edges == fresh_edges, "incremental maintenance must match rebuild"
    print(f"incremental maintenance added {added_view_edges} edges and matches "
          "a from-scratch rebuild ✔")

    # Maintenance mutated the view graph, so the CSR snapshot taken before is
    # stale: read_store() serves the dict graph until the view is re-frozen.
    assert view.read_store() is view.graph
    storage.on_maintained(view)
    refrozen = view.read_store()
    assert refrozen.source_version == view.graph.version
    print(f"re-frozen maintained view: {refrozen.num_edges} edges on the "
          f"{refrozen.backend!r} backend")

    # Persist the maintained catalog and reload it, as a restarted process would.
    with tempfile.TemporaryDirectory() as tmp_dir:
        store_path = Path(tmp_dir) / "views.jsonl"
        persistent = PersistentViewStore(store_path)
        persistent.save_catalog(catalog)
        reloaded = persistent.load_catalog()
        reloaded_view = reloaded.get(view.definition)
        assert view_edge_set(reloaded_view.graph) == maintained_edges
        print(f"persisted the catalog to {store_path.name} and reloaded "
              f"{len(reloaded)} view(s) with identical edges ✔")


if __name__ == "__main__":
    main()
