"""Differential tests: CSR analytics kernels vs the dict-store reference.

Every public analytics function dispatches to the index-space kernels when
handed a ``CSRGraphStore`` and to the dict-store reference otherwise; these
tests pin the two paths to *row-level* equality — for every workload query
(Q1–Q8), across random graphs, edge-label filters, and every traversal
direction — plus the dispatch rule itself (kernels run on a fresh registry
snapshot and never build one, ``ANALYTICS_FORCE_REFERENCE`` escape hatch)
and the CSR-backed connector path enumeration.
"""

from __future__ import annotations

import pytest

from repro.analytics import (
    ancestors,
    blast_radius,
    bulk_k_hop_counts,
    descendants,
    k_hop_neighborhood,
    kernels,
    label_propagation,
    path_lengths,
    summarize,
)
from repro.datasets.dblp import dblp_graph
from repro.datasets.provenance import summarized_provenance_graph
from repro.datasets.random_graphs import erdos_renyi_graph, power_law_graph
from repro.errors import VertexNotFoundError
from repro.graph.property_graph import PropertyGraph
from repro.storage.csr import CSRGraphStore
from repro.storage.manager import StorageManager, discard_snapshot, lookup_snapshot
from repro.views.connectors import (
    count_connector_edges,
    count_connector_paths,
    materialize_connector,
)
from repro.views.definitions import ConnectorView
from repro.workloads.queries import workload_for_dataset


def mutual_edges_graph() -> PropertyGraph:
    """Mutual pairs, parallel edges, and a self-loop — the dedup edge cases."""
    g = PropertyGraph(name="mutual")
    for i in range(6):
        g.add_vertex(f"v{i}", "Job" if i % 2 == 0 else "File", cpu=float(i))
    g.add_edge("v0", "v1", "L", timestamp=1)
    g.add_edge("v1", "v0", "L", timestamp=2)   # mutual pair
    g.add_edge("v0", "v1", "M", timestamp=3)   # parallel edge, other label
    g.add_edge("v1", "v2", "L", timestamp=4)
    g.add_edge("v2", "v3", "M", timestamp=5)
    g.add_edge("v3", "v4", "L", timestamp=6)
    g.add_edge("v4", "v4", "L", timestamp=7)   # self-loop
    g.add_edge("v4", "v5", "M", timestamp=8)
    return g


GRAPH_BUILDERS = {
    "prov": lambda: summarized_provenance_graph(num_jobs=70, seed=11),
    "erdos": lambda: erdos_renyi_graph(90, 420, seed=7),
    "power_law": lambda: power_law_graph(120, seed=5),
    "mutual": mutual_edges_graph,
}


@pytest.fixture(params=sorted(GRAPH_BUILDERS))
def graph_pair(request):
    graph = GRAPH_BUILDERS[request.param]()
    return graph, CSRGraphStore.from_graph(graph)


# --------------------------------------------------------------- Q1–Q8 parity
@pytest.mark.parametrize("dataset_name, builder", [
    ("prov", lambda: summarized_provenance_graph(num_jobs=60, seed=3)),
    ("dblp", dblp_graph),
    ("soc", lambda: power_law_graph(150, seed=9)),
])
def test_every_workload_query_matches_reference(dataset_name, builder):
    """Kernel == reference, row for row, for all Q1–Q8 in both run modes."""
    reference_graph = builder()
    kernel_graph = builder()
    store = CSRGraphStore.from_graph(kernel_graph)
    for query in workload_for_dataset(dataset_name):
        for runner in (query.run_base, query.run_connector):
            assert runner(reference_graph) == runner(store), (
                f"{dataset_name}/{query.query_id} diverged between reference "
                f"and kernel")


# ----------------------------------------------------- traversal permutations
@pytest.mark.parametrize("direction", ["out", "in", "both"])
@pytest.mark.parametrize("labels", [None, "one", "all", "missing"])
def test_k_hop_matches_across_directions_and_labels(graph_pair, direction, labels):
    graph, store = graph_pair
    edge_labels = {
        None: None,
        "one": graph.edge_labels()[:1],
        "all": graph.edge_labels(),
        "missing": ["NO_SUCH_LABEL"],
    }[labels]
    for max_hops in (0, 1, 3):
        for include_source in (False, True):
            for vid in graph.vertex_ids():
                assert k_hop_neighborhood(
                    graph, vid, max_hops, direction=direction,
                    edge_labels=edge_labels, include_source=include_source,
                ) == k_hop_neighborhood(
                    store, vid, max_hops, direction=direction,
                    edge_labels=edge_labels, include_source=include_source,
                )


def test_lineage_and_bulk_counts_match(graph_pair):
    graph, store = graph_pair
    types = [None] + graph.vertex_types()
    for vertex_type in types:
        for vid in graph.vertex_ids():
            assert (descendants(graph, vid, 4, vertex_type=vertex_type)
                    == descendants(store, vid, 4, vertex_type=vertex_type))
            assert (ancestors(graph, vid, 4, vertex_type=vertex_type)
                    == ancestors(store, vid, 4, vertex_type=vertex_type))
        for direction in ("out", "in", "both"):
            assert bulk_k_hop_counts(
                graph, 3, direction=direction, vertex_type=vertex_type,
            ) == bulk_k_hop_counts(
                store, 3, direction=direction, vertex_type=vertex_type,
            )


def test_bulk_counts_explicit_anchors_and_zero_hops(graph_pair):
    graph, store = graph_pair
    anchors = graph.vertex_ids()[:5]
    assert (bulk_k_hop_counts(graph, 2, anchors=anchors)
            == bulk_k_hop_counts(store, 2, anchors=anchors))
    assert (bulk_k_hop_counts(graph, 0, anchors=anchors)
            == bulk_k_hop_counts(store, 0, anchors=anchors)
            == {anchor: 0 for anchor in anchors})


def test_blast_radius_matches(graph_pair):
    graph, store = graph_pair
    for max_hops in (0, 2, 10):
        assert (blast_radius(graph, max_hops=max_hops)
                == blast_radius(store, max_hops=max_hops))
    jobs = graph.vertex_ids("Job")[:3]
    if jobs:
        assert (blast_radius(graph, anchors=jobs)
                == blast_radius(store, anchors=jobs))


def test_label_propagation_matches_and_writes_back(graph_pair):
    graph, store = graph_pair
    for passes in (0, 1, 7, 25):
        assert (label_propagation(graph, passes=passes, write_property=None)
                == label_propagation(store, passes=passes, write_property=None))
    expected = label_propagation(graph, passes=5, write_property=None)
    label_propagation(store, passes=5, write_property="kc")
    assert {v.id: v.get("kc") for v in graph.vertices()} == expected
    with pytest.raises(ValueError):
        kernels.label_propagation(store, passes=-1)


def test_path_lengths_match(graph_pair):
    graph, store = graph_pair
    for aggregate in ("max", "sum"):
        for vid in graph.vertex_ids():
            assert path_lengths(
                graph, vid, max_hops=4, aggregate=aggregate, default_weight=2.5,
            ) == path_lengths(
                store, vid, max_hops=4, aggregate=aggregate, default_weight=2.5,
            )


def test_summarize_matches(graph_pair):
    graph, store = graph_pair
    assert summarize(graph) == summarize(store)


def test_empty_and_missing_vertex_behaviour():
    empty = PropertyGraph(name="empty")
    store = CSRGraphStore.from_graph(empty)
    assert label_propagation(store, passes=3, write_property=None) == {}
    assert blast_radius(store) == []
    assert summarize(empty) == summarize(store)
    # Zero hops never touches adjacency — no error even for an unknown id.
    assert k_hop_neighborhood(store, "ghost", 0) == {}
    assert k_hop_neighborhood(store, "ghost", 0, include_source=True) == {"ghost": 0}
    with pytest.raises(VertexNotFoundError):
        k_hop_neighborhood(store, "ghost", 2)
    with pytest.raises(VertexNotFoundError):
        kernels.path_length_rows(store, "ghost")


def test_both_direction_neighbors_deduped():
    """A mutual edge pair yields its neighbor once into the frontier."""
    from repro.analytics.traversal import _neighbors

    graph = mutual_edges_graph()
    assert list(_neighbors(graph, "v0", "both", None)) == ["v1"]
    assert list(_neighbors(graph, "v1", "both", {"L"})) == ["v0", "v2"]


# ------------------------------------------------------------------- dispatch
def test_explicit_freeze_dispatch():
    graph = summarized_provenance_graph(num_jobs=40, seed=2)
    assert kernels.engine_for(graph) == "reference"  # nothing frozen yet
    assert kernels.resolve_store(graph) is None
    assert lookup_snapshot(graph) is None            # dispatch never freezes
    store = StorageManager().freeze(graph)
    assert kernels.engine_for(graph) == "kernel"
    # The snapshot serves until the graph version moves.
    assert kernels.resolve_store(graph) is store
    graph.add_vertex("fresh", "Job")
    assert kernels.resolve_store(graph) is None


def test_force_reference_env(monkeypatch):
    graph = summarized_provenance_graph(num_jobs=40, seed=2)
    store = CSRGraphStore.from_graph(graph)
    assert kernels.engine_for(store) == "kernel"
    monkeypatch.setenv(kernels.FORCE_REFERENCE_ENV, "1")
    assert kernels.engine_for(store) == "reference"
    # The reference path still answers correctly when handed a CSR store.
    jobs = graph.vertex_ids("Job")[:5]
    for vid in jobs:
        assert (k_hop_neighborhood(store, vid, 3)
                == k_hop_neighborhood(graph, vid, 3))


def test_kernel_sees_live_property_updates():
    """Property mutations after the freeze stay visible — no stale caches."""
    graph = summarized_provenance_graph(num_jobs=40, seed=2)
    store = CSRGraphStore.from_graph(graph)
    before = blast_radius(store, max_hops=6)
    # Mutate a job that is in some other job's downstream set, so at least
    # one aggregate must move.
    job = next(entry.downstream_jobs[0] for entry in before
               if entry.downstream_jobs)
    graph.vertex(job).properties["cpu"] = 99_999.0
    assert blast_radius(store, max_hops=6) == blast_radius(graph, max_hops=6)
    assert blast_radius(store, max_hops=6) != before
    edge = next(graph.edges())
    edge.properties["timestamp"] = 99_999.0
    assert (path_lengths(store, edge.source, max_hops=3)
            == path_lengths(graph, edge.source, max_hops=3))


def test_zero_hops_never_validates_anchors():
    """max_hops=0 mirrors the reference even for unknown anchor ids."""
    graph = summarized_provenance_graph(num_jobs=40, seed=2)
    store = CSRGraphStore.from_graph(graph)
    assert (blast_radius(graph, max_hops=0, anchors=["ghost"])
            == blast_radius(store, max_hops=0, anchors=["ghost"]))
    assert (path_lengths(graph, "ghost", max_hops=0)
            == path_lengths(store, "ghost", max_hops=0)
            == [])


def test_discard_retracts_registry_snapshot():
    graph = summarized_provenance_graph(num_jobs=40, seed=2)
    manager = StorageManager()
    snapshot = manager.freeze(graph)
    assert lookup_snapshot(graph) is snapshot
    discard_snapshot(graph)
    assert lookup_snapshot(graph) is None
    assert kernels.engine_for(graph) == "reference"
    # A stale entry is evicted on sight, not pinned until the graph dies.
    manager.freeze(graph)
    graph.add_vertex("fresh", "Job")
    assert lookup_snapshot(graph) is None


def test_dispatch_adopts_any_managers_snapshot_of_a_small_graph():
    graph = summarized_provenance_graph(num_jobs=20, seed=2)
    assert kernels.resolve_store(graph) is None
    snapshot = StorageManager().freeze(graph)
    assert kernels.resolve_store(graph) is snapshot
    assert kernels.engine_for(graph) == "kernel"
    discard_snapshot(graph)


def test_bulk_counts_unknown_anchor_raises_like_reference():
    graph = summarized_provenance_graph(num_jobs=40, seed=2)
    store = CSRGraphStore.from_graph(graph)
    with pytest.raises(VertexNotFoundError):
        bulk_k_hop_counts(graph, 2, anchors=["ghost"], edge_labels=["NO_SUCH"])
    with pytest.raises(VertexNotFoundError):
        bulk_k_hop_counts(store, 2, anchors=["ghost"], edge_labels=["NO_SUCH"])


def test_dispatch_adopts_snapshots_from_any_manager():
    """A Kaskade/StorageManager freeze is reused by the kernel dispatch."""
    graph = summarized_provenance_graph(num_jobs=40, seed=2)
    assert kernels.engine_for(graph) == "reference"  # nothing frozen yet
    manager = StorageManager()
    snapshot = manager.freeze(graph)
    # The published snapshot flips the dispatch decision without a rebuild.
    assert kernels.engine_for(graph) == "kernel"
    assert kernels.resolve_store(graph) is snapshot
    # A second manager adopts instead of rebuilding.
    other = StorageManager()
    assert other.freeze(graph) is snapshot
    assert other.stats.snapshots_built == 0
    assert other.stats.snapshot_hits == 1
    # Mutation invalidates the published snapshot for every consumer.
    graph.add_vertex("fresh", "Job")
    assert kernels.engine_for(graph) == "reference"
    assert kernels.resolve_store(graph) is None


def test_kaskade_analytics_store_routes_to_kernels():
    from repro.core.kaskade import Kaskade

    graph = summarized_provenance_graph(num_jobs=40, seed=2)
    kaskade = Kaskade(graph)
    store = kaskade.analytics_store()
    assert isinstance(store, CSRGraphStore)
    assert kernels.engine_for(store) == "kernel"
    assert blast_radius(store, max_hops=6) == blast_radius(graph, max_hops=6)


def test_workload_runner_reports_engine():
    from repro.datasets.registry import dataset
    from repro.workloads.runner import prepare_dataset, run_workload

    prepared = prepare_dataset(dataset("prov", "tiny"))
    result = run_workload(prepared, query_ids=["Q5", "Q2"])
    assert result.runtimes
    for record in result.runtimes:
        assert record.engine in ("kernel", "reference")
        expected = kernels.engine_for(prepared.graph_for(record.mode))
        assert record.engine == expected


# ----------------------------------------------------------------- connectors
@pytest.mark.parametrize("view", [
    ConnectorView(name="j2j", connector_kind="k_hop_same_vertex_type",
                  source_type="Job", target_type="Job", k=2),
    ConnectorView(name="any3", connector_kind="k_hop", k=3),
    ConnectorView(name="lab1", connector_kind="k_hop", k=1, edge_label="WRITES_TO"),
])
def test_connector_materialization_matches_reference(monkeypatch, view):
    graph = summarized_provenance_graph(num_jobs=60, seed=13)

    monkeypatch.setenv(kernels.FORCE_REFERENCE_ENV, "1")
    reference = materialize_connector(graph, view)
    reference_edges = count_connector_edges(graph, view)
    reference_paths = count_connector_paths(graph, view)
    capped = count_connector_paths(graph, view, max_paths=max(reference_paths // 2, 1))

    monkeypatch.delenv(kernels.FORCE_REFERENCE_ENV)
    snapshot = StorageManager().freeze(graph)
    assert kernels.resolve_store(graph) is snapshot
    kernel_view = materialize_connector(graph, view)
    kernel_edges = count_connector_edges(graph, view)
    kernel_paths = count_connector_paths(graph, view)
    kernel_capped = count_connector_paths(
        graph, view, max_paths=max(reference_paths // 2, 1))
    discard_snapshot(graph)

    assert ({(e.source, e.target) for e in kernel_view.edges()}
            == {(e.source, e.target) for e in reference.edges()})
    assert (sorted(kernel_view.vertex_ids(), key=str)
            == sorted(reference.vertex_ids(), key=str))
    by_pair_ref = {(e.source, e.target): (e.get("path_count"), e.get("hops"))
                   for e in reference.edges()}
    by_pair_ker = {(e.source, e.target): (e.get("path_count"), e.get("hops"))
                   for e in kernel_view.edges()}
    assert by_pair_ker == by_pair_ref
    assert kernel_edges == reference_edges
    assert kernel_paths == reference_paths
    assert kernel_capped == capped


def test_path_dispatch_prefers_registry_snapshot(monkeypatch):
    """Connector enumeration runs on a fresh registry snapshot without
    paying a freeze, and on the reference once the snapshot is stale."""
    graph = summarized_provenance_graph(num_jobs=60, seed=13)
    view = ConnectorView(name="any2", connector_kind="k_hop", k=2)
    seen = []
    k_hop_paths = kernels.k_hop_paths

    def spy(store, *args, **kwargs):
        seen.append(store)
        return k_hop_paths(store, *args, **kwargs)

    monkeypatch.setattr(kernels, "k_hop_paths", spy)
    store = StorageManager().freeze(graph)
    materialize_connector(graph, view)
    assert seen and all(used is store for used in seen)
    calls = len(seen)
    graph.add_vertex("fresh", "Job")       # version moves, cache is stale
    materialize_connector(graph, view)
    assert len(seen) == calls
    assert lookup_snapshot(graph) is None


def test_analytics_and_connector_enumeration_never_freeze():
    """Dispatch only looks snapshots up: a dict graph with no snapshot runs on
    the reference and stays unfrozen, with the same results the kernels give
    once the graph is frozen."""
    graph = erdos_renyi_graph(500, 5000, seed=2)
    view = ConnectorView(name="any2", connector_kind="k_hop", k=2)
    reference_counts = bulk_k_hop_counts(graph, 2)
    reference = materialize_connector(graph, view)
    assert lookup_snapshot(graph) is None

    store = StorageManager().freeze(graph)
    kernel_counts = bulk_k_hop_counts(store, 2)
    kernel_view = materialize_connector(graph, view)
    discard_snapshot(graph)

    assert kernel_counts == reference_counts
    assert ({(e.source, e.target, e.get("path_count"), e.get("hops"))
             for e in kernel_view.edges()}
            == {(e.source, e.target, e.get("path_count"), e.get("hops"))
                for e in reference.edges()})
    assert (sorted(kernel_view.vertex_ids(), key=str)
            == sorted(reference.vertex_ids(), key=str))
