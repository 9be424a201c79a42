"""Differential tests for the vectorized analytics kernels.

The analytics stack has two execution tiers — **vectorized** (numpy
whole-array kernels over the CSR ndarrays) and **reference** (the dict-store
implementations, the one oracle).  These tests assert:

* row identity (``vectorized == reference``) on every fixture graph, with
  the kernels' deterministic work counters pinned to literal values,
* dtype edge cases — empty graphs, single vertices, self-loop-heavy graphs,
  and the ``int32`` → ``int64`` widening guard (driven by shrinking
  :data:`repro.storage.csr._INT32_LIMIT`, not by building 2-billion-edge
  graphs),
* the physical executor's batched gather path (CSR store) agrees with the
  per-source path (dict graph) on rows, work counters, and ``max_work``
  budget enforcement,
* MVCC-pinned service snapshots return identical rows whichever path
  executes them,
* ``compute_statistics`` / ``out_degree_histogram`` produce field-by-field
  identical results on the ndarray and dict scan paths,
* every tier decision lands in :data:`repro.analytics.kernels.dispatch_counts`
  and mirrors into ``kaskade_kernel_dispatch_total{path=...}``.
"""

from __future__ import annotations

import gc

import numpy as _np
import pytest

from repro.analytics import (
    blast_radius,
    bulk_k_hop_counts,
    k_hop_neighborhood,
    kernels,
    label_propagation,
)
from repro.core import Kaskade
from repro.datasets.provenance import (
    provenance_graph,
    summarized_provenance_graph,
)
from repro.datasets.random_graphs import erdos_renyi_graph, power_law_graph
from repro.errors import QueryExecutionError
from repro.graph.property_graph import PropertyGraph
from repro.graph.statistics import compute_statistics, out_degree_histogram
from repro.query import execute_query, parse_query
from repro.service.metrics import ServiceMetrics
from repro.service.mvcc import SnapshotManager
from repro.storage import csr
from repro.storage.csr import CSRGraphStore

def pin_tier(monkeypatch, tier: str) -> None:
    """Select the oracle (or not) via the one environment escape hatch."""
    if tier == "reference":
        monkeypatch.setenv(kernels.FORCE_REFERENCE_ENV, "1")
    else:
        assert tier == "vectorized"
        monkeypatch.delenv(kernels.FORCE_REFERENCE_ENV, raising=False)


def self_loop_heavy_graph() -> PropertyGraph:
    """Every vertex self-loops (some twice, across labels) plus a sparse ring.

    Self-loops are the classic off-by-one of visited-set kernels: the source
    is pre-stamped and must never count itself, even when a loop or a cycle
    closes straight back onto it.
    """
    g = PropertyGraph(name="loopy")
    for i in range(40):
        g.add_vertex(f"v{i}", "Job" if i % 3 else "File", cpu=float(i))
    for i in range(40):
        g.add_edge(f"v{i}", f"v{i}", "SELF")
        g.add_edge(f"v{i}", f"v{(i * 7 + 1) % 40}", "L")
        if i % 2 == 0:
            g.add_edge(f"v{i}", f"v{i}", "L")
    return g


GRAPH_BUILDERS = {
    "prov": lambda: summarized_provenance_graph(num_jobs=50, seed=13),
    "erdos": lambda: erdos_renyi_graph(80, 360, seed=21),
    "power_law": lambda: power_law_graph(100, seed=8),
    "self_loops": self_loop_heavy_graph,
}


@pytest.fixture(params=sorted(GRAPH_BUILDERS))
def tier_graph(request):
    return GRAPH_BUILDERS[request.param]()


#: Literal ``KernelStats`` of the sweeps below, per fixture graph:
#: ``(bulk traversal_edges, bulk sources, LPA traversal_edges, LPA passes,
#: blast-radius traversal_edges, blast-radius sources)``.
#: Measured once against the retired edge-at-a-time CSR kernels (which
#: counted ``len(neighbors)`` per expanded vertex) and frozen here.
EXPECTED_STATS = {
    "erdos": (113203, 480, 9256, 13, 19529, 80),
    "power_law": (8687, 600, 3510, 13, 795, 100),
    "prov": (20511, 1422, 7852, 13, 900, 50),
    "self_loops": (2320, 240, 784, 7, 125, 14),
}


# ---------------------------------------------------------- row identity
def test_bulk_k_hop_matches_reference(request, tier_graph, monkeypatch):
    """vectorized == reference, per anchor, across directions, label
    filters, and type masks — consuming exactly the pinned number of
    adjacency entries."""
    graph = tier_graph
    store = CSRGraphStore.from_graph(graph)
    labels = graph.edge_labels()
    cases = [
        dict(direction="out"),
        dict(direction="in"),
        dict(direction="both"),
        dict(direction="out", edge_labels=labels[:1]),
        dict(direction="both", edge_labels=labels),
        dict(direction="out", vertex_type=graph.vertex_types()[0]),
    ]
    stats = kernels.KernelStats()
    vectorized = [kernels.bulk_k_hop_counts(store, 3, stats=stats, **case)
                  for case in cases]
    pin_tier(monkeypatch, "reference")
    assert vectorized == [bulk_k_hop_counts(graph, 3, **case)
                          for case in cases]
    edges, sources = EXPECTED_STATS[request.node.callspec.id][:2]
    assert stats.traversal_edges == edges
    assert stats.sources == sources
    assert stats.batched_ops > 0


def test_label_propagation_matches_reference(request, tier_graph, monkeypatch):
    graph = tier_graph
    store = CSRGraphStore.from_graph(graph)
    stats = kernels.KernelStats()
    vectorized = [kernels.label_propagation(store, passes=passes,
                                            write_property=None, stats=stats)
                  for passes in (0, 1, 3, 9)]
    pin_tier(monkeypatch, "reference")
    assert vectorized == [label_propagation(graph, passes=passes,
                                            write_property=None)
                          for passes in (0, 1, 3, 9)]
    edges, passes = EXPECTED_STATS[request.node.callspec.id][2:4]
    assert stats.traversal_edges == edges
    assert stats.passes == passes
    # The undirected adjacency is pulled from the store exactly once.
    assert stats.store_reads == 2 * store.num_edges


def test_single_source_kernels_match_reference(request, tier_graph,
                                               monkeypatch):
    """Per-anchor BFS kernels (k-hop neighbourhood, blast radius): same
    distances, and blast-radius rows bit-identical — downstream order and
    float totals included."""
    graph = tier_graph
    store = CSRGraphStore.from_graph(graph)
    anchor_type = graph.vertex_types()[0]
    sources = graph.vertex_ids()[:10]
    labels = graph.edge_labels()
    cases = [dict(direction="out"), dict(direction="in"),
             dict(direction="both", edge_labels=labels[:1]),
             dict(direction="out", include_source=True)]
    stats = kernels.KernelStats()
    hoods = [k_hop_neighborhood(store, source, 3, **case)
             for source in sources for case in cases]
    rows = kernels.blast_radius_rows(store, max_hops=4, job_type=anchor_type,
                                     stats=stats)
    entries = blast_radius(store, max_hops=4, job_type=anchor_type)
    pin_tier(monkeypatch, "reference")
    assert hoods == [k_hop_neighborhood(graph, source, 3, **case)
                     for source in sources for case in cases]
    assert entries == blast_radius(graph, max_hops=4, job_type=anchor_type)
    edges, anchors = EXPECTED_STATS[request.node.callspec.id][4:]
    assert stats.traversal_edges == edges
    assert stats.sources == anchors == len(rows)


def test_vectorized_write_back_matches_reference(monkeypatch):
    """The Q7 write-back through the CSR kernel lands the reference's labels
    on the live graph (property dicts are shared with the source graph)."""
    graph = self_loop_heavy_graph()
    store = CSRGraphStore.from_graph(graph)
    pin_tier(monkeypatch, "reference")
    expected = label_propagation(graph, passes=4, write_property=None)
    pin_tier(monkeypatch, "vectorized")
    label_propagation(store, passes=4, write_property="wb")
    assert {v.id: v.get("wb") for v in graph.vertices()} == expected


# ------------------------------------------------------------- dtype edges
def test_empty_graph_every_tier(monkeypatch):
    graph = PropertyGraph(name="empty")
    empty = CSRGraphStore.from_graph(graph)
    for tier, target in (("vectorized", empty), ("reference", graph)):
        pin_tier(monkeypatch, tier)
        assert bulk_k_hop_counts(target, 3) == {}
        assert label_propagation(target, passes=5, write_property=None) == {}
    assert compute_statistics(empty, use_cache=False).per_type == {}


def test_single_vertex_and_self_loop_source_never_counted(monkeypatch):
    lone_graph = PropertyGraph(name="one")
    lone_graph.add_vertex("only", "Job")
    g = lone_graph.copy()
    g.add_edge("only", "only", "SELF")
    for tier, lone, looped in (
            ("vectorized", CSRGraphStore.from_graph(lone_graph),
             CSRGraphStore.from_graph(g)),
            ("reference", lone_graph, g)):
        pin_tier(monkeypatch, tier)
        assert bulk_k_hop_counts(lone, 2) == {"only": 0}
        # The source is pre-stamped: a self-loop closing straight back onto
        # it must not count, matching the reference's seeded distance entry.
        assert bulk_k_hop_counts(looped, 2) == {"only": 0}
        assert bulk_k_hop_counts(looped, 2, direction="both") == {"only": 0}
        assert label_propagation(looped, passes=3,
                                 write_property=None) == {"only": "only"}


def test_index_dtype_widening_guard():
    assert csr._index_dtype(csr._INT32_LIMIT) == _np.int32
    assert csr._index_dtype(csr._INT32_LIMIT + 1) == _np.int64
    assert csr._index_array([0, 1, 2], 2).dtype == _np.int32


def test_int64_widened_store_matches_int32_results(monkeypatch):
    """Shrinking ``_INT32_LIMIT`` forces the whole stack — CSR arrays,
    gather positions, and the bulk kernel's packed sort keys — onto the
    ``int64`` path; results must be bit-identical to the ``int32`` run."""
    graph = GRAPH_BUILDERS["erdos"]()
    pin_tier(monkeypatch, "vectorized")
    narrow_store = CSRGraphStore.from_graph(graph)
    offsets, targets = narrow_store.csr_ndarrays("out")
    assert offsets.dtype == _np.int32 and targets.dtype == _np.int32
    expected_bulk = kernels.bulk_k_hop_counts(narrow_store, 3,
                                              direction="both")
    expected_lpa = label_propagation(narrow_store, passes=6,
                                     write_property=None)

    monkeypatch.setattr(csr, "_INT32_LIMIT", 1)
    wide_store = CSRGraphStore.from_graph(graph)
    offsets, targets = wide_store.csr_ndarrays("out")
    assert offsets.dtype == _np.int64 and targets.dtype == _np.int64
    assert kernels.bulk_k_hop_counts(wide_store, 3,
                                     direction="both") == expected_bulk
    assert label_propagation(wide_store, passes=6,
                             write_property=None) == expected_lpa
    # The widened run must also agree with the reference.
    pin_tier(monkeypatch, "reference")
    assert bulk_k_hop_counts(graph, 3, direction="both") == expected_bulk
    assert label_propagation(graph, passes=6,
                             write_property=None) == expected_lpa


# ----------------------------------------------------- executor tier parity
def test_executor_gather_path_matches_per_source_path(monkeypatch):
    """The batched-gather expansion (planner on the CSR store) returns the
    same rows AND the same work counters as the per-source expansion
    (planner on the dict graph, and on the store under the forced
    reference), so the ``max_work`` budget trips at exactly the same
    threshold on every path."""
    graph = provenance_graph(num_jobs=25, seed=7)
    store = CSRGraphStore.from_graph(graph)
    query = parse_query(
        "MATCH (j:Job)-[:WRITES_TO]->(f:File), (f)-[:IS_READ_BY]->(b:Job) "
        "RETURN j, b")
    paths = {"gather": ("vectorized", store),
             "per-source dict": ("vectorized", graph),
             "per-source csr": ("reference", store)}

    def run(path, **kwargs):
        tier, target = paths[path]
        pin_tier(monkeypatch, tier)
        return execute_query(target, query, engine="planner", **kwargs)

    gathered = run("gather")
    assert len(gathered.rows) > 0
    for path in ("per-source dict", "per-source csr"):
        result = run(path)
        assert sorted(map(str, gathered.rows)) == sorted(map(str, result.rows))
        for field in ("vertices_scanned", "edges_expanded",
                      "bindings_produced", "total_work"):
            assert (getattr(gathered.stats, field)
                    == getattr(result.stats, field)), (path, field)

    total = gathered.stats.total_work
    for budget in (1, total // 2, total - 1, total):
        verdicts = {}
        for path in paths:
            try:
                run(path, max_work=budget)
                verdicts[path] = "ok"
            except QueryExecutionError:
                verdicts[path] = "over budget"
        assert len(set(verdicts.values())) == 1, (budget, verdicts)
    assert verdicts["gather"] == "ok"  # the exact budget fits


# ------------------------------------------------------- MVCC snapshot parity
def test_mvcc_pinned_snapshot_identical_across_tiers(monkeypatch):
    kaskade = Kaskade(provenance_graph(num_jobs=20, seed=3))
    manager = SnapshotManager(kaskade, max_retained=3)
    query = kaskade.parse("MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f")
    outcomes = {}
    with manager.pinned() as snapshot:
        for tier in ("vectorized", "reference"):
            pin_tier(monkeypatch, tier)
            outcomes[tier] = manager.execute_pinned(query, snapshot)
    vec, ref = outcomes["vectorized"], outcomes["reference"]
    assert sorted(map(str, vec.result.rows)) == sorted(map(str, ref.result.rows))
    assert vec.executed_version == ref.executed_version
    assert len(vec.result.rows) > 0


# --------------------------------------------------- statistics regression
def test_statistics_ndarray_matches_dict_scan_field_by_field(tier_graph):
    # CSRGraphStore.from_graph publishes no snapshot, so the dict graph
    # itself stays on the per-vertex scan path.
    graph = tier_graph
    store = CSRGraphStore.from_graph(graph)
    vec_stats = compute_statistics(store, use_cache=False)
    dict_stats = compute_statistics(graph, use_cache=False)
    assert vec_stats.total_vertices == dict_stats.total_vertices
    assert vec_stats.total_edges == dict_stats.total_edges
    assert set(vec_stats.per_type) == set(dict_stats.per_type)
    assert "*" in vec_stats.per_type
    for vertex_type, expected in dict_stats.per_type.items():
        got = vec_stats.per_type[vertex_type]
        assert got.vertex_type == expected.vertex_type
        assert got.vertex_count == expected.vertex_count
        assert got.edge_count == expected.edge_count
        assert got.mean_out_degree == expected.mean_out_degree
        assert got.max_out_degree == expected.max_out_degree
        assert got.percentiles == expected.percentiles
    for vertex_type in [None] + graph.vertex_types():
        assert (out_degree_histogram(store, vertex_type)
                == out_degree_histogram(graph, vertex_type))


# --------------------------------------------------------- dispatch counter
def test_dispatch_counts_and_service_metrics_mirror(monkeypatch):
    graph = summarized_provenance_graph(num_jobs=30, seed=2)
    store = CSRGraphStore.from_graph(graph)
    metrics = ServiceMetrics()
    rendered = metrics.registry.render()
    for path in ("vectorized", "reference"):
        # Pre-seeded: every series is visible on /metrics before any query.
        assert f'kaskade_kernel_dispatch_total{{path="{path}"}} 0' in rendered
    before = dict(kernels.dispatch_counts)

    pin_tier(monkeypatch, "vectorized")
    label_propagation(store, passes=1, write_property=None)
    assert kernels.dispatch_counts["vectorized"] == before["vectorized"] + 1
    assert metrics.kernel_dispatch.value(path="vectorized") == 1

    pin_tier(monkeypatch, "reference")
    label_propagation(graph, passes=1, write_property=None)
    assert kernels.dispatch_counts["reference"] == before["reference"] + 1
    assert metrics.kernel_dispatch.value(path="reference") == 1

    rendered = metrics.registry.render()
    assert 'kaskade_kernel_dispatch_total{path="vectorized"} 1' in rendered

    # A discarded registry drops out of the subscriber list silently: the
    # weak reference dies, and the next dispatch must not raise.
    pin_tier(monkeypatch, "vectorized")
    del metrics, rendered
    gc.collect()
    label_propagation(store, passes=0, write_property=None)
