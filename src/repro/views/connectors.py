"""Connector view materialization.

A connector of a graph G is a graph G' in which every edge contracts a single
directed path between two *target vertices* of G, and V(G') is the union of
those target vertices (§VI-A).  This module materializes the connector
flavours of Table I against a :class:`~repro.graph.PropertyGraph` by
enumerating the qualifying paths and contracting them with
:func:`repro.graph.transform.contract_paths`.
"""

from __future__ import annotations

from typing import Callable

from repro.analytics import kernels
from repro.errors import ViewError
from repro.graph.property_graph import PropertyGraph, Vertex, VertexId
from repro.graph.transform import contract_paths, enumerate_k_hop_paths
from repro.views.definitions import ConnectorView


def materialize_connector(graph: PropertyGraph, view: ConnectorView,
                          max_paths: int | None = None) -> PropertyGraph:
    """Materialize a connector view over ``graph``.

    Args:
        graph: The base graph (typically already summarized, as in §VII-F).
        view: Connector specification.
        max_paths: Optional cap on the number of contracted paths, protecting
            against the exponential path counts of dense homogeneous graphs
            (the situation Fig. 5 warns about).

    Returns:
        The connector graph; contracted edges carry the view's ``output_label``
        plus ``hops`` and ``path_count`` properties.

    Raises:
        ViewError: If the view kind is not a connector kind.
    """
    paths = _connector_paths(graph, view, max_paths)
    return contract_paths(graph, paths, view.output_label,
                          name=f"{graph.name}|{view.name}")


# ----------------------------------------------------------------- path logic
def _connector_paths(graph: PropertyGraph, view: ConnectorView,
                     max_paths: int | None) -> list[tuple[VertexId, ...]]:
    """The paths ``view`` contracts, enumerated by its connector kind."""
    kind = view.connector_kind
    if kind in ("k_hop", "k_hop_same_vertex_type"):
        return _k_hop_paths(graph, view, max_paths)
    if kind == "same_vertex_type":
        return _same_type_paths(graph, view, max_paths)
    if kind == "same_edge_type":
        return _same_edge_type_paths(graph, view, max_paths)
    if kind == "source_to_sink":
        return _source_to_sink_paths(graph, view, max_paths)
    # Unreachable: ConnectorView validates its kind.
    raise ViewError(f"unsupported connector kind {kind!r}")  # pragma: no cover


def _type_predicate(vertex_type: str | None) -> Callable[[Vertex], bool] | None:
    if vertex_type is None:
        return None
    return lambda vertex: vertex.type == vertex_type


def _k_hop_paths(graph: PropertyGraph, view: ConnectorView,
                 max_paths: int | None) -> list[tuple[VertexId, ...]]:
    """Paths for k-hop connectors: exactly k hops between the target types.

    When the graph already has a fresh CSR snapshot (enumeration only looks
    it up and never freezes) the index-space kernel enumerates instead,
    walking pre-sliced interned adjacency with byte-mask endpoint predicates
    rather than re-walking ``PropertyGraph`` adjacency dicts per source; the
    kernel emits the exact path list — same paths, same order, same
    ``max_paths`` cutoff — the reference
    :func:`~repro.graph.transform.enumerate_k_hop_paths` produces.
    """
    assert view.k is not None
    store = kernels.resolve_store(graph)
    if store is not None:
        return kernels.k_hop_paths(
            store,
            view.k,
            source_type=view.source_type,
            target_type=view.target_type or view.source_type,
            edge_label=view.edge_label or None,
            allow_closing=True,
            max_paths=max_paths,
        )
    labels = [view.edge_label] if view.edge_label else None
    return enumerate_k_hop_paths(
        graph,
        view.k,
        source_predicate=_type_predicate(view.source_type),
        target_predicate=_type_predicate(view.target_type or view.source_type),
        edge_labels=labels,
        simple=True,
        allow_closing=True,
        max_paths=max_paths,
    )


def _same_type_paths(graph: PropertyGraph, view: ConnectorView,
                     max_paths: int | None) -> list[tuple[VertexId, ...]]:
    """Paths for the variable-length same-vertex-type connector.

    A path qualifies when both endpoints have the target type and no
    *intermediate* vertex has it — i.e. the path is a minimal hop between two
    target vertices, which is exactly what a contraction should collapse.
    """
    target_type = view.source_type
    assert target_type is not None
    results: list[tuple[VertexId, ...]] = []
    for start in graph.vertices(target_type):
        stack: list[tuple[VertexId, ...]] = [(start.id,)]
        while stack:
            path = stack.pop()
            if len(path) - 1 >= view.max_hops:
                continue
            for edge in graph.out_edges(path[-1]):
                if edge.target in path:
                    continue
                target_vertex = graph.vertex(edge.target)
                extended = path + (edge.target,)
                if target_vertex.type == target_type:
                    results.append(extended)
                    if max_paths is not None and len(results) >= max_paths:
                        return results
                    # Do not extend past another target vertex: contraction is
                    # between *adjacent* target vertices.
                    continue
                stack.append(extended)
    return results


def _same_edge_type_paths(graph: PropertyGraph, view: ConnectorView,
                          max_paths: int | None) -> list[tuple[VertexId, ...]]:
    """Paths for the same-edge-type connector: maximal runs of one edge label."""
    if view.edge_label is None:
        raise ViewError("same_edge_type connector requires edge_label")
    results: list[tuple[VertexId, ...]] = []
    label = view.edge_label
    for start in graph.vertices(view.source_type):
        stack: list[tuple[VertexId, ...]] = [(start.id,)]
        while stack:
            path = stack.pop()
            if len(path) - 1 >= view.max_hops:
                continue
            for edge in graph.out_edges(path[-1], label):
                if edge.target in path:
                    continue
                extended = path + (edge.target,)
                if len(extended) >= 2:
                    results.append(extended)
                    if max_paths is not None and len(results) >= max_paths:
                        return results
                stack.append(extended)
    return results


def _source_to_sink_paths(graph: PropertyGraph, view: ConnectorView,
                          max_paths: int | None) -> list[tuple[VertexId, ...]]:
    """Paths for the source-to-sink connector: graph sources to graph sinks."""
    sinks = set(graph.sinks())
    results: list[tuple[VertexId, ...]] = []
    for source_id in graph.sources():
        stack: list[tuple[VertexId, ...]] = [(source_id,)]
        while stack:
            path = stack.pop()
            if path[-1] in sinks and len(path) >= 2:
                results.append(path)
                if max_paths is not None and len(results) >= max_paths:
                    return results
                continue
            if len(path) - 1 >= view.max_hops:
                continue
            for edge in graph.out_edges(path[-1]):
                if edge.target in path:
                    continue
                stack.append(path + (edge.target,))
    return results


def count_connector_edges(graph: PropertyGraph, view: ConnectorView,
                          max_paths: int | None = None) -> int:
    """Number of edges the connector would have when materialized.

    This is the ground truth that Fig. 5 compares the size estimators against.
    The count deduplicates by (source, target) endpoint pair, matching the
    ``deduplicate=True`` materialization in :func:`materialize_connector`.
    """
    paths = _connector_paths(graph, view, max_paths)
    return len({(p[0], p[-1]) for p in paths})


def count_connector_paths(graph: PropertyGraph, view: ConnectorView,
                          max_paths: int | None = None) -> int:
    """Number of *paths* the connector contracts (before endpoint deduplication)."""
    return len(_connector_paths(graph, view, max_paths))
