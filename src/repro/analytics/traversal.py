"""Traversal analytics: k-hop neighbourhoods, ancestors/descendants, blast radius.

These are the graph primitives behind queries Q1–Q3 of the evaluation workload
(Table IV): anchored traversals that compute the forward or backward k-hop
neighbourhood of (all) vertices, and the job blast radius which aggregates a
property over the downstream set.

Every function dispatches through :mod:`repro.analytics.kernels`: when the
input is a :class:`~repro.storage.csr.CSRGraphStore` or already has a fresh
snapshot, the traversal runs as an index-space kernel over the CSR arrays;
otherwise the dict-store reference implementation below runs — and stays the
differential oracle the kernels are pinned against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.analytics import kernels
from repro.graph.property_graph import VertexId
from repro.storage.base import GraphLike


def k_hop_neighborhood(graph: GraphLike, source: VertexId, max_hops: int,
                       direction: str = "out",
                       edge_labels: Iterable[str] | None = None,
                       include_source: bool = False) -> dict[VertexId, int]:
    """Vertices reachable from ``source`` within ``max_hops``, with their hop distance.

    Args:
        graph: Input graph.
        source: Anchor vertex.
        max_hops: Maximum number of hops to explore (``>= 0``).
        direction: ``"out"`` (descendants), ``"in"`` (ancestors), or ``"both"``.
        edge_labels: Optional restriction on traversed edge labels.
        include_source: Whether to include the anchor itself (at distance 0).

    Returns:
        Mapping of reached vertex id to its hop distance from the source.
    """
    if max_hops < 0:
        raise ValueError(f"max_hops must be >= 0, got {max_hops}")
    store = kernels.resolve_store(graph)
    if store is not None:
        return kernels.k_hop_neighborhood(store, source, max_hops,
                                          direction=direction,
                                          edge_labels=edge_labels,
                                          include_source=include_source)
    allowed = set(edge_labels) if edge_labels is not None else None
    distances: dict[VertexId, int] = {source: 0}
    frontier = [source]
    for hop in range(1, max_hops + 1):
        next_frontier: list[VertexId] = []
        for vertex_id in frontier:
            for neighbor in _neighbors(graph, vertex_id, direction, allowed):
                if neighbor not in distances:
                    distances[neighbor] = hop
                    next_frontier.append(neighbor)
        frontier = next_frontier
        if not frontier:
            break
    if not include_source:
        distances.pop(source, None)
    return distances


def _neighbors(graph: GraphLike, vertex_id: VertexId, direction: str,
               allowed: set[str] | None) -> Iterable[VertexId]:
    # The unfiltered case goes through successors/predecessors, which on a
    # CSR store is a contiguous slice — the traversal hot path.
    if direction == "both":
        # A mutual edge pair (or a parallel out/in edge) must yield its
        # neighbor once, not once per direction, so frontier and label
        # counting never process the same neighbor twice.
        seen: set[VertexId] = set()
        for neighbor in _neighbors(graph, vertex_id, "out", allowed):
            if neighbor not in seen:
                seen.add(neighbor)
                yield neighbor
        for neighbor in _neighbors(graph, vertex_id, "in", allowed):
            if neighbor not in seen:
                seen.add(neighbor)
                yield neighbor
        return
    if direction == "out":
        if allowed is None:
            yield from graph.successors(vertex_id)
        else:
            for edge in graph.out_edges(vertex_id):
                if edge.label in allowed:
                    yield edge.target
    elif direction == "in":
        if allowed is None:
            yield from graph.predecessors(vertex_id)
        else:
            for edge in graph.in_edges(vertex_id):
                if edge.label in allowed:
                    yield edge.source


def bulk_k_hop_counts(graph: GraphLike, max_hops: int, direction: str = "out",
                      anchors: Iterable[VertexId] | None = None,
                      anchor_type: str | None = None,
                      vertex_type: str | None = None,
                      edge_labels: Iterable[str] | None = None
                      ) -> dict[VertexId, int]:
    """Neighbourhood sizes for *every* anchor: ``{anchor: |k-hop set|}``.

    The all-vertices variants of Q2/Q3 ("how many ancestors/descendants does
    each job have?").  On a CSR store this runs as one bulk kernel sweep
    advancing all sources together; on the dict reference path it degrades
    to one traversal per anchor.

    Args:
        graph: Input graph.
        max_hops: Hop bound per anchor.
        direction: ``"out"``, ``"in"``, or ``"both"``.
        anchors: Explicit anchor ids (defaults to every vertex of
            ``anchor_type``, or every vertex).
        anchor_type: Vertex type anchors are drawn from when ``anchors`` is
            not given.
        vertex_type: When set, only reached vertices of this type count.
        edge_labels: Optional restriction on traversed edge labels.
    """
    if max_hops < 0:
        raise ValueError(f"max_hops must be >= 0, got {max_hops}")
    store = kernels.resolve_store(graph)
    if store is not None:
        return kernels.bulk_k_hop_counts(store, max_hops, direction=direction,
                                         anchors=anchors,
                                         anchor_type=anchor_type,
                                         vertex_type=vertex_type,
                                         edge_labels=edge_labels)
    anchor_ids = (list(anchors) if anchors is not None
                  else graph.vertex_ids(anchor_type))
    counts: dict[VertexId, int] = {}
    for anchor in anchor_ids:
        reached = k_hop_neighborhood(graph, anchor, max_hops,
                                     direction=direction,
                                     edge_labels=edge_labels)
        counts[anchor] = len(_filter_by_type(graph, reached, vertex_type))
    return counts


def descendants(graph: GraphLike, source: VertexId, max_hops: int,
                vertex_type: str | None = None) -> set[VertexId]:
    """Forward data lineage of a vertex, optionally restricted to one type (Q3)."""
    store = kernels.resolve_store(graph)
    if store is not None:
        return kernels.k_hop_reachable(store, source, max_hops, "out", vertex_type)
    reached = k_hop_neighborhood(graph, source, max_hops, direction="out")
    return _filter_by_type(graph, reached, vertex_type)


def ancestors(graph: GraphLike, source: VertexId, max_hops: int,
              vertex_type: str | None = None) -> set[VertexId]:
    """Backward data lineage of a vertex, optionally restricted to one type (Q2)."""
    store = kernels.resolve_store(graph)
    if store is not None:
        return kernels.k_hop_reachable(store, source, max_hops, "in", vertex_type)
    reached = k_hop_neighborhood(graph, source, max_hops, direction="in")
    return _filter_by_type(graph, reached, vertex_type)


def _filter_by_type(graph: GraphLike, reached: dict[VertexId, int],
                    vertex_type: str | None) -> set[VertexId]:
    if vertex_type is None:
        return set(reached)
    return {vid for vid in reached if graph.vertex(vid).type == vertex_type}


@dataclass(frozen=True)
class BlastRadiusEntry:
    """Blast radius of one job: its downstream jobs and their aggregate cost."""

    job: VertexId
    downstream_jobs: tuple[VertexId, ...]
    total_cpu: float
    average_cpu: float


def blast_radius(graph: GraphLike, max_hops: int = 10,
                 job_type: str = "Job", cpu_property: str = "cpu",
                 anchors: Iterable[VertexId] | None = None) -> list[BlastRadiusEntry]:
    """Job blast radius (Q1): for every job, the CPU cost of its downstream jobs.

    For each anchor job, the traversal follows write/read relationships up to
    ``max_hops`` hops and aggregates the ``cpu`` property over the reached
    jobs, mirroring the query of Listing 1.

    Args:
        graph: Provenance-style graph (jobs and files).
        max_hops: Maximum raw-graph hops to explore downstream.
        job_type: Vertex type of jobs.
        cpu_property: Property aggregated over downstream jobs.
        anchors: Jobs to anchor on (defaults to every job in the graph).

    Returns:
        One entry per anchor job, sorted by descending total CPU.
    """
    store = kernels.resolve_store(graph)
    if store is not None:
        rows = kernels.blast_radius_rows(store, max_hops=max_hops,
                                         job_type=job_type,
                                         cpu_property=cpu_property,
                                         anchors=anchors)
        entries = [BlastRadiusEntry(job=job, downstream_jobs=downstream,
                                    total_cpu=total, average_cpu=average)
                   for job, downstream, total, average in rows]
        entries.sort(key=lambda entry: entry.total_cpu, reverse=True)
        return entries
    anchor_ids = list(anchors) if anchors is not None else graph.vertex_ids(job_type)
    entries = []
    for job_id in anchor_ids:
        reached = k_hop_neighborhood(graph, job_id, max_hops, direction="out")
        downstream = [vid for vid in reached if graph.vertex(vid).type == job_type]
        cpu_values = [float(graph.vertex(vid).get(cpu_property, 0.0)) for vid in downstream]
        total = sum(cpu_values)
        average = total / len(cpu_values) if cpu_values else 0.0
        entries.append(BlastRadiusEntry(
            job=job_id,
            downstream_jobs=tuple(sorted(downstream, key=str)),
            total_cpu=total,
            average_cpu=average,
        ))
    entries.sort(key=lambda entry: entry.total_cpu, reverse=True)
    return entries


def blast_radius_by_pipeline(graph: GraphLike, max_hops: int = 10,
                             pipeline_property: str = "pipelineName") -> dict[str, float]:
    """The outer aggregation of Listing 1: average downstream CPU per pipeline."""
    totals: dict[str, list[float]] = {}
    for entry in blast_radius(graph, max_hops=max_hops):
        pipeline = str(graph.vertex(entry.job).get(pipeline_property, "unknown"))
        totals.setdefault(pipeline, []).append(entry.total_cpu)
    return {
        pipeline: (sum(values) / len(values) if values else 0.0)
        for pipeline, values in sorted(totals.items())
    }
