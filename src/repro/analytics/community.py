"""Community analytics: label propagation and largest community (Q7, Q8).

Q7 runs an iterative label-propagation community detection (the APOC UDF role
in the paper) for a fixed number of passes, writing a ``community`` property
on every vertex; Q8 then retrieves the largest community by the number of
"Job" vertices it contains (§VII-C).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from repro.analytics import kernels
from repro.graph.property_graph import PropertyGraph, VertexId
from repro.storage.base import GraphLike


def label_propagation(graph: GraphLike, passes: int = 25,
                      write_property: str | None = "community"
                      ) -> dict[VertexId, VertexId]:
    """Synchronous label propagation for a fixed number of passes (Q7).

    Every vertex starts in its own community (labelled by its own id).  In
    each pass, a vertex adopts the most frequent label among its undirected
    neighbours (ties broken deterministically by label string order, so runs
    are reproducible — no RNG is involved anywhere).  After ``passes``
    iterations (or earlier convergence), the labels are optionally written
    back as a vertex property, mirroring the update-style query Q7.

    On a CSR store the passes run as an index-space kernel
    (:func:`repro.analytics.kernels.label_propagation`); the dict-store
    reference below precomputes the string tie-break order once and tracks
    the running (count, rank) winner per vertex instead of building a
    ``Counter`` and re-sorting ties every pass.

    Args:
        graph: Input graph (labels propagate over undirected adjacency).
        passes: Number of propagation passes (the paper uses 25).
        write_property: Vertex property to store the final label under
            (``None`` skips the write-back).

    Returns:
        Mapping of vertex id to final community label.
    """
    if passes < 0:
        raise ValueError(f"passes must be >= 0, got {passes}")
    store = kernels.resolve_store(graph)
    if store is not None:
        return kernels.label_propagation(store, passes=passes,
                                         write_property=write_property)
    labels: dict[VertexId, VertexId] = {v.id: v.id for v in graph.vertices()}
    vertex_order = sorted(labels, key=str)
    # str(label) tie-breaks become integer rank comparisons, computed once.
    rank = {vertex_id: position for position, vertex_id in enumerate(vertex_order)}
    big = len(rank)

    for _ in range(passes):
        changed = 0
        new_labels: dict[VertexId, VertexId] = {}
        for vertex_id in vertex_order:
            best_label = None
            best_count = 0
            best_rank = big
            counts: dict[VertexId, int] = {}
            for neighbor in graph.neighbors(vertex_id):
                label = labels[neighbor]
                count = counts.get(label, 0) + 1
                counts[label] = count
                label_rank = rank[label]
                if count > best_count or (count == best_count
                                          and label_rank < best_rank):
                    best_count = count
                    best_label = label
                    best_rank = label_rank
            if best_label is None:
                new_labels[vertex_id] = labels[vertex_id]
                continue
            new_labels[vertex_id] = best_label
            if best_label != labels[vertex_id]:
                changed += 1
        labels = new_labels
        if changed == 0:
            break

    if write_property is not None:
        for vertex_id, label in labels.items():
            graph.vertex(vertex_id).properties[write_property] = label
    return labels


@dataclass(frozen=True)
class CommunitySummary:
    """One community and its size statistics."""

    label: VertexId
    size: int
    member_count_by_type: tuple[tuple[str, int], ...]

    def count_of_type(self, vertex_type: str) -> int:
        return dict(self.member_count_by_type).get(vertex_type, 0)


def communities(graph: GraphLike,
                labels: Mapping[VertexId, VertexId] | None = None,
                label_property: str = "community") -> list[CommunitySummary]:
    """Group vertices by community label and summarize each community."""
    if labels is None:
        labels = {
            v.id: v.get(label_property, v.id) for v in graph.vertices()
        }
    members: dict[VertexId, list[VertexId]] = {}
    for vertex_id, label in labels.items():
        members.setdefault(label, []).append(vertex_id)
    summaries: list[CommunitySummary] = []
    for label, vertex_ids in members.items():
        type_counts = Counter(graph.vertex(vid).type for vid in vertex_ids)
        summaries.append(CommunitySummary(
            label=label,
            size=len(vertex_ids),
            member_count_by_type=tuple(sorted(type_counts.items())),
        ))
    summaries.sort(key=lambda s: (-s.size, str(s.label)))
    return summaries


def largest_community(graph: GraphLike,
                      labels: Mapping[VertexId, VertexId] | None = None,
                      by_vertex_type: str | None = "Job",
                      label_property: str = "community") -> CommunitySummary | None:
    """Q8: the community with the most vertices of ``by_vertex_type`` (or overall)."""
    summaries = communities(graph, labels=labels, label_property=label_property)
    if not summaries:
        return None
    if by_vertex_type is None:
        return summaries[0]
    return max(summaries, key=lambda s: (s.count_of_type(by_vertex_type), s.size))


def community_subgraph(graph: GraphLike, label: VertexId,
                       labels: Mapping[VertexId, VertexId] | None = None,
                       label_property: str = "community") -> PropertyGraph:
    """The induced subgraph of one community (Q8 returns a subgraph)."""
    if labels is None:
        labels = {v.id: v.get(label_property, v.id) for v in graph.vertices()}
    member_ids = {vid for vid, community in labels.items() if community == label}
    result = PropertyGraph(name=f"{graph.name}|community-{label}")
    for vertex_id in member_ids:
        vertex = graph.vertex(vertex_id)
        result.add_vertex(vertex.id, vertex.type, **vertex.properties)
    for edge in graph.edges():
        if edge.source in member_ids and edge.target in member_ids:
            result.add_edge(edge.source, edge.target, edge.label, **edge.properties)
    return result
