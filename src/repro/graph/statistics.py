"""Graph data properties maintained for view size estimation (§V-A).

During data loading (and on updates) Kaskade maintains, per vertex type:

* the vertex cardinality, and
* coarse-grained out-degree distribution summaries — the 50th, 90th, and 95th
  percentile out-degree (plus the maximum, i.e. the 100th percentile).

These summaries feed the k-length path estimators (Eq. 2 and Eq. 3) in
:mod:`repro.core.estimator`.  This module also provides the degree-distribution
CCDF and power-law fit used by Fig. 8.
"""

from __future__ import annotations

import math
import weakref
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as _np

from repro.graph.property_graph import PropertyGraph

#: Percentiles tracked by default, mirroring §V-A ("50th, 90th, and 95th
#: out-degree"), plus the max which the paper discusses as the loose upper bound.
DEFAULT_PERCENTILES: tuple[float, ...] = (50.0, 90.0, 95.0, 100.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (q in [0, 100]).

    The nearest-rank definition matches how the paper talks about "the α-th
    percentile out-degree": it always returns an actually observed value.

    Raises:
        ValueError: If ``values`` is empty or ``q`` is out of range.
    """
    if not values:
        raise ValueError("cannot compute a percentile of an empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    if q == 0:
        return ordered[0]
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank - 1, 0)]


@dataclass
class TypeDegreeSummary:
    """Out-degree summary for a single vertex type."""

    vertex_type: str
    vertex_count: int
    edge_count: int
    percentiles: dict[float, float] = field(default_factory=dict)
    mean_out_degree: float = 0.0
    max_out_degree: int = 0

    def degree_at(self, alpha: float) -> float:
        """The α-th percentile out-degree (``deg_α`` in Eq. 2/3).

        Falls back to the maximum out-degree when the requested percentile was
        not pre-computed.
        """
        if alpha in self.percentiles:
            return self.percentiles[alpha]
        return float(self.max_out_degree)


@dataclass
class GraphStatistics:
    """Per-type vertex cardinalities and out-degree summaries for a graph."""

    graph_name: str
    total_vertices: int
    total_edges: int
    per_type: dict[str, TypeDegreeSummary] = field(default_factory=dict)

    def vertex_count(self, vertex_type: str | None = None) -> int:
        """Vertex cardinality, overall or for one type."""
        if vertex_type is None:
            return self.total_vertices
        summary = self.per_type.get(vertex_type)
        return summary.vertex_count if summary else 0

    def degree_at(self, alpha: float, vertex_type: str | None = None) -> float:
        """``deg_α`` for a type, or over all vertices when ``vertex_type`` is None."""
        if vertex_type is not None:
            summary = self.per_type.get(vertex_type)
            return summary.degree_at(alpha) if summary else 0.0
        # Overall summary is stored under the pseudo-type "*".
        summary = self.per_type.get("*")
        return summary.degree_at(alpha) if summary else 0.0

    def source_types(self) -> list[str]:
        """Types that have at least one outgoing edge (T_G in Eq. 3)."""
        return [
            t for t, summary in self.per_type.items()
            if t != "*" and summary.edge_count > 0
        ]


# Memoized statistics per live graph: ``graph -> {percentiles: (version, stats)}``.
# Weak keys keep the cache from pinning graphs in memory; entries are
# invalidated by comparing the graph's topology ``version`` counter, so
# repeated cost-model calls (e.g. ``QueryCostModel.for_graph`` on every
# rewrite assessment) stop recomputing full degree scans while mutations
# still force a fresh computation.
_STATS_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def compute_statistics(
    graph: PropertyGraph,
    percentiles: Iterable[float] = DEFAULT_PERCENTILES,
    use_cache: bool = True,
) -> GraphStatistics:
    """Compute per-type out-degree summaries for ``graph``.

    The pseudo-type ``"*"`` aggregates over all vertices, which is what the
    homogeneous estimator (Eq. 2) uses.

    Results are memoized per ``(graph, percentiles)`` and invalidated through
    the graph's ``version`` mutation counter; pass ``use_cache=False`` to
    force a fresh scan.  The returned object is shared between callers —
    treat it as read-only.
    """
    wanted = tuple(percentiles)
    version = getattr(graph, "version", None)
    cacheable = use_cache and version is not None
    if cacheable:
        try:
            cached = _STATS_CACHE.get(graph, {}).get(wanted)
        except TypeError:  # unhashable / non-weakref-able graph object
            cacheable = False
            cached = None
        if cached is not None and cached[0] == version:
            return cached[1]
    stats = _compute_statistics(graph, wanted)
    if cacheable:
        try:
            _STATS_CACHE.setdefault(graph, {})[wanted] = (version, stats)
        except TypeError:  # pragma: no cover - defensive
            pass
    return stats


def _csr_snapshot(graph):
    """A CSR view of ``graph`` that is free to use, or ``None``.

    Either ``graph`` already is a :class:`~repro.storage.csr.CSRGraphStore`,
    or some :class:`~repro.storage.manager.StorageManager` has published a
    fresh snapshot for it.  Statistics never *build* a snapshot: a one-off
    degree scan is cheaper than a freeze, so the whole-array path only runs
    when the build cost is already paid.
    """
    from repro.storage.csr import CSRGraphStore  # deferred: keeps this
    from repro.storage.manager import lookup_snapshot  # module base-layer
    if isinstance(graph, CSRGraphStore):
        return graph
    if not isinstance(graph, PropertyGraph):
        return None
    return lookup_snapshot(graph)


def _summary_from_degrees(vertex_type: str, degrees,
                          wanted: tuple[float, ...]) -> TypeDegreeSummary:
    """Whole-array :class:`TypeDegreeSummary`: one sort covers every
    requested nearest-rank percentile.  Values are coerced back to python
    scalars so the result is field-by-field equal to the dict-scan path's."""
    ordered = _np.sort(degrees)
    count = len(ordered)
    summary_percentiles: dict[float, float] = {}
    for q in wanted:
        if q == 0:
            summary_percentiles[q] = int(ordered[0])
        else:
            rank = math.ceil(q / 100.0 * count)
            summary_percentiles[q] = int(ordered[max(rank - 1, 0)])
    edge_count = int(ordered.sum())
    return TypeDegreeSummary(
        vertex_type=vertex_type,
        vertex_count=count,
        edge_count=edge_count,
        percentiles=summary_percentiles,
        mean_out_degree=edge_count / count,
        max_out_degree=int(ordered[-1]),
    )


def _compute_statistics(graph: PropertyGraph, wanted: tuple[float, ...]
                        ) -> GraphStatistics:
    stats = GraphStatistics(
        graph_name=graph.name,
        total_vertices=graph.num_vertices,
        total_edges=graph.num_edges,
    )
    for q in wanted:
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
    snapshot = _csr_snapshot(graph)
    if snapshot is not None:
        offsets, _ = snapshot.csr_ndarrays("out")
        degrees = _np.diff(offsets.astype(_np.int64))
        if len(degrees):
            stats.per_type["*"] = _summary_from_degrees("*", degrees, wanted)
        for vertex_type in snapshot.vertex_types():
            members = snapshot.indices_of_type_array(vertex_type)
            stats.per_type[vertex_type] = _summary_from_degrees(
                vertex_type, degrees[members], wanted)
        return stats
    degrees_by_type: dict[str, list[int]] = {"*": []}
    for vertex in graph.vertices():
        out_degree = graph.out_degree(vertex.id)
        degrees_by_type.setdefault(vertex.type, []).append(out_degree)
        degrees_by_type["*"].append(out_degree)

    for vertex_type, degrees in degrees_by_type.items():
        if not degrees:
            continue
        summary = TypeDegreeSummary(
            vertex_type=vertex_type,
            vertex_count=len(degrees),
            edge_count=sum(degrees),
            percentiles={q: percentile(degrees, q) for q in wanted},
            mean_out_degree=sum(degrees) / len(degrees),
            max_out_degree=max(degrees),
        )
        stats.per_type[vertex_type] = summary
    return stats


def out_degree_histogram(graph: PropertyGraph, vertex_type: str | None = None) -> dict[int, int]:
    """Histogram ``degree -> number of vertices with that out-degree``."""
    snapshot = _csr_snapshot(graph)
    if snapshot is not None:
        offsets, _ = snapshot.csr_ndarrays("out")
        degrees = _np.diff(offsets.astype(_np.int64))
        if vertex_type is not None:
            degrees = degrees[snapshot.indices_of_type_array(vertex_type)]
        values, counts = _np.unique(degrees, return_counts=True)
        return dict(zip(values.tolist(), counts.tolist()))
    counter: Counter[int] = Counter()
    for vertex in graph.vertices(vertex_type):
        counter[graph.out_degree(vertex.id)] += 1
    return dict(counter)


def degree_ccdf(graph: PropertyGraph, vertex_type: str | None = None,
                direction: str = "out") -> list[tuple[int, int]]:
    """Complementary cumulative degree distribution: ``(d, #vertices with degree > d)``.

    This is the series plotted (log-log) in Fig. 8.

    Args:
        graph: Input graph.
        vertex_type: Restrict to one vertex type, or use all vertices.
        direction: ``"out"``, ``"in"``, or ``"total"``.
    """
    degree_of = {
        "out": graph.out_degree,
        "in": graph.in_degree,
        "total": graph.degree,
    }.get(direction)
    if degree_of is None:
        raise ValueError(f"direction must be 'out', 'in', or 'total', got {direction!r}")
    degrees = [degree_of(v.id) for v in graph.vertices(vertex_type)]
    if not degrees:
        return []
    histogram = Counter(degrees)
    points: list[tuple[int, int]] = []
    remaining = len(degrees)
    for degree in sorted(histogram):
        # CCDF at x: number of vertices with degree strictly greater than x.
        remaining -= histogram[degree]
        points.append((degree, remaining))
    return points


def fit_power_law(ccdf_points: Sequence[tuple[int, int]]) -> tuple[float, float]:
    """Least-squares linear fit of the CCDF on log-log axes.

    Returns ``(exponent, r_squared)`` where ``exponent`` is the (negative)
    slope of the fit; a good linear fit (r² close to 1) indicates a power-law
    degree distribution, as the paper observes for all datasets except the
    road network (Fig. 8).

    Points with zero coordinates are skipped since they cannot be plotted on a
    log scale.
    """
    xs: list[float] = []
    ys: list[float] = []
    for degree, count in ccdf_points:
        if degree > 0 and count > 0:
            xs.append(math.log10(degree))
            ys.append(math.log10(count))
    if len(xs) < 2:
        return 0.0, 0.0
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    ss_xy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    ss_xx = sum((x - mean_x) ** 2 for x in xs)
    ss_yy = sum((y - mean_y) ** 2 for y in ys)
    if ss_xx == 0 or ss_yy == 0:
        return 0.0, 0.0
    slope = ss_xy / ss_xx
    r_squared = (ss_xy * ss_xy) / (ss_xx * ss_yy)
    return -slope, r_squared


def summarize_counts_by_type(graph: PropertyGraph) -> dict[str, dict[str, int]]:
    """Vertex and (outgoing) edge counts broken down by vertex type.

    Used by the Table III / Fig. 6 reports.
    """
    result: dict[str, dict[str, int]] = {}
    for vertex_type in sorted(graph.vertex_types()):
        vertex_count = graph.count_vertices(vertex_type)
        edge_count = sum(graph.out_degree(vid) for vid in graph.vertex_ids(vertex_type))
        result[vertex_type] = {"vertices": vertex_count, "out_edges": edge_count}
    return result


def count_k_length_paths(graph: PropertyGraph, k: int,
                         source_type: str | None = None,
                         target_type: str | None = None,
                         max_count: int | None = None) -> int:
    """Exact number of directed k-length paths (walks without immediate memory).

    A "k-length path" here follows the paper's estimator semantics: a sequence
    of k edges where consecutive edges share an endpoint; vertices may repeat
    (the estimator counts successor choices, not simple paths).  The optional
    ``max_count`` short-circuits the count once exceeded, which keeps the
    ground-truth computation in Fig. 5 tractable on dense graphs.

    Args:
        graph: Input graph.
        k: Number of edges in each counted path (``k >= 1``).
        source_type: Restrict starting vertices to one type.
        target_type: Restrict ending vertices to one type.
        max_count: Optional early-exit threshold.

    Returns:
        The number of k-length paths (capped at ``max_count`` when provided).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    # paths_to[v] = number of k'-length paths ending at v after k' expansions.
    paths_to: dict[object, int] = {
        v.id: 1 for v in graph.vertices(source_type)
    }
    for _ in range(k):
        next_paths: dict[object, int] = {}
        for vertex_id, count in paths_to.items():
            for edge in graph.out_edges(vertex_id):
                next_paths[edge.target] = next_paths.get(edge.target, 0) + count
        paths_to = next_paths
        if max_count is not None and sum(paths_to.values()) > max_count:
            break
        if not paths_to:
            return 0
    if target_type is None:
        total = sum(paths_to.values())
    else:
        total = sum(
            count for vertex_id, count in paths_to.items()
            if graph.vertex(vertex_id).type == target_type
        )
    if max_count is not None:
        return min(total, max_count)
    return total
