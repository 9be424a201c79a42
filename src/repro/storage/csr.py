"""Compressed-sparse-row (CSR) graph snapshots.

:class:`CSRGraphStore` is an immutable, read-optimized snapshot of a
:class:`~repro.graph.property_graph.PropertyGraph`.  Vertex ids are interned
to dense integers, and adjacency is stored as offset + target arrays — the
classic CSR layout — both combined and per edge label, giving:

* **O(1)** in/out degree (overall *and* per label; the dict graph scans the
  incident edge list for per-label degree),
* **O(deg)** neighbor expansion as a contiguous list slice, with no per-edge
  dictionary lookups or generator frames on the hot path,
* direct access to the integer-space ``(offsets, targets)`` arrays for
  PageRank-style sweeps and other whole-graph kernels.

The ``(offsets, targets)`` pairs, the per-type index slices, and the derived
undirected adjacency are contiguous numpy ``ndarray``\\ s (``int32``, widened
to ``int64`` past :data:`_INT32_LIMIT`), which is what the vectorized
analytics kernels (:mod:`repro.analytics.kernels`) and the physical
executor's batched neighbor gather operate on directly.

The snapshot freezes the *topology*: adding or removing vertices/edges raises
:class:`~repro.errors.GraphError`.  Vertex and edge **property dictionaries
are shared** with the source graph (like :meth:`PropertyGraph.copy`, property
payloads are not deep-copied), so analytics that annotate vertices — e.g. the
Q7 label-propagation write-back — behave identically on either
representation.  Topological mutations of the source graph after the snapshot
do not affect the CSR store; staleness is detectable by comparing
:attr:`source_version` with the source graph's ``version`` counter.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as _np

from repro.errors import GraphError, VertexNotFoundError
from repro.graph.property_graph import Edge, PropertyGraph, Vertex, VertexId
from repro.graph.schema import GraphSchema
from repro.storage.base import GraphStore

#: Largest value stored in an ``int32`` index array; arrays whose maximum
#: entry would exceed it (vertex counts for ``targets``, edge counts for
#: ``offsets``) widen to ``int64``.  Module-level so the widening guard is
#: testable without building a 2-billion-edge graph.
_INT32_LIMIT = 2**31 - 1


def _index_dtype(max_value: int):
    """The narrowest index dtype that can hold ``max_value``."""
    return _np.int32 if max_value <= _INT32_LIMIT else _np.int64


def _index_array(values: list[int], max_value: int):
    """Pack ``values`` into a contiguous index ndarray."""
    return _np.asarray(values, dtype=_index_dtype(max_value))


def gather_slices(offsets, targets, indices):
    """One vectorized gather: the concatenated CSR slices of ``indices``.

    Returns ``(flat_targets, counts)`` where ``flat_targets`` is
    ``targets[offsets[i]:offsets[i+1]]`` for every ``i`` in ``indices``,
    concatenated in order, and ``counts[j]`` is the slice length of
    ``indices[j]``.  This is the ``np.repeat``/``np.diff``-style expand every
    vectorized frontier and the executor's batched neighbor expansion build
    on: no per-source python iteration, one pass over the whole batch.

    ``flat_targets`` keeps the dtype of ``targets`` (``int32`` until the
    store widens) and the position arithmetic runs in the narrowest index
    dtype that can address the expansion — halving memory traffic on the
    hot frontier path.  ``counts`` is always ``int64`` so downstream sums
    never overflow.
    """
    starts = offsets[indices]
    counts = (offsets[indices + 1] - starts).astype(_np.int64)
    total = int(counts.sum())
    if total == 0:
        return targets[:0], counts
    # positions[k] walks each slice: repeat every start, then add the
    # within-slice ramp 0..count-1 reconstructed from the cumulative sum.
    pos_dtype = _index_dtype(max(total, len(targets)))
    cumulative = _np.cumsum(counts)
    positions = _np.repeat(starts.astype(pos_dtype, copy=False), counts)
    ramp = _np.arange(total, dtype=pos_dtype)
    ramp -= _np.repeat((cumulative - counts).astype(pos_dtype, copy=False),
                       counts)
    positions += ramp
    return targets[positions], counts


class _LabelCSR:
    """One CSR block: offsets plus aligned target-id / edge-reference arrays.

    ``offsets``/``targets_int`` are numpy ndarrays (``int32``, widened to
    ``int64`` past :data:`_INT32_LIMIT`).
    """

    __slots__ = ("offsets", "targets_int", "targets_ext", "edge_refs",
                 "_neighbor_cache", "_int_neighbor_cache")

    def __init__(self, offsets, targets_int,
                 targets_ext: list[VertexId], edge_refs: list[Edge]) -> None:
        self.offsets = offsets
        self.targets_int = targets_int
        self.targets_ext = targets_ext
        self.edge_refs = edge_refs
        self._neighbor_cache: list[list[VertexId]] | None = None
        self._int_neighbor_cache: list[list[int]] | None = None

    def slice_bounds(self, index: int) -> tuple[int, int]:
        return self.offsets[index], self.offsets[index + 1]

    def neighbor_lists(self) -> list[list[VertexId]]:
        """Per-vertex neighbor-id slices, materialized once on first use.

        Neighbor expansion is *the* hot operation; pre-sliced lists turn each
        call into two index lookups with no per-call allocation.  The inner
        lists alias the cache — callers must treat them as read-only.
        """
        cache = self._neighbor_cache
        if cache is None:
            ext = self.targets_ext
            offsets = self.offsets.tolist()
            cache = [ext[offsets[i]:offsets[i + 1]] for i in range(len(offsets) - 1)]
            self._neighbor_cache = cache
        return cache

    def int_neighbor_lists(self) -> list[list[int]]:
        """Per-vertex *interned-id* neighbor slices, materialized once.

        The integer-space counterpart of :meth:`neighbor_lists` — the
        representation the analytics kernels iterate.  The inner lists alias
        the cache — callers must treat them as read-only.
        """
        cache = self._int_neighbor_cache
        if cache is None:
            # .tolist() yields plain python ints — numpy scalars would slow
            # every bytearray/list index in the index-space consumers.
            bounds = self.offsets.tolist()
            targets = self.targets_int.tolist()
            cache = [targets[bounds[i]:bounds[i + 1]]
                     for i in range(len(bounds) - 1)]
            self._int_neighbor_cache = cache
        return cache


def _build_csr(num_vertices: int, incident: list[list[Edge]],
               endpoint_index: dict[VertexId, int],
               forward: bool) -> _LabelCSR:
    """Pack per-vertex incident edge lists into one CSR block.

    Args:
        num_vertices: Number of interned vertices.
        incident: ``incident[i]`` is the ordered list of edges at vertex ``i``.
        endpoint_index: Maps external vertex id to interned id.
        forward: True packs edge targets (out-CSR), False packs sources (in-CSR).
    """
    raw_offsets = [0] * (num_vertices + 1)
    total = 0
    for i in range(num_vertices):
        total += len(incident[i])
        raw_offsets[i + 1] = total
    raw_targets = [0] * total
    targets_ext: list[VertexId] = [None] * total
    edge_refs: list[Edge] = [None] * total
    pos = 0
    for i in range(num_vertices):
        for edge in incident[i]:
            endpoint = edge.target if forward else edge.source
            raw_targets[pos] = endpoint_index[endpoint]
            targets_ext[pos] = endpoint
            edge_refs[pos] = edge
            pos += 1
    offsets = _index_array(raw_offsets, total)
    targets_int = _index_array(raw_targets, max(num_vertices - 1, 0))
    return _LabelCSR(offsets, targets_int, targets_ext, edge_refs)


class CSRGraphStore(GraphStore):
    """Immutable compressed-sparse-row snapshot of a property graph.

    Example:
        >>> from repro.graph.property_graph import PropertyGraph
        >>> g = PropertyGraph(name="lineage")
        >>> _ = g.add_vertex("j1", "Job"); _ = g.add_vertex("f1", "File")
        >>> _ = g.add_edge("j1", "f1", "WRITES_TO")
        >>> store = CSRGraphStore.from_graph(g)
        >>> store.out_degree("j1"), list(store.successors("j1"))
        (1, ['f1'])
    """

    backend = "csr"

    def __init__(self, graph: PropertyGraph) -> None:
        self.name = graph.name
        self.schema: GraphSchema | None = graph.schema
        #: ``version`` of the source graph when this snapshot was taken; a
        #: mismatch with the live graph's counter means the snapshot is stale.
        self.source_version: int = graph.version
        self.source_name: str = graph.name

        self._ids: list[VertexId] = graph.vertex_ids()
        self._index: dict[VertexId, int] = {vid: i for i, vid in enumerate(self._ids)}
        self._vertex_refs: list[Vertex] = [graph.vertex(vid) for vid in self._ids]
        self._by_type: dict[str, list[int]] = {}
        for i, vertex in enumerate(self._vertex_refs):
            self._by_type.setdefault(vertex.type, []).append(i)

        n = len(self._ids)
        out_all: list[list[Edge]] = [[] for _ in range(n)]
        in_all: list[list[Edge]] = [[] for _ in range(n)]
        out_by_label: dict[str, list[list[Edge]]] = {}
        in_by_label: dict[str, list[list[Edge]]] = {}
        self._edge_list: list[Edge] = list(graph.edges())
        self._edges_by_label: dict[str, list[Edge]] = {}
        for edge in self._edge_list:
            src = self._index[edge.source]
            dst = self._index[edge.target]
            out_all[src].append(edge)
            in_all[dst].append(edge)
            if edge.label not in out_by_label:
                out_by_label[edge.label] = [[] for _ in range(n)]
                in_by_label[edge.label] = [[] for _ in range(n)]
                self._edges_by_label[edge.label] = []
            out_by_label[edge.label][src].append(edge)
            in_by_label[edge.label][dst].append(edge)
            self._edges_by_label[edge.label].append(edge)

        self._out = _build_csr(n, out_all, self._index, forward=True)
        self._in = _build_csr(n, in_all, self._index, forward=False)
        self._undirected_cache: list[list[int]] | None = None
        self._undirected_arrays = None
        self._type_index_arrays: dict[str, object] = {}
        self._type_mask_arrays: dict[str, object] = {}
        self._out_by_label = {
            label: _build_csr(n, incident, self._index, forward=True)
            for label, incident in out_by_label.items()
        }
        self._in_by_label = {
            label: _build_csr(n, incident, self._index, forward=False)
            for label, incident in in_by_label.items()
        }

    @classmethod
    def from_graph(cls, graph: PropertyGraph) -> "CSRGraphStore":
        """Freeze a property graph into a CSR snapshot."""
        return cls(graph)

    # ------------------------------------------------------------------ sizes
    @property
    def num_vertices(self) -> int:
        return len(self._ids)

    @property
    def num_edges(self) -> int:
        return len(self._edge_list)

    @property
    def version(self) -> int:
        """Immutable stores never change; expose the frozen source version."""
        return self.source_version

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraphStore(name={self.name!r}, vertices={self.num_vertices}, "
            f"edges={self.num_edges})"
        )

    # --------------------------------------------------------------- interning
    def index_of(self, vertex_id: VertexId) -> int:
        """Interned integer id of a vertex (for kernel-style array sweeps)."""
        try:
            return self._index[vertex_id]
        except KeyError as exc:
            raise VertexNotFoundError(vertex_id) from exc

    def id_at(self, index: int) -> VertexId:
        """External vertex id for an interned integer id."""
        return self._ids[index]

    def indices_of_type(self, vertex_type: str) -> list[int]:
        """Interned ids of the vertices with ``vertex_type``, in intern order."""
        return list(self._by_type.get(vertex_type, ()))

    @property
    def external_ids(self) -> list[VertexId]:
        """The external id per interned index — read-only, no copy.

        The zero-allocation counterpart of :meth:`vertex_ids` for kernels
        that translate interned results back per call.
        """
        return self._ids

    @property
    def vertex_refs(self) -> list[Vertex]:
        """The vertex object per interned index — read-only, no copy.

        Lets batched consumers evaluate per-vertex predicates on gathered
        interned ids without a per-target external-id round trip.
        """
        return self._vertex_refs

    def indices_of_type_array(self, vertex_type: str):
        """:meth:`indices_of_type` as a cached index ndarray."""
        cached = self._type_index_arrays.get(vertex_type)
        if cached is None:
            members = self._by_type.get(vertex_type, ())
            cached = _np.asarray(members,
                                 dtype=_index_dtype(max(self.num_vertices - 1, 0)))
            self._type_index_arrays[vertex_type] = cached
        return cached

    def type_index_mask(self, vertex_type: str):
        """Boolean ndarray, ``mask[i]`` iff vertex ``i`` has ``vertex_type``."""
        cached = self._type_mask_arrays.get(vertex_type)
        if cached is None:
            cached = _np.zeros(self.num_vertices, dtype=bool)
            members = self._by_type.get(vertex_type)
            if members:
                cached[_np.asarray(members, dtype=_np.int64)] = True
            self._type_mask_arrays[vertex_type] = cached
        return cached

    def csr_ndarrays(self, direction: str = "out", label: str | None = None):
        """``(offsets, targets)`` as ndarrays, or ``None`` when the block is
        absent (unknown label).

        Unlike :meth:`csr_arrays` this never fabricates an empty block and
        never triggers the python neighbor-list caches — it is the entry
        point of the whole-array kernels.
        """
        block = self._block(direction, label)
        if block is None:
            return None
        return block.offsets, block.targets_int

    def gather_neighbors(self, indices, direction: str = "out",
                         label: str | None = None):
        """Batched neighbor expansion: one gather for many interned sources.

        ``indices`` is an integer ndarray of interned vertex ids; returns
        ``(flat_targets, counts)`` per :func:`gather_slices`.  For an absent
        label every source has zero neighbors.
        """
        block = self._block(direction, label)
        if block is None:
            return (_np.empty(0, dtype=_np.int64),
                    _np.zeros(len(indices), dtype=_np.int64))
        return gather_slices(block.offsets, block.targets_int, indices)

    def undirected_csr_arrays(self):
        """The deduped undirected adjacency as ``(offsets, targets)`` ndarrays.

        The whole-array counterpart of :meth:`undirected_int_adjacency` —
        same per-vertex neighbor sets (duplicates from parallel and mutual
        edges removed), packed contiguously for per-pass label-propagation
        votes.  Built and cached on first use.
        """
        cached = self._undirected_arrays
        if cached is None:
            adjacency = self.undirected_int_adjacency()
            lengths = [len(neighbors) for neighbors in adjacency]
            total = sum(lengths)
            offsets = _np.zeros(self.num_vertices + 1, dtype=_index_dtype(total))
            if adjacency:
                offsets[1:] = _np.cumsum(lengths)
            flat: list[int] = []
            for neighbors in adjacency:
                flat.extend(neighbors)
            targets = _np.asarray(flat,
                                  dtype=_index_dtype(max(self.num_vertices - 1, 0)))
            cached = (offsets, targets)
            self._undirected_arrays = cached
        return cached

    def csr_arrays(self, direction: str = "out", label: str | None = None
                   ) -> tuple[Sequence[int], Sequence[int]]:
        """The raw ``(offsets, targets)`` arrays in interned integer space.

        ``targets[offsets[i]:offsets[i + 1]]`` are the interned neighbor ids of
        the vertex with interned id ``i``.  This is the representation
        whole-graph kernels (PageRank sweeps, BFS frontiers) should iterate.
        """
        block = self._block(direction, label)
        if block is None:
            return (_index_array([0] * (self.num_vertices + 1), 0),
                    _index_array([], 0))
        return block.offsets, block.targets_int

    def int_adjacency(self, direction: str = "out", label: str | None = None
                      ) -> list[list[int]] | None:
        """Pre-sliced interned-id neighbor lists (``None`` for an absent label).

        ``int_adjacency(d, l)[i]`` is the read-only list of interned neighbor
        ids of vertex ``i`` in direction ``d`` over edges labelled ``l`` — the
        zero-allocation structure index-space kernels iterate per frontier
        vertex.  Cached per block on first use.
        """
        block = self._block(direction, label)
        if block is None:
            return None
        return block.int_neighbor_lists()

    @property
    def undirected_adjacency_built(self) -> bool:
        """Whether :meth:`undirected_int_adjacency` has been materialized —
        lets callers account the build cost only when they trigger it."""
        return self._undirected_cache is not None

    def undirected_int_adjacency(self) -> list[list[int]]:
        """Per-vertex *distinct* undirected neighbors in interned-id space.

        The adjacency label propagation consumes: out- and in-neighbors of
        each vertex merged with duplicates (parallel and mutual edges)
        removed, mirroring ``PropertyGraph.neighbors``.  Built and cached on
        first use; callers must treat the lists as read-only.
        """
        cache = self._undirected_cache
        if cache is None:
            out_lists = self._out.int_neighbor_lists()
            in_lists = self._in.int_neighbor_lists()
            cache = []
            for index in range(self.num_vertices):
                forward = out_lists[index]
                backward = in_lists[index]
                if backward or len(forward) > 1:
                    cache.append(list(dict.fromkeys(forward + backward)))
                else:
                    cache.append(forward)
            self._undirected_cache = cache
        return cache

    def aligned_edges(self, direction: str = "out", label: str | None = None
                      ) -> list[Edge] | None:
        """Edge objects aligned with :meth:`csr_arrays`'s ``targets`` array.

        ``aligned_edges(d, l)[pos]`` is the edge whose endpoint is
        ``targets[pos]`` — how kernels bulk-extract an edge property (e.g.
        Q4's timestamp weights) into a flat array once, instead of touching
        property dicts per traversal step.  ``None`` for an absent label.
        """
        block = self._block(direction, label)
        if block is None:
            return None
        return block.edge_refs

    def _block(self, direction: str, label: str | None) -> _LabelCSR | None:
        if direction == "out":
            return self._out if label is None else self._out_by_label.get(label)
        if direction == "in":
            return self._in if label is None else self._in_by_label.get(label)
        raise GraphError(f"direction must be 'out' or 'in', got {direction!r}")

    # --------------------------------------------------------------- vertices
    def has_vertex(self, vertex_id: VertexId) -> bool:
        return vertex_id in self._index

    def vertex(self, vertex_id: VertexId) -> Vertex:
        try:
            return self._vertex_refs[self._index[vertex_id]]
        except KeyError as exc:
            raise VertexNotFoundError(vertex_id) from exc

    def vertices(self, vertex_type: str | None = None) -> Iterator[Vertex]:
        if vertex_type is None:
            yield from self._vertex_refs
            return
        refs = self._vertex_refs
        for index in self._by_type.get(vertex_type, ()):
            yield refs[index]

    def vertex_ids(self, vertex_type: str | None = None) -> list[VertexId]:
        if vertex_type is None:
            return list(self._ids)
        ids = self._ids
        return [ids[index] for index in self._by_type.get(vertex_type, ())]

    def vertex_types(self) -> list[str]:
        return [t for t, members in self._by_type.items() if members]

    def count_vertices(self, vertex_type: str | None = None) -> int:
        if vertex_type is None:
            return len(self._ids)
        return len(self._by_type.get(vertex_type, ()))

    # ------------------------------------------------------------------ edges
    def edges(self, label: str | None = None) -> Iterator[Edge]:
        if label is None:
            return iter(self._edge_list)
        return iter(self._edges_by_label.get(label, ()))

    def edge_labels(self) -> list[str]:
        return [label for label, members in self._edges_by_label.items() if members]

    def count_edges(self, label: str | None = None) -> int:
        if label is None:
            return len(self._edge_list)
        return len(self._edges_by_label.get(label, ()))

    # -------------------------------------------------------------- adjacency
    def out_edges(self, vertex_id: VertexId, label: str | None = None) -> list[Edge]:
        block = self._out if label is None else self._out_by_label.get(label)
        index = self.index_of(vertex_id)
        if block is None:
            return []
        start, end = block.slice_bounds(index)
        return block.edge_refs[start:end]

    def in_edges(self, vertex_id: VertexId, label: str | None = None) -> list[Edge]:
        block = self._in if label is None else self._in_by_label.get(label)
        index = self.index_of(vertex_id)
        if block is None:
            return []
        start, end = block.slice_bounds(index)
        return block.edge_refs[start:end]

    def successors(self, vertex_id: VertexId, label: str | None = None
                   ) -> list[VertexId]:
        block = self._out if label is None else self._out_by_label.get(label)
        try:
            index = self._index[vertex_id]
        except KeyError as exc:
            raise VertexNotFoundError(vertex_id) from exc
        if block is None:
            return []
        return block.neighbor_lists()[index]

    def predecessors(self, vertex_id: VertexId, label: str | None = None
                     ) -> list[VertexId]:
        block = self._in if label is None else self._in_by_label.get(label)
        try:
            index = self._index[vertex_id]
        except KeyError as exc:
            raise VertexNotFoundError(vertex_id) from exc
        if block is None:
            return []
        return block.neighbor_lists()[index]

    def out_degree(self, vertex_id: VertexId, label: str | None = None) -> int:
        block = self._out if label is None else self._out_by_label.get(label)
        index = self.index_of(vertex_id)
        if block is None:
            return 0
        start, end = block.slice_bounds(index)
        return end - start

    def in_degree(self, vertex_id: VertexId, label: str | None = None) -> int:
        block = self._in if label is None else self._in_by_label.get(label)
        index = self.index_of(vertex_id)
        if block is None:
            return 0
        start, end = block.slice_bounds(index)
        return end - start

    # --------------------------------------------------------------- mutation
    def _immutable(self, operation: str) -> GraphError:
        return GraphError(
            f"CSRGraphStore is an immutable snapshot; {operation} is not supported — "
            "mutate the source PropertyGraph and re-freeze"
        )

    def add_vertex(self, *args, **kwargs):
        raise self._immutable("add_vertex")

    def add_edge(self, *args, **kwargs):
        raise self._immutable("add_edge")

    def remove_vertex(self, *args, **kwargs):
        raise self._immutable("remove_vertex")

    def remove_edge(self, *args, **kwargs):
        raise self._immutable("remove_edge")

    # ------------------------------------------------------------- conversion
    def to_property_graph(self, name: str | None = None) -> PropertyGraph:
        """Thaw the snapshot back into a mutable dict-based graph."""
        graph = PropertyGraph(name=name or self.name, schema=self.schema)
        for vertex in self._vertex_refs:
            graph.add_vertex(vertex.id, vertex.type, **vertex.properties)
        for edge in self._edge_list:
            graph.add_edge(edge.source, edge.target, edge.label, **edge.properties)
        return graph

    # ------------------------------------------------------------- memory size
    def estimated_footprint(self, bytes_per_vertex: int = 64,
                            bytes_per_edge: int = 48) -> int:
        """Footprint estimate, formula-compatible with ``PropertyGraph`` so the
        view space budgets (§V-B) are representation-independent."""
        property_bytes = sum(
            32 * len(v.properties) for v in self._vertex_refs
        ) + sum(32 * len(e.properties) for e in self._edge_list)
        return (
            self.num_vertices * bytes_per_vertex
            + self.num_edges * bytes_per_edge
            + property_bytes
        )
