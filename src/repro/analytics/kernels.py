"""Index-space analytics kernels over CSR ``(offsets, targets)`` arrays.

The public analytics functions (:mod:`repro.analytics.traversal`,
:mod:`~repro.analytics.paths`, :mod:`~repro.analytics.community`) are written
against the abstract :class:`~repro.storage.base.GraphStore` read surface:
per-vertex generator chains and ``VertexId``-keyed dicts.  That is the right
*oracle* — obviously correct on any backend — but it is an interpreted hot
path: every traversal step pays dictionary lookups, generator frames, and
string-keyed tie-breaking, even when the graph is already frozen into a
:class:`~repro.storage.csr.CSRGraphStore` whose contiguous integer arrays are
built for exactly this workload.

This module is the compiled counterpart.  Every kernel operates directly on
interned integer ids:

* **frontier BFS** expanding the whole frontier with one gather per hop
  over a boolean visited mask
  (:func:`k_hop_neighborhood`, :func:`k_hop_reachable`);
* **bulk k-hop** — the "all vertices" variants of Q1/Q2 advance every source
  together as one multi-source sweep instead of V independent traversals
  (:func:`bulk_k_hop_counts`);
* **blast-radius aggregation** over int frontiers with the per-vertex type
  mask pre-extracted into a flat array (:func:`blast_radius_rows`);
* **synchronous label propagation** as one segmented majority vote per pass
  with a precomputed string-order tie-break rank, replacing the per-pass
  ``Counter`` + ``sorted(key=str)`` (:func:`label_propagation`);
* **weighted path BFS** for Q4 over once-built ``(target, edge)`` pair lists
  whose property reads stay live (:func:`path_length_rows`);
* **k-hop simple-path enumeration** for connector materialization
  (:func:`k_hop_paths`).

Dispatch: the public analytics functions call :func:`resolve_store` and route
to kernels when handed a ``CSRGraphStore``, or a dict graph whose fresh
snapshot is already in the shared registry
(:func:`~repro.storage.manager.lookup_snapshot`).  Dispatch never freezes:
whoever publishes or reads a version freezes it
(:meth:`~repro.storage.manager.StorageManager.freeze`).  Setting the
environment variable :data:`FORCE_REFERENCE_ENV` to ``1`` disables the
kernels entirely, forcing every call onto the dict-store reference
implementations — the differential escape hatch.

**Execution tiers.**  There are exactly two: the *vectorized* CSR kernels in
this module (whole-frontier ``np.repeat``/gather expansion over the CSR
``(offsets, targets)`` ndarrays, boolean visited masks, per-pass segmented
majority votes — python touches each *hop*, not each edge) and the dict-store
*reference* implementations they are pinned against.  Tier decisions are
counted in :data:`dispatch_counts` and mirrored into any subscribed metrics
counter (:func:`subscribe_dispatch` — the service's
``kaskade_kernel_dispatch_total{path=...}``).

Every kernel is differentially pinned, row for row, against the reference
implementations in ``tests/analytics/test_kernels.py`` and
``tests/analytics/test_vectorized.py``.
"""

from __future__ import annotations

import os
import threading
import weakref
from dataclasses import dataclass

import numpy as _np

from repro.graph.property_graph import VertexId
from repro.storage.base import GraphLike, underlying_graph
from repro.storage import csr as _csr
from repro.storage.csr import CSRGraphStore, gather_slices
from repro.storage.manager import lookup_snapshot

#: Environment variable that forces the reference (dict-store) path when set
#: to ``1`` — the escape hatch for debugging and differential benchmarking.
FORCE_REFERENCE_ENV = "ANALYTICS_FORCE_REFERENCE"


@dataclass
class KernelStats:
    """Deterministic work counters a kernel call can report into.

    Attributes:
        traversal_edges: Adjacency entries consumed while traversing
            (frontier expansions, neighbor-label reads).
        store_reads: Adjacency entries pulled from the store representation
            to build cached kernel contexts (the undirected adjacency of
            label propagation).  The reference path pays these *per pass*;
            kernels pay them once per store — the memoization the
            analytics benchmark asserts on.
        passes: Iterations executed (label propagation).
        sources: Traversal sources processed (bulk kernels).
        batched_ops: Whole-array operations issued by the vectorized tier
            (one per frontier gather / dedup / vote).
            ``traversal_edges / batched_ops`` is the deterministic
            interpreter-step reduction the vectorization benchmark gates on
            — an edge-at-a-time traversal pays one interpreted iteration per
            edge, the vectorized tier one per batch.
    """

    traversal_edges: int = 0
    store_reads: int = 0
    passes: int = 0
    sources: int = 0
    batched_ops: int = 0


# ------------------------------------------------------------------ dispatch
def forced_reference() -> bool:
    """Whether the environment pins analytics to the reference path."""
    return os.environ.get(FORCE_REFERENCE_ENV, "") == "1"


#: Cumulative tier decisions made by this process, by path name.  The
#: service mirrors these into ``kaskade_kernel_dispatch_total{path=...}``.
#: ``"loops"`` is never incremented: perf/workloads.py still indexes the key.
dispatch_counts: dict[str, int] = {"vectorized": 0, "loops": 0, "reference": 0}

_dispatch_lock = threading.Lock()
_dispatch_subscribers: list[weakref.ref] = []


def subscribe_dispatch(counter) -> None:
    """Mirror every tier decision into ``counter.inc(path=<tier>)``.

    ``counter`` is referenced weakly (a dead metrics registry silently drops
    out), so subscribing a per-service :class:`~repro.service.metrics.Counter`
    never pins it.
    """
    with _dispatch_lock:
        _dispatch_subscribers.append(weakref.ref(counter))


def note_dispatch(path: str) -> None:
    """Record a tier decision made outside this module (e.g. the physical
    executor attributing a query to vectorized / reference)."""
    _note_dispatch(path)


def _note_dispatch(path: str) -> None:
    with _dispatch_lock:
        dispatch_counts[path] = dispatch_counts.get(path, 0) + 1
        if not _dispatch_subscribers:
            return
        alive = []
        for ref in _dispatch_subscribers:
            counter = ref()
            if counter is not None:
                counter.inc(path=path)
                alive.append(ref)
        _dispatch_subscribers[:] = alive


def _ready_store(graph: GraphLike) -> CSRGraphStore | None:
    """The CSR store kernels can run on without building one, or ``None``.

    A ``CSRGraphStore`` is used as it is; any other input runs on the fresh
    registry snapshot of its underlying graph, if some
    :class:`~repro.storage.manager.StorageManager` published one.
    """
    if forced_reference():
        return None
    if isinstance(graph, CSRGraphStore):
        return graph
    base = underlying_graph(graph)
    return None if base is None else lookup_snapshot(base)


def resolve_store(graph: GraphLike) -> CSRGraphStore | None:
    """The CSR store kernels should run on, or ``None`` for the reference path.

    Never freezes: a dict graph without a fresh snapshot in the registry
    stays on the reference implementations (recorded as a ``"reference"``
    dispatch).
    """
    store = _ready_store(graph)
    if store is None:
        _note_dispatch("reference")
    return store


def engine_for(graph: GraphLike) -> str:
    """``"kernel"`` when :func:`resolve_store` would route to CSR kernels,
    else ``"reference"`` — what the workload runner reports per query.

    Pure prediction: unlike :func:`resolve_store` this records no dispatch.
    """
    return "reference" if _ready_store(graph) is None else "kernel"


# ------------------------------------------------------------ cached contexts
def _cache(store: CSRGraphStore) -> dict:
    cache = getattr(store, "_analytics_cache", None)
    if cache is None:
        cache = {}
        store._analytics_cache = cache
    return cache


def _ids_of(store: CSRGraphStore) -> list[VertexId]:
    """The external id per interned index — ``vertex_ids()`` copies the list
    on every call, which per-anchor kernels must not pay."""
    return store.external_ids


def _str_rank(store: CSRGraphStore) -> list[int]:
    """``rank[i]``: position of vertex ``i``'s id in ``sorted(ids, key=str)``.

    Comparing ranks reproduces every ``key=str`` tie-break and sort of the
    reference implementations without re-stringifying ids per comparison.
    """
    cache = _cache(store)
    rank = cache.get("str_rank")
    if rank is None:
        ids = _ids_of(store)
        rank = [0] * len(ids)
        by_str = sorted(range(len(ids)), key=lambda index: str(ids[index]))
        for position, index in enumerate(by_str):
            rank[index] = position
        cache["str_rank"] = rank
    return rank


def _str_rank_array(store: CSRGraphStore):
    """:func:`_str_rank` as a cached int64 ndarray, for whole-array ordering."""
    cache = _cache(store)
    rank = cache.get("str_rank_np")
    if rank is None:
        rank = _np.asarray(_str_rank(store), dtype=_np.int64)
        cache["str_rank_np"] = rank
    return rank


def _type_mask(store: CSRGraphStore, vertex_type: str) -> bytearray:
    """Flat ``mask[i] == 1`` iff vertex ``i`` has ``vertex_type``."""
    cache = _cache(store)
    key = ("type_mask", vertex_type)
    mask = cache.get(key)
    if mask is None:
        mask = bytearray(store.num_vertices)
        for index in store.indices_of_type(vertex_type):
            mask[index] = 1
        cache[key] = mask
    return mask


def _out_edge_pairs(store: CSRGraphStore) -> list[list[tuple[int, object]]]:
    """Per-vertex ``(target interned id, edge ref)`` lists, built once.

    Pure topology — edge *references* are frozen with the snapshot, while
    their property dicts stay live (shared with the source graph), so weight
    reads through these pairs always see current values.
    """
    cache = _cache(store)
    pairs = cache.get("out_edge_pairs")
    if pairs is None:
        offsets, targets = store.csr_arrays("out")
        # The weighted BFS indexes python structures with these values;
        # numpy scalars would slow every lookup and comparison down.
        offsets = offsets.tolist()
        targets = targets.tolist()
        edges = store.aligned_edges("out") or []
        pairs = [list(zip(targets[offsets[i]:offsets[i + 1]],
                          edges[offsets[i]:offsets[i + 1]]))
                 for i in range(store.num_vertices)]
        cache["out_edge_pairs"] = pairs
    return pairs


def _np_blocks(store: CSRGraphStore, direction: str,
               edge_labels=None) -> list[tuple]:
    """The CSR ``(offsets, targets)`` pairs a traversal must expand.

    One block per (direction, label) combination; absent labels contribute
    nothing.  Directions: ``out``, ``in``, or ``both`` (out + in blocks —
    BFS visited marking dedups the union exactly like the reference's
    seen-set).
    """
    if direction not in ("out", "in", "both"):
        raise ValueError(f"direction must be 'out', 'in' or 'both', got {direction!r}")
    directions = ("out", "in") if direction == "both" else (direction,)
    labels = list(edge_labels) if edge_labels is not None else [None]
    blocks = []
    for one_direction in directions:
        for label in labels:
            arrays = store.csr_ndarrays(one_direction, label)
            if arrays is not None:
                blocks.append(arrays)
    return blocks


#: Upper bound on the sources one multi-source batch may advance together.
#: The bulk sweep's visited state is a sorted array of packed
#: ``slot * V + vertex`` keys — memory scales with the pairs actually
#: reached, not ``sources x vertices`` — so the bound only exists to keep
#: the per-hop sort/merge arrays from growing without limit on huge anchor
#: sets; per-batch fixed costs argue for large batches.
BULK_SOURCE_CHUNK = 1 << 16


# ------------------------------------------------------------- frontier BFS
def _bfs_levels_np(blocks: list[tuple], source_index: int, max_hops: int,
                   num_vertices: int, stats: KernelStats | None = None
                   ) -> list:
    """Frontier BFS over ndarray CSR blocks; ``levels[h]`` = vertices first
    reached at hop ``h``.

    Each hop expands the whole frontier with one gather per block, masks
    already-visited candidates, and deduplicates in *first-discovery order*
    (``np.unique`` + argsort of first occurrence) — so for single-block
    traversals the produced levels are element-for-element identical to the
    reference's queue order, which keeps order-sensitive consumers
    (blast-radius float accumulation) bit-compatible.  ``traversal_edges``
    counts every gathered adjacency entry.
    """
    visited = _np.zeros(num_vertices, dtype=bool)
    visited[source_index] = True
    levels = [_np.asarray([source_index], dtype=_np.int64)]
    frontier = levels[0]
    edges = 0
    ops = 0
    for _ in range(max_hops):
        parts = []
        for offsets, targets in blocks:
            values, counts = gather_slices(offsets, targets, frontier)
            edges += int(counts.sum())
            ops += 1
            if values.size:
                parts.append(values)
        if not parts:
            break
        candidates = parts[0] if len(parts) == 1 else _np.concatenate(parts)
        candidates = candidates[~visited[candidates]]
        if candidates.size == 0:
            break
        uniq, first_seen = _np.unique(candidates, return_index=True)
        next_frontier = uniq[_np.argsort(first_seen)]
        ops += 1
        visited[next_frontier] = True
        levels.append(next_frontier)
        frontier = next_frontier
    if stats is not None:
        stats.traversal_edges += edges
        stats.sources += 1
        stats.batched_ops += ops
    return levels


def k_hop_neighborhood(store: CSRGraphStore, source: VertexId, max_hops: int,
                       direction: str = "out", edge_labels=None,
                       include_source: bool = False,
                       stats: KernelStats | None = None) -> dict[VertexId, int]:
    """Kernel twin of :func:`repro.analytics.traversal.k_hop_neighborhood`."""
    if max_hops < 0:
        raise ValueError(f"max_hops must be >= 0, got {max_hops}")
    if max_hops < 1:
        # Mirror the reference exactly: zero hops never touches adjacency, so
        # even an unknown source id comes back without an error.
        return {source: 0} if include_source else {}
    source_index = store.index_of(source)
    ids = _ids_of(store)
    distances: dict[VertexId, int] = {source: 0} if include_source else {}
    _note_dispatch("vectorized")
    blocks = _np_blocks(store, direction, edge_labels)
    if blocks:
        levels = _bfs_levels_np(blocks, source_index, max_hops,
                                store.num_vertices, stats)
        for hop in range(1, len(levels)):
            for index in levels[hop].tolist():
                distances[ids[index]] = hop
    return distances


def k_hop_reachable(store: CSRGraphStore, source: VertexId, max_hops: int,
                    direction: str, vertex_type: str | None = None,
                    stats: KernelStats | None = None) -> set[VertexId]:
    """Vertices within ``max_hops`` of ``source``, optionally one type (Q2/Q3)."""
    if max_hops < 0:
        raise ValueError(f"max_hops must be >= 0, got {max_hops}")
    if max_hops < 1:
        return set()
    source_index = store.index_of(source)
    ids = _ids_of(store)
    _note_dispatch("vectorized")
    blocks = _np_blocks(store, direction)
    if not blocks:
        return set()
    levels = _bfs_levels_np(blocks, source_index, max_hops,
                            store.num_vertices, stats)
    if len(levels) == 1:
        return set()
    rest = _np.concatenate(levels[1:])
    if vertex_type is not None:
        rest = rest[store.type_index_mask(vertex_type)[rest]]
    return {ids[index] for index in rest.tolist()}


def bulk_k_hop_counts(store: CSRGraphStore, max_hops: int,
                      direction: str = "out", anchors=None,
                      anchor_type: str | None = None,
                      vertex_type: str | None = None, edge_labels=None,
                      stats: KernelStats | None = None) -> dict[VertexId, int]:
    """Q2/Q3 over every anchor in one sweep: ``{anchor: |k-hop neighborhood|}``.

    Instead of V independent traversals each allocating its own visited set
    and external-id dict, all sources advance together
    (:func:`_bulk_k_hop_counts_np`) and only counts leave integer space.
    """
    if max_hops < 1:
        # Mirror the reference: zero hops never touches adjacency, so even
        # unknown anchor ids come back with a zero count.
        if anchors is not None:
            return {anchor: 0 for anchor in anchors}
        return {anchor: 0 for anchor in store.vertex_ids(anchor_type)}
    if anchors is not None:
        # Unknown anchors must raise like the reference's first expansion
        # would — even when the requested labels are absent from the graph.
        anchor_indices = [store.index_of(anchor) for anchor in anchors]
    else:
        anchor_indices = (store.indices_of_type(anchor_type)
                          if anchor_type is not None
                          else list(range(store.num_vertices)))
    ids = _ids_of(store)
    _note_dispatch("vectorized")
    blocks = _np_blocks(store, direction, edge_labels)
    if not blocks:
        return {ids[index]: 0 for index in anchor_indices}
    mask_array = (store.type_index_mask(vertex_type)
                  if vertex_type is not None else None)
    reached = _bulk_k_hop_counts_np(blocks, anchor_indices, max_hops,
                                    store.num_vertices, mask_array, stats)
    return dict(zip(map(ids.__getitem__, anchor_indices), reached.tolist()))


def _bulk_k_hop_counts_np(blocks: list[tuple], anchor_indices, max_hops: int,
                          num_vertices: int, mask_array,
                          stats: KernelStats | None = None):
    """Whole-array multi-source sweep behind :func:`bulk_k_hop_counts`.

    All sources of a batch advance together: the frontier is a pair of flat
    arrays ``(source slot, vertex)``, each hop gathers every source's
    neighbors in one ``np.repeat``-expanded slice per block, and per-pair
    visited state is a sorted array of packed ``(slot << shift) | vertex``
    keys whose memory scales with the pairs actually reached (a ``sources x
    vertices`` bitmap would pay a multi-megabyte memset per batch even when
    frontiers stay tiny).  The stride is the next power of two above V so
    packing and unpacking are shifts and masks, never divisions.

    Each hop runs one combined dedup-and-membership pass instead of separate
    ``np.unique`` / ``searchsorted`` stages (both an order of magnitude
    slower at typical frontier sizes): candidate keys get a spare low bit of
    0, visited keys a low bit of 1, and the concatenation is sorted once —
    numpy's stable timsort merges the pre-sorted visited run in linear time.
    In the sorted stream a candidate is a *new* discovery exactly when it is
    the last of its equal-run and not immediately followed by its own
    visited twin — candidates are even, so a successor exactly one greater
    can only be the twin (``c[i+1] - c[i]`` being neither 0 nor 1); the
    stream right-shifted and adjacent-deduped is the next visited array for
    free.
    Per-source reach counts come from ``np.bincount`` over the surviving
    slots.  Returns an int64 array of reach counts aligned with
    ``anchor_indices``.
    """
    n = num_vertices
    shift = max(int(n - 1).bit_length(), 1)
    stride = 1 << shift
    vertex_mask = stride - 1
    total = len(anchor_indices)
    anchor_array = _np.asarray(anchor_indices, dtype=_np.int64)
    reached = _np.zeros(total, dtype=_np.int64)
    chunk = BULK_SOURCE_CHUNK
    edges = 0
    ops = 0
    for start in range(0, total, chunk):
        sub = anchor_array[start:start + chunk]
        batch = len(sub)
        # Packed keys occupy slot-bits + shift + 1 flag bit; when that fits
        # an int32 the sort/merge stream moves half the bytes per pass.
        # The limit lives on the csr module so the widening tests can pin
        # it low and drive this sweep through the int64 path too.
        key_dtype = (_np.int32 if (batch << (shift + 1)) <= _csr._INT32_LIMIT
                     else _np.int64)
        frontier_slot = _np.arange(batch, dtype=key_dtype)
        frontier_vertex = sub.astype(key_dtype)
        # Keys carry a spare low bit: candidates end in 0, visited in 1.
        # Slots are pre-shifted so np.repeat expands straight into packed
        # key space — one pass instead of repeat-then-shift-then-or.
        slot_base = frontier_slot << (shift + 1)
        # The source is marked visited before the sweep and never counts
        # itself, even when a cycle closes back onto it — matching the
        # reference's pre-seeded distance entry.
        visited_keys = _np.sort(slot_base | (frontier_vertex << 1) | 1)
        for _ in range(max_hops):
            cand_parts = []
            for offsets, targets in blocks:
                values, counts = gather_slices(offsets, targets, frontier_vertex)
                edges += int(counts.sum())
                ops += 1
                if values.size:
                    cand_parts.append(
                        _np.repeat(slot_base, counts)
                        | (values.astype(key_dtype, copy=False) << 1))
            if not cand_parts:
                break
            stream = _np.concatenate(cand_parts + [visited_keys])
            stream.sort(kind="stable")
            # The stream is ascending, so "neither duplicate nor twin" is a
            # single diff > 1 test; survivors that are odd (visited keys
            # with no candidate twin right behind them) are filtered on the
            # much smaller extracted array, not the full stream.
            new = _np.empty(stream.shape, dtype=bool)
            new[-1] = True
            _np.greater(_np.diff(stream), 1, out=new[:-1])
            key = stream[new]
            key = key[(key & 1) == 0]
            ops += 1
            if key.size == 0:
                break
            frontier_slot = key >> (shift + 1)
            frontier_vertex = (key >> 1) & vertex_mask
            slot_base = key & (-1 << (shift + 1))
            # New discoveries flagged odd merge into the visited run — two
            # pre-sorted runs, so the stable timsort pass is linear.
            visited_keys = _np.concatenate((visited_keys, key | 1))
            visited_keys.sort(kind="stable")
            if mask_array is None:
                reached[start:start + batch] += _np.bincount(
                    frontier_slot, minlength=batch)
            else:
                reached[start:start + batch] += _np.bincount(
                    frontier_slot[mask_array[frontier_vertex]], minlength=batch)
    if stats is not None:
        stats.traversal_edges += edges
        stats.sources += total
        stats.batched_ops += ops
    return reached


# ------------------------------------------------------------- blast radius
def blast_radius_rows(store: CSRGraphStore, max_hops: int = 10,
                      job_type: str = "Job", cpu_property: str = "cpu",
                      anchors=None, stats: KernelStats | None = None
                      ) -> list[tuple[VertexId, tuple[VertexId, ...], float, float]]:
    """Q1 aggregation rows ``(job, downstream_jobs, total_cpu, average_cpu)``.

    Downstream tuples are str-sorted and rows are not yet ranked by total —
    :func:`repro.analytics.traversal.blast_radius` wraps them into
    ``BlastRadiusEntry`` objects and applies the final ordering.
    """
    if max_hops < 1:
        # Mirror the reference: zero hops never touches adjacency, so even
        # unknown anchor ids come back with an empty downstream set.
        anchor_ids = (list(anchors) if anchors is not None
                      else store.vertex_ids(job_type))
        return [(anchor, (), 0.0, 0.0) for anchor in anchor_ids]
    if anchors is not None:
        anchor_indices = [store.index_of(anchor) for anchor in anchors]
    else:
        anchor_indices = store.indices_of_type(job_type)
    ids = _ids_of(store)
    mask = _type_mask(store, job_type)
    # Property dicts are live (shared with the source graph), so CPU values
    # are read per reached vertex like the reference — never cached across
    # calls, which would hide later property updates.
    refs = list(store.vertices())
    rank = _str_rank(store)
    rows: list[tuple[VertexId, tuple[VertexId, ...], float, float]] = []
    # The out-direction traversal is single-block, so _bfs_levels_np's
    # first-discovery ordering makes each level (and therefore the float
    # accumulation order below) identical to the reference's.
    _note_dispatch("vectorized")
    blocks = _np_blocks(store, "out")
    for source_index in anchor_indices:
        downstream: list[int] = []
        total = 0.0
        if blocks:
            levels = _bfs_levels_np(blocks, source_index, max_hops,
                                    store.num_vertices, stats)
            for hop in range(1, len(levels)):
                for index in levels[hop].tolist():
                    if mask[index]:
                        downstream.append(index)
                        total += float(refs[index].get(cpu_property, 0.0))
        downstream.sort(key=rank.__getitem__)
        average = total / len(downstream) if downstream else 0.0
        rows.append((ids[source_index],
                     tuple(ids[index] for index in downstream), total, average))
    return rows


# -------------------------------------------------------- label propagation
def label_propagation(store: CSRGraphStore, passes: int = 25,
                      write_property: str | None = "community",
                      stats: KernelStats | None = None) -> dict[VertexId, VertexId]:
    """Kernel twin of :func:`repro.analytics.community.label_propagation`.

    Labels live as interned int arrays; each synchronous pass is one
    segmented majority vote over the cached undirected CSR
    (:func:`_label_propagation_np`) — no ``Counter``, no per-vertex sorting,
    no string comparisons.  Ties break exactly like the reference: most
    frequent label, then smallest ``str(label)``.
    """
    if passes < 0:
        raise ValueError(f"passes must be >= 0, got {passes}")
    _note_dispatch("vectorized")
    labels = _label_propagation_np(store, passes, stats)
    ids = _ids_of(store)
    result = dict(zip(ids, map(ids.__getitem__, labels)))
    if write_property is not None:
        # Vertex property dicts are shared with the source graph, so the Q7
        # write-back lands on the live graph exactly like the reference.
        for vertex, ref in enumerate(store.vertices()):
            ref.properties[write_property] = ids[labels[vertex]]
    return result


def _label_propagation_np(store: CSRGraphStore, passes: int,
                          stats: KernelStats | None) -> list[int]:
    """Whole-array pass loop of :func:`label_propagation`.

    Each synchronous pass is one segmented majority vote: neighbor labels
    are gathered through the packed undirected CSR, packed into per-vertex
    vote keys (``(vertex << shift) | rank(label)`` — the stride is the next
    power of two above V so packing and unpacking are shifts and masks),
    counted with one in-place sort plus an adjacent not-equal mask, and the
    winner per vertex falls out of a ``np.maximum.reduceat`` over scores
    ``count * stride + (stride - 1 - rank)`` — count dominates, and the
    rank term breaks ties toward the smallest ``str(label)``, exactly the
    reference semantics.
    """
    n = store.num_vertices
    first_build = not store.undirected_adjacency_built
    offsets, targets = store.undirected_csr_arrays()
    if stats is not None and first_build:
        # Context build: the one pull of the out+in adjacency from the store
        # (later calls on this store read the cached arrays for free).
        stats.store_reads += 2 * store.num_edges
    degrees = _np.diff(offsets.astype(_np.int64))
    total_neighbors = int(degrees.sum())
    shift = max(int(n - 1).bit_length(), 1)
    stride = 1 << shift
    rank_mask = stride - 1
    rank = _str_rank_array(store)
    inverse_rank = _np.empty(n, dtype=_np.int64)
    inverse_rank[rank] = _np.arange(n, dtype=_np.int64)
    # The adjacency never changes across passes, so the segment term of
    # every vote key is a constant — only the rank term is per-pass.
    vote_base = _np.repeat(_np.arange(n, dtype=_np.int64) << shift, degrees)
    neighbors = targets.astype(_np.int64, copy=False)
    labels = _np.arange(n, dtype=_np.int64)
    for _ in range(passes):
        if stats is not None:
            stats.passes += 1
            stats.traversal_edges += total_neighbors
        if total_neighbors == 0:
            # No adjacency anywhere: nothing can change; like the reference,
            # exactly one pass runs before the changed == 0 break.
            break
        # rank[labels] is one n-sized pass; composing it first turns the
        # per-edge work into a single gather instead of two.
        rank_of = rank[labels]
        votes = vote_base + rank_of[neighbors]
        votes.sort()
        firsts = _np.empty(votes.shape, dtype=bool)
        firsts[0] = True
        _np.not_equal(votes[1:], votes[:-1], out=firsts[1:])
        first_indices = _np.flatnonzero(firsts)
        unique_votes = votes[first_indices]
        counts = _np.diff(first_indices, append=votes.size)
        vote_segment = unique_votes >> shift
        vote_rank = unique_votes & rank_mask
        score = counts * stride + (rank_mask - vote_rank)
        starts = _np.flatnonzero(
            _np.r_[True, vote_segment[1:] != vote_segment[:-1]])
        best = _np.maximum.reduceat(score, starts)
        new_labels = labels.copy()  # isolated vertices keep their label
        new_labels[vote_segment[starts]] = inverse_rank[
            rank_mask - (best & rank_mask)]
        if stats is not None:
            stats.batched_ops += 3  # gather, vote count, segmented reduce
        changed = int((new_labels != labels).sum())
        labels = new_labels
        if changed == 0:
            break
    return labels.tolist()


# ------------------------------------------------------------ weighted paths
def path_length_rows(store: CSRGraphStore, source: VertexId, max_hops: int = 4,
                     weight_property: str = "timestamp",
                     default_weight: float = 1.0, aggregate: str = "max",
                     stats: KernelStats | None = None
                     ) -> list[tuple[VertexId, int, float]]:
    """Q4 rows ``(target, hops, weight)`` sorted by (hops, str(target)).

    A label-correcting BFS in index space; edge weights are read through the
    CSR-aligned edge array (one flat index per traversed edge, no per-edge
    adjacency dict walking).  Property dicts stay live, so weight updates on
    the shared edges are visible exactly like on the reference path.
    """
    if aggregate not in ("max", "sum"):
        raise ValueError(f"aggregate must be 'max' or 'sum', got {aggregate!r}")
    if max_hops < 1:
        # Mirror the reference: zero hops never touches adjacency, so even an
        # unknown source id comes back with an empty result.
        return []
    source_index = store.index_of(source)
    # Counted on the kernel tier although it iterates in python: per-edge
    # property reads dominate, so a whole-array expansion would not pay.
    _note_dispatch("vectorized")
    pairs = _out_edge_pairs(store)
    use_sum = aggregate == "sum"
    best: dict[int, tuple[int, float]] = {}
    frontier: dict[int, float] = {source_index: 0.0 if use_sum else float("-inf")}
    for hop in range(1, max_hops + 1):
        next_frontier: dict[int, float] = {}
        for vertex, weight_so_far in frontier.items():
            row = pairs[vertex]
            if stats is not None:
                stats.traversal_edges += len(row)
            for target, edge in row:
                if target == source_index:
                    continue
                edge_weight = float(edge.get(weight_property, default_weight))
                if use_sum:
                    new_weight = weight_so_far + edge_weight
                else:
                    new_weight = (edge_weight if edge_weight > weight_so_far
                                  else weight_so_far)
                current = best.get(target)
                if current is None or new_weight < current[1]:
                    best[target] = (hop, new_weight)
                pending = next_frontier.get(target)
                if pending is None or new_weight < pending:
                    next_frontier[target] = new_weight
        frontier = next_frontier
        if not frontier:
            break
    ids = _ids_of(store)
    rank = _str_rank(store)
    order = sorted(best.items(), key=lambda item: (item[1][0], rank[item[0]]))
    return [(ids[index], hops, weight) for index, (hops, weight) in order]


# --------------------------------------------------- connector path kernels
def k_hop_paths(store: CSRGraphStore, k: int,
                source_type: str | None = None, target_type: str | None = None,
                edge_label: str | None = None, allow_closing: bool = True,
                max_paths: int | None = None) -> list[tuple[VertexId, ...]]:
    """Simple k-hop paths as external-id tuples, for connector materialization.

    The index-space twin of
    :func:`repro.graph.transform.enumerate_k_hop_paths` (with
    ``simple=True``): the DFS walks pre-sliced interned adjacency, endpoint
    type predicates are flat byte masks, and external ids are only produced
    for emitted paths.  Source order, per-vertex edge order, and the
    ``max_paths`` early stop match the reference exactly, so the two
    enumerations return identical path lists.  The connector hot shapes
    (``k`` = 1, 2) run as flat nested loops with no recursion.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    # Counted on the kernel tier although it iterates in python: the
    # simple-path DFS carries per-path state with no whole-array formulation.
    _note_dispatch("vectorized")
    adjacency = store.int_adjacency("out", edge_label)
    if adjacency is None:
        return []
    ids = _ids_of(store)
    source_mask = _type_mask(store, source_type) if source_type is not None else None
    target_mask = _type_mask(store, target_type) if target_type is not None else None
    if source_mask is not None:
        sources = [index for index in range(store.num_vertices) if source_mask[index]]
    else:
        sources = range(store.num_vertices)
    results: list[tuple[VertexId, ...]] = []
    append = results.append

    if k == 1:
        for source in sources:
            source_id = ids[source]
            for target in adjacency[source]:
                # A self-loop revisits the source; it only qualifies as the
                # closing hop of a cycle.
                if target == source and not allow_closing:
                    continue
                if target_mask is None or target_mask[target]:
                    append((source_id, ids[target]))
                    if max_paths is not None and len(results) >= max_paths:
                        return results
        return results

    if k == 2:
        for source in sources:
            source_id = ids[source]
            for middle in adjacency[source]:
                if middle == source:
                    continue
                middle_id = ids[middle]
                for target in adjacency[middle]:
                    if target == middle or (target == source and not allow_closing):
                        continue
                    if target_mask is None or target_mask[target]:
                        append((source_id, middle_id, ids[target]))
                        if max_paths is not None and len(results) >= max_paths:
                            return results
        return results

    if k == 3:
        for source in sources:
            source_id = ids[source]
            for first in adjacency[source]:
                if first == source:
                    continue
                first_id = ids[first]
                for second in adjacency[first]:
                    if second == first or second == source:
                        continue
                    second_id = ids[second]
                    for target in adjacency[second]:
                        if (target == second or target == first
                                or (target == source and not allow_closing)):
                            continue
                        if target_mask is None or target_mask[target]:
                            append((source_id, first_id, second_id, ids[target]))
                            if max_paths is not None and len(results) >= max_paths:
                                return results
        return results

    last = k  # index of the final vertex in a complete path
    path: list[int] = []

    def extend() -> bool:
        """Depth-first extension; returns False once max_paths is hit."""
        depth = len(path)
        if depth == last + 1:
            if target_mask is None or target_mask[path[-1]]:
                append(tuple(ids[index] for index in path))
                if max_paths is not None and len(results) >= max_paths:
                    return False
            return True
        start = path[0]
        for target in adjacency[path[-1]]:
            if target in path:
                # Simple paths only — except the optional final hop closing
                # the cycle back onto the start vertex.
                if not (allow_closing and target == start and depth == last):
                    continue
            path.append(target)
            alive = extend()
            path.pop()
            if not alive:
                return False
        return True

    for index in sources:
        path = [index]
        if not extend():
            break
    return results
