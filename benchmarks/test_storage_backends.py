"""Storage backends: dict ``PropertyGraph`` vs ``CSRGraphStore`` throughput.

Two read-path micro-workloads over the power-law social network:

* **neighbor expansion** — a full sweep calling ``successors`` for every
  vertex and consuming the targets (the primitive under every traversal
  query, Q1–Q4);
* **PageRank-style sweep** — a fixed number of rank-push iterations over all
  out-edges (the whole-graph kernel pattern; the CSR side iterates the
  interned integer-space arrays).

Both representations must answer identically (asserted).  The speedups are
printed and recorded (``bench_record`` → ``BENCH_storage_backends.json``),
never asserted: timing is judged by ``perf/run.py compare``, not by per-PR
thresholds.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.reporting import format_table
from repro.datasets.registry import dataset
from repro.storage.csr import CSRGraphStore

#: Rank-push iterations of the PageRank-style sweep.
SWEEP_ITERATIONS = 10
DAMPING = 0.85


def _time_repeated(fn, min_seconds: float = 0.2, min_rounds: int = 3) -> float:
    """Best-of-rounds wall-clock time of ``fn`` (repeats until stable)."""
    best = float("inf")
    rounds = 0
    start_all = time.perf_counter()
    while rounds < min_rounds or time.perf_counter() - start_all < min_seconds:
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
        rounds += 1
    return best


def _expand_neighbors_dict(graph, vertex_ids) -> int:
    touched = 0
    for vertex_id in vertex_ids:
        for _target in graph.successors(vertex_id):
            touched += 1
    return touched


def _expand_neighbors_csr(store, vertex_ids) -> int:
    touched = 0
    for vertex_id in vertex_ids:
        for _target in store.successors(vertex_id):
            touched += 1
    return touched


def _pagerank_sweep_dict(graph, vertex_ids) -> dict:
    ranks = {vertex_id: 1.0 for vertex_id in vertex_ids}
    base = 1.0 - DAMPING
    for _ in range(SWEEP_ITERATIONS):
        incoming = {vertex_id: 0.0 for vertex_id in vertex_ids}
        for vertex_id in vertex_ids:
            degree = graph.out_degree(vertex_id)
            if degree == 0:
                continue
            share = ranks[vertex_id] / degree
            for edge in graph.out_edges(vertex_id):
                incoming[edge.target] += share
        ranks = {vertex_id: base + DAMPING * incoming[vertex_id]
                 for vertex_id in vertex_ids}
    return ranks


def _pagerank_sweep_csr(store) -> dict:
    offsets, targets = store.csr_arrays("out")
    n = store.num_vertices
    base = 1.0 - DAMPING
    # The sweep is three whole-array ops per iteration.
    counts = np.diff(offsets).astype(np.int64)
    degree = np.where(counts == 0, 1, counts).astype(np.float64)
    segments = np.repeat(np.arange(n, dtype=np.int64), counts)
    ranks = np.ones(n, dtype=np.float64)
    for _ in range(SWEEP_ITERATIONS):
        share = ranks / degree
        incoming = np.bincount(targets, weights=share[segments], minlength=n)
        ranks = base + DAMPING * incoming
    return {store.id_at(index): float(ranks[index]) for index in range(n)}


def run_storage_comparison(scale: str) -> list[dict]:
    """Time both workloads on both backends; returns report rows."""
    graph = dataset("soc-livejournal", scale).build()
    vertex_ids = graph.vertex_ids()

    freeze_start = time.perf_counter()
    store = CSRGraphStore.from_graph(graph)
    freeze_seconds = time.perf_counter() - freeze_start

    # Equivalence guard: both backends must answer identically.
    assert _expand_neighbors_dict(graph, vertex_ids) == _expand_neighbors_csr(
        store, vertex_ids) == graph.num_edges
    dict_ranks = _pagerank_sweep_dict(graph, vertex_ids)
    csr_ranks = _pagerank_sweep_csr(store)
    assert all(abs(dict_ranks[v] - csr_ranks[v]) < 1e-9 for v in vertex_ids)

    dict_expand = _time_repeated(lambda: _expand_neighbors_dict(graph, vertex_ids))
    csr_expand = _time_repeated(lambda: _expand_neighbors_csr(store, vertex_ids))
    dict_sweep = _time_repeated(lambda: _pagerank_sweep_dict(graph, vertex_ids))
    csr_sweep = _time_repeated(lambda: _pagerank_sweep_csr(store))

    def row(operation: str, dict_seconds: float, csr_seconds: float) -> dict:
        return {
            "operation": operation,
            "dataset": graph.name,
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
            "dict_seconds": dict_seconds,
            "csr_seconds": csr_seconds,
            "speedup": dict_seconds / csr_seconds if csr_seconds else float("inf"),
        }

    return [
        row("neighbor expansion", dict_expand, csr_expand),
        row("pagerank sweep", dict_sweep, csr_sweep),
        {
            "operation": "csr freeze (build cost)",
            "dataset": graph.name,
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
            "dict_seconds": None,
            "csr_seconds": freeze_seconds,
            "speedup": None,
        },
    ]


def test_storage_backend_throughput(benchmark, bench_record):
    # Uses the "small" scale regardless of the session default: the tiny graphs
    # are too small for stable backend timing.
    rows = benchmark.pedantic(
        run_storage_comparison,
        kwargs={"scale": "small"},
        iterations=1, rounds=1,
    )
    print()
    print(format_table(
        rows, title="Storage backends — dict PropertyGraph vs CSRGraphStore"))

    for row in rows:
        if row["speedup"] is not None:
            bench_record(row["operation"], "csr_vs_dict_speedup", row["speedup"])
        else:
            bench_record(row["operation"], "csr_seconds", row["csr_seconds"])
