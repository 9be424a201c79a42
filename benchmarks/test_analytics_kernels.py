"""Benchmark: the two analytics tiers — vectorized CSR kernels vs reference.

The kernel value claim: once a graph is frozen to CSR, the workload's
traversal analytics must do their work in interned integer space as
whole-array numpy operations — bulk k-hop neighbourhoods as one multi-source
sweep, label propagation as one segmented vote per pass over a once-built
undirected adjacency with integer-rank tie-breaks — instead of re-walking
``VertexId``-keyed dicts per vertex.

Deterministic gates (asserted on every run, on any machine):

* the kernels answer row-identically to the dict reference;
* the bulk sweep consumes exactly the adjacency entries the reference
  fetches (``KernelStats.traversal_edges`` vs an instrumented store);
* the reference label propagation re-fetches the undirected adjacency from
  the store on *every* pass, while the kernel pulls it exactly once — at
  least a ``MIN_STORE_READ_REDUCTION``x store-read reduction;
* the vectorized tier replaces at least ``MIN_VECTOR_STEP_REDUCTION``
  interpreted per-edge steps per whole-array operation
  (``traversal_edges / batched_ops``).

Wall-clock numbers are printed and recorded (``bench_record`` →
``BENCH_analytics_kernels.json``), never asserted: timing is judged by
``perf/run.py compare`` against the ledger, not by per-PR thresholds.
``BENCH_SMOKE=1`` (as CI does) shrinks the graphs.
"""

from __future__ import annotations

import os
import time
from typing import Iterable

from repro.analytics import bulk_k_hop_counts, label_propagation
from repro.analytics import kernels
from repro.datasets.provenance import summarized_provenance_graph
from repro.graph.property_graph import PropertyGraph, VertexId
from repro.storage.base import PropertyGraphStore
from repro.storage.csr import CSRGraphStore

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

#: Required store-adjacency-read advantage of the label-propagation kernel
#: (asserted always — the counters are deterministic).
MIN_STORE_READ_REDUCTION = 3.0
#: Required interpreted-steps-per-batched-op advantage of the vectorized tier
#: (asserted always — both counters are deterministic).
MIN_VECTOR_STEP_REDUCTION = 5.0

NUM_JOBS = 150 if SMOKE else 1200
#: The step-reduction test runs on a larger graph than the timed
#: kernel-vs-reference tests: whole-array operations amortize fixed per-hop
#: costs, so steps-per-op is a function of frontier width — and the
#: reference (best-of-N there, run once here) would dominate the runtime of
#: the smaller tests if they shared this size.
TIER_NUM_JOBS = NUM_JOBS if SMOKE else 15000
LINEAGE_HOPS = 4
LP_PASSES = 8 if SMOKE else 25


class CountingStore(PropertyGraphStore):
    """Store adapter that counts adjacency entries fetched from the graph."""

    def __init__(self, graph: PropertyGraph) -> None:
        super().__init__(graph)
        self.adjacency_reads = 0

    def successors(self, vertex_id: VertexId, label: str | None = None
                   ) -> Iterable[VertexId]:
        for target in self.graph.successors(vertex_id, label):
            self.adjacency_reads += 1
            yield target

    def predecessors(self, vertex_id: VertexId, label: str | None = None
                     ) -> Iterable[VertexId]:
        for source in self.graph.predecessors(vertex_id, label):
            self.adjacency_reads += 1
            yield source


def _time_best(fn, min_seconds: float = 0.05, min_rounds: int = 3) -> float:
    """Best-of-rounds wall-clock time of ``fn``."""
    best = float("inf")
    rounds = 0
    start_all = time.perf_counter()
    while rounds < min_rounds or time.perf_counter() - start_all < min_seconds:
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
        rounds += 1
    return best


def test_bulk_k_hop_kernel_beats_per_vertex_reference(monkeypatch, bench_record):
    graph = summarized_provenance_graph(num_jobs=NUM_JOBS, seed=17)
    store = CSRGraphStore.from_graph(graph)

    def reference():
        return bulk_k_hop_counts(graph, LINEAGE_HOPS, direction="in",
                                 anchor_type="Job", vertex_type="Job")

    def kernel():
        return kernels.bulk_k_hop_counts(store, LINEAGE_HOPS, direction="in",
                                         anchor_type="Job", vertex_type="Job")

    with monkeypatch.context() as patch:
        patch.setenv(kernels.FORCE_REFERENCE_ENV, "1")
        # Differential identity first — a fast wrong answer is no answer.
        reference_counts = reference()
        assert reference_counts == kernel()

        # The kernel scans exactly the edges the reference fetches: the bulk
        # sweep saves constant factors, never coverage.
        counting = CountingStore(graph)
        bulk_k_hop_counts(counting, LINEAGE_HOPS, direction="in",
                          anchor_type="Job", vertex_type="Job")
        stats = kernels.KernelStats()
        kernels.bulk_k_hop_counts(store, LINEAGE_HOPS, direction="in",
                                  anchor_type="Job", vertex_type="Job",
                                  stats=stats)
        assert stats.traversal_edges == counting.adjacency_reads

        reference_seconds = _time_best(reference)
    kernel_seconds = _time_best(kernel)
    reduction = reference_seconds / max(kernel_seconds, 1e-9)
    print(f"\n[kernels] bulk {LINEAGE_HOPS}-hop over {len(reference_counts)} "
          f"anchors ({graph.num_vertices}V/{graph.num_edges}E): "
          f"reference {reference_seconds * 1000:.1f}ms vs kernel "
          f"{kernel_seconds * 1000:.1f}ms -> {reduction:.1f}x")
    bench_record("bulk_k_hop", "kernel_vs_reference_speedup", reduction)


def test_label_propagation_kernel_reduces_store_reads_and_time(
        monkeypatch, bench_record):
    graph = summarized_provenance_graph(num_jobs=NUM_JOBS, seed=17)
    store = CSRGraphStore.from_graph(graph)

    def reference():
        return label_propagation(graph, passes=LP_PASSES, write_property=None)

    def kernel():
        return kernels.label_propagation(store, passes=LP_PASSES,
                                         write_property=None)

    with monkeypatch.context() as patch:
        patch.setenv(kernels.FORCE_REFERENCE_ENV, "1")
        assert reference() == kernel()

        # Deterministic claim (holds in CI): the reference re-fetches the
        # undirected adjacency from the store every pass; the kernel pulls it
        # once into CSR slices and reads labels as array entries thereafter.
        # A fresh store makes the kernel pay (and account) its one build.
        counting = CountingStore(graph)
        label_propagation(counting, passes=LP_PASSES, write_property=None)
        stats = kernels.KernelStats()
        kernels.label_propagation(CSRGraphStore.from_graph(graph),
                                  passes=LP_PASSES, write_property=None,
                                  stats=stats)
        read_reduction = counting.adjacency_reads / max(stats.store_reads, 1)
        print(f"\n[kernels] label propagation x{stats.passes} passes: "
              f"reference store reads {counting.adjacency_reads} vs kernel "
              f"{stats.store_reads} -> {read_reduction:.1f}x")
        assert read_reduction >= MIN_STORE_READ_REDUCTION, (
            f"label-propagation kernel should cut store adjacency reads >= "
            f"{MIN_STORE_READ_REDUCTION}x, got {read_reduction:.1f}x")

        reference_seconds = _time_best(reference)
    kernel_seconds = _time_best(kernel)
    reduction = reference_seconds / max(kernel_seconds, 1e-9)
    print(f"[kernels] label propagation x{LP_PASSES} "
          f"({graph.num_vertices}V/{graph.num_edges}E): reference "
          f"{reference_seconds * 1000:.1f}ms vs kernel "
          f"{kernel_seconds * 1000:.1f}ms -> {reduction:.1f}x")
    bench_record("label_propagation", "kernel_vs_reference_speedup", reduction)


def test_vectorized_tier_step_reduction(monkeypatch, bench_record):
    """At scale the vectorized tier answers row-identically to the reference
    and replaces >= ``MIN_VECTOR_STEP_REDUCTION`` interpreted per-edge steps
    per whole-array operation (deterministic counters)."""
    graph = summarized_provenance_graph(num_jobs=TIER_NUM_JOBS, seed=17)
    store = CSRGraphStore.from_graph(graph)

    def run_bulk(stats=None):
        return kernels.bulk_k_hop_counts(store, LINEAGE_HOPS, direction="in",
                                         anchor_type="Job", vertex_type="Job",
                                         stats=stats)

    def run_lp(stats=None):
        return kernels.label_propagation(store, passes=LP_PASSES,
                                         write_property=None, stats=stats)

    stats = kernels.KernelStats()
    vectorized_bulk, vectorized_lp = run_bulk(stats), run_lp(stats)
    timings = {"vectorized": (_time_best(run_bulk), _time_best(run_lp))}
    with monkeypatch.context() as patch:
        patch.setenv(kernels.FORCE_REFERENCE_ENV, "1")
        # The reference exists for identity, not for a race: one timed run
        # each (best-of-N rounds on it would dominate the whole benchmark).
        start = time.perf_counter()
        reference_bulk = bulk_k_hop_counts(graph, LINEAGE_HOPS, direction="in",
                                           anchor_type="Job", vertex_type="Job")
        reference_bulk_seconds = time.perf_counter() - start
        start = time.perf_counter()
        reference_lp = label_propagation(graph, passes=LP_PASSES,
                                         write_property=None)
        timings["reference"] = (reference_bulk_seconds,
                                time.perf_counter() - start)

    assert vectorized_bulk == reference_bulk
    assert vectorized_lp == reference_lp

    # An edge-at-a-time traversal pays one interpreted iteration per
    # traversal edge; the vectorized tier pays one per whole-array op.
    assert stats.batched_ops > 0
    step_reduction = stats.traversal_edges / stats.batched_ops
    print(f"\n[tiers] vectorized tier: {stats.traversal_edges} per-edge "
          f"steps collapsed into {stats.batched_ops} whole-array "
          f"ops -> {step_reduction:.1f} steps/op")
    assert step_reduction >= MIN_VECTOR_STEP_REDUCTION, (
        f"vectorized kernels should replace >= {MIN_VECTOR_STEP_REDUCTION} "
        f"interpreted steps per whole-array op, got {step_reduction:.1f}")

    for tier, (bulk_seconds, lp_seconds) in timings.items():
        bench_record("analytics_tiers", f"bulk_k_hop_seconds_{tier}",
                     bulk_seconds)
        bench_record("analytics_tiers", f"label_propagation_seconds_{tier}",
                     lp_seconds)
    bench_record("analytics_tiers", "interpreter_steps_per_batched_op",
                 step_reduction)
    print(f"[tiers] bulk {LINEAGE_HOPS}-hop: reference "
          f"{timings['reference'][0] * 1000:.1f}ms vs vectorized "
          f"{timings['vectorized'][0] * 1000:.1f}ms; label propagation: "
          f"reference {timings['reference'][1] * 1000:.1f}ms vs vectorized "
          f"{timings['vectorized'][1] * 1000:.1f}ms")
