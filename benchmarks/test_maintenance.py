"""Benchmark: batched delta maintenance vs full re-materialization.

A production system serving mutating traffic cannot rebuild its views on
every batch of updates.  This benchmark streams a mutation workload into a
provenance-style graph in batches and, after each batch, measures

* **delta** — one :meth:`MaintenanceManager.refresh` pass replaying only the
  batch's change-capture events, and
* **full** — re-materializing every catalog view from scratch (which doubles
  as the differential oracle: after each batch the maintained connector must
  be edge-set-identical to the rebuild).

Asserted on every run: each batch is maintained incrementally and the
maintained views equal the rebuild.  The delta-vs-full speedup on the
10k-edge mutation stream is printed and recorded (``bench_record`` →
``BENCH_maintenance.json``), never asserted: timing is judged by
``perf/run.py compare``, not by per-PR thresholds.

Set ``BENCH_SMOKE=1`` (as CI does) to run a tiny graph/stream.
"""

from __future__ import annotations

import os
import random
import time

from repro.datasets.provenance import summarized_provenance_graph
from repro.views import (
    MaintenanceManager,
    ViewCatalog,
    job_to_job_connector,
    keep_types_summarizer,
    materialize_connector,
    materialize_summarizer,
)
from repro.workloads import generate_edge_mutations

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

if SMOKE:
    NUM_JOBS, NUM_BATCHES, MUTATIONS_PER_BATCH = 40, 3, 40
else:
    NUM_JOBS, NUM_BATCHES, MUTATIONS_PER_BATCH = 2500, 20, 500  # 10k mutations


def edge_set(graph):
    return {(e.source, e.target, e.label) for e in graph.edges()}


def test_delta_refresh_beats_full_rematerialization(bench_record):
    graph = summarized_provenance_graph(num_jobs=NUM_JOBS, seed=29)
    catalog = ViewCatalog()
    connector = catalog.materialize(graph, job_to_job_connector())
    summarizer = catalog.materialize(graph, keep_types_summarizer(["Job"]))
    manager = MaintenanceManager(graph, catalog)
    rng = random.Random(41)

    delta_seconds = 0.0
    full_seconds = 0.0
    mutations = 0
    for _ in range(NUM_BATCHES):
        added, removed = generate_edge_mutations(
            graph, MUTATIONS_PER_BATCH, rng, remove_fraction=0.3)
        mutations += added + removed

        start = time.perf_counter()
        report = manager.refresh()
        delta_seconds += time.perf_counter() - start
        assert report.incremental == len(catalog)

        start = time.perf_counter()
        fresh_connector = materialize_connector(graph, connector.definition)
        fresh_summarizer = materialize_summarizer(graph, summarizer.definition)
        full_seconds += time.perf_counter() - start

        # The rebuild doubles as the differential oracle.
        assert edge_set(connector.graph) == edge_set(fresh_connector)
        assert edge_set(summarizer.graph) == edge_set(fresh_summarizer)

    speedup = full_seconds / max(delta_seconds, 1e-9)
    print(
        f"\n[maintenance] {mutations} mutations in {NUM_BATCHES} batches: "
        f"delta refresh {delta_seconds:.3f}s vs full re-materialization "
        f"{full_seconds:.3f}s -> {speedup:.1f}x"
    )
    bench_record("delta_refresh", "delta_vs_full_speedup", speedup)
    if not SMOKE:
        assert mutations >= 10_000 * 0.9, "stream should be ~10k mutations"


def test_log_bounded_memory_still_correct():
    """Overflowing the change log degrades to re-materialization, not drift."""
    graph = summarized_provenance_graph(num_jobs=30, seed=3)
    catalog = ViewCatalog()
    connector = catalog.materialize(graph, job_to_job_connector())
    manager = MaintenanceManager(graph, catalog, log_capacity=16)
    rng = random.Random(7)
    generate_edge_mutations(graph, 120, rng, remove_fraction=0.3)
    report = manager.refresh()
    assert report.rematerialized == 1
    assert edge_set(connector.graph) == edge_set(
        materialize_connector(graph, connector.definition))
