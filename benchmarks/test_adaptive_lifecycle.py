"""Workload-adaptive view lifecycle under a drifting query mix.

The paper's workload analyzer (§V-B) selects views once for a fixed workload.
This benchmark measures what that costs when the workload *drifts*: the query
mix flips mid-stream from a cheap file-fanout template to the expensive
blast-radius lineage template.  The frozen arm keeps the initial selection
forever; the adaptive arm lets the view lifecycle engine
(:mod:`repro.core.lifecycle`) re-select every few queries from the decayed
workload log.  All assertions are on deterministic traversal-work counters
(``ExecutionStats.total_work``), never wall-clock.

Set ``BENCH_SMOKE=1`` (CI) to shrink the phases while keeping every
assertion — the ≥2x work reduction, the budget-pressure eviction at the flip,
and run-to-run determinism all still gate.
"""

import os

from repro.bench.figures import BLAST_RADIUS_CYPHER, dataset
from repro.core import Kaskade, ViewCostModel
from repro.query import parse_query
from repro.storage.manager import lookup_snapshot
from repro.workloads import run_adaptive_workload

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

#: (phase A queries, phase B queries, adaptation cadence).
PHASE_A, PHASE_B, ADAPT_EVERY = (8, 16, 4) if SMOKE else (12, 48, 8)

#: Space budget in estimated edges.  Chosen so the α=95 estimates of the
#: keep-files-and-jobs summarizer (~300) and the 2-hop job connector (~400)
#: cannot both fit — the flip forces an eviction — while the *calibrated*
#: connector estimate (actual size is ~4x smaller than the α=95 bound)
#: later leaves room for both.
BUDGET_EDGES = 500

#: Phase A template: 2-hop file fan-out (cheap; no view fits the budget
#: until its observed frequency weights the knapsack).
FILE_FANOUT_CYPHER = (
    "MATCH (q_f1:File)-[:IS_READ_BY]->(q_j:Job), "
    "(q_j:Job)-[:WRITES_TO]->(q_f2:File) "
    "RETURN q_f1 AS A, q_f2 AS B"
)


def _drifting_phases():
    phase_a = parse_query(FILE_FANOUT_CYPHER, name="file_fanout")
    phase_b = parse_query(BLAST_RADIUS_CYPHER, name="job_blast")
    return [[phase_a] * PHASE_A, [phase_b] * PHASE_B]


def _run(adaptive: bool):
    graph = dataset("prov-summarized", "tiny").build()
    return run_adaptive_workload(
        graph, _drifting_phases(), budget_edges=BUDGET_EDGES,
        adapt_every=ADAPT_EVERY, adaptive=adaptive)


def test_adaptive_lifecycle_beats_frozen_selection(benchmark):
    frozen = _run(adaptive=False)
    adaptive = benchmark.pedantic(_run, kwargs={"adaptive": True},
                                  iterations=1, rounds=1)

    print()
    print("Drifting workload — frozen initial selection vs adaptive lifecycle:")
    for label, run in (("frozen", frozen), ("adaptive", adaptive)):
        print(f"  {label:9s} phase A work={run.phase_work(0):>8d}  "
              f"phase B work={run.phase_work(1):>8d}  total={run.total_work:>8d}  "
              f"final views={run.final_views}")
    for report in adaptive.adaptations:
        evicted = [f"{e.name} ({e.reason})" for e in report.evicted]
        print(f"  cycle {report.cycle}: materialized={report.materialized} "
              f"evicted={evicted}")

    # The adaptive catalog must finish the drifting stream with at least 2x
    # less total traversal work than the frozen initial selection.
    assert frozen.total_work >= 2 * adaptive.total_work, (
        f"adaptive lifecycle saved less than 2x: frozen={frozen.total_work} "
        f"adaptive={adaptive.total_work}")
    # After the flip the engine must have materialized the blast-radius
    # query's 2-hop connector, and the budget must have forced an eviction.
    assert any("2hop" in name for name in adaptive.final_views)
    assert any("2hop" in name for name in adaptive.materialized_view_names)
    assert adaptive.evicted_view_names, "budget pressure at the flip must evict"
    # The frozen arm never adapts.
    assert frozen.adaptations == []

    # Work counters are deterministic: a re-run reproduces the exact totals
    # and the exact adaptation decisions.
    again = _run(adaptive=True)
    assert again.total_work == adaptive.total_work
    assert [r.materialized for r in again.adaptations] == \
        [r.materialized for r in adaptive.adaptations]
    assert [r.evicted_names for r in again.adaptations] == \
        [r.evicted_names for r in adaptive.adaptations]


def test_calibration_converges_and_eviction_is_complete(tmp_path):
    """Companion pins: calibrated estimates move toward observed values, and
    an evicted view is gone from the catalog, the shared snapshot registry,
    and any later checkpoint."""
    graph = dataset("prov-summarized", "tiny").build()
    kaskade = Kaskade(graph)
    kaskade.enable_adaptive(budget_edges=10 * graph.num_edges, adapt_every=10_000)
    query = kaskade.parse(BLAST_RADIUS_CYPHER, name="job_blast")

    # --- query-cost calibration: estimate moves toward observed work.
    uncalibrated_cost = kaskade.cost_model.query_cost(query)
    outcome = kaskade.execute(query)  # no views yet -> base-graph execution
    observed = outcome.result.stats.total_work
    calibrated_cost = kaskade.cost_model.query_cost(query)
    assert abs(calibrated_cost - observed) < abs(uncalibrated_cost - observed)

    # --- view-size calibration: estimate moves toward the actual size.
    kaskade.select_views([query], budget_edges=10 * graph.num_edges)
    view = next(v for v in kaskade.catalog if "2hop" in v.definition.name)
    uncalibrated_size = ViewCostModel.for_graph(graph).estimator.estimate(
        view.definition).edges
    calibrated_size = kaskade.cost_model.estimator.estimate(view.definition).edges
    actual_size = view.num_edges
    assert abs(calibrated_size - actual_size) < abs(uncalibrated_size - actual_size)

    # --- eviction completeness.
    view_graph = view.graph
    assert lookup_snapshot(view_graph) is not None, "view should be frozen"

    kaskade.evict_view(view.definition)
    assert not kaskade.catalog.contains(view.definition)
    assert lookup_snapshot(view_graph) is None
    assert view.read_store() is view_graph

    # A restore from a checkpoint taken after the eviction can never
    # resurrect the evicted view, and the rewriter never consults it.
    kaskade.persist_views(tmp_path / "views.jsonl")
    restored = Kaskade(graph)
    restored.restore_views(tmp_path / "views.jsonl")
    assert not restored.catalog.contains(view.definition)
    rewrite = restored.rewrite(query)
    assert rewrite is None or rewrite.candidate.definition.signature() != \
        view.definition.signature()
