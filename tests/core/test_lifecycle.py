"""Unit tests for the workload-adaptive view lifecycle engine."""

import pytest

from repro.core import Kaskade, LifecycleConfig, WorkloadLog
from repro.core.lifecycle import CostCalibration
from repro.datasets.provenance import summarized_provenance_graph
from repro.errors import ViewError
from repro.query import parse_query
from repro.storage.persistent import PersistentViewStore
from repro.storage.manager import lookup_snapshot

BLAST_RADIUS = (
    "MATCH (q_j1:Job)-[:WRITES_TO]->(q_f1:File), "
    "(q_f1:File)-[r*0..8]->(q_f2:File), "
    "(q_f2:File)-[:IS_READ_BY]->(q_j2:Job) "
    "RETURN q_j1 AS A, q_j2 AS B"
)

FILE_FANOUT = (
    "MATCH (q_f1:File)-[:IS_READ_BY]->(q_j:Job), "
    "(q_j:Job)-[:WRITES_TO]->(q_f2:File) "
    "RETURN q_f1 AS A, q_f2 AS B"
)


@pytest.fixture(scope="module")
def graph():
    return summarized_provenance_graph(num_jobs=40, seed=7)


class TestWorkloadLog:
    def test_record_accumulates_by_structural_signature(self):
        log = WorkloadLog()
        first = parse_query(FILE_FANOUT, name="one")
        twin = parse_query(FILE_FANOUT, name="two")  # same structure, new name
        log.record(first, observed_work=100, estimated_cost=80)
        entry = log.record(twin, observed_work=200)
        assert len(log) == 1
        assert entry.count == 2.0
        assert entry.samples == 2
        assert 100 < entry.observed_work <= 200  # EWMA between the samples

    def test_decay_prunes_cold_templates(self):
        log = WorkloadLog(decay=0.1, min_count=0.05)
        log.record(parse_query(FILE_FANOUT), observed_work=10)
        log.record(parse_query(BLAST_RADIUS), observed_work=10)
        for _ in range(3):
            log.decay_all()
        assert len(log) == 0

    def test_bounded_entries_evict_coldest(self):
        log = WorkloadLog(max_entries=2)
        hot = parse_query(FILE_FANOUT)
        log.record(hot, observed_work=1)
        log.record(hot, observed_work=1)
        log.record(parse_query(BLAST_RADIUS), observed_work=1)
        third = parse_query("MATCH (a:Job)-[:WRITES_TO]->(b:File) RETURN a")
        log.record(third, observed_work=1)
        assert len(log) == 2
        assert log.entry(hot.structural_signature()) is not None
        assert log.entry(third.structural_signature()) is not None

    def test_weights_are_decayed_frequencies(self):
        log = WorkloadLog(decay=0.5)
        query = parse_query(FILE_FANOUT)
        for _ in range(4):
            log.record(query, observed_work=1)
        log.decay_all()
        assert log.weights() == {query.structural_signature(): 2.0}

    def test_serialization_round_trip(self):
        log = WorkloadLog(decay=0.7, max_entries=32)
        log.record(parse_query(FILE_FANOUT, name="fanout"),
                   observed_work=123, estimated_cost=77)
        log.record(parse_query(BLAST_RADIUS, name="blast"), observed_work=456)
        restored = WorkloadLog.from_dict(log.to_dict())
        assert restored.ticks == log.ticks
        assert restored.decay == log.decay
        assert restored.weights() == log.weights()
        for entry in log.entries():
            twin = restored.entry(entry.signature)
            assert twin is not None
            assert twin.observed_work == entry.observed_work
            assert twin.estimated_cost == entry.estimated_cost
            # The restored query re-parses to the same structural identity.
            assert twin.query.structural_signature() == entry.signature

    def test_invalid_decay_rejected(self):
        with pytest.raises(ValueError):
            WorkloadLog(decay=0.0)


class TestCostCalibration:
    def test_query_factor_moves_toward_observed(self):
        calibration = CostCalibration()
        query = parse_query(FILE_FANOUT)
        assert calibration.query_factor(query) == 1.0
        calibration.observe_query(query, estimated_cost=100, observed_work=300)
        assert calibration.query_factor(query) == pytest.approx(3.0)
        # The EWMA tracks subsequent observations.
        calibration.observe_query(query, estimated_cost=100, observed_work=100)
        assert 1.0 < calibration.query_factor(query) < 3.0

    def test_size_factor_generalizes_across_template(self):
        from repro.views.definitions import ConnectorView

        calibration = CostCalibration()
        two_hop = ConnectorView(name="c2", connector_kind="k_hop_same_vertex_type",
                                source_type="Job", target_type="Job", k=2)
        four_hop = ConnectorView(name="c4", connector_kind="k_hop_same_vertex_type",
                                 source_type="Job", target_type="Job", k=4)
        calibration.observe_view_size(two_hop, estimated_edges=400, actual_edges=100)
        # The sibling (same template, different k) inherits the correction.
        assert calibration.size_factor(four_hop) == pytest.approx(0.25)

    def test_repeated_size_observations_stay_at_actual(self, graph):
        """Regression: observing against the calibrated estimate would
        converge the factor to sqrt(actual/raw); against the raw estimate a
        correct first observation is never degraded by later ones."""
        kaskade = Kaskade(graph)
        engine = kaskade.enable_adaptive(budget_edges=10 * graph.num_edges,
                                         adapt_every=10_000)
        query = parse_query(BLAST_RADIUS, name="blast")
        kaskade.select_views([query], budget_edges=10 * graph.num_edges)
        view = next(v for v in kaskade.catalog if "2hop" in v.definition.name)
        actual = view.num_edges
        first = kaskade.cost_model.estimator.estimate(view.definition).edges
        assert first == pytest.approx(actual)
        for _ in range(3):  # repeated re-materializations of the template
            engine._observe_view_size(view)
        settled = kaskade.cost_model.estimator.estimate(view.definition).edges
        assert settled == pytest.approx(actual)

    def test_factors_clamped(self):
        calibration = CostCalibration(min_factor=0.1, max_factor=10.0)
        query = parse_query(FILE_FANOUT)
        calibration.observe_query(query, estimated_cost=1, observed_work=1_000_000)
        assert calibration.query_factor(query) == 10.0

    def test_serialization_round_trip(self):
        from repro.views.definitions import ConnectorView

        calibration = CostCalibration(smoothing=0.3)
        query = parse_query(BLAST_RADIUS)
        connector = ConnectorView(name="c2", connector_kind="k_hop_same_vertex_type",
                                  source_type="Job", target_type="Job", k=2)
        calibration.observe_query(query, estimated_cost=10, observed_work=25)
        calibration.observe_view_size(connector, estimated_edges=400, actual_edges=96)
        restored = CostCalibration.from_dict(calibration.to_dict())
        assert restored.query_factor(query) == calibration.query_factor(query)
        assert restored.size_factor(connector) == calibration.size_factor(connector)
        assert restored.smoothing == 0.3


class TestLifecycleEngine:
    def test_adapt_materializes_hot_template_views(self, graph):
        kaskade = Kaskade(graph)
        kaskade.enable_adaptive(budget_edges=10 * graph.num_edges, adapt_every=4)
        query = parse_query(BLAST_RADIUS, name="blast")
        adaptations = []
        for _ in range(8):
            outcome = kaskade.execute(query)
            if outcome.adaptation is not None:
                adaptations.append(outcome.adaptation)
        assert adaptations, "the cadence must have triggered at least one cycle"
        assert any("2hop" in name for r in adaptations for name in r.materialized)
        assert any("2hop" in v.definition.name for v in kaskade.catalog)
        # Once the view serves the query, work drops below the raw execution.
        raw = kaskade.execute(query, use_views=False)
        served = kaskade.execute(query)
        assert served.used_view is not None
        assert served.result.stats.total_work < raw.result.stats.total_work

    def test_adapt_evicts_views_of_vanished_templates(self, graph):
        kaskade = Kaskade(graph)
        engine = kaskade.enable_adaptive(
            config=LifecycleConfig(budget_edges=10 * graph.num_edges,
                                   adapt_every=4, decay=0.1, min_count=0.5))
        blast = parse_query(BLAST_RADIUS, name="blast")
        for _ in range(4):
            kaskade.execute(blast)
        assert any("job_to_job" in v.definition.name for v in kaskade.catalog)
        # The template vanishes; aggressive decay ages it out of the log and
        # the next cycles drop its view.
        fanout = parse_query(FILE_FANOUT, name="fanout")
        evicted = []
        for _ in range(12):
            outcome = kaskade.execute(fanout)
            if outcome.adaptation is not None:
                evicted.extend(outcome.adaptation.evicted_names)
        assert any("job_to_job" in name for name in evicted)
        assert not any("job_to_job" in v.definition.name for v in kaskade.catalog)
        assert engine.cycle >= 2

    def test_observe_skips_raw_baseline_executions(self, graph):
        kaskade = Kaskade(graph)
        engine = kaskade.enable_adaptive(budget_edges=1000, adapt_every=100)
        query = parse_query(BLAST_RADIUS)
        kaskade.execute(query, use_views=False)
        assert len(engine.log) == 0
        kaskade.execute(query)
        assert len(engine.log) == 1

    def test_adapt_views_requires_engine(self, graph):
        kaskade = Kaskade(graph)
        with pytest.raises(ViewError):
            kaskade.adapt_views()
        with pytest.raises(ViewError):
            kaskade.enable_adaptive()  # neither budget nor config

    def test_eviction_purges_plan_caches(self, graph):
        kaskade = Kaskade(graph)
        query = parse_query(BLAST_RADIUS, name="blast")
        kaskade.select_views([query], budget_edges=10 * graph.num_edges)
        served = kaskade.execute(query)
        assert served.used_view is not None
        view_graph_name = served.used_view.graph.name
        assert any(key[0] == view_graph_name for key in kaskade._planners)
        assert any(key[1] == view_graph_name for key in kaskade._saved_plans)
        kaskade.evict_view(served.used_view.definition)
        assert not any(key[0] == view_graph_name for key in kaskade._planners)
        assert not any(key[1] == view_graph_name for key in kaskade._saved_plans)
        # Execution falls back to the base graph and stays correct.
        after = kaskade.execute(query)
        assert after.used_view is None or \
            after.used_view.definition.signature() != served.used_view.definition.signature()


class TestAdvisorStatePersistence:
    def _serve(self, kaskade, queries):
        for query in queries:
            kaskade.execute(query)

    def test_restored_engine_reselects_identically(self, graph, tmp_path):
        """Round-trip the advisor state; re-selection must be deterministic
        and equal the pre-restart decision."""
        kaskade = Kaskade(graph)
        engine = kaskade.enable_adaptive(budget_edges=10 * graph.num_edges,
                                         adapt_every=1000)
        blast = parse_query(BLAST_RADIUS, name="blast")
        fanout = parse_query(FILE_FANOUT, name="fanout")
        self._serve(kaskade, [blast, blast, blast, fanout])
        before = engine.adapt()
        kaskade.persist_views(tmp_path / "views.jsonl")

        # "Restart": fresh Kaskade on the same graph, restore views + state.
        resumed = Kaskade(graph)
        resumed_engine = resumed.enable_adaptive(
            budget_edges=10 * graph.num_edges, adapt_every=1000)
        resumed.restore_views(tmp_path / "views.jsonl")
        assert resumed_engine.log.weights() == engine.log.weights()
        after = resumed_engine.adapt()

        selected_before = sorted(a.candidate.definition.signature()
                                 for a in before.selection.selected)
        selected_after = sorted(a.candidate.definition.signature()
                                for a in after.selection.selected)
        assert selected_before == selected_after
        assert sorted(v.definition.name for v in resumed.catalog) == \
            sorted(v.definition.name for v in kaskade.catalog)

    def test_state_dict_round_trip_preserves_calibration(self, graph):
        kaskade = Kaskade(graph)
        engine = kaskade.enable_adaptive(budget_edges=1000, adapt_every=1000)
        query = parse_query(BLAST_RADIUS, name="blast")
        kaskade.execute(query)
        state = engine.state_dict()

        other = Kaskade(graph)
        other_engine = other.enable_adaptive(budget_edges=1000, adapt_every=1000)
        other_engine.load_state(state)
        assert other_engine.calibration.query_factor(query) == \
            engine.calibration.query_factor(query)
        # The cost model sees the restored factors through its own reference.
        assert other.cost_model.query_cost(query) == \
            kaskade.cost_model.query_cost(query)

    def test_restore_without_state_is_noop(self, graph, tmp_path):
        kaskade = Kaskade(graph)
        engine = kaskade.enable_adaptive(budget_edges=1000)
        assert engine.restore(PersistentViewStore(tmp_path / "views.jsonl")) is False


class TestEvictionCompleteness:
    def test_drop_releases_all_artifacts(self, graph, tmp_path):
        kaskade = Kaskade(graph)
        query = parse_query(BLAST_RADIUS, name="blast")
        kaskade.select_views([query], budget_edges=10 * graph.num_edges)
        view = next(v for v in kaskade.catalog if "2hop" in v.definition.name)
        view_graph = view.graph
        assert lookup_snapshot(view_graph) is not None

        kaskade.evict_view(view.definition)
        assert not kaskade.catalog.contains(view.definition)
        assert lookup_snapshot(view_graph) is None
        assert view.read_store() is view_graph

        # A checkpoint taken after the eviction cannot resurrect it.
        kaskade.persist_views(tmp_path / "views.jsonl")
        resumed = Kaskade(graph)
        resumed.restore_views(tmp_path / "views.jsonl")
        assert not resumed.catalog.contains(view.definition)
