"""Unit tests for the view catalog and incremental connector maintenance."""

import pytest

from repro.errors import ViewError, ViewNotMaterializedError
from repro.graph import PropertyGraph
from repro.views import (
    ConnectorView,
    MaterializedView,
    ViewCatalog,
    job_to_job_connector,
    keep_types_summarizer,
)
from repro.views.definitions import ViewDefinition
from repro.views.maintenance import ConnectorMaintainer


@pytest.fixture
def lineage() -> PropertyGraph:
    g = PropertyGraph(name="lineage")
    for job in ("j1", "j2", "j3"):
        g.add_vertex(job, "Job")
    for f in ("f1", "f2"):
        g.add_vertex(f, "File")
    g.add_edge("j1", "f1", "WRITES_TO")
    g.add_edge("f1", "j2", "IS_READ_BY")
    g.add_edge("j2", "f2", "WRITES_TO")
    return g


class TestCatalog:
    def test_materialize_and_get(self, lineage):
        catalog = ViewCatalog()
        view = catalog.materialize(lineage, job_to_job_connector())
        assert view.num_edges == 1
        assert view.size == 1
        assert catalog.contains(job_to_job_connector())
        assert catalog.get(job_to_job_connector()) is view
        assert view.creation_seconds >= 0

    def test_find_returns_none_when_missing(self, lineage):
        catalog = ViewCatalog()
        assert catalog.find(job_to_job_connector()) is None

    def test_get_missing_raises(self):
        with pytest.raises(ViewNotMaterializedError):
            ViewCatalog().get(job_to_job_connector())

    def test_drop_and_clear(self, lineage):
        catalog = ViewCatalog()
        catalog.materialize(lineage, job_to_job_connector())
        catalog.materialize(lineage, keep_types_summarizer(["Job"]))
        assert len(catalog) == 2
        catalog.drop(job_to_job_connector())
        assert len(catalog) == 1
        with pytest.raises(ViewNotMaterializedError):
            catalog.drop(job_to_job_connector())
        catalog.clear()
        assert len(catalog) == 0

    def test_drop_returns_the_dropped_view(self, lineage):
        catalog = ViewCatalog()
        view = catalog.materialize(lineage, job_to_job_connector())
        dropped = catalog.drop(job_to_job_connector())
        assert dropped is view
        assert not catalog.contains(job_to_job_connector())

    def test_connectors_and_summarizers_split(self, lineage):
        catalog = ViewCatalog()
        catalog.materialize(lineage, job_to_job_connector())
        catalog.materialize(lineage, keep_types_summarizer(["Job", "File"]))
        assert len(catalog.connectors()) == 1
        assert len(catalog.summarizers()) == 1

    def test_totals(self, lineage):
        catalog = ViewCatalog()
        catalog.materialize(lineage, job_to_job_connector())
        catalog.materialize(lineage, keep_types_summarizer(["Job", "File"]))
        assert catalog.total_size() == sum(v.size for v in catalog)
        assert catalog.total_footprint() > 0

    def test_rematerialize_replaces(self, lineage):
        catalog = ViewCatalog()
        first = catalog.materialize(lineage, job_to_job_connector())
        second = catalog.materialize(lineage, job_to_job_connector())
        assert len(catalog) == 1
        assert catalog.get(job_to_job_connector()) is second
        assert first is not second

    def test_register_external_view(self, lineage):
        catalog = ViewCatalog()
        external = MaterializedView(definition=job_to_job_connector(), graph=lineage)
        catalog.register(external)
        assert catalog.get(job_to_job_connector()) is external

    def test_unknown_definition_type_rejected(self, lineage):
        class Oddball(ViewDefinition):
            @property
            def kind(self):
                return "odd"

            def signature(self):
                return ("odd",)

            def describe(self):
                return "odd"

        with pytest.raises(ViewError):
            ViewCatalog().materialize(lineage, Oddball(name="odd"))


class TestMaintenance:
    def test_edge_added_creates_new_connector_edge(self, lineage):
        catalog = ViewCatalog()
        view = catalog.materialize(lineage, job_to_job_connector())
        assert not view.graph.has_edge("j2", "j3")
        maintainer = ConnectorMaintainer(lineage, view)
        lineage.add_edge("f2", "j3", "IS_READ_BY")
        report = maintainer.on_edge_added("f2", "j3")
        assert report.added_edges == 1
        assert report.changed
        assert view.graph.has_edge("j2", "j3")

    def test_duplicate_paths_bump_path_count(self, lineage):
        catalog = ViewCatalog()
        view = catalog.materialize(lineage, job_to_job_connector())
        maintainer = ConnectorMaintainer(lineage, view)
        # Second parallel 2-hop path from j1 to j2 through a new file.
        lineage.add_vertex("f9", "File")
        lineage.add_edge("j1", "f9", "WRITES_TO")
        maintainer.on_edge_added("j1", "f9")
        lineage.add_edge("f9", "j2", "IS_READ_BY")
        report = maintainer.on_edge_added("f9", "j2")
        assert report.added_edges == 0  # edge already existed; count bumped
        edge = next(view.graph.out_edges("j1", view.definition.output_label
                                         if hasattr(view.definition, "output_label") else None))
        assert edge.get("path_count") == 2

    def test_edge_removed_drops_stale_connector_edges(self, lineage):
        catalog = ViewCatalog()
        view = catalog.materialize(lineage, job_to_job_connector())
        maintainer = ConnectorMaintainer(lineage, view)
        edge = next(e for e in lineage.edges("IS_READ_BY"))
        lineage.remove_edge(edge.id)
        report = maintainer.on_edge_removed(edge.source, edge.target)
        assert report.removed_edges == 1
        assert view.graph.num_edges == 0

    def test_maintained_view_matches_rematerialization(self, lineage):
        catalog = ViewCatalog()
        view = catalog.materialize(lineage, job_to_job_connector())
        maintainer = ConnectorMaintainer(lineage, view)
        lineage.add_edge("f2", "j3", "IS_READ_BY")
        maintainer.on_edge_added("f2", "j3")
        fresh = ViewCatalog().materialize(lineage, job_to_job_connector())
        maintained_edges = {(e.source, e.target) for e in view.graph.edges()}
        fresh_edges = {(e.source, e.target) for e in fresh.graph.edges()}
        assert maintained_edges == fresh_edges

    def test_maintainer_rejects_non_k_hop_views(self, lineage):
        catalog = ViewCatalog()
        view = catalog.materialize(lineage, keep_types_summarizer(["Job"]))
        with pytest.raises(ValueError):
            ConnectorMaintainer(lineage, view)


def labeled_view(k: int = 2) -> ConnectorView:
    return ConnectorView(name="a_only", connector_kind="k_hop", source_type="N",
                         target_type="N", k=k, edge_label="A")


def homogeneous_graph(edges) -> PropertyGraph:
    g = PropertyGraph(name="homogeneous")
    for source, target, _ in edges:
        for vid in (source, target):
            if not g.has_vertex(vid):
                g.add_vertex(vid, "N")
    for source, target, label in edges:
        g.add_edge(source, target, label)
    return g


class TestLabeledMaintenanceBugfixes:
    """Regressions for label-blind insert/delete maintenance.

    Materialization restricts k-hop traversal to ``view.edge_label``
    (``_k_hop_paths`` passes ``labels`` and ``simple=True``); maintenance used
    to ignore labels on insert and check *walks* on delete, so labeled views
    gained spurious contracted edges and kept edges whose only witnesses were
    non-simple or wrongly labeled.
    """

    def test_insert_with_wrong_label_is_ignored(self):
        graph = homogeneous_graph([("n0", "n1", "A")])
        catalog = ViewCatalog()
        view = catalog.materialize(graph, labeled_view())
        maintainer = ConnectorMaintainer(graph, view)
        # Completing a 2-path with a B edge must not create a contracted edge.
        graph.add_vertex("n2", "N")
        graph.add_edge("n1", "n2", "B")
        report = maintainer.on_edge_added("n1", "n2", "B")
        assert not report.changed
        assert view.graph.num_edges == 0

    def test_insert_does_not_expand_through_wrong_label(self):
        graph = homogeneous_graph([("n0", "n1", "B")])
        catalog = ViewCatalog()
        view = catalog.materialize(graph, labeled_view())
        maintainer = ConnectorMaintainer(graph, view)
        # The inserted edge has the right label, but the only joinable prefix
        # hop is a B edge — no all-A 2-hop path exists.
        graph.add_vertex("n2", "N")
        graph.add_edge("n1", "n2", "A")
        report = maintainer.on_edge_added("n1", "n2", "A")
        assert not report.changed
        assert view.graph.num_edges == 0

    def test_insert_with_matching_label_still_maintains(self):
        graph = homogeneous_graph([("n0", "n1", "A")])
        catalog = ViewCatalog()
        view = catalog.materialize(graph, labeled_view())
        maintainer = ConnectorMaintainer(graph, view)
        graph.add_vertex("n2", "N")
        graph.add_edge("n1", "n2", "A")
        report = maintainer.on_edge_added("n1", "n2", "A")
        assert report.added_edges == 1
        assert view.graph.has_edge("n0", "n2")

    def test_delete_ignores_wrong_label_witness(self):
        graph = homogeneous_graph([
            ("n1", "n2", "A"), ("n2", "n3", "A"),   # the real witness
            ("n1", "n4", "B"), ("n4", "n3", "B"),   # a same-length B walk
        ])
        catalog = ViewCatalog()
        view = catalog.materialize(graph, labeled_view())
        assert view.graph.has_edge("n1", "n3")
        maintainer = ConnectorMaintainer(graph, view)
        victim = next(e for e in graph.edges("A") if e.source == "n2")
        graph.remove_edge(victim.id)
        report = maintainer.on_edge_removed("n2", "n3", "A")
        # The label-blind BFS used to find n1 -> n4 -> n3 and keep the edge.
        assert report.removed_edges == 1
        assert not view.graph.has_edge("n1", "n3")

    def test_delete_with_wrong_label_is_a_noop(self):
        graph = homogeneous_graph([
            ("n1", "n2", "A"), ("n2", "n3", "A"), ("n1", "n3", "B"),
        ])
        catalog = ViewCatalog()
        view = catalog.materialize(graph, labeled_view())
        maintainer = ConnectorMaintainer(graph, view)
        victim = next(iter(graph.edges("B")))
        graph.remove_edge(victim.id)
        report = maintainer.on_edge_removed("n1", "n3", "B")
        assert not report.changed
        assert view.graph.has_edge("n1", "n3")


class TestSimplePathDeleteBugfixes:
    def test_delete_ignores_non_simple_walk_witness(self):
        # Simple 3-hop witness u -> a -> b -> v, plus a 2-cycle u <-> x that
        # yields the *walk* u -> x -> u -> v of length 3.
        graph = homogeneous_graph([
            ("u", "a", "A"), ("a", "b", "A"), ("b", "v", "A"),
            ("u", "x", "A"), ("x", "u", "A"), ("u", "v", "A"),
        ])
        definition = ConnectorView(name="three", connector_kind="k_hop",
                                   source_type="N", target_type="N", k=3)
        catalog = ViewCatalog()
        view = catalog.materialize(graph, definition)
        assert view.graph.has_edge("u", "v")
        maintainer = ConnectorMaintainer(graph, view)
        victim = next(e for e in graph.edges() if (e.source, e.target) == ("a", "b"))
        graph.remove_edge(victim.id)
        maintainer.on_edge_removed("a", "b", "A")
        # The walk-based check used to keep (u, v) on the u->x->u->v walk.
        fresh = ViewCatalog().materialize(graph, definition)
        assert ({(e.source, e.target) for e in view.graph.edges()}
                == {(e.source, e.target) for e in fresh.graph.edges()})
        assert not view.graph.has_edge("u", "v")

    def test_closed_witness_still_accepted(self):
        # allow_closing: x -> y -> x contracts to a self-loop (x, x); the
        # simple-path staleness check must keep accepting that shape.
        graph = homogeneous_graph([
            ("x", "y", "A"), ("y", "x", "A"), ("x", "z", "A"), ("z", "x", "A"),
        ])
        definition = ConnectorView(name="two", connector_kind="k_hop",
                                   source_type="N", target_type="N", k=2)
        catalog = ViewCatalog()
        view = catalog.materialize(graph, definition)
        assert view.graph.has_edge("x", "x")
        maintainer = ConnectorMaintainer(graph, view)
        victim = next(e for e in graph.edges() if (e.source, e.target) == ("x", "y"))
        graph.remove_edge(victim.id)
        maintainer.on_edge_removed("x", "y", "A")
        # The x -> z -> x witness survives, so the self-loop must too.
        assert view.graph.has_edge("x", "x")

    def test_delete_only_examines_the_removed_edges_neighborhood(self, lineage):
        # Two disconnected lineage chains; removing an edge in one must not
        # re-check contracted edges of the other.
        for jid in ("ja", "jb"):
            lineage.add_vertex(jid, "Job")
        lineage.add_vertex("fz", "File")
        lineage.add_edge("ja", "fz", "WRITES_TO")
        lineage.add_edge("fz", "jb", "IS_READ_BY")
        catalog = ViewCatalog()
        view = catalog.materialize(lineage, job_to_job_connector())
        maintainer = ConnectorMaintainer(lineage, view)
        checked: list[tuple] = []
        original = maintainer._k_hop_path_exists

        def spy(source, target, k):
            checked.append((source, target))
            return original(source, target, k)

        maintainer._k_hop_path_exists = spy
        victim = next(e for e in lineage.edges("IS_READ_BY") if e.target == "j2")
        lineage.remove_edge(victim.id)
        maintainer.on_edge_removed(victim.source, victim.target, victim.label)
        assert checked  # the affected neighborhood was examined ...
        assert ("ja", "jb") not in checked  # ... the far component was not
