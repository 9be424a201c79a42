"""Unit tests for view-based query rewriting (§V-C, Listing 1 → Listing 4)."""

import pytest

from repro.core import QueryRewriter, ViewCandidate, ViewEnumerator
from repro.graph import PropertyGraph, provenance_schema
from repro.query import QueryExecutor, parse_query
from repro.views import ConnectorView, ViewCatalog, job_to_job_connector, keep_types_summarizer

BLAST_RADIUS = (
    "MATCH (q_j1:Job)-[:WRITES_TO]->(q_f1:File), "
    "(q_f1:File)-[r*0..8]->(q_f2:File), "
    "(q_f2:File)-[:IS_READ_BY]->(q_j2:Job) "
    "RETURN q_j1 AS A, q_j2 AS B"
)


def make_candidate(definition, source="q_j1", target="q_j2", query_name="blast-radius"):
    return ViewCandidate(definition=definition, template="manual",
                         source_variable=source, target_variable=target,
                         query_name=query_name)


@pytest.fixture
def schema():
    return provenance_schema(include_tasks=False)


@pytest.fixture
def rewriter(schema):
    return QueryRewriter(schema)


@pytest.fixture
def blast_radius():
    return parse_query(BLAST_RADIUS, name="blast-radius")


class TestConnectorRewrites:
    def test_listing4_shape(self, rewriter, blast_radius):
        """The blast radius query rewrites to a single connector-label pattern
        with divided hop bounds (Listing 4)."""
        rewrite = rewriter.rewrite(blast_radius, make_candidate(job_to_job_connector()))
        assert rewrite is not None
        rewritten = rewrite.rewritten
        assert len(rewritten.match) == 1
        pattern = rewritten.match[0]
        assert [n.label for n in pattern.nodes] == ["Job", "Job"]
        assert pattern.edges[0].label == job_to_job_connector().output_label
        assert (pattern.edges[0].min_hops, pattern.edges[0].max_hops) == (1, 5)
        assert rewrite.hop_bounds == (1, 5)
        # Projections survive untouched.
        assert [item.alias for item in rewritten.returns] == ["A", "B"]

    def test_larger_k_rejected_when_not_covering(self, rewriter, blast_radius):
        """A 4-hop connector cannot cover 2-hop raw paths, so the rewrite is refused."""
        for k in (4, 6, 8, 10):
            assert rewriter.rewrite(blast_radius, make_candidate(job_to_job_connector(k))) is None

    def test_exact_length_fragment_allows_matching_k(self, rewriter):
        query = parse_query(
            "MATCH (a:Job)-[:WRITES_TO]->(f1:File), (f1)-[*2..2]->(f2:File), "
            "(f2)-[:IS_READ_BY]->(b:Job) RETURN a, b", name="exact4")
        rewrite = rewriter.rewrite(query, make_candidate(job_to_job_connector(4),
                                                         source="a", target="b",
                                                         query_name="exact4"))
        assert rewrite is not None
        assert rewrite.hop_bounds == (1, 1)

    def test_rewrite_refused_when_interior_is_projected(self, rewriter):
        query = parse_query(
            "MATCH (a:Job)-[:WRITES_TO]->(f:File), (f)-[:IS_READ_BY]->(b:Job) "
            "RETURN a, f, b", name="uses-interior")
        candidate = make_candidate(job_to_job_connector(), source="a", target="b",
                                   query_name="uses-interior")
        assert rewriter.rewrite(query, candidate) is None

    def test_rewrite_refused_when_interior_in_where(self, rewriter):
        query = parse_query(
            "MATCH (a:Job)-[:WRITES_TO]->(f:File), (f)-[:IS_READ_BY]->(b:Job) "
            "WHERE f.size > 10 RETURN a, b", name="where-interior")
        candidate = make_candidate(job_to_job_connector(), source="a", target="b",
                                   query_name="where-interior")
        assert rewriter.rewrite(query, candidate) is None

    def test_variable_length_connector_not_used_automatically(self, rewriter, blast_radius):
        view = ConnectorView(name="j2j", connector_kind="same_vertex_type",
                             source_type="Job", max_hops=10)
        assert rewriter.rewrite(blast_radius, make_candidate(view)) is None

    def test_missing_variables_rejected(self, rewriter, blast_radius):
        candidate = make_candidate(job_to_job_connector(), source="ghost", target="q_j2")
        assert rewriter.rewrite(blast_radius, candidate) is None
        candidate = make_candidate(job_to_job_connector(), source=None, target=None)
        assert rewriter.rewrite(blast_radius, candidate) is None

    def test_reverse_direction_chain_not_rewritten(self, rewriter):
        query = parse_query(
            "MATCH (a:Job)<-[:IS_READ_BY]-(f:File) RETURN a, f", name="rev")
        candidate = make_candidate(job_to_job_connector(), source="a", target="f",
                                   query_name="rev")
        assert rewriter.rewrite(query, candidate) is None

    def test_without_schema_requires_exact_multiples(self, blast_radius):
        bare = QueryRewriter()  # no schema: conservative fallback
        assert bare.rewrite(blast_radius, make_candidate(job_to_job_connector())) is None
        exact = parse_query(
            "MATCH (a:Job)-[:WRITES_TO]->(f:File), (f)-[:IS_READ_BY]->(b:Job) "
            "RETURN a, b", name="exact2")
        rewrite = bare.rewrite(exact, make_candidate(job_to_job_connector(),
                                                     source="a", target="b",
                                                     query_name="exact2"))
        assert rewrite is not None
        assert rewrite.hop_bounds == (1, 1)

    def test_prefix_and_suffix_preserved(self, rewriter):
        # Connector covers only the middle file-to-file fragment; the job hops
        # on either side must remain in the rewritten pattern.
        query = parse_query(
            "MATCH (a:Job)-[:WRITES_TO]->(f1:File), (f1)-[*0..4]->(f2:File), "
            "(f2)-[:IS_READ_BY]->(b:Job) RETURN a, b", name="middle")
        view = ConnectorView(name="f2f", connector_kind="k_hop_same_vertex_type",
                             source_type="File", target_type="File", k=2)
        candidate = make_candidate(view, source="f1", target="f2", query_name="middle")
        rewrite = rewriter.rewrite(query, candidate)
        assert rewrite is None or rewrite.rewritten.match[0].length == 3
        # f1/f2 are not projected, so the fragment is rewritable; hop bounds 0..4
        # include length 0 which a connector cannot represent -> refused.

    def test_runs_on_view_only_when_every_edge_is_the_connector(self, rewriter,
                                                                blast_radius):
        full = rewriter.rewrite(blast_radius, make_candidate(job_to_job_connector()))
        assert full.runs_on_view
        # Mixed: a raw WRITES_TO hop stays beside the connector edge.
        query = parse_query(
            "MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job)"
            "-[:WRITES_TO]->(h:File) RETURN a, b, h", name="mixed")
        mixed = rewriter.rewrite(query, make_candidate(job_to_job_connector(), source="a",
                                                       target="b", query_name="mixed"))
        assert mixed is not None
        assert not mixed.runs_on_view

    def test_applicable_filters_invalid_candidates(self, rewriter, blast_radius):
        candidates = [
            make_candidate(job_to_job_connector(2)),
            make_candidate(job_to_job_connector(4)),
        ]
        rewrites = rewriter.applicable(blast_radius, candidates)
        assert len(rewrites) == 1
        assert rewrites[0].candidate.definition.k == 2


class TestSummarizerRewrites:
    def test_summarizer_rewrite_keeps_query_text(self, rewriter, blast_radius):
        candidate = make_candidate(keep_types_summarizer(["Job", "File"]),
                                   source=None, target=None)
        rewrite = rewriter.rewrite(blast_radius, candidate)
        assert rewrite is not None
        assert rewrite.rewritten.match == blast_radius.match
        assert rewrite.view_label == candidate.definition.name
        assert rewrite.runs_on_view

    def test_summarizer_rewrite_refused_when_types_missing(self, rewriter, blast_radius):
        candidate = make_candidate(keep_types_summarizer(["Job"]), source=None, target=None)
        assert rewriter.rewrite(blast_radius, candidate) is None

    def test_edge_removal_summarizer(self, rewriter, blast_radius):
        from repro.views import SummarizerView
        ok = SummarizerView(name="drop_spawns", summarizer_kind="edge_removal",
                            edge_labels=("SPAWNS",))
        bad = SummarizerView(name="drop_writes", summarizer_kind="edge_removal",
                             edge_labels=("WRITES_TO",))
        assert rewriter.rewrite(blast_radius, make_candidate(ok, None, None)) is not None
        assert rewriter.rewrite(blast_radius, make_candidate(bad, None, None)) is None


class TestRewriteEquivalence:
    """Rewritten queries return the same (set of) results as the originals."""

    def _lineage_graph(self) -> PropertyGraph:
        g = PropertyGraph(name="lineage")
        for j in range(6):
            g.add_vertex(f"j{j}", "Job", cpu=float(j))
        for f in range(6):
            g.add_vertex(f"f{f}", "File")
        for j in range(5):
            g.add_edge(f"j{j}", f"f{j}", "WRITES_TO")
            g.add_edge(f"f{j}", f"j{j + 1}", "IS_READ_BY")
        g.add_edge("j0", "f5", "WRITES_TO")
        g.add_edge("f5", "j3", "IS_READ_BY")
        return g

    def test_blast_radius_equivalence(self, rewriter, blast_radius):
        graph = self._lineage_graph()
        candidate = make_candidate(job_to_job_connector())
        rewrite = rewriter.rewrite(blast_radius, candidate)
        catalog = ViewCatalog()
        view = catalog.materialize(graph, candidate.definition)

        raw_rows = QueryExecutor(graph).execute(blast_radius).rows
        view_rows = QueryExecutor(view.graph).execute(rewrite.rewritten).rows
        raw_pairs = {(r["A"], r["B"]) for r in raw_rows}
        view_pairs = {(r["A"], r["B"]) for r in view_rows}
        assert raw_pairs == view_pairs
        assert raw_pairs  # non-trivial

    def test_equivalence_via_enumerated_candidate(self, blast_radius, schema):
        graph = self._lineage_graph()
        enumerator = ViewEnumerator(schema)
        rewriter = QueryRewriter(schema)
        two_hop = next(c for c in enumerator.enumerate(blast_radius).connectors
                       if getattr(c.definition, "k", None) == 2)
        rewrite = rewriter.rewrite(blast_radius, two_hop)
        assert rewrite is not None
        catalog = ViewCatalog()
        view = catalog.materialize(graph, two_hop.definition)
        raw = {(r["A"], r["B"]) for r in QueryExecutor(graph).execute(blast_radius).rows}
        opt = {(r["A"], r["B"])
               for r in QueryExecutor(view.graph).execute(rewrite.rewritten).rows}
        assert raw == opt
