"""View-based query rewriting (§V-C).

Given a query and a materialized connector view, the rewriter replaces the
path fragment between the view's endpoint variables with a single (possibly
variable-length) edge pattern over the connector's output label, dividing the
hop bounds by the connector's k.  This is exactly the Listing 1 → Listing 4
transformation: the job blast radius query over the raw graph becomes a query
over the job-to-job 2-hop connector with (roughly) half the hops.

The rewriter is conservative: a rewrite is produced only when the replaced
fragment's interior variables are not referenced anywhere else in the query
(WHERE, RETURN, or other MATCH paths), so the rewritten query is equivalent to
the original by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.templates import ViewCandidate
from repro.errors import ViewError
from repro.graph.schema import GraphSchema
from repro.query.ast import (
    EdgePattern,
    GraphQuery,
    NodePattern,
    PathPattern,
)
from repro.views.definitions import ConnectorView, SummarizerView


@dataclass(frozen=True)
class RewrittenQuery:
    """The result of rewriting a query against one view."""

    original: GraphQuery
    rewritten: GraphQuery
    candidate: ViewCandidate
    hop_bounds: tuple[int, int]

    @property
    def view_label(self) -> str:
        definition = self.candidate.definition
        if isinstance(definition, ConnectorView):
            return definition.output_label
        return definition.name

    @property
    def runs_on_view(self) -> bool:
        """Whether the rewritten query runs wholly on the view's graph.

        Summarizer rewrites always do.  A connector rewrite does when every
        edge pattern uses the connector's output label; a *mixed* rewrite
        keeps raw hops beside the connector edge, needs the base graph too,
        and is therefore never executed.
        """
        definition = self.candidate.definition
        if isinstance(definition, SummarizerView):
            return True
        return all(edge.label == definition.output_label
                   for edge in self.rewritten.edge_patterns())


@dataclass
class _Chain:
    """A linearized MATCH clause: nodes[i] -(edges[i])-> nodes[i+1]."""

    nodes: list[NodePattern] = field(default_factory=list)
    edges: list[EdgePattern] = field(default_factory=list)

    def variable_index(self, variable: str) -> int | None:
        for index, node in enumerate(self.nodes):
            if node.variable == variable:
                return index
        return None


def _linearize(query: GraphQuery) -> _Chain | None:
    """Merge the query's path patterns into one linear chain if possible.

    Paths are stitched together on shared endpoint variables (the last node of
    one path being the first node of another), which covers the workload
    queries of Table IV.  Returns None for non-linear patterns.
    """
    fragments: list[PathPattern] = list(query.match)
    if not fragments:
        return None
    chain = _Chain(nodes=list(fragments[0].nodes), edges=list(fragments[0].edges))
    remaining = fragments[1:]
    progress = True
    while remaining and progress:
        progress = False
        for index, fragment in enumerate(remaining):
            if fragment.nodes[0].variable == chain.nodes[-1].variable:
                chain.nodes.extend(fragment.nodes[1:])
                chain.edges.extend(fragment.edges)
                remaining.pop(index)
                progress = True
                break
            if fragment.nodes[-1].variable == chain.nodes[0].variable:
                chain.nodes = list(fragment.nodes[:-1]) + chain.nodes
                chain.edges = list(fragment.edges) + chain.edges
                remaining.pop(index)
                progress = True
                break
    if remaining:
        return None
    # Reject chains whose edges point "backwards": rewriting only handles
    # uniformly forward chains (all the workload queries are of this form).
    if any(edge.direction == "in" for edge in chain.edges):
        return None
    return chain


def _referenced_variables(query: GraphQuery) -> set[str]:
    """Variables referenced outside the MATCH clause (WHERE + RETURN)."""
    referenced: set[str] = set()
    for condition in query.where:
        referenced.add(condition.ref.variable)
    for item in query.returns:
        if item.ref.variable != "*":
            referenced.add(item.ref.variable)
    return referenced


class QueryRewriter:
    """Rewrites queries over connector and summarizer views.

    Args:
        schema: Optional graph schema.  With a schema, the rewriter checks that
            every schema-feasible raw path length spanned by the replaced
            fragment is a multiple of the connector's k (so no results are
            lost); without one, it falls back to a conservative divisibility
            check on the hop bounds.
    """

    def __init__(self, schema: GraphSchema | None = None) -> None:
        self.schema = schema

    def rewrite(self, query: GraphQuery, candidate: ViewCandidate) -> RewrittenQuery | None:
        """Rewrite ``query`` using ``candidate``; returns None when not applicable."""
        definition = candidate.definition
        if isinstance(definition, ConnectorView):
            return self._rewrite_connector(query, candidate, definition)
        if isinstance(definition, SummarizerView):
            return self._rewrite_summarizer(query, candidate, definition)
        raise ViewError(f"cannot rewrite with view of type {type(definition)!r}")

    # ------------------------------------------------------------- connectors
    def _rewrite_connector(self, query: GraphQuery, candidate: ViewCandidate,
                           view: ConnectorView) -> RewrittenQuery | None:
        if view.k is None:
            # Only k-hop connectors support automatic equivalence-preserving
            # rewrites: with a known k, "h raw hops" maps exactly to "h / k view
            # hops".  Variable-length (same-vertex-type) and source-to-sink
            # connectors contract paths of unknown length, so a hop-bounded
            # query over them would not be equivalent; they remain available
            # for manual use (and the paper's experiments likewise rewrite
            # over fixed 2-hop connectors only).
            return None
        if candidate.source_variable is None or candidate.target_variable is None:
            return None
        chain = _linearize(query)
        if chain is None:
            return None
        start = chain.variable_index(candidate.source_variable)
        end = chain.variable_index(candidate.target_variable)
        if start is None or end is None or start >= end:
            return None

        interior = {node.variable for node in chain.nodes[start + 1:end]}
        if interior & _referenced_variables(query):
            return None  # the fragment's interior is observable; cannot contract it

        min_hops = sum(edge.min_hops for edge in chain.edges[start:end])
        max_hops = sum(edge.max_hops for edge in chain.edges[start:end])
        k = view.k
        assert k is not None
        if max_hops < k:
            return None  # the view contracts more hops than the query can span
        bounds = self._covering_bounds(view, min_hops, max_hops, k)
        if bounds is None:
            return None
        new_min, new_max = bounds

        connector_edge = EdgePattern(
            label=view.output_label,
            direction="out",
            min_hops=new_min,
            max_hops=new_max,
        )
        new_nodes = chain.nodes[: start + 1] + chain.nodes[end:]
        new_edges = chain.edges[:start] + [connector_edge] + chain.edges[end:]
        rewritten_match = (PathPattern(nodes=tuple(new_nodes), edges=tuple(new_edges)),)

        rewritten = GraphQuery(
            match=rewritten_match,
            where=query.where,
            returns=query.returns,
            distinct=query.distinct,
            limit=query.limit,
            name=f"{query.name}@{view.name}" if query.name else f"rewritten@{view.name}",
        )
        return RewrittenQuery(original=query, rewritten=rewritten, candidate=candidate,
                              hop_bounds=(new_min, new_max))

    def _covering_bounds(self, view: ConnectorView, min_hops: int, max_hops: int,
                         k: int) -> tuple[int, int] | None:
        """View-hop bounds that cover every feasible raw path length, or None.

        A k-hop connector rewrite is equivalence-preserving only if every raw
        path length the query could match (between the connector's endpoint
        types, within [min_hops, max_hops]) is a multiple of k — otherwise
        results reached via non-multiple lengths would be lost.  The schema
        tells us which lengths are feasible (e.g. only even lengths between
        two jobs in the lineage schema), exactly the implicit constraint
        §IV-A2 mines.
        """
        low = max(min_hops, 1)
        if self.schema is not None and view.source_type and (view.target_type or
                                                             view.source_type):
            target_type = view.target_type or view.source_type
            feasible = [
                length for length in range(low, max_hops + 1)
                if self.schema.has_k_hop_path(view.source_type, target_type, length)
            ]
            if not feasible:
                return None
            if any(length % k for length in feasible):
                return None
            return max(1, min(feasible) // k), max(feasible) // k
        # Without a schema we cannot rule out intermediate lengths, so only a
        # fragment whose every possible length is trivially a multiple of k is
        # rewritable: either k = 1, or the fragment has a single fixed length.
        if k == 1:
            return max(1, low), max_hops
        if low == max_hops and low % k == 0:
            return low // k, low // k
        return None

    # ------------------------------------------------------------ summarizers
    def _rewrite_summarizer(self, query: GraphQuery, candidate: ViewCandidate,
                            view: SummarizerView) -> RewrittenQuery | None:
        """A summarizer rewrite keeps the query text but retargets it to the view.

        The rewrite is valid when every vertex type the query references
        survives the summarizer (inclusion keeps them / removal does not drop
        them), and — for edge filters — every edge label referenced survives.
        """
        used_types = {
            node.label for node in query.node_patterns() if node.label is not None
        }
        used_labels = {
            edge.label for edge in query.edge_patterns() if edge.label is not None
        }
        kind = view.summarizer_kind
        if kind == "vertex_inclusion" and not used_types <= set(view.vertex_types):
            return None
        if kind == "vertex_removal" and used_types & set(view.vertex_types):
            return None
        if kind == "edge_inclusion" and not used_labels <= set(view.edge_labels):
            return None
        if kind == "edge_removal" and used_labels & set(view.edge_labels):
            return None
        if kind.endswith("aggregator"):
            return None  # aggregator rewrites change query semantics; not automated
        rewritten = query.with_name(
            f"{query.name}@{view.name}" if query.name else f"rewritten@{view.name}")
        min_hops, max_hops = (
            min((path.hop_bounds()[0] for path in query.match), default=0),
            max((path.hop_bounds()[1] for path in query.match), default=0),
        )
        return RewrittenQuery(original=query, rewritten=rewritten, candidate=candidate,
                              hop_bounds=(min_hops, max_hops))

    # ----------------------------------------------------------------- helpers
    def applicable(self, query: GraphQuery, candidates: Iterable[ViewCandidate]
                   ) -> list[RewrittenQuery]:
        """All candidates that produce a valid rewrite for ``query``."""
        rewrites: list[RewrittenQuery] = []
        for candidate in candidates:
            rewrite = self.rewrite(query, candidate)
            if rewrite is not None:
                rewrites.append(rewrite)
        return rewrites
