"""Graph analytics behind the Q1–Q8 evaluation workload (Table IV).

Every traversal/community/path function transparently routes to the
index-space CSR kernels (:mod:`repro.analytics.kernels`) when handed a
:class:`~repro.storage.csr.CSRGraphStore` — or a dict graph with a fresh
snapshot already in the registry — and otherwise runs the dict-store
reference implementation.
"""

from repro.analytics import kernels
from repro.analytics.traversal import (
    BlastRadiusEntry,
    ancestors,
    blast_radius,
    blast_radius_by_pipeline,
    bulk_k_hop_counts,
    descendants,
    k_hop_neighborhood,
)
from repro.analytics.paths import PathLengthEntry, all_path_lengths, path_lengths
from repro.analytics.community import (
    CommunitySummary,
    communities,
    community_subgraph,
    label_propagation,
    largest_community,
)
from repro.analytics.metrics import GraphSummary, edge_count, summarize, vertex_count

__all__ = [
    "BlastRadiusEntry",
    "CommunitySummary",
    "GraphSummary",
    "PathLengthEntry",
    "all_path_lengths",
    "ancestors",
    "blast_radius",
    "blast_radius_by_pipeline",
    "bulk_k_hop_counts",
    "communities",
    "community_subgraph",
    "descendants",
    "edge_count",
    "k_hop_neighborhood",
    "kernels",
    "label_propagation",
    "largest_community",
    "path_lengths",
    "summarize",
    "vertex_count",
]
