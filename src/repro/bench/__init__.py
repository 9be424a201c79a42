"""Experiment harness: regenerates every table and figure of the evaluation."""

from repro.bench.figures import (
    BLAST_RADIUS_CYPHER,
    EstimationPoint,
    enumeration_pruning,
    figure5_estimation,
    figure6_size_reduction,
    figure7_runtimes,
    figure8_degree_ccdf,
    listing4_rewrite,
    selection_sweep,
    table3_datasets,
    table4_workload,
)
from repro.bench.reporting import format_series, format_table, human_count

__all__ = [
    "BLAST_RADIUS_CYPHER",
    "EstimationPoint",
    "enumeration_pruning",
    "figure5_estimation",
    "figure6_size_reduction",
    "figure7_runtimes",
    "figure8_degree_ccdf",
    "format_series",
    "format_table",
    "human_count",
    "listing4_rewrite",
    "selection_sweep",
    "table3_datasets",
    "table4_workload",
]
