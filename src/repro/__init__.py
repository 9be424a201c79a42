"""Reproduction of "Kaskade: Graph Views for Efficient Graph Analytics" (ICDE 2020).

KASKADE is a graph query optimization framework that enumerates, selects, and
materializes *graph views* (connectors and summarizers) to speed up graph
analytics queries, and rewrites incoming queries over the materialized views.

The package is organized as:

* :mod:`repro.graph` — property-graph substrate (the Neo4j-storage role),
* :mod:`repro.storage` — pluggable physical storage: the abstract
  ``GraphStore`` interface, read-optimized CSR snapshots, persistent
  materialized-view storage, and the ``StorageManager`` freeze rule,
* :mod:`repro.inference` — Prolog-like inference engine (the SWI-Prolog role),
* :mod:`repro.query` — Cypher-like query language, executor, and cost model,
* :mod:`repro.views` — connector/summarizer views, catalog, and maintenance,
* :mod:`repro.core` — the paper's contribution: constraint-based enumeration,
  view size estimation, knapsack view selection, and view-based rewriting,
* :mod:`repro.solver` — 0/1 knapsack solvers,
* :mod:`repro.datasets` — synthetic stand-ins for the evaluation graphs,
* :mod:`repro.analytics` — graph analytics used by the Q1–Q8 workload,
* :mod:`repro.workloads` — the Table IV query workload,
* :mod:`repro.bench` — experiment harness regenerating every table and figure.

Quickstart::

    from repro import Kaskade
    from repro.datasets import provenance_graph

    graph = provenance_graph(num_jobs=200, seed=7)
    kaskade = Kaskade(graph)
    query = kaskade.parse(
        "MATCH (j1:Job)-[:WRITES_TO]->(f1:File), (f1)-[r*0..8]->(f2:File), "
        "(f2)-[:IS_READ_BY]->(j2:Job) RETURN j1 AS A, j2 AS B",
        name="blast-radius")
    report = kaskade.select_views([query], budget_edges=100_000)
    outcome = kaskade.execute(query)
"""

from repro.core.kaskade import Kaskade, MaterializationReport, QueryOutcome
from repro.storage import (
    CSRGraphStore,
    GraphStore,
    PersistentViewStore,
    StorageManager,
)

__version__ = "1.1.0"

__all__ = [
    "CSRGraphStore",
    "GraphStore",
    "Kaskade",
    "MaterializationReport",
    "PersistentViewStore",
    "QueryOutcome",
    "StorageManager",
    "__version__",
]
