"""Graph views: connectors, summarizers, catalog, and maintenance.

Connectors contract paths between target vertices into single edges;
summarizers filter or aggregate vertices and edges (§III-C, §VI).  The
:class:`ViewCatalog` tracks materialized views for use in view-based query
rewriting; :class:`MaintenanceManager` consumes batched deltas from the
graph's change-capture log to keep *every* catalog view fresh (§VIII [23]).
"""

from repro.views.definitions import (
    CONNECTOR_KINDS,
    SUMMARIZER_KINDS,
    ConnectorView,
    SummarizerView,
    ViewDefinition,
    author_to_author_connector,
    definition_from_dict,
    definition_to_dict,
    job_to_job_connector,
    keep_types_summarizer,
    vertex_to_vertex_connector,
)
from repro.views.connectors import (
    count_connector_edges,
    count_connector_paths,
    materialize_connector,
)
from repro.views.summarizers import materialize_summarizer, summarizer_reduction
from repro.views.catalog import MaterializedView, ViewCatalog
from repro.views.delta import MaintenanceManager, RefreshReport, ViewRefresh

__all__ = [
    "CONNECTOR_KINDS",
    "ConnectorView",
    "MaintenanceManager",
    "MaterializedView",
    "RefreshReport",
    "ViewRefresh",
    "SUMMARIZER_KINDS",
    "SummarizerView",
    "ViewCatalog",
    "ViewDefinition",
    "author_to_author_connector",
    "count_connector_edges",
    "count_connector_paths",
    "definition_from_dict",
    "definition_to_dict",
    "job_to_job_connector",
    "keep_types_summarizer",
    "materialize_connector",
    "materialize_summarizer",
    "summarizer_reduction",
    "vertex_to_vertex_connector",
]
