"""Metric definitions: what is measured, from which samples, spans and counts.

End-to-end metrics come from an untraced run and are the same four on every
workload; which operation ``op`` is, per workload, is the table in the README.
Per-layer metrics come from a traced run: self times per span name (see
``perf/trace.py``) divided by the operations that caused them, plus ratios of
counts taken from response bodies and a before/after ``/metrics`` scrape.  A
layer that a workload never enters reports 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any

from perf import trace
from perf.harness import median_ms, p95
from perf.workloads import Workload

END_TO_END = {
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
}

PER_LAYER = {
    "service.http_ms": "ms/op", "service.handle_ms": "ms/op", "service.admit_ms": "ms/op",
    "service.pin_ms": "ms/op", "service.encode_ms": "ms/op",
    "service.response_bytes": "bytes", "service.shed": "count",
    "query.parse_ms": "ms/op", "query.plan_ms": "ms/op", "query.execute_ms": "ms/op",
    "query.plan_cache_hit_ratio": "ratio", "query.work_per_row": "work/row",
    "core.rewrite_ms": "ms/op", "core.view_hit_ratio": "ratio",
    "service.commit_ms": "ms/op", "durability.wal_append_ms": "ms/op",
    "durability.fsync_ms": "ms/op", "durability.fsyncs_per_commit": "count",
    "durability.wal_bytes_per_op": "bytes", "durability.checkpoint_ms": "ms/op",
    "graph.apply_ms_per_op": "ms/op", "views.refresh_ms": "ms/op",
    "views.incremental_ratio": "ratio", "storage.freeze_ms": "ms/op",
    "storage.freeze_edges": "count",
    "durability.checkpoint_load_s": "s/op", "durability.replay_ops_per_s": "1/s",
    "views.restore_s": "s/op", "views.recover_refresh_s": "s/op",
    "storage.recover_freeze_s": "s/op", "durability.checkpoint_s": "s/op",
    "analytics.bulk_k_hop_in_s": "s/op", "analytics.bulk_k_hop_out_s": "s/op",
    "analytics.label_propagation_s": "s/op", "analytics.blast_radius_s": "s/op",
    "analytics.traversal_edges_per_s": "1/s", "analytics.tier_vectorized": "count",
    "analytics.tier_loops": "count", "analytics.tier_reference": "count",
    "core.select_s": "s", "views.materialize_s": "s", "storage.freeze_s": "s",
    "client.query_p50_ms": "ms", "client.commit_p50_ms": "ms",
    "client.schedule_lag_ms": "ms",
    "trace.overhead_ratio": "ratio", "trace.attributed_ratio": "ratio",
}

#: Span names whose self time a per-operation layer metric reports; what a
#: request spends elsewhere lowers ``trace.attributed_ratio``.
REPORTED_SPANS = {
    "query": ("client.request", "service.handle", "service.admit", "service.pin",
              "service.encode", "query.parse", "query.plan", "query.execute",
              "core.rewrite"),
    "commit": ("client.request", "service.handle", "service.admit", "service.encode",
               "service.commit", "durability.log_batch", "durability.log_marker",
               "durability.wal_append", "durability.encode_record",
               "durability.fsync", "durability.checkpoint", "graph.apply_op",
               "views.refresh", "storage.freeze"),
    "restart": ("durability.recover", "durability.checkpoint_load", "views.restore",
                "views.refresh", "storage.freeze", "durability.checkpoint",
                "graph.apply_op"),
}
WAL_APPEND_SPANS = ("durability.log_batch", "durability.log_marker",
                    "durability.wal_append", "durability.encode_record")
KERNELS = ("bulk_k_hop_in", "bulk_k_hop_out", "label_propagation", "blast_radius")
KERNEL_SPANS = ("kernel.bulk_k_hop_counts", "kernel.label_propagation",
                "kernel.blast_radius_rows")


def per(total: float, count: float) -> float:
    return total / count if count else 0.0


def end_to_end(workload: Workload, setup_times: list[float]) -> dict[str, float]:
    latencies = workload.samples[workload.primary]
    return {
        "op_p50_ms": median_ms(latencies),
        "op_p95_ms": p95(latencies) * 1e3,
        "ops_per_s": workload.throughput(),
        "setup_s": statistics.median(setup_times),
    }


class Layers:
    """Spans of one traced run, summed per (group, span name).

    Groups: ``query`` / ``commit`` (everything a client request of that kind
    caused, on either side of the socket), ``restart`` (a recovering child's
    own spans), ``measure`` (embedded calls in the timed phase) and ``setup``.
    """

    def __init__(self, spans: list[dict[str, Any]], measure_start_ns: int) -> None:
        own = trace.self_times(spans)
        kinds = {"/query": "query", "/mutate": "commit"}
        kind_of = {s["rid"]: kinds.get(s["tag"], "other")
                   for s in spans if s["name"] == "client.request"}
        self.sums: dict[tuple[str, str], dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_ms": 0.0, "total_ms": 0.0, "n": 0.0})
        for span in spans:
            if span["rid"] in kind_of:
                group = kind_of[span["rid"]]
            elif span["src"] == "restart":
                group = "restart"
            elif span["start"] >= measure_start_ns:
                group = "measure"
            else:
                group = "setup"
            row = self.sums[group, span["name"]]
            row["calls"] += 1
            row["self_ms"] += own[span["id"]] / 1e6
            row["total_ms"] += (span["end"] - span["start"]) / 1e6
            row["n"] += span["n"] or 0

    def get(self, group: str, name: str, field: str = "self_ms") -> float:
        return self.sums[group, name][field] if (group, name) in self.sums else 0.0

    def self_ms(self, group: str, names: tuple[str, ...]) -> float:
        return sum(self.get(group, name) for name in names)


def per_layer(workload: Workload, spans: list[dict[str, Any]],
              measure_start_ns: int, untraced: dict[str, list[float]]
              ) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric for one traced run.

    ``untraced`` holds the samples of the same run's first phase, measured
    with the wrappers installed but dormant; ``workload.samples`` the traced
    phase.
    """
    layers = Layers(spans, measure_start_ns)
    counts = workload.counts
    samples = workload.samples
    ops = {
        "query": layers.get("query", "client.request", "calls"),
        "commit": layers.get("commit", "client.request", "calls"),
        "restart": layers.get("restart", "durability.recover", "calls"),
        "sweep": len(samples.get("sweep", ())),
    }
    # Layers both kinds of request cross are reported for the workload's own.
    kind = "query" if workload.primary == "query" else "commit"
    applied = layers.get("commit", "graph.apply_op", "calls")
    replay_s = (layers.get("restart", "durability.recover")
                + layers.get("restart", "graph.apply_op")) / 1e3
    kernel_s = sum(layers.get("measure", name, "total_ms") for name in KERNEL_SPANS) / 1e3
    kernel_edges = sum(layers.get("measure", name, "n") for name in KERNEL_SPANS)
    sweeps = ops["sweep"] + len(untraced.get("sweep", ()))

    def request_ms(name: str, group: str = kind) -> float:
        return per(layers.get(group, name), ops[group])

    def restart_s(name: str) -> float:
        return per(layers.get("restart", name) / 1e3, ops["restart"])

    def client_ms(key: str) -> float:
        return median_ms(samples[key]) if key in samples else 0.0

    values = {
        "service.http_ms": request_ms("client.request"),
        "service.handle_ms": request_ms("service.handle"),
        "service.admit_ms": request_ms("service.admit"),
        "service.pin_ms": request_ms("service.pin"),
        "service.encode_ms": request_ms("service.encode"),
        "service.response_bytes": per(layers.get(kind, "service.encode", "n"), ops[kind]),
        "service.shed": counts.get("shed", 0.0),
        "query.parse_ms": request_ms("query.parse", "query"),
        "query.plan_ms": request_ms("query.plan", "query"),
        "query.execute_ms": request_ms("query.execute", "query"),
        "query.plan_cache_hit_ratio": per(counts.get("plan_cache_hits", 0),
                                          counts.get("queries", 0)),
        "query.work_per_row": per(counts.get("work", 0), counts.get("rows", 0)),
        "core.rewrite_ms": request_ms("core.rewrite", "query"),
        "core.view_hit_ratio": per(counts.get("view_hits", 0),
                                   counts.get("view_covered", 0)),
        "service.commit_ms": request_ms("service.commit", "commit"),
        "durability.wal_append_ms": per(layers.self_ms("commit", WAL_APPEND_SPANS),
                                        ops["commit"]),
        "durability.fsync_ms": request_ms("durability.fsync", "commit"),
        "durability.fsyncs_per_commit": per(
            layers.get("commit", "durability.fsync", "calls"), ops["commit"]),
        "durability.wal_bytes_per_op": per(
            layers.get("commit", "durability.encode_record", "n"), applied),
        "durability.checkpoint_ms": request_ms("durability.checkpoint", "commit"),
        "graph.apply_ms_per_op": per(layers.get("commit", "graph.apply_op"), applied),
        "views.refresh_ms": request_ms("views.refresh", "commit"),
        "views.incremental_ratio": per(counts.get("views_incremental", 0),
                                       counts.get("views_refreshed", 0)),
        "storage.freeze_ms": request_ms("storage.freeze", "commit"),
        "storage.freeze_edges": per(layers.get("commit", "storage.freeze", "n"),
                                    ops["commit"]),
        "durability.checkpoint_load_s": restart_s("durability.checkpoint_load"),
        "durability.replay_ops_per_s": per(
            layers.get("restart", "durability.recover", "n"), replay_s),
        "views.restore_s": restart_s("views.restore"),
        "views.recover_refresh_s": restart_s("views.refresh"),
        "storage.recover_freeze_s": restart_s("storage.freeze"),
        "durability.checkpoint_s": restart_s("durability.checkpoint"),
        "analytics.traversal_edges_per_s": per(kernel_edges, kernel_s),
        "core.select_s": layers.get("setup", "core.select") / 1e3,
        "views.materialize_s": layers.get("setup", "views.materialize") / 1e3,
        "storage.freeze_s": layers.get("setup", "storage.freeze") / 1e3,
        "client.query_p50_ms": client_ms("query"),
        "client.commit_p50_ms": client_ms("commit"),
        "client.schedule_lag_ms": client_ms("lag"),
        "trace.overhead_ratio": per(statistics.median(samples[workload.primary]),
                                    statistics.median(untraced[workload.primary])),
    }
    for name in KERNELS:
        values[f"analytics.{name}_s"] = per(
            layers.get("measure", f"analytics.{name}", "total_ms") / 1e3, ops["sweep"])
    for tier in ("vectorized", "loops", "reference"):
        values[f"analytics.tier_{tier}"] = per(counts.get(f"tier_{tier}", 0), sweeps)

    if workload.primary == "sweep":
        attributed = sum(values[f"analytics.{name}_s"] for name in KERNELS)
        waited = per(sum(samples["sweep"]), ops["sweep"])
    elif workload.primary == "restart":
        attributed = layers.self_ms("restart", REPORTED_SPANS["restart"])
        waited = sum(samples["restart"]) * 1e3
    else:
        attributed = layers.self_ms(kind, REPORTED_SPANS[kind])
        waited = layers.get(kind, "client.request", "total_ms")
    values["trace.attributed_ratio"] = per(attributed, waited)
    return values
