"""The benchmark's server child: one Kaskade graph service over generated inputs.

Started by :class:`perf.harness.ServerProcess` as ``python -m
perf.server_main CONFIG.json``.  The config names only generated input
files — the graph JSON (read back through ``repro.graph.io``), the query
text views are selected for, the durability root — so the program under test
never sees the workload seed.

Modes: ``plain`` (in-memory service), ``durable`` (views are selected
*before* the service writes its baseline checkpoint, see the README's
"known defects"; WAL on, ``fsync=True``) and ``recover``
(``GraphService.open_durable`` on an existing root).

Once serving it prints one ``ready`` JSON line on stdout, then answers one
JSON line per command line read from stdin: ``trace`` (switch span recording),
``state`` (version, graph fingerprint, view catalog), ``power_loss``
(``simulate_power_loss``: discard unflushed WAL bytes) and ``shutdown`` (stop
serving, hand recorded spans back through ``spans_out``, exit).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.core.kaskade import Kaskade
from repro.durability.manager import DurabilityEngine
from repro.graph.io import graph_fingerprint, load_graph_json
from repro.service.server import GraphService, serve_in_thread
from repro.views.definitions import job_to_job_connector

from perf import trace


def build_service(config: dict, timings: dict[str, float]) -> GraphService:
    if config["mode"] == "recover":
        start = time.perf_counter()
        service = GraphService.open_durable(config["root"], fsync=True)
        timings["open_s"] = time.perf_counter() - start
        return service
    start = time.perf_counter()
    graph = load_graph_json(config["graph"])
    kaskade = Kaskade(graph)
    timings["load_s"] = time.perf_counter() - start
    start = time.perf_counter()
    if config.get("select_for"):
        query = kaskade.parse(config["select_for"])
        kaskade.select_views([query],
                             budget_edges=config["budget_factor"] * graph.num_edges)
    if config.get("connector_k"):
        kaskade.materialize_view(job_to_job_connector(config["connector_k"]))
    timings["views_s"] = time.perf_counter() - start
    start = time.perf_counter()
    durability = (DurabilityEngine(config["root"], fsync=True)
                  if config["mode"] == "durable" else None)
    service = GraphService(kaskade, durability=durability)
    timings["service_s"] = time.perf_counter() - start
    return service


def describe_state(service: GraphService) -> dict:
    graph = service.kaskade.graph
    return {
        "version": graph.version,
        "fingerprint": graph_fingerprint(graph),
        "views": sorted([view.definition.name, view.num_edges]
                        for view in service.kaskade.catalog),
    }


def main(argv: list[str]) -> int:
    config = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    recorder = trace.install(config["label"]) if config.get("trace") else None
    if recorder is not None:
        # Set-up is traced unless the parent says otherwise; it switches phases.
        recorder.active = config.get("trace_active", True)
    timings: dict[str, float] = {}
    service = build_service(config, timings)
    handle = serve_in_thread(service)
    recovery = service.durability.last_recovery if service.durability else None
    ready = {"event": "ready", "port": handle.port, "timings": timings,
             "recovery": recovery.describe() if recovery is not None else None}
    print(json.dumps(ready), flush=True)
    for line in sys.stdin:
        command = json.loads(line)
        reply: dict = {"ok": True}
        if command["cmd"] == "trace":
            recorder.active = bool(command["on"])
        elif command["cmd"] == "state":
            reply.update(describe_state(service))
        elif command["cmd"] == "power_loss":
            service.durability.simulate_power_loss()
        elif command["cmd"] == "shutdown":
            handle.stop()
            if service.durability is not None and service.durability.ready:
                service.durability.close()
            if recorder is not None:
                trace.write_spans(recorder.drain(), Path(config["spans_out"]))
            print(json.dumps(reply), flush=True)
            return 0
        else:
            reply = {"ok": False, "error": f"unknown command {command['cmd']!r}"}
        print(json.dumps(reply), flush=True)
    handle.stop()  # stdin closed: the parent is gone
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
