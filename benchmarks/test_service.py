"""Benchmark: the concurrent graph service under saturating client load.

Drives the full serving stack — asyncio HTTP server, admission control, MVCC
snapshot reads, metrics — with a client fan-out deliberately larger than the
admission policy allows, and asserts the production behaviours the serving
layer exists for:

* **Load shedding** — with ``max_concurrent + max_queued`` far below the
  offered concurrency, a saturating burst must produce HTTP 429 responses
  carrying ``Retry-After``, while admitted requests still succeed.
* **Observability** — after the run, ``GET /metrics`` exposes the latency
  histogram, plan-cache hit rate and snapshot pin/lag gauges with counts that
  reconcile against the client-side tally.
* **Reads under writes** — reader throughput is measured while a mutator
  commits batches; every successful read reports a published version.

Results are emitted to ``BENCH_service.json`` (shared ``bench_record``
fixture): requests, sheds, p50/p99 latency, throughput.

Set ``BENCH_SMOKE=1`` (as CI does) to shrink the fan-out while still
exercising saturation, shedding, and the metrics reconciliation.
"""

from __future__ import annotations

import asyncio
import json
import os
import time

from repro.datasets.provenance import provenance_graph
from repro.service import AdmissionPolicy, GraphService, serve_in_thread

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

if SMOKE:
    NUM_JOBS, BURST_CLIENTS, ROUNDS, MUTATE_EVERY = 80, 24, 2, 4
else:
    NUM_JOBS, BURST_CLIENTS, ROUNDS, MUTATE_EVERY = 120, 48, 4, 4

WRITES = "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f"

#: The saturating query: heavy enough (tens of ms) that concurrent requests
#: genuinely overlap inside the thread pool — sub-millisecond queries finish
#: within one GIL switch interval and would never collide at admission.
BLAST = ("MATCH (a:Job)-[:WRITES_TO]->(f1:File), "
         "(f1:File)-[r*0..4]->(f2:File), "
         "(f2:File)-[:IS_READ_BY]->(b:Job) RETURN a, b")

#: Deliberately tiny admission policy so the burst saturates it.
POLICY = AdmissionPolicy(max_concurrent=2, max_queued=2,
                         queue_timeout_seconds=0.05,
                         default_max_work=500_000)


async def _post(host, port, path, payload):
    reader, writer = await asyncio.open_connection(host, port)
    body = json.dumps(payload).encode()
    writer.write((f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
                  f"Content-Type: application/json\r\n"
                  f"Content-Length: {len(body)}\r\n"
                  "Connection: close\r\n\r\n").encode() + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, content = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    headers = {}
    for line in head.decode("latin-1").split("\r\n")[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    return status, headers, json.loads(content)


async def _get_text(host, port, path):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write((f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
                  "Connection: close\r\n\r\n").encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    return raw.partition(b"\r\n\r\n")[2].decode()


def test_saturating_burst_sheds_and_metrics_reconcile(bench_record):
    service = GraphService(graph=provenance_graph(num_jobs=NUM_JOBS, seed=3),
                           policy=POLICY)
    handle = serve_in_thread(service)
    host, port = handle.server.host, handle.port
    tally = {"ok": 0, "shed": 0, "other": 0, "mutations": 0}
    versions = set()
    retry_afters = []

    async def drive():
        start = time.perf_counter()
        for round_index in range(ROUNDS):
            tasks = []
            for client in range(BURST_CLIENTS):
                if client % MUTATE_EVERY == 0:
                    tasks.append(_post(host, port, "/mutate", {"ops": [
                        {"op": "add_vertex",
                         "id": f"burst{round_index}_{client}",
                         "type": "Job"}]}))
                else:
                    tasks.append(_post(host, port, "/query",
                                       {"query": BLAST,
                                        "client": f"c{client}"}))
            for status, headers, body in await asyncio.gather(*tasks):
                if status == 200:
                    tally["ok"] += 1
                    if "rows" in body:
                        versions.add(body["version"])
                    else:
                        tally["mutations"] += 1
                elif status == 429:
                    tally["shed"] += 1
                    retry_afters.append(float(headers["retry-after"]))
                else:
                    tally["other"] += 1
        return time.perf_counter() - start

    try:
        elapsed = asyncio.run(drive())
        metrics_text = asyncio.run(_get_text(host, port, "/metrics"))
    finally:
        handle.stop()

    total = ROUNDS * BURST_CLIENTS
    print(f"\nservice saturation: {total} requests in {elapsed:.2f}s "
          f"({total / elapsed:.0f} req/s) — ok={tally['ok']} "
          f"shed={tally['shed']} other={tally['other']}")

    # --- shedding: the burst must overwhelm the 4-slot policy.
    assert tally["other"] == 0
    assert tally["shed"] > 0, "saturating burst produced no 429s"
    assert tally["ok"] > 0, "shedding must not starve every request"
    assert all(value > 0 for value in retry_afters)

    # --- reads under writes: only published versions are ever observed.
    head = service.snapshots.head_version()
    assert versions and all(v <= head for v in versions)

    # --- metrics reconcile with the client-side tally.
    assert "kaskade_query_latency_seconds_bucket" in metrics_text
    assert "kaskade_shed_requests_total" in metrics_text
    assert "kaskade_snapshot_pins" in metrics_text
    assert "kaskade_maintenance_lag_versions" in metrics_text
    shed_metric = service.metrics.shed_total.total
    assert shed_metric == tally["shed"]
    ok_queries = service.metrics.queries_total.value(status="ok")
    assert ok_queries == tally["ok"] - tally["mutations"]

    latency = service.metrics.query_latency
    bench_record("service_saturation", "requests_total", total)
    bench_record("service_saturation", "shed_requests", tally["shed"])
    bench_record("service_saturation", "throughput_rps", total / elapsed)
    bench_record("service_saturation", "latency_p50_seconds",
                 latency.quantile(0.5))
    bench_record("service_saturation", "latency_p99_seconds",
                 latency.quantile(0.99))
    bench_record("service_saturation", "plan_cache_hit_rate",
                 service.kaskade.plan_cache_hit_rate)


def test_plan_cache_warms_under_repeated_load(bench_record):
    service = GraphService(graph=provenance_graph(num_jobs=NUM_JOBS, seed=3),
                           policy=AdmissionPolicy(max_concurrent=8,
                                                  max_queued=32))
    handle = serve_in_thread(service)
    host, port = handle.server.host, handle.port
    repeats = 8 if SMOKE else 32

    async def drive():
        for _ in range(repeats):
            status, _, _ = await _post(host, port, "/query",
                                       {"query": WRITES})
            assert status == 200

    try:
        asyncio.run(drive())
    finally:
        handle.stop()

    hit_rate = service.kaskade.plan_cache_hit_rate
    print(f"\nplan cache after {repeats} repeats: hit rate {hit_rate:.2f}")
    # Only the very first request plans from scratch.
    assert hit_rate >= (repeats - 1) / repeats - 1e-9
    bench_record("service_plan_cache", "hit_rate", hit_rate)
    bench_record("service_plan_cache", "repeats", repeats)
