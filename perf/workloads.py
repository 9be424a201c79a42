"""The six benchmark workloads: inputs from a seed, timed phases, oracles.

Every workload follows the same life cycle, driven by ``run.py``::

    generate()              inputs from the seed (excluded from set-up time)
    setup() / teardown()    repeated; the median is ``setup_s``
    warm_up()               untimed
    measure(seconds)        timed operations appended to ``samples``; every
                            operation is checked as it completes
    verify()                end-state oracles (fingerprints, reference kernels)

The service workloads talk to a ``perf.server_main`` child through the real
``KaskadeClient``; the child receives generated files only.  Sizes live in
:data:`SCALES`; why each workload exists is in its ``why`` (mirrored in
``BENCHMARK.json`` and the README).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import shutil
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Iterable

from repro.analytics import community, kernels, traversal
from repro.core.kaskade import Kaskade
from repro.datasets.provenance import summarized_provenance_graph
from repro.durability.manager import apply_op
from repro.graph.io import graph_fingerprint, load_graph_json, save_graph_json
from repro.storage.manager import StorageManager, discard_snapshot
from repro.views.catalog import ViewCatalog
from repro.views.definitions import job_to_job_connector

from perf.harness import Checks, ServerProcess, scrape
from perf.trace import Recorder

#: Listing 1's blast-radius pattern (the paper's running example).
BLAST_RADIUS = (
    "MATCH (q_j1:Job)-[:WRITES_TO]->(q_f1:File), "
    "(q_f1:File)-[r*0..8]->(q_f2:File), "
    "(q_f2:File)-[:IS_READ_BY]->(q_j2:Job) "
    "RETURN q_j1 AS A, q_j2 AS B")
TWO_HOP = ("MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job) "
           "WHERE a.cpu > 250 RETURN a, b")
#: One-hop families whose literal is unique per request (plan-cache misses).
ONE_HOP = (
    ("MATCH (j:Job)-[:WRITES_TO]->(f:File)", "RETURN j, f"),
    ("MATCH (f:File)-[:IS_READ_BY]->(j:Job)", "RETURN f, j"),
)

#: The graphs' topology is a fixed dataset (generator seed 7, as the paper's
#: Table III datasets are fixed): a different topology per seed would change
#: how much work a run does, which is input variance, not the engine's.  The
#: workload seed draws everything else — vertex properties, query literals,
#: mutation streams, anchor samples.
DATASET_SEED = 7

SCALES: dict[str, dict[str, Any]] = {
    "full": {
        "setups": 3, "warmup_requests": 20,
        "view_jobs": 400, "commit_jobs": 2000,
        "ingest_jobs": 1500, "ingest_commits": 8, "ingest_batch": 2048,
        "min_restarts": 3, "writer_interval_s": 0.2, "verify_every": 40,
        "analytics_jobs": 15000, "blast_anchors": 750, "min_sweeps": 2,
        "reference_jobs": 150,
    },
    "smoke": {
        "setups": 1, "warmup_requests": 2,
        "view_jobs": 60, "commit_jobs": 2000,
        "ingest_jobs": 60, "ingest_commits": 2, "ingest_batch": 64,
        "min_restarts": 2, "writer_interval_s": 0.1, "verify_every": 3,
        "analytics_jobs": 400, "blast_anchors": 50, "min_sweeps": 2,
        "reference_jobs": 60,
    },
}


def dataset(num_jobs: int, seed: int):
    """Summarized provenance graph: fixed topology, properties from ``seed``."""
    graph = summarized_provenance_graph(num_jobs=num_jobs, seed=DATASET_SEED)
    rng = random.Random(seed)
    for vertex in graph.vertices():
        if vertex.type == "Job":
            vertex.properties["cpu"] = round(rng.uniform(1.0, 500.0), 2)
        else:
            vertex.properties["bytes"] = rng.randint(1, 10 ** 6)
    return graph


def row_set(rows: Iterable[dict[str, Any]]) -> frozenset:
    return frozenset(tuple(sorted(row.items())) for row in rows)


class Workload:
    """Base life cycle; see the module docstring."""

    name = ""
    why = ""
    #: Kind of the operation the end-to-end latency metrics describe.
    primary = ""

    def __init__(self, seed: int, scale: dict[str, Any], workdir: Path,
                 recorder: Recorder | None, perturb: bool) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.recorder = recorder
        self.perturb = perturb
        self.rng = random.Random(seed)
        self.checks = Checks()
        self.samples: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}
        self.info: dict[str, Any] = {}
        #: Spans handed back by server children: ``(source, spans)`` with
        #: source ``"live"`` (the set-up server) or ``"restart"``.
        self.server_spans: list[tuple[str, list[dict[str, Any]]]] = []

    @property
    def traced(self) -> bool:
        return self.recorder is not None

    def bump(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def oracle_rows(self, kaskade: Kaskade, text: str) -> frozenset:
        """Distinct rows of ``text`` on the base graph by the backtracking
        interpreter — the one query oracle.  ``--perturb`` drops a row from
        the first oracle computed, to show that a wrong row fails the run."""
        rows = set(row_set(kaskade.execute(
            kaskade.parse(text), use_views=False, engine="interpreter").result.rows))
        if self.perturb and rows:
            rows.pop()
            self.perturb = False
        return frozenset(rows)

    def generate(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        pass

    def set_tracing(self, on: bool) -> None:
        self.recorder.active = on

    def measure(self, seconds: float) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        pass

    def throughput(self) -> float:
        """Operations per second at the median latency (one closed-loop client).
        The median, not the mean: a burst of outside noise moves a mean."""
        return 1.0 / statistics.median(self.samples[self.primary])


# ------------------------------------------------------------ service workloads
class ServiceWorkload(Workload):
    """A workload against one server child, through the real client."""

    mode = "plain"
    jobs_key = "view_jobs"
    #: Views the server builds before it serves: selected for Listing 1 under
    #: a 4x|E| budget (the default), or a k-hop job-to-job connector.
    views: dict[str, Any] = {"select_for": BLAST_RADIUS, "budget_factor": 4}

    def generate(self) -> None:
        self.graph = dataset(self.scale[self.jobs_key], self.seed)
        self.graph_path = save_graph_json(self.graph, self.workdir / "graph.json")
        self.info["vertices"] = self.graph.num_vertices
        self.info["edges"] = self.graph.num_edges
        self.roots = self.servers = 0
        self.server: ServerProcess | None = None

    def new_root(self) -> Path:
        self.roots += 1
        return self.workdir / f"root{self.roots}"

    def start_server(self, config: dict[str, Any]) -> ServerProcess:
        self.servers += 1
        return ServerProcess({**config, "trace": self.traced}, self.workdir,
                             f"server{self.servers}")

    def setup(self) -> None:
        config = {"mode": self.mode, "graph": str(self.graph_path), **self.views}
        if self.mode == "durable":
            self.root = self.new_root()
            config["root"] = str(self.root)
        self.adopt(self.start_server(config), "live")
        self.info["server_setup"] = self.server.ready["timings"]

    def adopt(self, server: ServerProcess, source: str) -> None:
        self.server, self.server_source = server, source
        self.client = server.client()

    def teardown(self) -> None:
        if self.server is not None:
            self.server_spans.append((self.server_source, self.server.stop()))
            self.server = None

    def set_tracing(self, on: bool) -> None:
        super().set_tracing(on)
        self.server.command("trace", on=on)

    def closed_loop(self, seconds: float, operation) -> None:
        """One client calling ``operation`` back to back for ``seconds``; sheds
        are counted from a ``/metrics`` scrape before and after."""
        before = scrape(self.client)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            operation()
        after = scrape(self.client)
        self.bump("shed", sum(value - before.get(series, 0.0)
                              for series, value in after.items()
                              if series.startswith("kaskade_shed_requests_total")))

    # ------------------------------------------------------------------ reads
    def timed_query(self, text: str, **options: Any):
        start = time.perf_counter()
        response = self.client.query(text, **options)
        return response, time.perf_counter() - start

    def tally_query(self, body: dict[str, Any]) -> None:
        """Counts taken from the response body (the service's own numbers)."""
        self.bump("queries")
        self.bump("work", body["work"])
        self.bump("rows", body["row_count"])
        self.bump("plan_cache_hits", bool(body["plan_cache_hit"]))
        self.bump("view_covered", body["rewrite_cost"] is not None)
        self.bump("view_hits", body["used_view"] is not None)

    # ----------------------------------------------------------------- writes
    def next_batch(self, size: int) -> list[dict[str, Any]]:
        """``size`` ops in groups of four: a new Job, a new File, one
        ``IS_READ_BY`` into the Job from an existing file and one
        ``WRITES_TO`` out of it — so a 2-hop connector changes every commit."""
        ops: list[dict[str, Any]] = []
        while len(ops) < size:
            self.new_jobs += 1
            job, new_file = f"perf-job-{self.new_jobs}", f"perf-file-{self.new_jobs}"
            ops += [
                {"op": "add_vertex", "id": job, "type": "Job",
                 "properties": {"cpu": round(self.rng.uniform(1.0, 500.0), 2)}},
                {"op": "add_vertex", "id": new_file, "type": "File",
                 "properties": {"bytes": self.rng.randint(1, 10 ** 6)}},
                {"op": "add_edge", "source": self.rng.choice(self.base_files),
                 "target": job, "label": "IS_READ_BY"},
                {"op": "add_edge", "source": job, "target": new_file,
                 "label": "WRITES_TO"},
            ]
        return ops[:size]

    def prepare_writes(self) -> None:
        self.base_files = self.graph.vertex_ids("File")
        self.new_jobs = 0
        # Same file the server loaded, so edge ids match the server's.
        self.oracle_graph = load_graph_json(self.graph_path)
        self.acked_version = -1
        self.oracle_print: tuple[int, str] = (-1, "")  # (oracle version, fingerprint)

    def check_commit(self, response, ops: list[dict[str, Any]]) -> None:
        body = response.body
        ok = (response.status == 200 and body.get("applied") == len(ops)
              and not body.get("errors")
              and body.get("version", -1) > self.acked_version)
        self.checks.record(ok, f"commit: status {response.status} body "
                               f"{ {k: v for k, v in body.items() if k != 'rows'} }")
        if response.status == 200:
            self.acked_version = max(self.acked_version, body["version"])
            self.bump("commits")
            self.bump("ops_applied", body["applied"])
            self.bump("views_refreshed", body["views_refreshed"])
            self.bump("views_incremental", body["views_incremental"])
            for op in ops:
                apply_op(self.oracle_graph, op)

    def check_state(self, server: ServerProcess, what: str) -> dict[str, Any]:
        """The server's version and fingerprint against the serial oracle."""
        state = server.command("state")
        if self.oracle_print[0] != self.oracle_graph.version:
            self.oracle_print = (self.oracle_graph.version,
                                 graph_fingerprint(self.oracle_graph))
        self.checks.record(
            state["version"] == self.acked_version
            and state["fingerprint"] == self.oracle_print[1],
            f"{what}: server at version {state['version']} (acknowledged "
            f"{self.acked_version}) does not match the serial oracle")
        return state


class QueryWorkload(ServiceWorkload):
    """Closed-loop reads: ``request(timed)`` sends and checks one query."""

    primary = "query"

    def request(self, timed: bool) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        for _ in range(self.scale["warmup_requests"]):
            self.request(timed=False)

    def measure(self, seconds: float) -> None:
        self.closed_loop(seconds, lambda: self.request(timed=True))


class QueryViewHit(QueryWorkload):
    name = "query.view_hit"
    why = ("Blast-radius reads served from the selected connector view: rewrite, "
           "view-vs-base choice, execution on the view store and a large response "
           "do the work.")

    def generate(self) -> None:
        super().generate()
        self.expected = self.oracle_rows(Kaskade(self.graph), BLAST_RADIUS)
        self.first_rows: list | None = None

    def request(self, timed: bool) -> None:
        response, latency = self.timed_query(BLAST_RADIUS)
        body = response.body
        ok = response.status == 200 and body["used_view"] is not None
        if ok and body["rows"] != self.first_rows:
            ok = row_set(body["rows"]) == self.expected
            if ok:
                self.first_rows = body["rows"]
        if timed:
            self.checks.record(ok, f"view_hit: status {response.status}, used_view "
                                   f"{body.get('used_view')}, {body.get('row_count')} rows")
            self.samples.setdefault("query", []).append(latency)
            if response.status == 200:
                self.tally_query(body)


class QueryBaseScan(QueryWorkload):
    name = "query.base_scan"
    why = ("Short base-graph reads, use_views=false, half with a never-seen "
           "literal: parse, plan-cache miss, HTTP and admission dominate; a "
           "view-layer change predicts no move.")

    def generate(self) -> None:
        super().generate()
        self.oracle = Kaskade(self.graph)
        self.two_hop_expected = self.oracle_rows(self.oracle, TWO_HOP)
        # One interpreter run per family; a literal's expected rows are the
        # family's rows filtered by it (and a sample is re-run in verify()).
        self.family_rows = [
            [(row, self.graph.vertex(dict(row)["j"]).properties["cpu"])
             for row in self.oracle_rows(self.oracle, f"{match} {returns}")]
            for match, returns in ONE_HOP]
        self.unique_texts: list[str] = []
        self.sent = 0

    def next_request(self) -> tuple[str, frozenset]:
        self.sent += 1
        if self.sent % 2:
            return TWO_HOP, self.two_hop_expected
        family = (self.sent // 2) % len(ONE_HOP)
        literal = round(self.rng.uniform(300.0, 500.0), 6)
        match, returns = ONE_HOP[family]
        text = f"{match} WHERE j.cpu > {literal} {returns}"
        self.unique_texts.append(text)
        expected = frozenset(row for row, cpu in self.family_rows[family]
                             if cpu > literal)
        return text, expected

    def request(self, timed: bool) -> None:
        text, expected = self.next_request()
        response, latency = self.timed_query(text, use_views=False)
        body = response.body
        ok = (response.status == 200 and row_set(body["rows"]) == expected
              and body["used_view"] is None and body["rewrite_cost"] is None)
        if timed:
            self.checks.record(ok, f"base_scan: status {response.status} for {text!r}")
            self.samples.setdefault("query", []).append(latency)
            if response.status == 200:
                self.tally_query(body)

    def verify(self) -> None:
        texts = sorted(set(self.unique_texts))
        self.checks.record(len(texts) == len(self.unique_texts),
                           "base_scan: a 'unique' query text repeated")
        for text in random.Random(self.seed).sample(texts, min(16, len(texts))):
            response = self.client.query(text, use_views=False)
            self.checks.record(
                response.status == 200
                and row_set(response.body["rows"]) == self.oracle_rows(self.oracle, text),
                f"base_scan: rows differ from the interpreter for {text!r}")


class CommitSmallBatch(ServiceWorkload):
    name = "commit.small_batch"
    why = ("Durable 4-op commits refreshing a 2-hop connector: per-commit fixed "
           "cost (marker fsync, full re-freeze on publish) is nearly all of the "
           "latency.")
    primary = "commit"
    mode = "durable"
    jobs_key = "commit_jobs"

    views = {"connector_k": 2}

    def generate(self) -> None:
        super().generate()
        self.prepare_writes()

    def commit(self, timed: bool) -> None:
        ops = self.next_batch(4)
        start = time.perf_counter()
        response = self.client.mutate(ops)
        latency = time.perf_counter() - start
        self.check_commit(response, ops)
        if timed:
            self.samples.setdefault("commit", []).append(latency)

    def warm_up(self) -> None:
        for _ in range(min(5, self.scale["warmup_requests"])):
            self.commit(timed=False)

    def measure(self, seconds: float) -> None:
        self.closed_loop(seconds, lambda: self.commit(timed=True))

    def verify(self) -> None:
        self.check_state(self.server, "commit.small_batch")


class IngestBulkRestart(ServiceWorkload):
    name = "ingest.bulk_restart"
    why = ("Bulk commits, then power-loss restarts: the commit layer at 2048 ops a "
           "batch (apply, delta refresh, WAL bytes, one freeze), and checkpoint load "
           "plus WAL replay as time-to-ready.")
    primary = "restart"
    mode = "durable"
    jobs_key = "ingest_jobs"

    views = {"connector_k": 2}

    def generate(self) -> None:
        super().generate()
        self.prepare_writes()

    def measure(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        bulk = self.samples.setdefault("commit", [])
        for _ in range(self.scale["ingest_commits"]):
            ops = self.next_batch(self.scale["ingest_batch"])
            start = time.perf_counter()
            response = self.client.mutate(ops)
            bulk.append(time.perf_counter() - start)
            self.check_commit(response, ops)
        acknowledged = self.check_state(self.server, "ingest before power loss")
        self.server.command("power_loss")
        crashed_root = self.root
        self.teardown()
        restarts, took = 0, 0.0
        while (restarts < self.scale["min_restarts"]
               or time.perf_counter() + took < deadline):
            restarts += 1
            began = time.perf_counter()
            self.root = self.new_root()
            shutil.copytree(crashed_root, self.root)
            child = self.start_server(
                {"mode": "recover", "root": str(self.root),
                 # a restarting child records iff this phase is the traced one
                 "trace_active": self.traced and self.recorder.active})
            self.samples.setdefault("restart", []).append(child.ready["timings"]["open_s"])
            recovery = child.ready["recovery"]
            state = self.check_state(child, "restart")
            self.checks.record(
                recovery["discarded_batches"] == 0 and recovery["op_errors"] == 0
                and recovery["recovered_version"] == self.acked_version
                and state["views"] == acknowledged["views"],
                f"restart: recovery {recovery}, views {state['views']} "
                f"(acknowledged {acknowledged['views']})")
            self.teardown()
            self.adopt(child, "restart")  # the last one recovered keeps serving
            took = time.perf_counter() - began
        self.info["replayed_ops_per_restart"] = recovery["replayed_ops"]

    def throughput(self) -> float:
        """Applied graph ops per second at the median bulk-commit latency."""
        return self.scale["ingest_batch"] / statistics.median(self.samples["commit"])


class MixedReadWrite(ServiceWorkload):
    name = "mixed.read_write"
    why = ("Blast-radius reads beside a writer on an open 200 ms schedule: commits "
           "invalidate plan caches and re-freeze views, so cost moved into reads "
           "shows as read tail latency.")
    primary = "query"
    mode = "durable"

    def generate(self) -> None:
        super().generate()
        self.prepare_writes()
        self.reads = 0

    def warm_up(self) -> None:
        for _ in range(self.scale["warmup_requests"]):
            self.client.query(BLAST_RADIUS)

    def read(self) -> None:
        start = time.perf_counter()
        response = self.client.query(BLAST_RADIUS)
        self.samples.setdefault("query", []).append(time.perf_counter() - start)
        ok = response.status == 200
        self.reads += 1
        if ok:
            self.tally_query(response.body)
        if ok and self.reads % self.scale["verify_every"] == 0:
            # Same pinned version, views off; untimed and untraced.
            with self.recorder.muted() if self.traced else contextlib.nullcontext():
                again = self.client.query(BLAST_RADIUS, use_views=False,
                                          version=response.body["version"])
            ok = (again.status == 200 and
                  row_set(again.body["rows"]) == row_set(response.body["rows"]))
            self.bump("reads_verified")
        self.checks.record(ok, f"mixed read: status {response.status}")

    def writer(self, deadline: float) -> None:
        client = self.server.client()
        due = time.perf_counter()
        while due < deadline:
            time.sleep(max(0.0, due - time.perf_counter()))
            ops = self.next_batch(4)
            sent = time.perf_counter()
            response = client.mutate(ops)
            # From the due time: a stall delays every later commit too.
            self.samples.setdefault("commit", []).append(time.perf_counter() - due)
            self.samples.setdefault("lag", []).append(sent - due)
            self.check_commit(response, ops)
            due += self.scale["writer_interval_s"]

    def measure(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        with ThreadPoolExecutor(max_workers=1) as pool:
            writing = pool.submit(self.writer, deadline)
            self.closed_loop(seconds, self.read)
            writing.result()  # re-raises whatever the writer raised

    def verify(self) -> None:
        self.check_state(self.server, "mixed.read_write")


# ------------------------------------------------------------------- embedded
def digest(value: Any) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, default=str).encode()).hexdigest()


class AnalyticsSweep(Workload):
    name = "analytics.q1_q8"
    why = ("Embedded Table IV analytics over frozen CSR stores (base and 2-hop "
           "connector), no service: the kernel tiers do all the work, at >=100k "
           "edges.")
    primary = "sweep"

    def generate(self) -> None:
        self.graph = dataset(self.scale["analytics_jobs"], self.seed)
        self.small = dataset(self.scale["reference_jobs"], self.seed)
        self.info["vertices"] = self.graph.num_vertices
        self.info["edges"] = self.graph.num_edges
        self.digests: set[str] = set()

    def freeze_pair(self, graph):
        """Base CSR store plus the materialized, frozen 2-hop connector."""
        discard_snapshot(graph)  # a repeated set-up must freeze again
        storage = StorageManager()
        base = storage.freeze(graph)
        view = ViewCatalog(storage=storage).materialize(graph, job_to_job_connector(2))
        return base, storage.freeze(view.graph), view

    def setup(self) -> None:
        self.base, self.connector, self.view = self.freeze_pair(self.graph)
        self.info["connector_edges"] = self.connector.num_edges

    def teardown(self) -> None:
        self.base = self.connector = self.view = None

    def sweep(self, base, connector, anchors: int) -> tuple[dict[str, float], str]:
        """Q2/Q3 bulk k-hop, Q7 label propagation, Q1 blast radius: each on the
        base store and, with half the hops or passes, on the connector.
        Returns the time per kernel and a digest of every output."""
        # The first K jobs, not a sample: blast-radius cost is heavy-tailed in
        # the anchor, and a per-seed sample moved the sweep time by +-4%.
        jobs = [job for job in base.vertex_ids("Job")
                if connector.has_vertex(job)][:anchors]
        timings: dict[str, float] = {}
        outputs: list[Any] = []

        def timed(name: str, call) -> None:
            start = time.perf_counter()
            outputs.append(call())
            timings[name] = time.perf_counter() - start

        for direction in ("in", "out"):
            timed(f"bulk_k_hop_{direction}", lambda: [
                traversal.bulk_k_hop_counts(store, hops, direction=direction,
                                            anchor_type="Job", vertex_type="Job")
                for store, hops in ((base, 4), (connector, 2))])
        timed("label_propagation", lambda: [
            community.label_propagation(store, passes=passes, write_property=None)
            for store, passes in ((base, 25), (connector, 13))])
        timed("blast_radius", lambda: [
            traversal.blast_radius(store, max_hops=hops, anchors=jobs)
            for store, hops in ((base, 8), (connector, 4))])
        # float(): an empty reference sum is the int 0, which JSON tells apart
        outputs[-1] = [[(e.job, e.downstream_jobs, float(e.total_cpu)) for e in entries]
                       for entries in outputs[-1]]
        return timings, digest(outputs)

    def warm_up(self) -> None:
        self.sweep(self.base, self.connector, self.scale["blast_anchors"])

    def measure(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        before = dict(kernels.dispatch_counts)
        sweeps = 0
        while sweeps < self.scale["min_sweeps"] or time.perf_counter() < deadline:
            sweeps += 1
            timings, fingerprint = self.sweep(self.base, self.connector,
                                              self.scale["blast_anchors"])
            # The sweep is its kernels; hashing the outputs is not timed.
            self.samples.setdefault("sweep", []).append(sum(timings.values()))
            for kernel, elapsed in timings.items():
                self.samples.setdefault(kernel, []).append(elapsed)
            self.digests.add(fingerprint)
            self.checks.record(len(self.digests) == 1,
                               "analytics: kernel output digest changed between sweeps")
        for tier, count in kernels.dispatch_counts.items():
            self.bump(f"tier_{tier}", count - before.get(tier, 0))

    def verify(self) -> None:
        """CSR kernels against the dict reference on a graph small enough
        (< ``AUTO_FREEZE_MIN_EDGES``) that dict inputs stay on the reference."""
        base, connector, view = self.freeze_pair(self.small)
        _, kernel_digest = self.sweep(base, connector, len(self.small.vertex_ids("Job")))
        for graph in (self.small, view.graph):
            discard_snapshot(graph)  # or dispatch adopts the published CSR store
        before = dict(kernels.dispatch_counts)
        _, reference_digest = self.sweep(self.small, view.graph,
                                         len(self.small.vertex_ids("Job")))
        after = kernels.dispatch_counts
        self.checks.record(
            after["reference"] > before["reference"]
            and all(after[tier] == before[tier] for tier in ("vectorized", "loops")),
            "analytics: the reference sweep did not stay on the reference tier")
        self.checks.record(kernel_digest == reference_digest,
                           "analytics: CSR kernels differ from the dict reference")


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (QueryViewHit, QueryBaseScan, CommitSmallBatch,
                              IngestBulkRestart, MixedReadWrite, AnalyticsSweep)}

