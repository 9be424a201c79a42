"""Crash-safe durability walkthrough: commit, crash, recover, verify.

The cycle this script drives:

1. open a durable service over an empty state directory
   (``GraphService.open_durable`` — checkpoint 0 is written immediately);
2. commit mutation batches through the service; each one is write-ahead
   logged (batch record before any op applies, fsynced marker before the
   acknowledgement) — an oracle graph mirrors exactly the acknowledged ops;
3. arm the fault injector to **crash the process mid-commit** at the
   ``wal.append`` point, then simulate power loss: every WAL byte that was
   never fsynced really vanishes;
4. recover in a "new process" (``GraphService.open_durable`` over the same
   directory): newest valid checkpoint + WAL-tail replay;
5. verify the recovered graph is *exactly* the acknowledged prefix — same
   fingerprint (vertices, edges with ids, properties), same version — and
   that the in-flight, never-acknowledged batch did not resurrect.

Run with::

    python examples/recover.py

WAL segment rollover and real fsyncs are ``GraphService.open_durable``
arguments (``segment_bytes=``, ``fsync=``; see README "Durability &
recovery").  Environment knob: ``CHAOS_SEED`` (seeds the fault injector; the
CI torture matrix sweeps it).
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from repro.datasets import provenance_graph
from repro.graph.io import graph_fingerprint, graph_from_dict, graph_to_dict
from repro.service import GraphService
from repro.testing import FaultInjector, InjectedCrash, chaos_seed


def main() -> None:
    root = Path(tempfile.mkdtemp(prefix="kaskade-durable-"))
    print(f"state directory: {root}")
    faults = FaultInjector(seed=chaos_seed(default=11))

    # -- 1. fresh durable service: checkpoint 0 is the recovery baseline ----
    service = GraphService.open_durable(
        root, graph=provenance_graph(num_jobs=20, seed=7), faults=faults,
        checkpoint_every=4, segment_bytes=4096)
    # The oracle mirrors acknowledged commits only.  Built via the
    # id-preserving round trip so edge ids match the live graph exactly.
    oracle = graph_from_dict(graph_to_dict(service.kaskade.graph,
                                           include_ids=True))

    # -- 2. acknowledged commits: batch + fsynced marker per /mutate --------
    for index in range(6):
        ops = [{"op": "add_vertex", "id": f"job_x{index}", "type": "Job"},
               {"op": "add_edge", "source": f"job_x{index}",
                "target": "file-0", "label": "WRITES_TO"}]
        response = service.handle("POST", "/mutate", {"ops": ops})
        assert response.status == 200, response.body
        for op in ops:  # acknowledged -> mirror into the oracle
            if op["op"] == "add_vertex":
                oracle.add_vertex(op["id"], op["type"])
            else:
                oracle.add_edge(op["source"], op["target"], op["label"])
        print(f"commit {index}: acknowledged at version "
              f"{response.body['version']}")

    # -- 3. crash mid-commit: the 7th batch dies inside the WAL append ------
    faults.arm_crash("wal.append")
    try:
        service.handle("POST", "/mutate", {"ops": [
            {"op": "add_vertex", "id": "job_lost", "type": "Job"}]})
        raise AssertionError("the armed crash did not fire")
    except InjectedCrash as crash:
        print(f"crash injected at {crash.point!r} — commit never acknowledged")
    service.durability.simulate_power_loss()  # unsynced bytes vanish
    print("power loss simulated: WAL truncated to its fsync watermarks")

    # -- 4. recover in a "new process" --------------------------------------
    recovered = GraphService.open_durable(root)
    result = recovered.durability.last_recovery
    print(f"recovered: {result.describe()}")
    ready = recovered.handle("GET", "/health/ready", None)
    print(f"readiness: {ready.status} {ready.body['status']}")

    # -- 5. the recovered state IS the acknowledged prefix ------------------
    graph = recovered.kaskade.graph
    assert graph_fingerprint(graph) == graph_fingerprint(oracle), \
        "recovered graph diverges from the acknowledged prefix"
    assert graph.version == oracle.version
    assert graph.has_vertex("job_x5")          # acknowledged: survived
    assert not graph.has_vertex("job_lost")    # unacknowledged: discarded
    print(f"verified: version {graph.version}, fingerprints match, "
          f"unacknowledged commit did not resurrect")

    shutil.rmtree(root)
    print("OK")


if __name__ == "__main__":
    main()
