"""Durability overhead + recovery throughput benchmarks.

Two questions the crash-safety layer must answer with numbers:

1. **What does the WAL cost on the commit path?**  The same mutation stream
   is committed through two otherwise-identical MVCC stacks — one with a
   :class:`~repro.durability.DurabilityEngine` attached, one without — and
   the ratio is asserted (≤ ``MAX_WAL_OVERHEAD``).  The asserted run disables
   ``fsync`` so it measures the *logging* overhead (encode + frame + write +
   flush) deterministically; the fsync-enabled ratio is recorded as a metric
   (its cost is hardware, tracked live by the
   ``kaskade_wal_fsync_latency_seconds`` histogram) but not asserted.
2. **How fast is recovery?**  A WAL holding ≥ ``REPLAY_RECORDS`` records is
   replayed through :func:`~repro.durability.recover_kaskade` under an
   asserted wall-clock budget.

Set ``BENCH_SMOKE=1`` (as CI does) to shrink the commit counts
while keeping every assertion.  Results land in ``BENCH_durability.json``.
"""

import os
import time

from repro.core.kaskade import Kaskade
from repro.datasets.provenance import provenance_graph
from repro.durability import DurabilityEngine, recover_kaskade
from repro.service.mvcc import SnapshotManager

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

#: Commits per side of the overhead comparison.
NUM_COMMITS = 150 if SMOKE else 400
OPS_PER_COMMIT = 12
#: WAL records the recovery benchmark must replay (batch + marker pairs).
REPLAY_RECORDS = 10_000
#: Asserted ceiling on (durable commit time / plain commit time), fsync off.
MAX_WAL_OVERHEAD = 1.5
#: Asserted ceiling on recovering the ≥10k-record tail, seconds.
RECOVERY_BUDGET_SECONDS = 20.0


def _ops(commit_index: int) -> list[dict]:
    ops = [{"op": "add_vertex", "id": f"b{commit_index}_{i}", "type": "Job",
            "properties": {"cpu": float(i)}} for i in range(OPS_PER_COMMIT - 2)]
    ops.append({"op": "add_edge", "source": f"b{commit_index}_0",
                "target": f"b{commit_index}_1", "label": "SPAWNS"})
    ops.append({"op": "remove_edge", "source": f"b{commit_index}_0",
                "target": f"b{commit_index}_1", "label": "SPAWNS"})
    return ops


def _time_commits(snapshots: SnapshotManager) -> float:
    start = time.perf_counter()
    for index in range(NUM_COMMITS):
        snapshots.commit(_ops(index))
    return time.perf_counter() - start


def _durable_stack(root, fsync: bool) -> SnapshotManager:
    kaskade = Kaskade(provenance_graph(num_jobs=30, seed=9))
    engine = DurabilityEngine(root, fsync=fsync, checkpoint_every=10 ** 9)
    return SnapshotManager(kaskade, durability=engine)


def test_wal_commit_overhead(tmp_path, bench_record):
    plain = SnapshotManager(Kaskade(provenance_graph(num_jobs=30, seed=9)))
    _time_commits(plain)  # warm-up: parse caches, allocator, page cache
    plain = SnapshotManager(Kaskade(provenance_graph(num_jobs=30, seed=9)))
    plain_seconds = _time_commits(plain)

    durable_seconds = _time_commits(
        _durable_stack(tmp_path / "nofsync", fsync=False))
    ratio = durable_seconds / plain_seconds
    fsync_seconds = _time_commits(
        _durable_stack(tmp_path / "fsync", fsync=True))
    fsync_ratio = fsync_seconds / plain_seconds

    per_commit_us = durable_seconds / NUM_COMMITS * 1e6
    print(f"\ncommit overhead over {NUM_COMMITS} commits x "
          f"{OPS_PER_COMMIT} ops: plain={plain_seconds:.3f}s "
          f"wal={durable_seconds:.3f}s (x{ratio:.2f}, "
          f"{per_commit_us:.0f}us/commit) "
          f"wal+fsync={fsync_seconds:.3f}s (x{fsync_ratio:.2f})")
    bench_record("wal_commit_overhead", "plain_seconds", plain_seconds)
    bench_record("wal_commit_overhead", "wal_seconds", durable_seconds)
    bench_record("wal_commit_overhead", "ratio", ratio)
    bench_record("wal_commit_overhead", "fsync_seconds", fsync_seconds)
    bench_record("wal_commit_overhead", "fsync_ratio", fsync_ratio)
    assert ratio <= MAX_WAL_OVERHEAD, (
        f"WAL logging made commits x{ratio:.2f} slower "
        f"(budget x{MAX_WAL_OVERHEAD})")


def test_recovery_throughput(tmp_path, bench_record):
    kaskade = Kaskade(provenance_graph(num_jobs=30, seed=9))
    engine = DurabilityEngine(tmp_path, fsync=False,
                              checkpoint_every=10 ** 9)
    engine.initialize(kaskade)
    graph = kaskade.graph
    commits = REPLAY_RECORDS // 2  # one batch + one marker per commit
    for index in range(commits):
        op = {"op": "add_vertex", "id": f"r{index}", "type": "Job"}
        commit_id = engine.log_batch([op], base_version=graph.version)
        graph.add_vertex(f"r{index}", "Job")
        engine.log_marker(commit_id, version=graph.version, applied=1)
    engine.simulate_power_loss()  # fsync off: flushed bytes stay durable

    recovered, _, result = recover_kaskade(tmp_path)
    rate = result.wal_records / result.elapsed_seconds
    print(f"\nrecovery: {result.wal_records} WAL records "
          f"({result.replayed_batches} batches) in "
          f"{result.elapsed_seconds:.3f}s ({rate:,.0f} records/s)")
    bench_record("recovery_throughput", "wal_records", result.wal_records)
    bench_record("recovery_throughput", "elapsed_seconds",
                 result.elapsed_seconds)
    bench_record("recovery_throughput", "records_per_second", rate)
    assert result.wal_records >= REPLAY_RECORDS
    assert result.replayed_batches == commits
    assert recovered.graph.has_vertex(f"r{commits - 1}")
    assert result.elapsed_seconds < RECOVERY_BUDGET_SECONDS, (
        f"recovering {result.wal_records} records took "
        f"{result.elapsed_seconds:.2f}s (budget {RECOVERY_BUDGET_SECONDS}s)")
