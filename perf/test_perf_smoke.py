"""Smoke test of the benchmark command itself: checks and metric names only.

No timing is asserted, so the result does not depend on the machine.  Runs
``perf/run.py`` the way the driver does (a subprocess, from the repository
root) at ``--scale smoke``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perf/run.py", "--scale", "smoke", *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)


def test_every_workload_passes_its_checks_and_emits_every_metric(tmp_path):
    out = tmp_path / "smoke.json"
    done = run("--seed", "5", "--trace", "both", "--out", str(out))
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    result = json.loads(out.read_text(encoding="utf-8"))
    assert {"git_sha", "nproc", "python", "numpy", "seed", "scale"} <= set(result["env"])
    expected = {0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
                1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}}
    seen = set()
    for record in result["runs"]:
        seen.add((record["workload"], record["trace"]))
        assert record["correct"] and record["failed"] == 0, record["failures"]
        units = {name: metric["unit"] for name, metric in record["metrics"].items()}
        assert units == expected[record["trace"]], record["workload"]
        if record["trace"] == 0:  # end-to-end metrics are never 0
            assert all(metric["value"] > 0 for metric in record["metrics"].values())
    assert seen == {(name, traced) for name in WORKLOADS for traced in (0, 1)}
    assert "setup_s" in expected[0]


def test_a_wrong_oracle_row_fails_the_command():
    done = run("--workload", "query.view_hit", "--seed", "5", "--perturb")
    assert done.returncode != 0
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert not summary["correct"] and summary["failed"] > 0
