#!/usr/bin/env python3
"""One benchmark for the whole engine (see ``perf/README.md``).

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perf/run.py [--scale smoke] [--trace both] [--repeat K] [--out FILE]
    python3 perf/run.py compare A.json B.json

Every run generates its inputs from the seed, checks every output against an
oracle, prints each metric by name with its unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics of
an untraced run (``--trace 0``) or the per-layer metrics of a traced one
(``--trace 1``).  The exit code is non-zero when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    # str hashes, and with them dict/set iteration order and timing, differ
    # from one interpreter start to the next; pin them here and (through the
    # environment) in every server child so that runs repeat.
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

ROOT = Path(__file__).resolve().parents[1]
# The repository root (for ``perf.*``) and ``src/`` (for ``repro``) replace
# this script's own directory on the path, where ``trace.py`` would shadow
# the stdlib module of that name.
sys.path[:] = [str(ROOT), str(ROOT / "src")] + [
    entry for entry in sys.path if Path(entry or ".").resolve() != ROOT / "perf"]

try:
    import numpy  # noqa: E402
    import repro  # noqa: E402,F401 - probe: the engine must be importable
except ImportError as exc:
    sys.exit(f"perf/run.py: the engine under src/ is not importable here ({exc})")

from perf import metrics, trace  # noqa: E402
from perf.harness import LIVE_SERVERS, OUT  # noqa: E402
from perf.workloads import SCALES, WORKLOADS  # noqa: E402



def benchmark() -> dict:
    """The contract file: bounds for ``compare``, the default run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


FLUSH_POLICY = ("WAL on, fsync=True: every commit fsyncs its marker record "
                "before it is acknowledged; checkpoint every 64 commits")
#: Share of ``--seconds`` a traced run spends with its wrappers dormant, to
#: have an untraced median from the same process for ``trace.overhead_ratio``.
DORMANT_SHARE = 0.3
#: A run must end within the driver's 180 s; stop well before that.
WATCHDOG_SECONDS = 170

_recorder: trace.Recorder | None = None


def recorder() -> trace.Recorder:
    global _recorder
    if _recorder is None:
        _recorder = trace.install("c")
    return _recorder


def environment(args: argparse.Namespace) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, check=True).stdout.strip()
        dirty = bool(subprocess.run(["git", "status", "--porcelain", "--", "src"],
                                    cwd=ROOT, text=True, capture_output=True,
                                    check=True).stdout.strip())
    except (OSError, subprocess.CalledProcessError):
        sha, dirty = "unknown", False
    return {"git_sha": sha, "src_dirty": dirty, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "seed": args.seed, "scale": args.scale, "seconds": args.seconds,
            "flush_policy": FLUSH_POLICY}


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 scale_name: str, perturb: bool) -> dict:
    """One run of one workload; returns its record for the result file."""
    scale = SCALES[scale_name]
    workdir = OUT / f"work-{os.getpid()}-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    sink = recorder() if traced else None
    workload = WORKLOADS[name](seed, scale, workdir, sink, perturb)
    untraced: dict[str, list[float]] = {}
    measure_start_ns = 0
    signal.alarm(WATCHDOG_SECONDS)
    try:
        start = time.perf_counter()
        workload.generate()
        generate_s = time.perf_counter() - start
        setup_times = []
        for repetition in range(scale["setups"]):
            if repetition:
                workload.teardown()
                workload.server_spans.clear()
            if traced:  # keep the spans of the set-up that is used
                sink.drain()
                sink.active = True
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        if traced:
            workload.set_tracing(False)
        start = time.perf_counter()
        workload.warm_up()
        warmup_s = time.perf_counter() - start
        if traced:
            workload.measure(seconds * DORMANT_SHARE)
            untraced = {key: list(values) for key, values in workload.samples.items()}
            workload.samples.clear()
            workload.set_tracing(True)
            measure_start_ns = time.perf_counter_ns()
            workload.measure(seconds * (1 - DORMANT_SHARE))
            workload.set_tracing(False)
        else:
            workload.measure(seconds)
        workload.verify()
        workload.teardown()
    finally:
        signal.alarm(0)
        for server in list(LIVE_SERVERS):
            server.kill()
        shutil.rmtree(workdir, ignore_errors=True)

    if traced:
        spans = []
        for source, recorded in [("client", sink.drain()), *workload.server_spans]:
            for span in recorded:
                span["src"] = source
            spans += recorded
        trace.write_spans(spans, OUT / f"trace_{name}.jsonl")
        values = metrics.per_layer(workload, spans, measure_start_ns, untraced)
        units = metrics.PER_LAYER
    else:
        values = metrics.end_to_end(workload, setup_times)
        units = metrics.END_TO_END
    checks = workload.checks
    return {
        "workload": name, "trace": int(traced), "seed": seed,
        "correct": checks.failed == 0, "attempted": checks.attempted,
        "failed": checks.failed, "failures": checks.failures,
        "metrics": {key: {"value": values[key], "unit": unit}
                    for key, unit in units.items()},
        "info": {**workload.info, "generate_s": generate_s, "warmup_s": warmup_s,
                 "setup_times_s": setup_times,
                 "samples": {key: len(value) for key, value in workload.samples.items()},
                 "counts": workload.counts},
    }


def report(record: dict) -> None:
    info = record["info"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"|V|={info.get('vertices')} |E|={info.get('edges')} "
          f"generate_s={info['generate_s']:.3f} warmup_s={info['warmup_s']:.3f} "
          f"samples={info['samples']}")
    for name, metric in record["metrics"].items():
        print(f"{record['workload']:22s} {name:34s} {metric['value']:16.4f} {metric['unit']}")
    ratio = record["failed"] / max(record["attempted"], 1)
    print(f"{record['workload']:22s} {'failed_ratio':34s} {ratio:16.4f} "
          f"ratio ({record['failed']} of {record['attempted']})")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


def on_alarm(signum, frame) -> None:
    raise TimeoutError(f"run exceeded {WATCHDOG_SECONDS}s")


def command_run(args: argparse.Namespace) -> int:
    names = args.workload or list(WORKLOADS)
    OUT.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, on_alarm)
    env = environment(args)
    print("# " + " ".join(f"{key}={value}" for key, value in env.items()
                          if key != "flush_policy"))
    print(f"# flush policy: {FLUSH_POLICY}")
    records = []
    for repetition in range(args.repeat):
        for name in names:
            for traced in {"0": (False,), "1": (True,), "both": (False, True)}[args.trace]:
                record = run_workload(name, args.seed + repetition, args.seconds,
                                      traced, args.scale, args.perturb)
                report(record)
                records.append(record)
    if args.out:
        Path(args.out).write_text(
            json.dumps({"env": env, "runs": records}, indent=1), encoding="utf-8")
    summary = {
        "correct": all(record["correct"] for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        # Several runs have no one value per metric: they are in the lines
        # above and in the --out file.
        "metrics": records[0]["metrics"] if len(records) == 1 else {},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


# -------------------------------------------------------------------- compare
def medians(path: str) -> tuple[dict, dict]:
    """``{(workload, metric): [values]}`` of a result file's untraced runs, and
    ``{workload: (failed, attempted)}``."""
    values: dict = {}
    failed: dict = {}
    for record in json.loads(Path(path).read_text(encoding="utf-8"))["runs"]:
        seen = failed.get(record["workload"], (0, 0))
        failed[record["workload"]] = (seen[0] + record["failed"],
                                      seen[1] + record["attempted"])
        if record["trace"] == 0:
            for name, metric in record["metrics"].items():
                values.setdefault((record["workload"], name), []).append(metric["value"])
    return values, failed


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def command_compare(args: argparse.Namespace) -> int:
    """One row per (metric, workload): both medians, the ratio with its base,
    and ``ok`` / ``worse`` / ``unresolved`` (spread wider than the bound)."""
    base, base_failed = medians(args.a)
    new, new_failed = medians(args.b)
    worse = 0
    print(f"{'workload':22s} {'metric':14s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A':>8s} {'bound':>6s} {'spread A':>9s} {'spread B':>9s}  verdict")
    for spec in benchmark()["end_to_end"]:
        for workload in WORKLOADS:
            key = (workload, spec["name"])
            if key not in base or key not in new:
                continue
            a, b = statistics.median(base[key]), statistics.median(new[key])
            ratio = b / a
            loss = ratio - 1 if spec["better"] == "lower" else 1 - ratio
            widest = max(spread(base[key]), spread(new[key]))
            verdict = ("unresolved" if widest > spec["bound"]
                       else "worse" if loss > spec["bound"] else "ok")
            worse += verdict == "worse"
            print(f"{workload:22s} {spec['name']:14s} {a:12.4f} {b:12.4f} "
                  f"{ratio:8.3f} {spec['bound']:6.2f} {spread(base[key]):9.3f} "
                  f"{spread(new[key]):9.3f}  {verdict} ({spec['unit']}, base A)")
    for workload in WORKLOADS:
        if workload in base_failed and workload in new_failed:
            a = base_failed[workload][0] / max(base_failed[workload][1], 1)
            b = new_failed[workload][0] / max(new_failed[workload][1], 1)
            verdict = "worse" if b > a else "ok"
            worse += verdict == "worse"
            print(f"{workload:22s} {'failed_ratio':14s} {a:12.4f} {b:12.4f} "
                  f"{'':8s} {'0':>6s} {'':9s} {'':9s}  {verdict} (may not rise)")
    return 1 if worse else 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="perf/run.py compare")
        parser.add_argument("a", help="result file of the base commit")
        parser.add_argument("b", help="result file of the change")
        return command_compare(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="workload to run (repeatable; default: all six)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of each measured phase "
                             "(default: BENCHMARK.json run_seconds; 0.5 at smoke scale)")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0",
                        help="0: untraced run, end-to-end metrics; 1: traced run, "
                             "per-layer metrics; both: one after the other")
    parser.add_argument("--scale", choices=list(SCALES), default="full")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, on seeds seed, seed+1, ...")
    parser.add_argument("--out", help="write every run's record to this JSON file")
    parser.add_argument("--perturb", action="store_true",
                        help="self-test: drop one oracle row, so the run must fail")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.5 if args.scale == "smoke" else benchmark()["run_seconds"]
    return command_run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
