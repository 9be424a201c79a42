"""Shared plumbing for the benchmark: child-server control, quantiles, checks."""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from typing import Any, Sequence

from repro.service.client import KaskadeClient, RetryPolicy

from perf import trace

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perf" / "out"

#: Every child this process started and has not yet reaped; ``run.py`` kills
#: what is left here on any exit path.
LIVE_SERVERS: list["ServerProcess"] = []


def p95(samples: Sequence[float]) -> float:
    """The 95th percentile, smoothed: the mean of the order statistics ranked
    between the 92.5th and the 97.5th percentile (nearest rank).

    A single order statistic jumps between modes when the slow mode holds
    about 5% of the samples (a GC pause every ~20th request does exactly
    that); the band mean moves in proportion instead.  With fewer than 20
    samples the band is the maximum alone.
    """
    ordered = sorted(samples)
    low = math.ceil(0.925 * len(ordered)) - 1
    high = max(math.ceil(0.975 * len(ordered)), low + 1)
    return statistics.fmean(ordered[low:high])


def median_ms(samples: Sequence[float]) -> float:
    return statistics.median(samples) * 1e3


class Checks:
    """Operations attempted and failed; a failed check fails the command."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._lock = threading.Lock()  # reader and writer threads both record

    def record(self, ok: bool, what: str) -> None:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(what)


class ServerProcess:
    """One ``perf.server_main`` child and its stdin/stdout control channel."""

    def __init__(self, config: dict[str, Any], workdir: Path, tag: str) -> None:
        # The tag doubles as the child's span-id prefix, unique per process.
        self.config = {**config, "label": f"{tag}-"}
        self.spans_path = workdir / f"{tag}.spans.jsonl"
        self.config["spans_out"] = str(self.spans_path)
        config_path = workdir / f"{tag}.config.json"
        config_path.write_text(json.dumps(self.config), encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(ROOT / "src")])
        self.process = subprocess.Popen(
            [sys.executable, "-m", "perf.server_main", str(config_path)],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        LIVE_SERVERS.append(self)
        try:
            self.ready = self._read()
        except BaseException:
            self.kill()
            raise
        self.port: int = self.ready["port"]

    def _read(self) -> dict[str, Any]:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server child exited with code {self.process.wait()} "
                f"before answering (config {self.config})")
        return json.loads(line)

    def command(self, cmd: str, **fields: Any) -> dict[str, Any]:
        self.process.stdin.write(json.dumps({"cmd": cmd, **fields}) + "\n")
        self.process.stdin.flush()
        reply = self._read()
        if not reply.get("ok"):
            raise RuntimeError(f"server child refused {cmd!r}: {reply}")
        return reply

    def client(self) -> KaskadeClient:
        """The real client with retries off: a shed or a 5xx is a failure the
        benchmark must count, not something to hide behind a backoff."""
        return KaskadeClient("127.0.0.1", self.port,
                             retry=RetryPolicy(max_attempts=1),
                             default_deadline=30.0)

    def stop(self) -> list[dict[str, Any]]:
        """Orderly shutdown; returns the spans the child recorded (if any)."""
        try:
            self.command("shutdown")
            self.process.wait(timeout=20)
        finally:
            self.kill()
        if self.config.get("trace") and self.spans_path.exists():
            return trace.read_spans(self.spans_path)
        return []

    def kill(self) -> None:
        """Make sure the child is gone and reaped (idempotent)."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for pipe in (self.process.stdin, self.process.stdout):
            if pipe is not None:
                pipe.close()
        if self in LIVE_SERVERS:
            LIVE_SERVERS.remove(self)


def scrape(client: KaskadeClient) -> dict[str, float]:
    """``/metrics`` as ``{series: value}`` (labels kept in the series name)."""
    text = client.request("GET", "/metrics").body.get("raw", "")
    values: dict[str, float] = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            series, _, value = line.rpartition(" ")
            try:
                values[series] = float(value)
            except ValueError:
                pass
    return values
