"""Shared configuration for the experiment benchmarks.

Each benchmark file regenerates one table or figure of the paper's evaluation
(§VII) at a reduced scale, prints the resulting rows/series (so running
``pytest benchmarks/ --benchmark-only -s`` reproduces the paper's tables), and
asserts the qualitative shape the paper reports (who wins, rough factors,
where crossovers fall).

Every benchmark run also emits machine-readable results: each module
``benchmarks/test_<name>.py`` produces ``BENCH_<name>.json`` — a list of
``{"benchmark", "metric", "value", "timestamp"}`` entries — under
``benchmarks/out/`` (override with ``KASKADE_BENCH_OUT``).  Wall-clock time is
recorded automatically for every benchmark test; tests record domain metrics
(speedups, shed counts, latency quantiles) through the ``bench_record``
fixture.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

# Make the src/ layout importable even when the package is not installed
# (mirrors the pythonpath setting used for tests/).
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import pytest


@pytest.fixture(scope="session")
def benchmark_scale() -> str:
    """Dataset scale used by the benchmarks (kept small so runs finish quickly)."""
    return "tiny"


# --------------------------------------------------------- BENCH_*.json output
#: module stem (e.g. "service" for test_service.py) -> result entries.
_BENCH_RESULTS: dict[str, list[dict]] = defaultdict(list)


def _module_stem(node) -> str:
    stem = Path(str(node.fspath)).stem
    return stem[len("test_"):] if stem.startswith("test_") else stem


def bench_output_dir() -> Path:
    return Path(os.environ.get("KASKADE_BENCH_OUT",
                               Path(__file__).resolve().parent / "out"))


@pytest.fixture
def bench_record(request):
    """Record one machine-readable benchmark result.

    Usage::

        def test_saturation(bench_record):
            ...
            bench_record("service_saturation", "shed_requests", shed)

    Entries land in ``BENCH_<module>.json`` at session end.
    """
    stem = _module_stem(request.node)

    def record(benchmark: str, metric: str, value) -> None:
        _BENCH_RESULTS[stem].append({
            "benchmark": benchmark,
            "metric": metric,
            "value": value,
            "timestamp": time.time(),
        })

    return record


@pytest.fixture(autouse=True)
def _bench_wall_clock(request):
    """Every benchmark test contributes at least its wall-clock time."""
    start = time.perf_counter()
    yield
    _BENCH_RESULTS[_module_stem(request.node)].append({
        "benchmark": request.node.name,
        "metric": "wall_seconds",
        "value": time.perf_counter() - start,
        "timestamp": time.time(),
    })


def pytest_sessionfinish(session, exitstatus):
    if not _BENCH_RESULTS:
        return
    out = bench_output_dir()
    out.mkdir(parents=True, exist_ok=True)
    for stem, entries in sorted(_BENCH_RESULTS.items()):
        (out / f"BENCH_{stem}.json").write_text(json.dumps(entries, indent=2))
