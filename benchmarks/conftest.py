"""Shared benchmark fixtures.

Benchmarks regenerate the paper's tables/figures at full scale; classifier
builds are cached on disk (``.repro_cache/``) so only the first invocation
pays construction time.  Each benchmark prints the regenerated rows —
``pytest benchmarks/ --benchmark-only -s`` shows them.

Every ``run_once`` benchmark also drops a ``BENCH_<name>.json`` record at
the repo root (throughput figures, wall time, git sha, date) — the
perf-trajectory breadcrumbs that ``scripts/check_bench_regression.py``
compares against the previously committed records.
"""

from __future__ import annotations

import time

import pytest

from repro.harness import get_classifier, get_ruleset, get_trace
from repro.obs import extract_throughput, write_bench_record


@pytest.fixture(scope="session")
def cr04_expcuts():
    return get_classifier("CR04", "expcuts")


@pytest.fixture(scope="session")
def cr04_trace():
    return get_trace("CR04")


@pytest.fixture(scope="session")
def cr04_ruleset():
    return get_ruleset("CR04")


@pytest.fixture
def run_once(benchmark, request):
    """Benchmark a heavy regeneration exactly once (no warmup rounds).

    The returned result's throughput figures (any ``*gbps*``/``*mpps*``
    leaves of its ``data`` dict) plus wall time are written as
    ``BENCH_<name>.json`` at the repo root, keyed by the test name.  A
    ``bench_metrics`` marker supplies the figures instead, and its
    ``clock=`` keyword, when given, is recorded as the clock domain.
    Its ``extra=`` keyword maps the result to lower-is-better figures
    (times, say), recorded beside the metrics but never rate-compared.
    """
    name = request.node.name.removeprefix("test_")
    extractor = request.node.get_closest_marker("bench_metrics")

    def runner(fn):
        start = time.perf_counter()
        result = benchmark.pedantic(fn, rounds=1, iterations=1,
                                    warmup_rounds=0)
        wall = time.perf_counter() - start
        clock = extra = None
        if extractor is not None:
            metrics = extractor.args[0](result)
            clock = extractor.kwargs.get("clock")
            if "extra" in extractor.kwargs:
                extra = extractor.kwargs["extra"](result)
        else:
            data = getattr(result, "data", None)
            metrics = extract_throughput(data) if isinstance(data, dict) else {}
        try:
            write_bench_record(name, metrics, wall, extra=extra,
                               clock=clock)
        except OSError:
            pass  # read-only checkout: the benchmark itself still counts
        return result

    return runner
