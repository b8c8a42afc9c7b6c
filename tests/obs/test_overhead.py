"""The disabled observability path must stay within 3% of uninstrumented.

The serving pipeline always calls through its stage timer and metric
scope; when no timer/registry was injected those are the shared null
objects.  This test measures a serve-shaped loop (a classify-sized
chunk of work per request) bare vs. fully null-instrumented (two spans
plus a counter and a histogram observation per request) and bounds the
difference.  Min-of-N timing keeps scheduler noise out of the
comparison, and the two loops are timed in alternation so that a slow
drift of the host's speed (frequency scaling, a busy neighbour) lands on
both alike; a couple of attempts absorb the rest.
"""

import time

import pytest

from repro.obs import NULL_STAGE_TIMER
from repro.obs.metrics import _NULL_SCOPE

#: Acceptance bound on disabled-path overhead (relative).
MAX_OVERHEAD = 0.03

REQUESTS = 50


def _classify_work():
    """A deterministic classify-sized unit of work (~100 µs)."""
    total = 0
    for i in range(2_000):
        total += i * i
    return total


def _bare_batch():
    for _ in range(REQUESTS):
        _classify_work()


def _instrumented_batch():
    counter = _NULL_SCOPE.counter("serve.served")
    hist = _NULL_SCOPE.log_histogram("serve.latency_us")
    for _ in range(REQUESTS):
        with NULL_STAGE_TIMER.span("admission"):
            pass
        with NULL_STAGE_TIMER.span("classify"):
            _classify_work()
        counter.inc()
        hist.observe(60.0)


def _best_of_interleaved(fns, repeats=15):
    """The best time of each of ``fns``, timed in turn ``repeats`` times."""
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


class TestDisabledOverhead:
    def test_null_objects_are_shared_singletons(self):
        # Zero allocation on the disabled path: every call returns the
        # same preallocated objects.
        assert NULL_STAGE_TIMER.span("a") is NULL_STAGE_TIMER.span("b")
        assert _NULL_SCOPE.counter("x") is _NULL_SCOPE.counter("y")
        assert _NULL_SCOPE.log_histogram("x") is _NULL_SCOPE.gauge("y")

    def test_overhead_within_three_percent(self):
        _bare_batch(), _instrumented_batch()  # warm up both paths
        ratio = None
        for _attempt in range(4):
            bare, instrumented = _best_of_interleaved(
                (_bare_batch, _instrumented_batch))
            ratio = instrumented / bare
            if ratio <= 1.0 + MAX_OVERHEAD:
                return
        pytest.fail(
            f"disabled-path instrumentation costs "
            f"{(ratio - 1.0) * 100:.2f}% on a serve-shaped loop "
            f"(bound {MAX_OVERHEAD * 100:.0f}%)")
