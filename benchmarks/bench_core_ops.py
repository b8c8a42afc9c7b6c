"""Micro-benchmarks of the hot core operations (pytest-benchmark proper:
these run multiple rounds and report ops/sec)."""

import numpy as np
import pytest

from repro.core.habs import compress
from repro.core.popcount import popcount_u16
from repro.harness import get_classifier, get_trace


@pytest.fixture(scope="module")
def engine():
    return get_classifier("CR01", "expcuts")


@pytest.fixture(scope="module")
def batch_fields():
    trace = get_trace("CR01", count=4096)
    return [np.ascontiguousarray(f, dtype=np.uint32) for f in trace.field_arrays()]


def test_scalar_classify(benchmark, engine, batch_fields):
    header = tuple(int(f[0]) for f in batch_fields)
    result = benchmark(engine.classify, header)
    assert result is None or result >= 0


def test_batch_classify_4k(benchmark, engine, batch_fields):
    out = benchmark(engine.classify_batch, batch_fields)
    assert len(out) == 4096


def test_access_trace_recording(benchmark, engine, batch_fields):
    header = tuple(int(f[1]) for f in batch_fields)
    trace = benchmark(engine.access_trace, header)
    assert trace.total_accesses <= 26


def test_habs_compress(benchmark):
    pointers = [i // 16 for i in range(256)]
    arr = benchmark(compress, pointers, 4)
    assert arr.total_slots == 256


def test_popcount_vectorized(benchmark):
    values = np.arange(1 << 16, dtype=np.int64)
    out = benchmark(popcount_u16, values)
    assert int(out[0xFFFF]) == 16


#: The whole 4k trace, timed as the median of interleaved samples: one
#: 512-packet pass (14 ms) swung by more than 5% from run to run.  A
#: batch sample repeats the 4k batch call so that both sides' samples
#: last tens of milliseconds (~30 ms batch, ~20 ms scalar on CR01).
BATCH_VS_SCALAR_PACKETS = 4096
BATCH_VS_SCALAR_SAMPLES = 31
BATCH_CALLS_PER_SAMPLE = 16
#: Headers per ``classify_many`` call on the scalar side: the largest
#: burst a fabric worker answers in one request.
SCALAR_BLOCK = 64


# Real pps figures for the BENCH record (all higher-is-better); the
# measured result is a (batch_time, scalar_time) pair of per-pass
# medians.  NB: the marker argument must stay a lambda — pytest treats a
# lone *named* function as the decoration target, not as a marker
# argument.
@pytest.mark.bench_metrics(lambda times: {
    "batch_kpps": round(BATCH_VS_SCALAR_PACKETS / times[0] / 1e3, 3),
    "scalar_kpps": round(BATCH_VS_SCALAR_PACKETS / times[1] / 1e3, 3),
    "batch_speedup": round(times[1] / times[0], 3),
})
def test_batch_beats_scalar_loop(run_once, engine, batch_fields):
    """The HPC-guide payoff: vectorized traversal must win big.

    The scalar side is the fabric worker's loop: ``classify_many`` over
    blocks of :data:`SCALAR_BLOCK` headers, so ``scalar_kpps`` measures
    the scalar walk as served, with its per-call set-up paid once per
    block rather than once per header.  Both sides time only the match
    loop: the header blocks are unpacked from the field columns before
    the clock starts.
    """
    import statistics
    import time

    fields = [f[:BATCH_VS_SCALAR_PACKETS] for f in batch_fields]
    headers = list(zip(*(f.tolist() for f in fields)))
    blocks = [headers[i:i + SCALAR_BLOCK]
              for i in range(0, len(headers), SCALAR_BLOCK)]

    def measure():
        batch_times, scalar_times = [], []
        for _ in range(BATCH_VS_SCALAR_SAMPLES):
            start = time.perf_counter()
            for _ in range(BATCH_CALLS_PER_SAMPLE):
                engine.classify_batch(fields)
            batch_times.append(
                (time.perf_counter() - start) / BATCH_CALLS_PER_SAMPLE)
            start = time.perf_counter()
            for block in blocks:
                engine.classify_many(block)
            scalar_times.append(time.perf_counter() - start)
        return statistics.median(batch_times), statistics.median(scalar_times)

    batch_time, scalar_time = run_once(measure)
    print(f"\nbatch {batch_time * 1e3:.1f} ms vs classify_many loop "
          f"{scalar_time * 1e3:.1f} ms over {BATCH_VS_SCALAR_PACKETS} packets "
          f"(median of {BATCH_VS_SCALAR_SAMPLES} samples)")
    assert batch_time < scalar_time


#: FW03 headers per sample of the serving-path benchmark.
SERVICE_PATH_PACKETS = 2048


# Real pps through the whole serving path and through the bare replica
# it fronts (both higher-is-better); the measured result is a
# (served_time, bare_time) pair of per-pass medians.  What guard and
# service add per header, 1/served_kpps - 1/bare_kpps in µs, goes to
# ``extra`` (lower is better).
@pytest.mark.bench_metrics(lambda times: {
    "served_kpps": round(SERVICE_PATH_PACKETS / times[0] / 1e3, 3),
    "bare_kpps": round(SERVICE_PATH_PACKETS / times[1] / 1e3, 3),
}, clock="real", extra=lambda times: {
    "service_overhead_us": round(
        (times[0] - times[1]) / SERVICE_PATH_PACKETS * 1e6, 3),
})
def test_service_path(run_once):
    """What the serving layer costs on top of the lookup it fronts.

    One sample is a pass of FW03 headers through ``FloodGuard.submit``
    -> ``ClassificationService.classify`` (two ExpCuts replicas, like
    the edge service), interleaved with a pass straight through the
    primary's ``UpdatableClassifier.classify``; each side reports the
    median of ``BATCH_VS_SCALAR_SAMPLES`` samples.
    """
    import statistics
    import time

    from repro.classifiers import ExpCutsClassifier
    from repro.classifiers.updates import UpdatableClassifier
    from repro.core.rule import RuleSet
    from repro.harness import get_ruleset
    from repro.obs.metrics import MetricsRegistry
    from repro.serve import ClassificationService, FloodGuard, ServicePolicy

    rules = list(get_ruleset("FW03").rules)
    replicas = [UpdatableClassifier(RuleSet(list(rules)), ExpCutsClassifier)
                for _ in range(2)]
    # A generous slow-call bound: a scheduler hiccup on a shared host
    # must not trip a breaker in the middle of a sample.
    service = ClassificationService(replicas,
                                    policy=ServicePolicy(slow_call_s=0.5))
    guard = FloodGuard(service.classify, MetricsRegistry().scope("guard"))
    submit, bare = guard.submit, replicas[0].classify
    trace = get_trace("FW03", count=SERVICE_PATH_PACKETS)
    headers = list(zip(*(f.tolist() for f in trace.field_arrays())))

    def measure():
        served_times, bare_times = [], []
        for _ in range(BATCH_VS_SCALAR_SAMPLES):
            start = time.perf_counter()
            for header in headers:
                submit(header)
            served_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            for header in headers:
                bare(header)
            bare_times.append(time.perf_counter() - start)
        return statistics.median(served_times), statistics.median(bare_times)

    served_time, bare_time = run_once(measure)
    print(f"\nserved {served_time / SERVICE_PATH_PACKETS * 1e6:.2f} us vs "
          f"bare {bare_time / SERVICE_PATH_PACKETS * 1e6:.2f} us per header "
          f"over {SERVICE_PATH_PACKETS} FW03 headers "
          f"(median of {BATCH_VS_SCALAR_SAMPLES} samples)")
    assert service.counter("served") == (
        BATCH_VS_SCALAR_SAMPLES * SERVICE_PATH_PACKETS)


#: In-process FW03 builds timed by the ExpCuts build benchmark.
EXPCUTS_BUILD_RUNS = 5


# Builds and packs per second (higher-is-better) for the rate check;
# the median seconds themselves go to the record's ``extra``.  The
# measured result is a (build_s, pack_s) pair of medians.
@pytest.mark.bench_metrics(lambda times: {
    "builds_per_s": round(1 / times[0], 3),
    "packs_per_s": round(1 / times[1], 3),
}, clock="real", extra=lambda times: {
    "build_s": round(times[0], 4),
    "pack_s": round(times[1], 4),
})
def test_expcuts_build(run_once):
    """One ExpCuts build of FW03, the edge service's rule set, then the
    aggregated pack of the built tree.

    The serving stack builds on the request side (every set-up, every
    compaction), so this is a serving cost, not an offline one.  Each of
    ``EXPCUTS_BUILD_RUNS`` runs builds from scratch in this process;
    build and pack each report their median.
    """
    import statistics
    import time

    from repro.core.expcuts import build_expcuts
    from repro.core.layout import pack_tree
    from repro.harness import get_ruleset

    ruleset = get_ruleset("FW03")
    node_counts = set()

    def measure():
        build_times, pack_times = [], []
        for _ in range(EXPCUTS_BUILD_RUNS):
            start = time.perf_counter()
            tree = build_expcuts(ruleset)
            build_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            pack_tree(tree)
            pack_times.append(time.perf_counter() - start)
            node_counts.add(len(tree.nodes))
        return statistics.median(build_times), statistics.median(pack_times)

    build_s, pack_s = run_once(measure)
    print(f"\nFW03 ExpCuts build {build_s:.3f} s, pack {pack_s:.3f} s "
          f"(median of {EXPCUTS_BUILD_RUNS} runs)")
    assert node_counts == {20_463}


#: CR01 headers per pass of the fabric-audit benchmark, the (input,
#: burst size) passes it audits them in, and the samples per pass.
FABRIC_AUDIT_PACKETS = 4096
FABRIC_AUDIT_PASSES = (("uint32", 1), ("int64", 32), ("uint32", 32),
                       ("int64", 64), ("uint32", 64))
FABRIC_AUDIT_SAMPLES = 15


# Headers audited per second (higher-is-better) for each burst size and
# input: int64 rows re-packed from header tuples per burst (the audit
# before packed bursts) against the burst's own uint32 rows (the audit
# now).  The one-row pass is a scalar ``Fabric.classify`` audit.  The
# measured result maps (input, burst) to the median pass time.
@pytest.mark.bench_metrics(lambda times: {
    f"{kind}_b{burst}_kpps": round(FABRIC_AUDIT_PACKETS / t / 1e3, 3)
    for (kind, burst), t in sorted(times.items())
}, clock="real")
def test_fabric_audit_path(run_once):
    """The fabric's in-lock oracle audit, per header, on CR01.

    One sample audits every header once, burst by burst, through
    ``LinearSearchClassifier.classify_batch``; the passes alternate, and
    each reports the median of ``FABRIC_AUDIT_SAMPLES`` samples.
    """
    import statistics
    import time

    from repro.classifiers import LinearSearchClassifier
    from repro.harness import get_ruleset
    from repro.serve.transport import pack_rows

    oracle = LinearSearchClassifier(get_ruleset("CR01"))
    trace = get_trace("CR01", count=FABRIC_AUDIT_PACKETS)
    headers = list(zip(*(f.tolist() for f in trace.field_arrays())))
    rows = pack_rows(headers)

    def audit_int64(burst):
        for lo in range(0, FABRIC_AUDIT_PACKETS, burst):
            oracle.classify_batch(
                np.array(headers[lo:lo + burst], dtype=np.int64).T)

    def audit_uint32(burst):
        for lo in range(0, FABRIC_AUDIT_PACKETS, burst):
            oracle.classify_batch(rows[lo:lo + burst].T)

    audits = {"int64": audit_int64, "uint32": audit_uint32}

    def measure():
        samples = {key: [] for key in FABRIC_AUDIT_PASSES}
        for _ in range(FABRIC_AUDIT_SAMPLES):
            for kind, burst in FABRIC_AUDIT_PASSES:
                start = time.perf_counter()
                audits[kind](burst)
                samples[kind, burst].append(time.perf_counter() - start)
        return {key: statistics.median(ts) for key, ts in samples.items()}

    times = run_once(measure)
    for (kind, burst), t in times.items():
        print(f"\naudit, {kind} {burst}-header bursts: "
              f"{t / FABRIC_AUDIT_PACKETS * 1e6:.2f} us per header "
              f"(median of {FABRIC_AUDIT_SAMPLES} samples)")
    fields = rows.T
    assert (oracle.classify_batch(fields).tolist()
            == oracle.classify_batch(fields.astype(np.int64)).tolist())
