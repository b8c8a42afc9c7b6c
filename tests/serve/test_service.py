"""ClassificationService: admission, deadlines, retry, failover, audit,
drain/stop and snapshot persistence."""

import hashlib
import json
import threading
import time

import pytest

from repro.classifiers import LinearSearchClassifier
from repro.classifiers.updates import UpdatableClassifier
from repro.core.errors import (
    AdmissionRejected,
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceeded,
    RetriesExhausted,
    ServiceStopped,
    TransientServiceError,
)
from repro.core.rule import Rule
from repro.obs.metrics import disable_metrics, enable_metrics
from repro.serve import (
    CLOSED,
    OPEN,
    ClassificationService,
    ManualClock,
    Replica,
    RetryPolicy,
    ServicePolicy,
)

HEADER = (0x0A000001, 0xC0A80105, 12345, 80, 6)


class FixedClassifier:
    """A stub returning one fixed answer (no real structure needed)."""

    def __init__(self, answer=0):
        self.answer = answer
        self.rules = []

    def classify(self, header):
        return self.answer


def updatable(ruleset):
    return UpdatableClassifier(ruleset, LinearSearchClassifier,
                               rebuild_threshold=4)


def service_for(ruleset, policy=None, clock=None, replicas=2, hooks=None):
    clock = clock or ManualClock()
    reps = [
        Replica(f"sram{i}", updatable(ruleset),
                fault_hook=(hooks or {}).get(i))
        for i in range(replicas)
    ]
    return ClassificationService(
        reps, policy=policy or ServicePolicy(), clock=clock,
        sleep=clock.sleep), clock


class TestConstruction:
    def test_bare_classifiers_get_wrapped(self):
        svc = ClassificationService([FixedClassifier(), FixedClassifier()])
        assert [r.name for r in svc.replicas] == ["replica0", "replica1"]
        assert all(r.breaker is not None for r in svc.replicas)

    def test_needs_a_replica(self):
        with pytest.raises(ConfigurationError):
            ClassificationService([])


class TestHappyPath:
    def test_answers_match_oracle(self, tiny_ruleset):
        svc, _ = service_for(tiny_ruleset)
        oracle = tiny_ruleset
        for rule in tiny_ruleset:
            header = tuple(iv.lo for iv in rule.intervals)
            assert svc.classify(header) == oracle.first_match(header)
        assert svc.counter("served") == len(tiny_ruleset)
        assert svc.counter("requests") == len(tiny_ruleset)

    def test_latency_recorded(self, tiny_ruleset):
        clock = ManualClock()
        hooks = {0: lambda now: clock.advance(50e-6)}
        svc, _ = service_for(tiny_ruleset, clock=clock, hooks=hooks)
        svc.classify(HEADER)
        hist = svc.metrics.log_histogram("serve.latency_us")
        assert hist.total == 1 and hist.mean == pytest.approx(50.0)
        # The log-bucketed histogram keeps the exact max on the side.
        assert hist.max == pytest.approx(50.0)


class TestAdmission:
    def test_rate_limit_sheds_with_reason(self, tiny_ruleset):
        policy = ServicePolicy(rate_limit_per_s=10.0, burst=2)
        svc, _ = service_for(tiny_ruleset, policy=policy)
        svc.classify(HEADER)
        svc.classify(HEADER)
        with pytest.raises(AdmissionRejected) as err:
            svc.classify(HEADER)
        assert err.value.reason == "rate_limited"
        assert err.value.code == "serve.shed"
        assert svc.counter("shed.rate_limited") == 1
        assert svc.counter("requests") == 3
        assert svc.counter("admitted") == 2

    def test_bucket_recovers_with_time(self, tiny_ruleset):
        policy = ServicePolicy(rate_limit_per_s=10.0, burst=1)
        svc, clock = service_for(tiny_ruleset, policy=policy)
        svc.classify(HEADER)
        with pytest.raises(AdmissionRejected):
            svc.classify(HEADER)
        clock.advance(0.2)
        svc.classify(HEADER)  # admitted again after refill
        assert svc.counter("served") == 2

    def test_stopped_service_sheds_typed(self, tiny_ruleset):
        svc, _ = service_for(tiny_ruleset)
        svc.stop(drain=True)
        with pytest.raises(ServiceStopped) as err:
            svc.classify(HEADER)
        assert err.value.code == "serve.stopped"
        assert svc.counter("shed.stopped") == 1


class TestDeadlines:
    def test_late_answer_dropped(self, tiny_ruleset):
        clock = ManualClock()
        hooks = {0: lambda now: clock.advance(1e-3),
                 1: lambda now: clock.advance(1e-3)}
        svc, _ = service_for(tiny_ruleset, clock=clock, hooks=hooks)
        with pytest.raises(DeadlineExceeded) as err:
            svc.classify(HEADER, deadline_s=0.5e-3)
        assert err.value.code == "serve.deadline"
        assert err.value.budget_s == 0.5e-3
        assert err.value.elapsed_s >= 1e-3
        assert svc.counter("deadline_exceeded") == 1
        assert svc.counter("served") == 0

    def test_default_deadline_from_policy(self, tiny_ruleset):
        clock = ManualClock()
        policy = ServicePolicy(default_deadline_s=0.5e-3)
        hooks = {0: lambda now: clock.advance(1e-3),
                 1: lambda now: clock.advance(1e-3)}
        svc, _ = service_for(tiny_ruleset, policy=policy, clock=clock,
                             hooks=hooks)
        with pytest.raises(DeadlineExceeded):
            svc.classify(HEADER)

    def test_no_deadline_means_no_limit(self, tiny_ruleset):
        clock = ManualClock()
        hooks = {0: lambda now: clock.advance(10.0)}
        svc, _ = service_for(tiny_ruleset, clock=clock, hooks=hooks)
        assert svc.classify(HEADER) == tiny_ruleset.first_match(HEADER)


class FlakyHook:
    """Raise ``fail_first`` transient errors, then serve normally."""

    def __init__(self, fail_first):
        self.fail_first = fail_first
        self.calls = 0

    def __call__(self, now):
        self.calls += 1
        if self.calls <= self.fail_first:
            raise TransientServiceError("synthetic transient fault")


class TestRetryAndFailover:
    def test_transient_failure_retried_to_success(self, tiny_ruleset):
        hook = FlakyHook(fail_first=1)
        svc, clock = service_for(tiny_ruleset, replicas=1, hooks={0: hook})
        assert svc.classify(HEADER) == tiny_ruleset.first_match(HEADER)
        assert svc.counter("retries") == 1
        assert svc.counter("transient_failures") == 1
        assert clock.now > 0  # backoff consumed (simulated) time

    def test_retry_prefers_fresh_replica(self, tiny_ruleset):
        primary = FlakyHook(fail_first=10**9)  # always down
        standby = FlakyHook(fail_first=0)
        svc, _ = service_for(tiny_ruleset,
                             hooks={0: primary, 1: standby})
        assert svc.classify(HEADER) == tiny_ruleset.first_match(HEADER)
        assert primary.calls == 1   # not re-tried after failing this request
        assert standby.calls == 1
        assert svc.counter("failovers") == 1

    def test_retries_exhausted_is_typed(self, tiny_ruleset):
        policy = ServicePolicy(retry=RetryPolicy(max_attempts=2),
                               breaker_min_calls=100)
        hook = FlakyHook(fail_first=10**9)
        svc, _ = service_for(tiny_ruleset, policy=policy, replicas=1,
                             hooks={0: hook})
        with pytest.raises(RetriesExhausted) as err:
            svc.classify(HEADER)
        assert err.value.code == "serve.retries_exhausted"
        assert err.value.attempts == 2
        assert isinstance(err.value.last, TransientServiceError)

    def test_open_breaker_routes_around_replica(self, tiny_ruleset):
        primary = FlakyHook(fail_first=10**9)
        standby = FlakyHook(fail_first=0)
        policy = ServicePolicy(breaker_window=4, breaker_min_calls=2,
                               failure_rate_threshold=0.5)
        svc, _ = service_for(tiny_ruleset, policy=policy,
                             hooks={0: primary, 1: standby})
        for _ in range(4):
            svc.classify(HEADER)
        assert svc.replicas[0].breaker.state == OPEN
        calls_when_open = primary.calls
        for _ in range(5):
            svc.classify(HEADER)
        # The open breaker short-circuits: primary is not even attempted.
        assert primary.calls == calls_when_open
        assert svc.counter("served") == 9

    def test_failed_replica_keeps_no_half_open_probe(self, tiny_ruleset):
        """A retry must not take a half-open probe slot on a replica it
        then skips: the slot would never come back, and the breaker
        would stay half-open (no probes allowed) after the replica
        heals.  ``open_s`` is shorter than the backoff, so the primary's
        breaker has cooled down by the time the retry picks a replica.
        """
        primary = FlakyHook(fail_first=2)
        standby = FlakyHook(fail_first=0)
        policy = ServicePolicy(breaker_window=4, breaker_min_calls=2,
                               failure_rate_threshold=0.5, open_s=50e-6,
                               half_open_probes=1,
                               retry=RetryPolicy(jitter=0.0))
        svc, _ = service_for(tiny_ruleset, policy=policy,
                             hooks={0: primary, 1: standby})
        for _ in range(2):  # the second failure trips the primary
            assert svc.classify(HEADER) == tiny_ruleset.first_match(HEADER)
        assert svc.replicas[0].breaker.state == OPEN
        for _ in range(3):  # healed: one probe closes it, then it serves
            assert svc.classify(HEADER) == tiny_ruleset.first_match(HEADER)
        assert svc.replicas[0].breaker.state == CLOSED
        assert primary.calls == 5
        assert standby.calls == 2

    def test_all_breakers_open_raises_circuit_open(self, tiny_ruleset):
        hook = FlakyHook(fail_first=10**9)
        policy = ServicePolicy(breaker_window=4, breaker_min_calls=2,
                               failure_rate_threshold=0.5, open_s=60.0,
                               retry=RetryPolicy(max_attempts=2))
        svc, _ = service_for(tiny_ruleset, policy=policy, replicas=1,
                             hooks={0: hook})
        with pytest.raises((RetriesExhausted, CircuitOpenError)):
            svc.classify(HEADER)  # trips the breaker
        with pytest.raises(CircuitOpenError) as err:
            svc.classify(HEADER)
        assert err.value.code == "serve.breaker_open"
        assert svc.counter("breaker_open_rejections") > 0

    #: SHA-256 of the retry counters, both breakers' ``report()`` and
    #: the latency buckets of the scenario below.  Computed by running
    #: the scenario on the request path from before admission, the
    #: first attempt and release shared one lock hold, so the retry path
    #: that continues that attempt must count exactly as the old loop.
    RETRY_DIGEST = (
        "db845b3fc92303419757c671a9f79ba9389f54674a5f7786c2d91c6942fb2912")

    def test_retry_after_first_attempt_pinned(self, tiny_ruleset):
        """No deadline and no audits: the first attempt takes the
        cheapest path, and the primary fails transiently on a stretch
        of requests, long enough to trip its breaker and let it close
        again.  Every request is still answered, by the standby where
        the primary failed."""
        clock = ManualClock()
        down = range(10, 30)
        state = {"request": 0, "answered_by": []}

        def hook(name, service_s):
            def lookup(now):
                clock.advance(service_s)
                if name == "sram0" and state["request"] in down:
                    raise TransientServiceError("synthetic channel fault")
                state["answered_by"].append(name)
            return lookup

        svc, _ = service_for(tiny_ruleset, clock=clock,
                             hooks={0: hook("sram0", 40e-6),
                                    1: hook("sram1", 90e-6)})
        for request in range(120):
            state["request"] = request
            state["answered_by"].clear()
            assert svc.classify(HEADER) == tiny_ruleset.first_match(HEADER)
            if request in down or request < down.start:
                want = "sram1" if request in down else "sram0"
                assert state["answered_by"] == [want]
            clock.advance(1e-3)
        assert state["answered_by"] == ["sram0"]
        assert svc.replicas[0].breaker.open_count() == 1
        assert svc.replicas[0].breaker.state == CLOSED
        payload = {name: svc.counter(name) for name in (
            "retries", "transient_failures", "failovers", "served")}
        payload["breakers"] = {r.name: r.breaker.report()
                               for r in svc.replicas}
        payload["latency_buckets"] = svc.metrics.snapshot()[
            "histograms"]["serve.latency_us"]["buckets"]
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()).hexdigest()
        assert digest == self.RETRY_DIGEST


class TestDifferentialChecks:
    def test_shadow_divergence_counted(self):
        policy = ServicePolicy(shadow=True)
        svc = ClassificationService(
            [FixedClassifier(answer=1), FixedClassifier(answer=2)],
            policy=policy)
        assert svc.classify(HEADER) == 1
        assert svc.counter("shadow.checks") == 1
        assert svc.counter("shadow.divergences") == 1

    def test_shadow_agreement_counts_clean(self):
        policy = ServicePolicy(shadow=True)
        svc = ClassificationService(
            [FixedClassifier(answer=3), FixedClassifier(answer=3)],
            policy=policy)
        svc.classify(HEADER)
        assert svc.counter("shadow.divergences") == 0

    def test_oracle_audit_passes_on_real_classifier(self, tiny_ruleset):
        policy = ServicePolicy(oracle_check=True)
        svc, _ = service_for(tiny_ruleset, policy=policy)
        for rule in tiny_ruleset:
            svc.classify(tuple(iv.lo for iv in rule.intervals))
        assert svc.counter("oracle.checks") == len(tiny_ruleset)
        assert svc.counter("oracle.divergences") == 0


class TestUpdates:
    def test_updates_propagate_to_all_replicas(self, tiny_ruleset):
        svc, _ = service_for(tiny_ruleset)
        pos = svc.insert(Rule.any("deny"), position=0)
        assert pos == 0
        for replica in svc.replicas:
            assert len(replica.classifier) == len(tiny_ruleset) + 1
        assert svc.classify(HEADER) == 0  # the new top rule wins
        removed = svc.remove(0)
        assert removed.action == "deny"
        for replica in svc.replicas:
            assert len(replica.classifier) == len(tiny_ruleset)

    def test_default_position_stays_aligned(self, tiny_ruleset):
        svc, _ = service_for(tiny_ruleset)
        svc.insert(Rule.any("deny"))  # appended at the same slot everywhere
        rules0 = svc.replicas[0].classifier.rules
        rules1 = svc.replicas[1].classifier.rules
        assert [r.action for r in rules0] == [r.action for r in rules1]

    def test_service_rebuild_hits_every_replica(self, tiny_ruleset):
        svc, _ = service_for(tiny_ruleset)
        before = [r.classifier.stats.rebuilds for r in svc.replicas]
        assert svc.rebuild() is True
        after = [r.classifier.stats.rebuilds for r in svc.replicas]
        assert all(b + 1 == a for b, a in zip(before, after))


class TestStopAndSnapshot:
    def test_stop_drains_and_reports(self, tiny_ruleset):
        svc, _ = service_for(tiny_ruleset)
        svc.classify(HEADER)
        state = svc.stop(drain=True)
        assert state["drained"] is True
        assert len(state["rules"]) == len(tiny_ruleset)
        assert "sram0" in state["replicas"]
        assert state["metrics"]["counters"]["serve.served"] == 1

    def test_stop_snapshot_roundtrips(self, tiny_ruleset, tmp_path):
        from repro.harness.cache import CACHE_VERSION
        from repro.harness.snapshots import read_snapshot

        svc, _ = service_for(tiny_ruleset)
        svc.classify(HEADER)
        path = tmp_path / "serve_state.snap"
        svc.stop(drain=True, snapshot_path=path)
        loaded = read_snapshot(path, kind="serve-state",
                               cache_version=CACHE_VERSION)
        assert loaded["drained"] is True
        assert len(loaded["rules"]) == len(tiny_ruleset)

    def test_interrupted_stop_snapshot_leaves_no_partial(self, tiny_ruleset,
                                                         tmp_path,
                                                         monkeypatch):
        """Ctrl-C during the stop-time snapshot write must not leave a
        torn file for the next start to trip over."""
        import os as _os

        svc, _ = service_for(tiny_ruleset)
        svc.classify(HEADER)
        path = tmp_path / "serve_state.snap"

        def boom(fd):
            raise KeyboardInterrupt

        monkeypatch.setattr(_os, "fsync", boom)
        with pytest.raises(KeyboardInterrupt):
            svc.stop(drain=True, snapshot_path=path)
        monkeypatch.undo()

        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_drain_waits_for_blocked_request(self, tiny_ruleset):
        """``stop(drain=True)`` from another thread returns once the
        in-flight request finishes, long before the drain timeout."""
        entered, release = threading.Event(), threading.Event()

        def block(now):
            entered.set()
            release.wait(10.0)

        svc, _ = service_for(tiny_ruleset, replicas=1, hooks={0: block})
        out = {}
        request = threading.Thread(
            target=lambda: out.setdefault("answer", svc.classify(HEADER)))
        request.start()
        assert entered.wait(10.0)
        stopper = threading.Thread(target=lambda: out.setdefault(
            "state", svc.stop(drain=True, drain_timeout_s=10.0)))
        started = time.monotonic()
        stopper.start()
        time.sleep(0.05)  # let stop() start waiting on the request
        release.set()
        request.join(10.0)
        stopper.join(10.0)
        assert not request.is_alive() and not stopper.is_alive()
        assert time.monotonic() - started < 2.0
        assert out["state"]["drained"] is True
        assert out["answer"] == tiny_ruleset.first_match(HEADER)

    def test_report_shape(self, tiny_ruleset):
        svc, _ = service_for(tiny_ruleset)
        svc.classify(HEADER)
        report = svc.report()
        assert set(report["replicas"]) == {"sram0", "sram1"}
        for rep in report["replicas"].values():
            assert rep["state"] == "closed"
            assert rep["open_count"] == 0


class TestMetricsPublication:
    def test_private_registry_always_counts(self, tiny_ruleset):
        # Process metrics are disabled by default, yet the service's own
        # counters must still record (they feed the acceptance checks).
        svc, _ = service_for(tiny_ruleset)
        svc.classify(HEADER)
        assert svc.counter("served") == 1

    def test_publish_merges_into_global(self, tiny_ruleset):
        svc, _ = service_for(tiny_ruleset)
        svc.classify(HEADER)
        registry = enable_metrics()
        try:
            svc.publish_metrics()
            assert registry.counter("serve.served").value == 1
        finally:
            disable_metrics()

    def test_publish_without_global_is_noop(self, tiny_ruleset):
        disable_metrics()
        svc, _ = service_for(tiny_ruleset)
        svc.classify(HEADER)
        svc.publish_metrics()  # must not raise
