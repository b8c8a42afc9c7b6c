"""`ClassificationService`: overload-safe serving over classifier replicas.

The rest of the library answers "is the classification fast and
correct?"; this module answers "does it stay correct and bounded when
the caller is hostile" — too many requests, tight deadlines, replicas
mid-rebuild or faulted.  Every request runs the same pipeline:

1. **Admission** — a bounded in-flight limit plus an optional token
   bucket; excess load is shed immediately with a typed
   :class:`~repro.core.errors.AdmissionRejected` whose ``reason`` is
   counted under ``serve.shed.<reason>``.  Shedding early is the point:
   a request that cannot meet its deadline anyway should cost nothing.
2. **Deadline** — each admitted request with a budget gets a
   :class:`~repro.core.budget.Deadline`; it is checked before every
   attempt and *after* the answer is produced, so the service returns
   :class:`~repro.core.errors.DeadlineExceeded` rather than a late
   (stale-to-the-SLO) answer.
3. **Retry + failover** — transient failures (snapshot loads, rebuild
   windows, injected SRAM channel faults) are retried with capped
   exponential backoff and deterministic seeded jitter; each attempt is
   routed to the first replica whose circuit breaker admits it.
4. **Circuit breaking** — per-replica closed/open/half-open breakers
   trip on failure-rate or slow-call-rate (a budget-degraded linear
   slow path counts as slow), removing a degraded replica from rotation
   until its half-open probes succeed.
5. **Differential checking** — optional shadowing of every answer on
   the standby replica, and an optional linear-oracle audit, both
   feeding divergence counters: the runtime analogue of the test
   suite's equivalence checks.

The service is thread-safe: one lock serialises structure access (the
overlay/rebuild machinery of :class:`UpdatableClassifier` is not safe
under concurrent mutation) and a condition variable lets
:meth:`ClassificationService.stop` drain in-flight requests before
snapshotting state through :mod:`repro.harness.snapshots`.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

from ..classifiers.updates import UpdatableClassifier
from ..core.budget import Deadline
from ..core.errors import (
    ChannelOfflineError,
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceeded,
    RetriesExhausted,
    SnapshotError,
    TransientServiceError,
)
from ..core.rule import Rule
from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.span import NULL_STAGE_TIMER, StageTimer
from .admission import AdmissionGate
from .breaker import CircuitBreaker
from .policy import ServicePolicy

#: Failure classes the retry policy absorbs; anything else propagates
#: (a programming mistake must not be retried into the logs).
RETRYABLE_ERRORS = (TransientServiceError, ChannelOfflineError, SnapshotError)

#: The deadline of every request without a budget: never expires, so a
#: request without one builds no per-request deadline object.
NO_DEADLINE = Deadline(None, clock=lambda: 0.0)


class Replica:
    """One serving endpoint: a classifier plus its circuit breaker.

    ``fault_hook(now)`` is the injection point for the soak harness and
    tests: called before every lookup with the current clock reading, it
    may raise a retryable error (modelling an SRAM channel outage or a
    rebuild window) and may advance a :class:`ManualClock` to model
    service time.  Production replicas leave it ``None``.
    """

    def __init__(self, name: str, classifier,
                 fault_hook: Callable[[float], None] | None = None) -> None:
        self.name = name
        self.classifier = classifier
        self.fault_hook = fault_hook
        self.breaker: CircuitBreaker | None = None  # wired by the service

    def is_degraded(self) -> bool:
        """Serving off the linear slow path (budget-degraded swap)?"""
        return getattr(self.classifier, "degradation", None) == "linear"

    def lookup(self, header: Sequence[int], now: float) -> int | None:
        if self.fault_hook is not None:
            self.fault_hook(now)
        return self.classifier.classify(header)


class ClassificationService:
    """Front one or more classifier replicas with robustness policy.

    ``replicas`` may be :class:`Replica` objects or bare classifiers
    (wrapped and named ``replica0``, ``replica1``, ...).  All updates go
    through the service so every replica sees the same rule list.
    """

    def __init__(self, replicas: Sequence[Replica | object],
                 policy: ServicePolicy | None = None,
                 clock: Callable[[], float] | None = None,
                 sleep: Callable[[float], None] | None = None,
                 stage_timer: StageTimer | None = None) -> None:
        if not replicas:
            raise ConfigurationError("need at least one replica")
        self.policy = policy or ServicePolicy()
        self._clock = clock or time.monotonic
        self._sleep = sleep or time.sleep
        # Stage attribution is opt-in: without a timer the shared null
        # timer makes every span a no-op (see repro.obs.span).
        self.stages = stage_timer or NULL_STAGE_TIMER
        self.replicas: list[Replica] = []
        for idx, rep in enumerate(replicas):
            if not isinstance(rep, Replica):
                rep = Replica(f"replica{idx}", rep)
            rep.breaker = CircuitBreaker(self.policy, clock=self._clock,
                                         name=rep.name)
            self.replicas.append(rep)
        # The serving layer observes itself even when process metrics
        # are off: its counters are the interface the acceptance checks
        # (zero divergences, nonzero sheds) read.
        self.metrics = MetricsRegistry()
        serve = self.metrics.scope("serve")
        # Bound once, resolved on first use: a request pays no name
        # lookup, and an unused counter stays out of the snapshot.
        self._served = serve.bind("served")
        self._latency_us = serve.bind("latency_us", "log_histogram")
        self._retries = serve.bind("retries")
        self._retries_exhausted = serve.bind("retries_exhausted")
        self._transient_failures = serve.bind("transient_failures")
        self._deadline_exceeded = serve.bind("deadline_exceeded")
        self._failovers = serve.bind("failovers")
        self._breaker_open_rejections = serve.bind("breaker_open_rejections")
        self._shadow_checks = serve.bind("shadow.checks")
        self._shadow_errors = serve.bind("shadow.errors")
        self._shadow_divergences = serve.bind("shadow.divergences")
        self._oracle_checks = serve.bind("oracle.checks")
        self._oracle_divergences = serve.bind("oracle.divergences")
        bucket = None
        if self.policy.rate_limit_per_s is not None:
            from .policy import TokenBucket

            bucket = TokenBucket(self.policy.rate_limit_per_s,
                                 self.policy.burst, clock=self._clock)
        # Admission (shed early, shed typed) is shared with the fabric;
        # the gate owns the lock so structure access below serialises
        # under the same lock admission decisions take.
        self._gate = AdmissionGate(serve, self.policy.max_in_flight,
                                   bucket=bucket)
        self._lock = self._gate.lock

    # -- the request pipeline ---------------------------------------------

    def classify(self, header: Sequence[int],
                 deadline_s: float | None = None) -> int | None:
        """First-match rule index for ``header`` under full policy.

        Raises :class:`AdmissionRejected` (shed), :class:`DeadlineExceeded`,
        :class:`CircuitOpenError` (no replica available) or
        :class:`RetriesExhausted`; any answer actually returned was
        produced within the deadline by a breaker-approved replica.
        """
        with self.stages.span("admission"):
            seq = self._gate.admit()
        try:
            budget = (self.policy.default_deadline_s
                      if deadline_s is None else deadline_s)
            deadline = (NO_DEADLINE if budget is None
                        else Deadline(budget, clock=self._clock))
            return self._classify_admitted(header, seq, deadline)
        finally:
            self._gate.release()

    def _classify_admitted(self, header, seq: int,
                           deadline: Deadline) -> int | None:
        policy = self.policy
        retry = policy.retry
        audits = policy.shadow or policy.oracle_check
        last_error: BaseException | None = None
        failed_here: set[Replica] = set()
        for attempt in range(1, retry.max_attempts + 1):
            try:
                deadline.check()
            except DeadlineExceeded:
                self._deadline_exceeded.inc()
                raise
            # One lock hold per attempt: pick, lookup, audit capture and
            # the breaker record see the same replica and rule state.
            with self._lock:
                try:
                    replica = self._pick_replica(failed_here)
                except CircuitOpenError:
                    # A breaker may reach half-open after the cool-down,
                    # so an all-open moment is itself transient.
                    if attempt >= retry.max_attempts:
                        raise
                    replica = None
                if replica is not None:
                    start = self._clock()
                    try:
                        with self.stages.span("classify"):
                            result = replica.lookup(header, start)
                            # Capture the differential answers under the
                            # SAME lock hold as the lookup: an update
                            # landing in between would otherwise be
                            # compared against a newer rule list and
                            # flagged as a false divergence.
                            audit = (self._capture_audit(replica, header)
                                     if audits else None)
                    except RETRYABLE_ERRORS as exc:
                        replica.breaker.record_failure(self._clock() - start)
                        self._transient_failures.inc()
                        failed_here.add(replica)
                        last_error = exc
                        replica = None
                    else:
                        elapsed = self._clock() - start
                        replica.breaker.record_success(
                            elapsed, degraded=replica.is_degraded())
            if replica is None:
                if attempt < retry.max_attempts:
                    self._retries.inc()
                    self._backoff(retry.delay(seq, attempt), deadline)
                continue
            try:
                deadline.check()
            except DeadlineExceeded:
                # Too late: the caller's SLO is gone, a late answer is a
                # wrong answer.  Count it, drop it, raise typed.
                self._deadline_exceeded.inc()
                raise
            if audit is not None:
                with self.stages.span("audit"):
                    self._check_audit(audit, result)
            self._served.inc()
            self._latency_us.observe(elapsed * 1e6)
            return result
        self._retries_exhausted.inc()
        raise RetriesExhausted(
            f"no replica answered within {retry.max_attempts} attempts "
            f"(last: {last_error!r})",
            attempts=retry.max_attempts, last=last_error,
        )

    def _pick_replica(self, failed_here: set[Replica] = frozenset()) -> Replica:
        """First breaker-approved replica in priority order.

        ``failed_here`` holds replicas that already failed *this*
        request: a retry prefers a fresh replica (per-request failover)
        and only returns to a failed one when no fresh one is allowed.
        Fresh replicas are asked first because ``allow()`` takes a
        half-open probe slot that only the returned replica gives back.
        The caller holds the service lock.
        """
        order = enumerate(self.replicas)
        if failed_here:
            order = sorted(order, key=lambda item: item[1] in failed_here)
        for idx, replica in order:
            if replica.breaker.allow():
                if idx > 0:
                    self._failovers.inc()
                return replica
        self._breaker_open_rejections.inc()
        raise CircuitOpenError(
            f"all {len(self.replicas)} replica breakers are open")

    def _backoff(self, delay: float, deadline: Deadline) -> None:
        """Sleep before a retry, never past the deadline."""
        remaining = deadline.remaining()
        if remaining != float("inf"):
            delay = min(delay, remaining)
        if delay > 0:
            with self.stages.span("backoff"):
                self._sleep(delay)

    def _capture_audit(self, replica: Replica, header) -> dict:
        """Gather the differential answers (policy-gated).

        Must run under the same lock hold that produced the primary
        answer, so shadow and oracle see the exact rule state the answer
        was served from.  Counter increments are deferred to
        :meth:`_check_audit` so a deadline-dropped answer is never
        counted as audited.
        """
        audit: dict = {}
        if self.policy.shadow and len(self.replicas) > 1:
            standby = next(r for r in self.replicas if r is not replica)
            try:
                audit["shadow"] = standby.classifier.classify(header)
            except Exception:
                audit["shadow_error"] = True
        if self.policy.oracle_check and isinstance(replica.classifier,
                                                   UpdatableClassifier):
            audit["oracle"] = (replica.classifier.current_ruleset()
                               .first_match(header))
        return audit

    def _check_audit(self, audit: dict, result: int | None) -> None:
        """Compare the captured differential answers; count divergences."""
        if "shadow_error" in audit:
            self._shadow_checks.inc()
            self._shadow_errors.inc()
        elif "shadow" in audit:
            self._shadow_checks.inc()
            if audit["shadow"] != result:
                self._shadow_divergences.inc()
        if "oracle" in audit:
            self._oracle_checks.inc()
            if audit["oracle"] != result:
                self._oracle_divergences.inc()

    # -- updates (applied to every replica) --------------------------------

    def insert(self, rule: Rule, position: int | None = None) -> int:
        with self._lock:
            used = None
            for replica in self.replicas:
                used = replica.classifier.insert(rule, position)
                if position is None:
                    position = used  # keep replicas' priorities aligned
            return used

    def remove(self, position: int) -> Rule:
        with self._lock:
            removed = None
            for replica in self.replicas:
                removed = replica.classifier.remove(position)
            return removed

    def rebuild(self) -> bool:
        with self._lock:
            return all(replica.classifier.rebuild()
                       for replica in self.replicas)

    def poll(self) -> None:
        """Periodic health tick: give deferred rebuild retries a chance.

        A low-write-rate service never crosses the rebuild threshold, so
        :meth:`UpdatableClassifier.poll` is how its wall-clock retry
        interval actually fires.
        """
        with self._lock:
            for replica in self.replicas:
                poll = getattr(replica.classifier, "poll", None)
                if poll is not None:
                    poll()

    # -- lifecycle ---------------------------------------------------------

    def stop(self, drain: bool = True, snapshot_path=None,
             drain_timeout_s: float = 5.0) -> dict:
        """Stop serving: drain in-flight requests, reject new ones.

        With ``drain=True`` new requests are shed (``stopping``) while
        in-flight ones finish; ``drain_timeout_s`` bounds the wait in
        *real* seconds (drain waits on OS threads, so the injectable
        clock deliberately does not govern it).  With ``snapshot_path``
        set, final state — the live rule list and the service's metric
        counters — is persisted through the verified snapshot store, so
        a restart can rebuild exactly what was serving.

        Returns a summary dict (also the snapshot payload).
        """
        with self._lock:
            self._gate.begin_drain()
            with self.stages.span("drain"):
                drained = (self._gate.wait_drained(drain_timeout_s) if drain
                           else self._gate.in_flight == 0)
            self._gate.mark_stopped()
            state = {
                "rules": list(self.replicas[0].classifier.rules),
                "drained": drained,
                "stopped_at": self._clock(),
                "metrics": self.metrics.snapshot(),
                "replicas": {
                    r.name: {
                        "breaker": r.breaker.state,
                        "degradation": getattr(r.classifier, "degradation",
                                               None),
                    }
                    for r in self.replicas
                },
            }
        if snapshot_path is not None:
            from ..harness.cache import CACHE_VERSION
            from ..harness.snapshots import write_snapshot

            write_snapshot(snapshot_path, state, kind="serve-state",
                           cache_version=CACHE_VERSION)
        return state

    # -- reporting ---------------------------------------------------------

    def counter(self, name: str) -> int | float:
        """Convenience read of one ``serve.*`` counter value."""
        return self.metrics.counter(f"serve.{name}").value

    def report(self) -> dict:
        """JSON-friendly view: metrics plus per-replica breaker history."""
        with self._lock:
            return {
                "metrics": self.metrics.snapshot(),
                "replicas": {
                    r.name: {
                        "state": r.breaker.state,
                        "open_count": r.breaker.open_count(),
                        "transitions": [
                            (t.at, t.from_state, t.to_state, t.reason)
                            for t in r.breaker.transitions
                        ],
                        "degradation": getattr(r.classifier, "degradation",
                                               None),
                    }
                    for r in self.replicas
                },
            }

    def publish_metrics(self) -> None:
        """Fold the private registry into the process registry (if on)."""
        registry = get_registry()
        if registry is not None:
            registry.merge(self.metrics)
