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
snapshotting state through :mod:`repro.harness.snapshots`.  Admission,
the lock, the private metrics and ``stop()`` come from the
:class:`~repro.serve.admission.ServingFrame` the fabric shares.
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
from ..core.rule import Rule, RuleSet
from ..obs.span import StageTimer
from .admission import ServingFrame
from .breaker import CircuitBreaker
from .policy import ServicePolicy

#: Failure classes the retry policy absorbs; anything else propagates
#: (a programming mistake must not be retried into the logs).
RETRYABLE_ERRORS = (TransientServiceError, ChannelOfflineError, SnapshotError)


class Replica:
    """One serving endpoint: a classifier plus its circuit breaker.

    ``fault_hook(now)`` is the injection point for the soak harness and
    tests: the service calls it before every lookup with the current
    clock reading; it may raise a retryable error (modelling an SRAM
    channel outage or a rebuild window) and may advance a
    :class:`ManualClock` to model service time.  Production replicas
    leave it ``None``.
    """

    def __init__(self, name: str, classifier,
                 fault_hook: Callable[[float], None] | None = None) -> None:
        self.name = name
        self.classifier = classifier
        self.fault_hook = fault_hook
        self.breaker: CircuitBreaker | None = None  # wired by the service


class ClassificationService(ServingFrame):
    """Front one or more classifier replicas with robustness policy.

    ``replicas`` may be :class:`Replica` objects or bare classifiers
    (wrapped and named ``replica0``, ``replica1``, ...).  All updates go
    through the service so every replica sees the same rule list.
    """

    SCOPE = "serve"

    def __init__(self, replicas: Sequence[Replica | object],
                 policy: ServicePolicy | None = None,
                 clock: Callable[[], float] | None = None,
                 sleep: Callable[[float], None] | None = None,
                 stage_timer: StageTimer | None = None) -> None:
        if not replicas:
            raise ConfigurationError("need at least one replica")
        super().__init__(policy, clock, stage_timer)
        self._sleep = sleep or time.sleep
        self.replicas: list[Replica] = []
        for idx, rep in enumerate(replicas):
            if not isinstance(rep, Replica):
                rep = Replica(f"replica{idx}", rep)
            rep.breaker = CircuitBreaker(self.policy, clock=self._clock,
                                         name=rep.name)
            self.replicas.append(rep)
        serve = self._scope
        self._retries = serve.bind("retries")
        self._retries_exhausted = serve.bind("retries_exhausted")
        self._transient_failures = serve.bind("transient_failures")
        self._deadline_exceeded = serve.bind("deadline_exceeded")
        self._failovers = serve.bind("failovers")
        self._breaker_open_rejections = serve.bind("breaker_open_rejections")
        self._shadow_checks = serve.bind("shadow.checks")
        self._shadow_errors = serve.bind("shadow.errors")
        self._shadow_divergences = serve.bind("shadow.divergences")

    # -- the request pipeline ---------------------------------------------

    def classify(self, header: Sequence[int],
                 deadline_s: float | None = None) -> int | None:
        """First-match rule index for ``header`` under full policy.

        Raises :class:`AdmissionRejected` (shed), :class:`DeadlineExceeded`,
        :class:`CircuitOpenError` (no replica available) or
        :class:`RetriesExhausted`; any answer actually returned was
        produced within the deadline by a breaker-approved replica.

        One lock hold covers admission, every attempt (pick, lookup,
        audit capture and breaker record see the same replica and rule
        state) and release; only a retry's backoff sleeps outside it.
        The deadline, audit and retry steps run only when a budget,
        ``shadow``/``oracle_check`` or a retryable error calls for them.
        """
        policy = self.policy
        budget = (policy.default_deadline_s if deadline_s is None
                  else deadline_s)
        audits = policy.shadow or policy.oracle_check
        max_attempts = policy.retry.max_attempts
        with self._lock:
            with self.stages.span("admission"):
                seq = self._gate.admit()
            try:
                deadline = (None if budget is None
                            else Deadline(budget, clock=self._clock))
                failed_here: list[Replica] = []
                last_error: BaseException | None = None
                for attempt in range(1, max_attempts + 1):
                    if attempt > 1:
                        self._retries.inc()
                        self._backoff(policy.retry.delay(seq, attempt - 1),
                                      deadline)
                    if deadline is not None:
                        self._check_deadline(deadline)
                    try:
                        replica = self._pick_replica(failed_here)
                    except CircuitOpenError:
                        # A breaker may reach half-open after the
                        # cool-down, so an all-open moment is itself
                        # transient.
                        if attempt == max_attempts:
                            raise
                        continue
                    start = self._clock()
                    try:
                        with self.stages.span("classify"):
                            if replica.fault_hook is not None:
                                replica.fault_hook(start)
                            result = replica.classifier.classify(header)
                            # Captured in the lookup's lock hold: an
                            # update landing in between would be compared
                            # against a newer rule list and flagged as a
                            # false divergence.
                            audit = (self._capture_audit(replica, header)
                                     if audits else None)
                    except RETRYABLE_ERRORS as exc:
                        replica.breaker.record_failure(self._clock() - start)
                        self._transient_failures.inc()
                        failed_here.append(replica)
                        last_error = exc
                        continue
                    elapsed = self._clock() - start
                    # An answer off the budget-degraded linear slow path
                    # counts as slow.
                    replica.breaker.record_success(elapsed, getattr(
                        replica.classifier, "degradation", None) == "linear")
                    if deadline is not None:
                        # A late answer is a wrong answer to the caller's
                        # SLO: count it, drop it.
                        self._check_deadline(deadline)
                    self._served.inc()
                    self._latency_us.observe(elapsed * 1e6)
                    if audit is not None:
                        with self.stages.span("audit"):
                            self._check_audit(audit, result)
                    return result
                self._retries_exhausted.inc()
                raise RetriesExhausted(
                    f"no replica answered within {max_attempts} attempts "
                    f"(last: {last_error!r})",
                    attempts=max_attempts, last=last_error,
                )
            finally:
                self._gate.release()

    def _check_deadline(self, deadline: Deadline) -> None:
        """Raise :class:`DeadlineExceeded`, counted, once it passed."""
        try:
            deadline.check()
        except DeadlineExceeded:
            self._deadline_exceeded.inc()
            raise

    def _pick_replica(self, failed_here: list[Replica]) -> Replica:
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

    def _backoff(self, delay: float, deadline: Deadline | None) -> None:
        """Sleep before a retry, never past the deadline, with the
        service lock released so other requests and updates proceed."""
        if deadline is not None:
            delay = min(delay, deadline.remaining())
        if delay > 0:
            self._lock.release()
            try:
                with self.stages.span("backoff"):
                    self._sleep(delay)
            finally:
                self._lock.acquire()

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
            # The live list itself: this lock hold keeps it still.
            audit["oracle"] = RuleSet(replica.classifier.rules).first_match(
                header)
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

    # -- lifecycle and reporting --------------------------------------------

    def _final_state(self, drained: bool) -> dict:
        state = self._stopped_state(self.replicas[0].classifier.rules, drained)
        state["replicas"] = {
            r.name: {
                "breaker": r.breaker.state,
                "degradation": getattr(r.classifier, "degradation", None),
            }
            for r in self.replicas
        }
        return state

    def report(self) -> dict:
        """JSON-friendly view: metrics plus per-replica breaker history."""
        with self._lock:
            return {
                "metrics": self.metrics.snapshot(),
                "replicas": {
                    r.name: {
                        **r.breaker.report(),
                        "degradation": getattr(r.classifier, "degradation",
                                               None),
                    }
                    for r in self.replicas
                },
            }
