"""Shared admission control for the serving front-ends.

:class:`AdmissionGate` is the one implementation of "shed early, shed
typed" used by both the single-process
:class:`~repro.serve.service.ClassificationService` and the
multi-process :class:`~repro.serve.fabric.Fabric`: a bounded in-flight
limit, an optional token bucket, and the drain/stop lifecycle, with
every decision counted under ``<scope>.requests`` / ``<scope>.admitted``
/ ``<scope>.shed.<reason>`` so the two layers expose the same metric
shape (``serve.*`` and ``fabric.*`` respectively).

The gate owns the lock and exposes it (:attr:`AdmissionGate.lock`); its
owner holds it around :meth:`~AdmissionGate.admit`, its own structure
access and :meth:`~AdmissionGate.release`, so one lock hold covers a
request from admission to release — the single-lock discipline the
breaker and the update machinery rely on.

:class:`ServingFrame` wraps the gate in the rest of what both front
ends share: defaults, private metrics, stop/drain and metric access.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from ..core.errors import AdmissionRejected, ServiceStopped
from ..obs.metrics import MetricScope, MetricsRegistry, get_registry
from ..obs.span import NULL_STAGE_TIMER, StageTimer
from .policy import ServicePolicy, TokenBucket

#: Every reason :meth:`AdmissionGate.admit` sheds with, in decision order.
SHED_REASONS = ("stopped", "stopping", "queue_full", "rate_limited")


class AdmissionGate:
    """Bounded, token-bucket-limited, drainable admission control.

    The decision order is fixed and documented behaviour: stopped →
    stopping → queue_full → rate_limited.  A request shed for being
    over the in-flight bound must not also consume a token.
    ``max_in_flight`` is at least 1, as :class:`ServicePolicy` checks.
    The caller holds :attr:`lock` around :meth:`admit`,
    :meth:`admit_burst`, :meth:`release` and :meth:`release_many`.
    """

    def __init__(self, scope: MetricScope, max_in_flight: int,
                 bucket=None) -> None:
        self._requests = scope.bind("requests")
        self._admitted = scope.bind("admitted")
        self._sheds = {reason: scope.bind(f"shed.{reason}")
                       for reason in SHED_REASONS}
        self._max_in_flight = max_in_flight
        self._bucket = bucket
        self.lock = threading.RLock()
        self._cond = threading.Condition(self.lock)
        self._in_flight = 0
        self._seq = 0
        self._draining = False
        self._stopped = False

    @property
    def in_flight(self) -> int:
        with self.lock:
            return self._in_flight

    def admit(self, tokens: float = 1.0) -> int:
        """Shed or admit; returns the request sequence number.

        Raises :class:`ServiceStopped` (reasons ``stopped``/``stopping``)
        or :class:`AdmissionRejected` (``queue_full``/``rate_limited``),
        each already counted under ``<scope>.shed.<reason>``.
        """
        self._requests.inc()
        if self._draining:  # set by begin_drain and by mark_stopped
            self._shed("stopped" if self._stopped else "stopping")
        if self._in_flight >= self._max_in_flight:
            self._shed("queue_full")
        if self._bucket is not None and not self._bucket.try_acquire(tokens):
            self._shed("rate_limited")
        self._admitted.inc()
        self._in_flight += 1
        self._seq += 1
        return self._seq

    def admit_burst(self, n: int) -> list[str | None]:
        """Admit or shed ``n`` requests in one call.

        Returns each request's shed reason in order, ``None`` where it
        was admitted.  Decisions, counters and the in-flight count are
        exactly those of ``n`` sequential :meth:`admit` calls: once the
        in-flight bound is reached every later request sheds
        ``queue_full`` without touching the bucket.  End the admitted
        ones with :meth:`release_many`.
        """
        if n <= 0:
            return []
        self._requests.inc(n)
        if self._stopped or self._draining:
            reason = "stopped" if self._stopped else "stopping"
            self._sheds[reason].inc(n)
            return [reason] * n
        room = self._max_in_flight - self._in_flight
        if self._bucket is None:
            admitted = min(max(room, 0), n)
            decisions = [None] * admitted
        else:
            # A rate-limited request leaves the in-flight count as
            # it was, so the next one still reaches the bucket.
            acquire = self._bucket.try_acquire
            decisions = []
            admitted = 0
            while len(decisions) < n and admitted < room:
                if acquire(1.0):
                    decisions.append(None)
                    admitted += 1
                else:
                    decisions.append("rate_limited")
            limited = len(decisions) - admitted
            if limited:
                self._sheds["rate_limited"].inc(limited)
        full = n - len(decisions)
        if full:
            decisions.extend(["queue_full"] * full)
            self._sheds["queue_full"].inc(full)
        if admitted:
            self._admitted.inc(admitted)
            self._in_flight += admitted
            self._seq += admitted
        return decisions

    def _shed(self, reason: str) -> None:
        self._sheds[reason].inc()
        if reason in ("stopped", "stopping"):
            raise ServiceStopped(reason)
        raise AdmissionRejected(reason)

    def release(self) -> None:
        """An admitted request finished (served or failed)."""
        self._in_flight -= 1
        if self._draining:
            # Only a drain waits on the condition (wait_drained).
            self._cond.notify_all()

    def release_many(self, k: int) -> None:
        """``k`` admitted requests finished (one :meth:`release` each)."""
        if k <= 0:
            return
        self._in_flight -= k
        if self._draining:
            self._cond.notify_all()

    # -- lifecycle ---------------------------------------------------------

    def begin_drain(self) -> None:
        """New requests shed ``stopping``; in-flight ones may finish."""
        with self.lock:
            self._draining = True

    def wait_drained(self, timeout_s: float,
                     wall: Callable[[], float] = time.monotonic) -> bool:
        """Wait (bounded, real time) for in-flight work to finish.

        Real time on purpose: drain waits on OS threads, so the owner's
        injectable clock deliberately does not govern it.
        """
        with self.lock:
            limit = wall() + timeout_s
            while self._in_flight > 0 and wall() < limit:
                self._cond.wait(timeout=0.05)
            return self._in_flight == 0

    def mark_stopped(self) -> None:
        """New requests shed ``stopped`` from here on."""
        with self.lock:
            self._draining = True
            self._stopped = True


class ServingFrame:
    """The frame around a front end's request path.  A subclass sets
    :attr:`SCOPE` and defines ``_final_state(drained)``, its
    :meth:`stop` payload: :meth:`_stopped_state` plus its own keys."""

    #: ``serve`` or ``fabric``: the metric scope, and the
    #: ``<SCOPE>-state`` kind of the :meth:`stop` snapshot.
    SCOPE: str

    def __init__(self, policy: ServicePolicy | None,
                 clock: Callable[[], float] | None,
                 stage_timer: StageTimer | None) -> None:
        self.policy = policy or ServicePolicy()
        self._clock = clock or time.monotonic
        # Stage attribution is opt-in: without a timer the shared null
        # timer makes every span a no-op (see repro.obs.span).
        self.stages = stage_timer or NULL_STAGE_TIMER
        # The serving layer observes itself even when process metrics
        # are off: its counters are the interface the acceptance checks
        # (zero divergences, nonzero sheds) read.
        self.metrics = MetricsRegistry()
        scope = self._scope = self.metrics.scope(self.SCOPE)
        bucket = None
        if self.policy.rate_limit_per_s is not None:
            bucket = TokenBucket(self.policy.rate_limit_per_s,
                                 self.policy.burst, clock=self._clock)
        # The gate owns the lock, so the front end's structure access
        # serialises under the same lock admission decisions take.
        self._gate = AdmissionGate(scope, self.policy.max_in_flight,
                                   bucket=bucket)
        self._lock = self._gate.lock
        # Bound once, resolved on first use: a request pays no name
        # lookup, and an unused counter stays out of the snapshot.
        self._served = scope.bind("served")
        self._latency_us = scope.bind("latency_us", "log_histogram")
        self._oracle_checks = scope.bind("oracle.checks")
        self._oracle_divergences = scope.bind("oracle.divergences")

    def stop(self, drain: bool = True, snapshot_path=None,
             drain_timeout_s: float = 5.0) -> dict:
        """Shed new requests, drain in-flight ones (``drain_timeout_s``
        bounds the wait in *real* seconds: drain waits on OS threads,
        not the injectable clock), and return the final state.  With
        ``snapshot_path`` set the state is also written to the verified
        snapshot store, so a restart can rebuild what was serving."""
        with self._lock:
            self._gate.begin_drain()
            with self.stages.span("drain"):
                drained = (self._gate.wait_drained(drain_timeout_s) if drain
                           else self._gate.in_flight == 0)
            self._gate.mark_stopped()
            state = self._final_state(drained)
        if snapshot_path is not None:
            from ..harness.cache import CACHE_VERSION
            from ..harness.snapshots import write_snapshot

            write_snapshot(snapshot_path, state, kind=f"{self.SCOPE}-state",
                           cache_version=CACHE_VERSION)
        return state

    def _stopped_state(self, rules, drained: bool) -> dict:
        """The keys every stop payload starts with, in this order."""
        return {"rules": list(rules), "drained": drained,
                "stopped_at": self._clock(),
                "metrics": self.metrics.snapshot()}

    def counter(self, name: str) -> int | float:
        """Convenience read of one ``<SCOPE>.*`` counter value."""
        return self.metrics.counter(f"{self.SCOPE}.{name}").value

    def publish_metrics(self) -> None:
        """Fold the private registry into the process registry (if on)."""
        registry = get_registry()
        if registry is not None:
            registry.merge(self.metrics)
