"""Per-replica circuit breaker: closed → open → half-open → closed.

The breaker watches a rolling window of completed calls on one replica
and takes it out of rotation when the replica is degraded — failing
(transient faults, rebuild windows) or slow (latency spikes, a
budget-degraded linear slow path).  State machine::

            failure- or slow-rate over threshold
    CLOSED ────────────────────────────────────────▶ OPEN
      ▲                                              │
      │ half_open_probes                             │ open_s cool-down
      │ consecutive successes                        ▼
      └───────────────────────────────────────── HALF_OPEN
                        (any failed or slow probe re-opens)

Every transition is timestamped in :attr:`CircuitBreaker.transitions`
and counted under ``serve.breaker.<replica>.*`` so a soak run can
assert the breaker actually exercised.  Not internally locked: the
owning :class:`~repro.serve.service.ClassificationService` serialises
all breaker calls under its own lock.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

from .policy import ServicePolicy

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerTransition:
    """One timestamped state change (``reason`` says what tripped it)."""

    at: float
    from_state: str
    to_state: str
    reason: str


class CircuitBreaker:
    """Rolling-window failure/slow-call breaker for one replica."""

    def __init__(self, policy: ServicePolicy,
                 clock: Callable[[], float] | None = None,
                 name: str = "replica") -> None:
        self.policy = policy
        self.name = name
        self._clock = clock or time.monotonic
        self.state = CLOSED
        self.transitions: list[BreakerTransition] = []
        #: (ok, slow) per completed call, newest last.
        self._window: deque[tuple[bool, bool]] = deque(maxlen=policy.breaker_window)
        #: Failed and slow calls in ``_window``, kept as it changes.
        self._failures = 0
        self._slows = 0
        self._opened_at = 0.0
        self._half_open_in_flight = 0
        self._half_open_successes = 0

    # -- state queries -----------------------------------------------------

    def allow(self) -> bool:
        """May a call be dispatched to this replica right now?

        An OPEN breaker flips to HALF_OPEN once the cool-down elapses;
        HALF_OPEN admits at most ``half_open_probes`` concurrent probes.
        """
        if self.state == CLOSED:
            return True
        now = self._clock()
        if self.state == OPEN:
            if now - self._opened_at < self.policy.open_s:
                return False
            self._transition(HALF_OPEN, "cool-down elapsed")
        if self._half_open_in_flight >= self.policy.half_open_probes:
            return False
        self._half_open_in_flight += 1
        return True

    # -- outcome recording -------------------------------------------------

    def record_success(self, elapsed_s: float, degraded: bool = False) -> None:
        """A call completed with an answer.

        ``degraded`` marks answers served off a degraded structure (the
        linear slow path): correct but over the latency contract, so
        they count as slow regardless of measured time.
        """
        self._record(True, degraded or elapsed_s >= self.policy.slow_call_s)

    def record_failure(self, elapsed_s: float = 0.0) -> None:
        """A call failed (transient error, timeout, fault)."""
        self._record(False, elapsed_s >= self.policy.slow_call_s)

    def _record(self, ok: bool, slow: bool) -> None:
        if self.state == CLOSED:
            window = self._window
            if len(window) == window.maxlen:
                evicted_ok, evicted_slow = window[0]
                self._failures -= not evicted_ok
                self._slows -= evicted_slow
            window.append((ok, slow))
            n = len(window)
            if ok and not slow:
                # Neither count rose and the window did not shrink, so
                # the rates cannot have crossed a threshold, unless the
                # window only now holds enough calls to be trusted.
                if n == self.policy.breaker_min_calls:
                    self._check_rates(n)
                return
            self._failures += not ok
            self._slows += slow
            if n >= self.policy.breaker_min_calls:
                self._check_rates(n)
            return
        if self.state == HALF_OPEN:
            self._half_open_in_flight = max(0, self._half_open_in_flight - 1)
            if not ok:
                self._open("half-open probe failed")
                return
            if slow:
                # A slow probe means the replica is still degraded: a
                # latency spike must not re-close the breaker mid-spike.
                self._open("half-open probe slow")
                return
            self._half_open_successes += 1
            if self._half_open_successes >= self.policy.half_open_probes:
                self._transition(CLOSED, "probes succeeded")
                self._clear_window()
            return
        # OPEN: stragglers dispatched before the trip are informational.

    def _check_rates(self, n: int) -> None:
        """Open if the window's failure or slow-call rate is over its
        threshold (``n`` calls, at least ``breaker_min_calls``)."""
        if self._failures / n >= self.policy.failure_rate_threshold:
            self._open(f"failure rate {self._failures}/{n}")
        elif self._slows / n >= self.policy.slow_call_rate_threshold:
            self._open(f"slow-call rate {self._slows}/{n}")

    # -- transitions -------------------------------------------------------

    def _open(self, reason: str) -> None:
        self._opened_at = self._clock()
        self._transition(OPEN, reason)
        self._clear_window()

    def _clear_window(self) -> None:
        self._window.clear()
        self._failures = 0
        self._slows = 0

    def _transition(self, to_state: str, reason: str) -> None:
        self.transitions.append(BreakerTransition(
            self._clock(), self.state, to_state, reason))
        self.state = to_state
        if to_state == HALF_OPEN:
            self._half_open_in_flight = 0
            self._half_open_successes = 0

    def open_count(self) -> int:
        return sum(1 for t in self.transitions if t.to_state == OPEN)

    def report(self) -> dict:
        """JSON-friendly view: state, trips so far, every transition."""
        return {"state": self.state, "open_count": self.open_count(),
                "transitions": [(t.at, t.from_state, t.to_state, t.reason)
                                for t in self.transitions]}
