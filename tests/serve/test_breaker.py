"""Circuit-breaker state machine: trip, cool-down, half-open probes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    ManualClock,
    ServicePolicy,
)

POLICY = ServicePolicy(
    breaker_window=8, breaker_min_calls=4,
    failure_rate_threshold=0.5, slow_call_rate_threshold=0.75,
    slow_call_s=1e-3, open_s=1.0, half_open_probes=2,
)


@pytest.fixture
def clock():
    return ManualClock()


@pytest.fixture
def breaker(clock):
    return CircuitBreaker(POLICY, clock=clock, name="sram0")


def fail_until_open(breaker):
    while breaker.state == CLOSED:
        breaker.record_failure()


class TestTripping:
    def test_starts_closed_and_allows(self, breaker):
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_needs_min_calls_before_tripping(self, breaker):
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == CLOSED  # 3 < breaker_min_calls

    def test_fast_success_reaching_min_calls_trips(self, breaker):
        # The fourth call makes the window trustworthy; it succeeded
        # fast, but 3/4 of the window failed.
        for _ in range(3):
            breaker.record_failure()
        breaker.record_success(elapsed_s=1e-5)
        assert breaker.state == OPEN
        assert breaker.transitions[-1].reason == "failure rate 3/4"

    def test_failure_rate_trips(self, breaker):
        breaker.record_success(elapsed_s=1e-5)
        breaker.record_success(elapsed_s=1e-5)
        breaker.record_failure()
        assert breaker.state == CLOSED  # 1/3 below threshold (and < min)
        breaker.record_failure()        # 2/4 hits 0.5
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert "failure rate" in breaker.transitions[-1].reason

    def test_slow_call_rate_trips(self, breaker):
        breaker.record_success(elapsed_s=1e-5)
        for _ in range(3):
            breaker.record_success(elapsed_s=5e-3)  # >= slow_call_s
        assert breaker.state == OPEN
        assert "slow-call rate" in breaker.transitions[-1].reason

    def test_degraded_answer_counts_as_slow(self, breaker):
        for _ in range(4):
            breaker.record_success(elapsed_s=1e-6, degraded=True)
        assert breaker.state == OPEN

    def test_rolling_window_forgets_old_failures(self, breaker):
        breaker.record_failure()
        for _ in range(8):  # a full window of successes evicts the failure
            breaker.record_success(elapsed_s=1e-5)
        for _ in range(3):
            breaker.record_failure()  # 3/8 stays under the 0.5 threshold
        assert breaker.state == CLOSED


class TestHalfOpen:
    def test_cooldown_then_probe(self, breaker, clock):
        fail_until_open(breaker)
        assert not breaker.allow()
        clock.advance(POLICY.open_s + 0.01)
        assert breaker.allow()
        assert breaker.state == HALF_OPEN

    def test_probe_concurrency_capped(self, breaker, clock):
        fail_until_open(breaker)
        clock.advance(POLICY.open_s + 0.01)
        assert breaker.allow() and breaker.allow()  # half_open_probes = 2
        assert not breaker.allow()

    def test_successful_probes_close(self, breaker, clock):
        fail_until_open(breaker)
        clock.advance(POLICY.open_s + 0.01)
        for _ in range(POLICY.half_open_probes):
            assert breaker.allow()
            breaker.record_success(elapsed_s=1e-5)
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_failed_probe_reopens(self, breaker, clock):
        fail_until_open(breaker)
        clock.advance(POLICY.open_s + 0.01)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_slow_probe_reopens(self, breaker, clock):
        """A latency-spiked replica must not re-close its breaker just
        because the probe eventually answered."""
        fail_until_open(breaker)
        clock.advance(POLICY.open_s + 0.01)
        assert breaker.allow()
        breaker.record_success(elapsed_s=5e-3)  # slow
        assert breaker.state == OPEN
        assert "probe slow" in breaker.transitions[-1].reason


class TestHistory:
    def test_transitions_are_timestamped(self, breaker, clock):
        clock.advance(2.5)
        fail_until_open(breaker)
        first = breaker.transitions[0]
        assert (first.at, first.from_state, first.to_state) == (2.5, CLOSED, OPEN)

    def test_open_count(self, breaker, clock):
        fail_until_open(breaker)
        clock.advance(POLICY.open_s + 0.01)
        breaker.allow()
        breaker.record_failure()  # reopen
        assert breaker.open_count() == 2

    def test_report(self, breaker, clock):
        assert breaker.report() == {"state": CLOSED, "open_count": 0,
                                    "transitions": []}
        clock.advance(1.5)
        fail_until_open(breaker)
        clock.advance(POLICY.open_s)
        assert breaker.allow()
        report = breaker.report()
        assert list(report) == ["state", "open_count", "transitions"]
        assert report == {
            "state": HALF_OPEN,
            "open_count": 1,
            "transitions": [(1.5, CLOSED, OPEN, "failure rate 4/4"),
                            (2.5, OPEN, HALF_OPEN, "cool-down elapsed")],
        }


class TestHalfOpenRace:
    """Seeded multi-thread hammering around the OPEN→HALF_OPEN→* edges.

    The breaker is documented as externally serialised (the service's
    lock), so these tests drive it the same way — many threads, one
    lock — and pin the invariants a scheduling race would break:

    * the transition chain is connected (each ``from_state`` equals the
      previous ``to_state``) and only legal edges appear;
    * HALF_OPEN never admits more than ``half_open_probes`` in-flight
      probes, no matter how many threads call ``allow()`` at once;
    * a trip is never lost: every OPEN entry is matched by a clear
      failure/slow condition, never silently overwritten by a
      concurrent close.
    """

    LEGAL_EDGES = {
        (CLOSED, OPEN),
        (OPEN, HALF_OPEN),
        (HALF_OPEN, OPEN),
        (HALF_OPEN, CLOSED),
    }

    def _hammer(self, seed, threads=6, iterations=400):
        import random
        import threading

        clock = ManualClock()
        breaker = CircuitBreaker(POLICY, clock=clock, name="raced")
        lock = threading.Lock()
        max_probes_seen = [0]

        def worker(worker_seed):
            rng = random.Random(worker_seed)
            for _ in range(iterations):
                with lock:
                    if rng.random() < 0.15:
                        # Nudge time forward so cool-downs elapse and
                        # the OPEN→HALF_OPEN edge gets exercised a lot.
                        clock.advance(POLICY.open_s * rng.uniform(0.3, 1.5))
                    if not breaker.allow():
                        continue
                    if breaker.state == HALF_OPEN:
                        max_probes_seen[0] = max(
                            max_probes_seen[0],
                            breaker._half_open_in_flight)
                    if rng.random() < 0.4:
                        breaker.record_failure()
                    else:
                        slow = (POLICY.slow_call_s * 2
                                if rng.random() < 0.2 else 1e-6)
                        breaker.record_success(elapsed_s=slow)

        pool = [threading.Thread(target=worker, args=(seed * 1000 + i,),
                                 daemon=True)
                for i in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
            assert not t.is_alive(), "hammer thread wedged"
        return breaker, max_probes_seen[0]

    @pytest.mark.parametrize("seed", [1, 7, 2007])
    def test_transition_chain_stays_connected(self, seed):
        breaker, max_probes = self._hammer(seed)
        chain = breaker.transitions
        assert chain, "the hammer must actually trip the breaker"
        assert chain[0].from_state == CLOSED
        for prev, cur in zip(chain, chain[1:]):
            assert cur.from_state == prev.to_state, (
                f"disconnected chain: {prev} -> {cur}")
        for t in chain:
            assert (t.from_state, t.to_state) in self.LEGAL_EDGES, (
                f"illegal edge {t.from_state} -> {t.to_state}")
        assert max_probes <= POLICY.half_open_probes

    @pytest.mark.parametrize("seed", [3, 11])
    def test_no_double_close_or_lost_trip(self, seed):
        breaker, _ = self._hammer(seed)
        chain = breaker.transitions
        closes = [t for t in chain if t.to_state == CLOSED]
        # Every close must come from HALF_OPEN with the full probe
        # quota — a "double close" would show as CLOSED→CLOSED or a
        # close out of OPEN.
        for t in closes:
            assert t.from_state == HALF_OPEN
            assert t.reason == "probes succeeded"
        # Every trip is recorded with its cause; none vanish.
        opens = [t for t in chain if t.to_state == OPEN]
        assert len(opens) == breaker.open_count()
        for t in opens:
            assert ("failure rate" in t.reason
                    or "slow-call rate" in t.reason
                    or "probe" in t.reason)


class RecountingBreaker(CircuitBreaker):
    """Reference: recount the whole window after every closed-state call."""

    def _record(self, ok, slow):
        if self.state != CLOSED:
            super()._record(ok, slow)
            return
        self._window.append((ok, slow))
        if len(self._window) < self.policy.breaker_min_calls:
            return
        n = len(self._window)
        failures = sum(1 for call_ok, _ in self._window if not call_ok)
        slows = sum(1 for _, call_slow in self._window if call_slow)
        if failures / n >= self.policy.failure_rate_threshold:
            self._open(f"failure rate {failures}/{n}")
        elif slows / n >= self.policy.slow_call_rate_threshold:
            self._open(f"slow-call rate {slows}/{n}")


BREAKER_OPS = st.one_of(
    st.tuples(st.just("success"), st.sampled_from([1e-5, 1e-3, 5e-3]),
              st.booleans()),
    st.tuples(st.just("failure"), st.sampled_from([0.0, 1e-5, 5e-3])),
    st.tuples(st.just("advance"), st.sampled_from([0.1, 0.6, 1.2])),
    st.tuples(st.just("allow")),
)


class TestRunningCountsMatchRecount:
    @settings(max_examples=300, deadline=None)
    @given(window=st.integers(1, 8), min_calls=st.integers(1, 10),
           failure_rate=st.sampled_from([0.25, 0.5, 1.0]),
           slow_rate=st.sampled_from([0.5, 0.8, 1.0]),
           probes=st.integers(1, 3),
           ops=st.lists(BREAKER_OPS, max_size=120))
    def test_same_states_and_transitions(self, window, min_calls,
                                         failure_rate, slow_rate, probes,
                                         ops):
        policy = ServicePolicy(
            breaker_window=window, breaker_min_calls=min_calls,
            failure_rate_threshold=failure_rate,
            slow_call_rate_threshold=slow_rate, slow_call_s=1e-3,
            open_s=1.0, half_open_probes=probes)
        clock = ManualClock()
        fast = CircuitBreaker(policy, clock=clock)
        reference = RecountingBreaker(policy, clock=clock)
        for op in ops:
            if op[0] == "advance":
                clock.advance(op[1])
            elif op[0] == "allow":
                assert fast.allow() == reference.allow()
            else:
                for breaker in (fast, reference):
                    if op[0] == "success":
                        breaker.record_success(op[1], degraded=op[2])
                    else:
                        breaker.record_failure(op[1])
            assert fast.state == reference.state
        assert fast.transitions == reference.transitions
