"""AdmissionGate: one burst admission decides and counts exactly as the
same number of sequential single admissions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import AdmissionRejected
from repro.obs.metrics import MetricsRegistry
from repro.serve.admission import AdmissionGate
from repro.serve.policy import TokenBucket


class TickingClock:
    """Advances by ``step`` on every read, so a bucket refills between
    the acquires of one burst exactly as it does between calls."""

    def __init__(self, step: float) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def make_gate(max_in_flight, in_flight, bucket, state):
    registry = MetricsRegistry()
    limiter = None
    if bucket is not None:
        rate, burst, tokens, step = bucket
        limiter = TokenBucket(rate, burst, clock=TickingClock(step))
        limiter._tokens = min(float(burst), tokens)
    gate = AdmissionGate(registry.scope("fabric"), max_in_flight,
                         bucket=limiter)
    gate._in_flight = in_flight
    if state == "draining":
        gate.begin_drain()
    elif state == "stopped":
        gate.mark_stopped()
    return gate, registry


def sequential(gate, n):
    reasons = []
    for _ in range(n):
        try:
            gate.admit()
        except AdmissionRejected as exc:
            reasons.append(exc.reason)
        else:
            reasons.append(None)
    return reasons


buckets = st.one_of(st.none(), st.tuples(
    st.floats(1.0, 1e4), st.integers(1, 8), st.floats(0.0, 8.0),
    st.sampled_from([0.0, 1e-4, 1e-3])))


class TestAdmitBurst:
    @given(n=st.integers(0, 40), max_in_flight=st.integers(1, 24),
           in_flight=st.integers(0, 30), bucket=buckets,
           state=st.sampled_from(["open", "open", "draining", "stopped"]))
    @settings(max_examples=300, deadline=None)
    def test_matches_sequential_admits(self, n, max_in_flight, in_flight,
                                       bucket, state):
        one, one_metrics = make_gate(max_in_flight, in_flight, bucket, state)
        many, many_metrics = make_gate(max_in_flight, in_flight, bucket,
                                       state)
        want = sequential(one, n)
        assert many.admit_burst(n) == want
        assert many.in_flight == one.in_flight
        assert many._seq == one._seq
        if bucket is not None:
            assert many._bucket._tokens == one._bucket._tokens
        assert many_metrics.snapshot() == one_metrics.snapshot()
        admitted = want.count(None)
        many.release_many(admitted)
        for _ in range(admitted):
            one.release()
        assert many.in_flight == one.in_flight == in_flight

    def test_empty_burst_counts_nothing(self):
        gate, registry = make_gate(4, 0, None, "open")
        assert gate.admit_burst(0) == []
        gate.release_many(0)
        assert registry.snapshot()["counters"] == {}

    @pytest.mark.parametrize("state,reason", [("draining", "stopping"),
                                              ("stopped", "stopped")])
    def test_lifecycle_sheds_whole_burst(self, state, reason):
        gate, registry = make_gate(4, 0, None, state)
        assert gate.admit_burst(3) == [reason] * 3
        counters = registry.snapshot()["counters"]
        assert counters == {"fabric.requests": 3, f"fabric.shed.{reason}": 3}
