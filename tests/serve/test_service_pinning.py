"""Pin the serving metrics of one seeded FloodGuard -> service scenario.

A syn-flood trace runs through :class:`FloodGuard` into a two-replica
:class:`ClassificationService` on a :class:`ManualClock`, with shadow
and oracle checks on.  The primary fails transiently for a stretch (its
breaker trips, cools down and closes again), one lookup overruns the
request deadline, and a few lookups see a second request arrive while
they are in flight (shed ``queue_full``).  The SHA-256 digests of the
service report and of the guard's registry snapshot pin every counter,
histogram bucket and breaker transition of the scenario, so a change
to the per-request path must leave all of them exactly as they are.
The digest of the pickled ``stop()`` state (the ``serve-state``
snapshot's payload) pins the stop payload and its key order the same
way.
"""

import hashlib
import json
import pickle

from repro.classifiers import ALGORITHMS
from repro.classifiers.updates import UpdatableClassifier
from repro.core.errors import (
    AdmissionRejected,
    DeadlineExceeded,
    ReproError,
    TransientServiceError,
)
from repro.harness.snapshots import read_header
from repro.obs.metrics import MetricsRegistry
from repro.rulesets import PROFILES, generate
from repro.serve import (
    CLOSED,
    OPEN,
    ClassificationService,
    FloodGuard,
    ManualClock,
    Replica,
    ServicePolicy,
)
from repro.traffic.scenarios import build_scenario, scenario_arrivals

PACKETS = 600
SEED = 5
#: Simulated lookup cost of each replica.
SERVICE_S = {0: 40e-6, 1: 90e-6}
#: Packet indices at which the primary fails every lookup.
PRIMARY_DOWN = range(120, 170)
#: Packet index whose primary lookup overruns the deadline.
SLOW_PACKET = 300
#: Packet indices during which a second request arrives mid-lookup.
CONCURRENT = (50, 51, 400)

POLICY = ServicePolicy(max_in_flight=1, default_deadline_s=2e-3,
                       shadow=True, oracle_check=True)

SERVICE_DIGEST = (
    "99b10c2720e3f5211701d8b3414b7e64dd69806257694634b92530a86d635620")
GUARD_DIGEST = (
    "3ff84a43ad611ae3122a26269e273064fee9c43f9195d9a48b2eb500401bc54b")
STOP_DIGEST = (
    "530b8489d522fc9909db3bc5f9e60c43c09bdd2bfcddcec2040772ef37ce3869")


def _ruleset():
    return generate(PROFILES["FW01"], size=40, seed=11).with_default()


def _build(ruleset, clock, hooks=None):
    hooks = hooks or {}
    replicas = [
        Replica(name, UpdatableClassifier(ruleset, ALGORITHMS["expcuts"]),
                fault_hook=hooks.get(idx))
        for idx, name in enumerate(("sram0", "sram1"))
    ]
    service = ClassificationService(replicas, policy=POLICY, clock=clock,
                                    sleep=clock.sleep)
    guard_registry = MetricsRegistry()
    guard = FloodGuard(service.classify, guard_registry.scope("guard"))
    return service, guard, guard_registry


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def run_scenario():
    ruleset = _ruleset()
    strace = build_scenario("syn-flood", ruleset, PACKETS, seed=SEED)
    arrivals = scenario_arrivals(strace, base_rate_per_s=1000.0, seed=SEED)
    clock = ManualClock()
    state = {"idx": -1, "service": None, "nested": []}

    def hook_for(idx):
        def hook(now):
            clock.advance(SERVICE_S[idx])
            packet = state["idx"]
            if idx == 0 and packet in PRIMARY_DOWN:
                raise TransientServiceError("synthetic channel fault")
            if idx == 0 and packet == SLOW_PACKET:
                clock.advance(5e-3)
            if packet in CONCURRENT and not state["nested"]:
                try:
                    state["service"].classify(strace.packet(packet).header)
                except AdmissionRejected as exc:
                    state["nested"].append(exc.reason)
        return hook

    service, guard, guard_registry = _build(
        ruleset, clock, {0: hook_for(0), 1: hook_for(1)})
    state["service"] = service
    outcomes: dict[str, int] = {}
    for idx in range(len(strace)):
        if arrivals[idx] > clock.now:
            clock.advance(float(arrivals[idx]) - clock.now)
        state["idx"] = idx
        state["nested"] = []
        pkt = strace.packet(idx)
        try:
            guard.submit(pkt.header, kind=pkt.kind,
                         checksum_ok=pkt.checksum_ok, klass=pkt.klass)
            outcome = "served"
        except AdmissionRejected as exc:
            outcome = f"shed.{exc.reason}"
        except DeadlineExceeded:
            outcome = "deadline"
        except ReproError as exc:
            outcome = f"error.{exc.code}"
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    return service, guard_registry, outcomes


def test_scenario_exercises_every_path():
    service, _, outcomes = run_scenario()
    counters = service.report()["metrics"]["counters"]
    assert outcomes["deadline"] == 1
    assert outcomes["shed.syn_unproven"] > 0
    assert counters["serve.shed.queue_full"] == len(CONCURRENT)
    assert counters["serve.transient_failures"] > 0
    assert counters["serve.oracle.checks"] == counters["serve.served"]
    assert "serve.oracle.divergences" not in counters
    assert "serve.shadow.divergences" not in counters
    states = [to for _, _, to, _ in
              service.report()["replicas"]["sram0"]["transitions"]]
    assert OPEN in states and states[-1] == CLOSED


def test_report_and_guard_snapshot_pinned():
    service, guard_registry, _ = run_scenario()
    assert _digest(service.report()) == SERVICE_DIGEST
    assert _digest(guard_registry.snapshot()) == GUARD_DIGEST


def test_stop_state_pinned(tmp_path):
    service, _, _ = run_scenario()
    path = tmp_path / "serve.state"
    state = service.stop(snapshot_path=path)
    assert list(state) == ["rules", "drained", "stopped_at", "metrics",
                           "replicas"]
    digest = hashlib.sha256(
        pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)).hexdigest()
    assert digest == STOP_DIGEST
    header, _ = read_header(path)
    assert header.kind == "serve-state" and header.sha256 == STOP_DIGEST


def test_fresh_service_has_no_instruments():
    empty = {"counters": {}, "gauges": {}, "histograms": {}}
    service, _, guard_registry = _build(_ruleset(), ManualClock())
    assert service.metrics.snapshot() == empty
    assert guard_registry.snapshot() == empty


def test_instruments_survive_registry_reset():
    ruleset = _ruleset()
    service, guard, guard_registry = _build(ruleset, ManualClock())
    header = (0x0A000001, 0xC0A80105, 12345, 80, 6)
    guard.submit(header)
    service.metrics.reset()
    guard_registry.reset()
    assert guard.submit(header) == ruleset.first_match(header)
    counters = service.metrics.snapshot()["counters"]
    assert counters["serve.requests"] == 1
    assert counters["serve.admitted"] == 1
    assert counters["serve.served"] == 1
    assert service.metrics.snapshot()["histograms"][
        "serve.latency_us"]["total"] == 1
    assert guard_registry.snapshot()["counters"] == {
        "guard.offered": 1, "guard.served": 1,
        "guard.class.default.offered": 1, "guard.class.default.served": 1}
