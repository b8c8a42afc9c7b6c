"""Pin the front-end payloads of one seeded two-shard fabric run.

A two-shard :class:`Fabric` over a 40-rule firewall set runs on a
:class:`ManualClock` with the in-lock oracle audit on.  It serves
scalar and batched requests, applies one update epoch, loses a worker
to a SIGKILL (the dead shard's rows of the next burst shed
``shard_down``), restarts it warm from its snapshot and delta chain,
and stops with a state snapshot.  The SHA-256 digests of ``report()``
(as JSON, in its own key order) and of the pickled ``stop()`` state
(the snapshot's payload) pin every counter, histogram bucket, breaker
transition, supervision record and key order of the scenario.
"""

import hashlib
import json
import pickle

import pytest

from repro.core.rule import Rule
from repro.harness.snapshots import read_header, read_snapshot
from repro.rulesets import PROFILES, generate
from repro.serve import (
    RUNNING,
    Fabric,
    ManualClock,
    ServicePolicy,
    SupervisionPolicy,
)
from repro.traffic import matched_trace

POLICY = ServicePolicy(max_in_flight=64, breaker_window=8,
                       breaker_min_calls=4, open_s=1e-3, half_open_probes=2,
                       oracle_check=True)
SUPERVISION = SupervisionPolicy(
    heartbeat_interval_s=0.02, heartbeat_timeout_s=0.5, liveness_misses=2,
    restart_backoff_base_s=1e-3, restart_backoff_max_s=0.05,
    warm_restart_cost_s=1e-3, cold_restart_cost_s=5e-3)
#: Simulated lookup cost per header.
LOOKUP_COST_S = 20e-6

#: Derived from the scenario's ``report()`` as it read while the fabric's
#: parent process still kept a classifier per shard: its
#: ``updates.rebuild_backlog`` entry (a measure of those classifiers)
#: popped, every other byte unchanged.
REPORT_DIGEST = (
    "3e2fbd24eb5d971d90a361efa8fb43311c27be470c1a3d2e23bce404722bc2be")
STATE_DIGEST = (
    "b5640d4694a962e75de9a8c7f78a6172a737ebbc5951187128abd74d6bdbc411")


def _digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def run_scenario(directory):
    """Drive the scenario; returns ``report()``, the ``stop()`` state,
    the outcomes of the burst that met the dead shard and the state
    snapshot's path."""
    ruleset = generate(PROFILES["FW01"], size=40, seed=11).with_default()
    headers = list(matched_trace(ruleset, 96, seed=21).headers())
    clock = ManualClock()
    fabric = Fabric(list(ruleset), directory / "shards", num_shards=2,
                    policy=POLICY, supervision=SUPERVISION, clock=clock,
                    charge=clock.advance, lookup_cost_s=LOOKUP_COST_S)
    try:
        for header in headers[:32]:
            fabric.classify(header)
        fabric.classify_batch(headers[32:64])
        fabric.apply_updates([
            ("insert", 0, Rule.from_prefixes(sip="10.1.0.0/16", proto=6)),
            ("remove", 5),
        ])
        clock.advance(0.05)
        fabric.tick()
        fabric.supervisor.inject_kill("shard0")
        fabric.probe("shard0")
        outcomes = fabric.classify_batch(headers[64:96])
        clock.advance(0.1)
        fabric.tick()
        assert fabric.supervisor.state("shard0") == RUNNING
        fabric.classify_batch(headers[:64])
        report = fabric.report()
        path = directory / "fabric.state"
        state = fabric.stop(snapshot_path=path)
    finally:
        fabric.supervisor.stop()
    return report, state, outcomes, path


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    return run_scenario(tmp_path_factory.mktemp("fabric-pin"))


def test_scenario_sheds_a_shard_and_applies_an_epoch(scenario):
    report, _, outcomes, _ = scenario
    shed = [o for o in outcomes if o["status"] == "shed"]
    assert shed and {o["reason"] for o in shed} == {"shard_down"}
    counters = report["metrics"]["counters"]
    assert counters["fabric.shed.shard_down"] == len(shed)
    assert counters["fabric.epochs"] == 1
    assert report["updates"]["epoch"] == 1
    assert counters["fabric.oracle.checks"] == counters["fabric.served"]
    assert "fabric.oracle.divergences" not in counters
    assert report["outages"] and report["outages"][0]["warm"]


def test_state_key_order(scenario):
    _, state, _, _ = scenario
    assert list(state) == ["rules", "drained", "stopped_at", "metrics",
                           "workers", "supervision"]
    assert list(state["workers"]) == ["shard0", "shard1"]


def test_report_and_state_pinned(scenario):
    report, state, _, _ = scenario
    assert _digest(json.dumps(report).encode()) == REPORT_DIGEST
    assert _digest(pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
                   ) == STATE_DIGEST


def test_snapshot_payload_is_the_pinned_state(scenario):
    _, state, _, path = scenario
    header, _ = read_header(path)
    assert header.kind == "fabric-state"
    assert header.sha256 == STATE_DIGEST
    assert read_snapshot(path, kind="fabric-state") == state
