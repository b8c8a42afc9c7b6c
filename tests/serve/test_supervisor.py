"""Worker supervision: spawn, heartbeat, death detection, backed-off
restarts, crash-loop parking and corrupt-snapshot recovery.

These tests run real forked workers but drive all timing through a
ManualClock — the wall clock only bounds pipe waits, so each test stays
fast and its outcome deterministic.
"""

from pathlib import Path

import pytest

from repro.classifiers import LinearSearchClassifier
from repro.classifiers.updates import UpdatableClassifier
from repro.core.errors import ShardUnavailable, WorkerCrashLoop
from repro.core.rule import Rule, RuleSet
from repro.obs.metrics import MetricsRegistry
from repro.serve import (
    DOWN,
    PARKED,
    RUNNING,
    ManualClock,
    ShardSpec,
    SupervisionPolicy,
    Supervisor,
    write_shard_snapshot,
)

POLICY = SupervisionPolicy(
    heartbeat_interval_s=0.01, heartbeat_timeout_s=0.5, liveness_misses=2,
    reply_timeout_s=5.0, ready_timeout_s=60.0,
    restart_backoff_base_s=1e-3, restart_backoff_mult=2.0,
    restart_backoff_max_s=0.05,
    warm_restart_cost_s=1e-3, cold_restart_cost_s=5e-3,
    crash_loop_window_s=5.0, crash_loop_budget=3)

RULES = (
    Rule.from_prefixes(sip="10.0.0.0/8", proto=6),
    Rule.from_prefixes(dip="192.168.1.0/24"),
    Rule.any(),
)
HEADER = (0x0A000001, 0xC0A80105, 12345, 80, 6)


def make_spec(tmp_path, name="shard0", crash_on_start=False):
    spec = ShardSpec(
        name=name, rules=RULES, global_map=tuple(range(len(RULES))),
        snapshot_path=str(Path(tmp_path) / f"{name}.snap"),
        algorithm="linear", rebuild_threshold=4,
        crash_on_start=crash_on_start)
    base = UpdatableClassifier(RuleSet(list(RULES), name=name),
                               LinearSearchClassifier, rebuild_threshold=4)
    write_shard_snapshot(Path(spec.snapshot_path), spec, base)
    return spec


@pytest.fixture
def sup(tmp_path):
    clock = ManualClock()
    registry = MetricsRegistry()
    supervisor = Supervisor([make_spec(tmp_path)], policy=POLICY,
                            clock=clock, charge=clock.advance,
                            metrics=registry.scope("fabric"))
    supervisor.start()
    yield supervisor, clock, registry
    supervisor.stop()


def counter(registry, name):
    return registry.counter(f"fabric.{name}").value


def restart(supervisor, clock, shard="shard0", rounds=200):
    """Tick simulated time forward until the shard is RUNNING again."""
    for _ in range(rounds):
        clock.advance(5e-3)
        supervisor.tick(clock.now)
        if supervisor.state(shard) == RUNNING:
            return
    raise AssertionError(f"{shard} never restarted")


class TestLifecycle:
    def test_starts_running_and_serves(self, sup):
        supervisor, clock, _ = sup
        assert supervisor.state("shard0") == RUNNING
        assert supervisor.available() == 1
        answers = supervisor.request("shard0", [HEADER], clock.now)
        assert answers == [0]  # 10.0.0.1 proto 6 hits rule 0

    def test_heartbeats_flow_on_tick(self, sup):
        supervisor, clock, registry = sup
        for _ in range(5):
            clock.advance(POLICY.heartbeat_interval_s * 1.5)
            supervisor.tick(clock.now)
        assert counter(registry, "heartbeats") >= 5
        assert counter(registry, "heartbeat_misses") == 0

    def test_stop_is_graceful(self, tmp_path):
        clock = ManualClock()
        supervisor = Supervisor([make_spec(tmp_path)], policy=POLICY,
                                clock=clock, charge=clock.advance,
                                metrics=MetricsRegistry().scope("fabric"))
        supervisor.start()
        stats = supervisor.stop()
        assert "shard0" in stats
        assert supervisor.state("shard0") == "stopped"


class TestDeathAndRestart:
    def test_kill_detected_and_restarted_warm(self, sup):
        supervisor, clock, registry = sup
        supervisor.inject_kill("shard0")
        assert not supervisor.probe("shard0", clock.now)
        assert supervisor.state("shard0") == DOWN
        assert supervisor.any_down()
        assert counter(registry, "worker_deaths") == 1
        assert counter(registry, "deaths.pipe_closed") == 1

        with pytest.raises(ShardUnavailable):
            supervisor.request("shard0", [HEADER], clock.now)

        restart(supervisor, clock)
        # 2 = initial warm spawn + the post-kill warm restart.
        assert counter(registry, "warm_restarts") == 2
        assert counter(registry, "restarts") == 1
        assert supervisor.request("shard0", [HEADER], clock.now) == [0]

    def test_each_spawn_registers_its_own_pipe_poller(self, sup):
        supervisor, clock, _ = sup
        handle = supervisor.handles["shard0"]
        first = handle.poller
        assert first is not None
        supervisor.inject_kill("shard0")
        assert not supervisor.probe("shard0", clock.now)  # EOF via poll
        assert handle.poller is None and handle.conn is None
        restart(supervisor, clock)
        assert handle.poller is not None and handle.poller is not first
        assert supervisor.request("shard0", [HEADER], clock.now) == [0]

    def test_hang_caught_by_liveness_deadline(self, sup):
        supervisor, clock, registry = sup
        supervisor.inject_hang("shard0")
        for _ in range(POLICY.liveness_misses):
            assert not supervisor.probe("shard0", clock.now)
        assert supervisor.state("shard0") == DOWN
        assert counter(registry, "deaths.liveness") == 1
        assert counter(registry, "heartbeat_misses") >= POLICY.liveness_misses
        restart(supervisor, clock)
        assert supervisor.request("shard0", [HEADER], clock.now) == [0]

    def test_backoff_doubles_then_caps(self):
        assert POLICY.backoff(1) == pytest.approx(1e-3)
        assert POLICY.backoff(2) == pytest.approx(2e-3)
        assert POLICY.backoff(3) == pytest.approx(4e-3)
        assert POLICY.backoff(50) == POLICY.restart_backoff_max_s

    def test_restart_waits_out_the_backoff(self, sup):
        supervisor, clock, _ = sup
        supervisor.inject_kill("shard0")
        supervisor.probe("shard0", clock.now)
        # Immediately ticking must NOT restart: the backoff hasn't
        # elapsed in simulated time yet.
        supervisor.tick(clock.now)
        assert supervisor.state("shard0") == DOWN
        clock.advance(POLICY.restart_backoff_base_s * 2)
        supervisor.tick(clock.now)
        assert supervisor.state("shard0") == RUNNING


class TestCrashLoop:
    def test_budget_exhaustion_parks_the_shard(self, tmp_path):
        clock = ManualClock()
        registry = MetricsRegistry()
        spec = make_spec(tmp_path, crash_on_start=True)
        supervisor = Supervisor([spec], policy=POLICY, clock=clock,
                                charge=clock.advance,
                                metrics=registry.scope("fabric"))
        supervisor.start()
        try:
            for _ in range(400):
                clock.advance(5e-3)
                supervisor.tick(clock.now)
                if supervisor.state("shard0") == PARKED:
                    break
            assert supervisor.state("shard0") == PARKED
            assert counter(registry, "crash_loop_parked") == 1
            assert counter(registry, "failed_starts") >= POLICY.crash_loop_budget
            handle = supervisor.handles["shard0"]
            assert isinstance(handle.park_error, WorkerCrashLoop)
            with pytest.raises(ShardUnavailable) as exc:
                supervisor.request("shard0", [HEADER], clock.now)
            assert exc.value.phase == "parked"
            # Parked stays parked: further ticks never respawn.
            clock.advance(60.0)
            supervisor.tick(clock.now)
            assert supervisor.state("shard0") == PARKED
        finally:
            supervisor.stop()


class TestCorruptSnapshot:
    def test_cold_rebuild_quarantine_and_reseed(self, tmp_path):
        clock = ManualClock()
        registry = MetricsRegistry()
        spec = make_spec(tmp_path)
        reseeded = []

        def reseed(s):
            reseeded.append(s.name)
            base = UpdatableClassifier(RuleSet(list(RULES), name=s.name),
                                       LinearSearchClassifier,
                                       rebuild_threshold=4)
            write_shard_snapshot(Path(s.snapshot_path), s, base)

        supervisor = Supervisor([spec], policy=POLICY, clock=clock,
                                charge=clock.advance,
                                metrics=registry.scope("fabric"),
                                reseed_snapshot=reseed)
        supervisor.start()
        try:
            # Corrupt the snapshot, then kill: the restart must detect
            # the damage, quarantine the file and rebuild cold.
            snap = Path(spec.snapshot_path)
            raw = bytearray(snap.read_bytes())
            raw[len(raw) // 2] ^= 0xFF
            snap.write_bytes(bytes(raw))
            supervisor.inject_kill("shard0")
            supervisor.probe("shard0", clock.now)
            restart(supervisor, clock)

            assert counter(registry, "cold_restarts") == 1
            assert counter(registry, "corrupt_snapshot_restarts") == 1
            assert reseeded == ["shard0"]
            assert list(snap.parent.glob("*.corrupt*"))
            # Answers stay correct off the cold rebuild.
            assert supervisor.request("shard0", [HEADER], clock.now) == [0]

            # The reseed healed the store: the *next* restart is warm.
            supervisor.inject_kill("shard0")
            supervisor.probe("shard0", clock.now)
            restart(supervisor, clock)
            # 2 = initial warm spawn + this post-reseed warm restart
            # (the corrupt-snapshot restart in between was cold).
            assert counter(registry, "warm_restarts") == 2
        finally:
            supervisor.stop()
