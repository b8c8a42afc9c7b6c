"""Epoch-consistent update propagation across the worker fabric.

``Fabric.apply_updates`` commits a batch of global rule edits as one
update epoch: the parent's oracle, every shard's global map, the
persisted delta chain and the worker fan-out all advance together, and
workers converge asynchronously.  These tests drive the full loop —
clean propagation, warm restarts that replay delta chains, every
control-plane fault kind (lost / duplicated / reordered sends, corrupt
deltas, a crash mid-compaction), history eviction forcing a recycle,
and the drain bar (`settle`) — asserting zero oracle divergences and
exact classification throughout.
"""

import pytest

from repro.core.errors import ConfigurationError, UpdateError
from repro.core.rule import RuleSet
from repro.harness.snapshots import read_snapshot
from repro.rulesets import churn_sequence, generate
from repro.rulesets.profiles import PROFILES
from repro.serve import (
    Fabric,
    ManualClock,
    RUNNING,
    SHARD_SNAPSHOT_KIND,
    ServicePolicy,
    ShardPlan,
    SupervisionPolicy,
)

POLICY = ServicePolicy(max_in_flight=64, breaker_window=8,
                       breaker_min_calls=4, open_s=1e-3, half_open_probes=2,
                       oracle_check=True)
SUPERVISION = SupervisionPolicy(
    heartbeat_interval_s=0.02, heartbeat_timeout_s=0.5, liveness_misses=2,
    restart_backoff_base_s=1e-3, restart_backoff_max_s=0.05,
    warm_restart_cost_s=1e-3, cold_restart_cost_s=5e-3,
    crash_loop_window_s=5.0, crash_loop_budget=6)


@pytest.fixture(scope="module")
def base_rules():
    return generate(PROFILES["FW01"], size=24, seed=11).with_default()


@pytest.fixture
def make_fabric(tmp_path, base_rules):
    made = []

    def factory(num_shards=2, **kw):
        clock = ManualClock()
        fab = Fabric(list(base_rules), tmp_path / f"shards{len(made)}",
                     num_shards=num_shards, policy=POLICY,
                     supervision=SUPERVISION,
                     clock=clock, charge=clock.advance, **kw)
        fab.manual_clock = clock
        made.append(fab)
        return fab

    yield factory
    for fab in made:
        fab.supervisor.stop()


def churn_batches(rules, updates, seed, batch=4):
    ops = churn_sequence(RuleSet(list(rules)), updates, seed=seed)
    return [ops[i:i + batch] for i in range(0, len(ops), batch)]


def converge(fab, ticks=400):
    """Advance simulated time until every worker is running at the
    fabric's epoch (heartbeats carry the applied epoch back)."""
    clock = fab.manual_clock
    for _ in range(ticks):
        clock.advance(SUPERVISION.heartbeat_interval_s)
        fab.tick(clock.now)
        if (fab.max_epoch_lag() == 0
                and all(h.state == RUNNING
                        for h in fab.supervisor.handles.values())):
            return
    raise AssertionError(
        f"fabric did not converge: lag={fab.max_epoch_lag()} "
        f"report={fab.supervisor.report()}")


def assert_serving_current_rules(fab, n=32):
    """Fabric answers must match a linear oracle over the *current*
    global rule list (exercises every rule's low corner)."""
    oracle = RuleSet(list(fab.rules))
    headers = [tuple(iv.lo for iv in rule.intervals)
               for rule in fab.rules[:n]]
    for header in headers:
        assert fab.classify(header) == oracle.first_match(header), header
    assert fab.counter("oracle.divergences") == 0


# -- clean propagation ---------------------------------------------------------

class TestEpochPropagation:
    def test_updates_reach_workers_and_answers_track_oracle(
            self, make_fabric, base_rules):
        fab = make_fabric()
        for batch in churn_batches(base_rules, 12, seed=3):
            fab.apply_updates(batch)
        assert fab.epoch == 3
        converge(fab)
        report = fab.report()["updates"]
        assert report["epoch"] == 3
        assert set(report["applied_epochs"].values()) == {3}
        # Every epoch persisted one delta per shard (no compaction yet).
        assert set(report["delta_chain_lengths"].values()) == {3}
        assert report["max_epoch_lag"] == 0
        assert_serving_current_rules(fab)
        assert fab.counter("oracle.checks") > 0

    def test_batch_classification_matches_scalar_after_churn(
            self, make_fabric, base_rules):
        fab = make_fabric()
        for batch in churn_batches(base_rules, 8, seed=5):
            fab.apply_updates(batch)
        converge(fab)
        headers = [tuple(iv.lo for iv in rule.intervals)
                   for rule in fab.rules[:16]]
        outcomes = fab.classify_batch(headers)
        assert all(o["status"] == "served" for o in outcomes)
        for header, outcome in zip(headers, outcomes):
            assert outcome["rule"] == fab.classify(header)
        assert fab.counter("oracle.divergences") == 0

    def test_apply_updates_validates_ops(self, make_fabric):
        fab = make_fabric()
        with pytest.raises(UpdateError):
            fab.apply_updates([("replace", 0)])
        with pytest.raises(UpdateError):
            fab.apply_updates([("insert", len(fab.rules) + 1,
                               fab.rules[0])])
        with pytest.raises(UpdateError):
            fab.apply_updates([("remove", len(fab.rules))])
        # No epoch was committed by any rejected batch.
        assert fab.epoch == 0

    def test_inject_update_fault_validates(self, make_fabric):
        fab = make_fabric()
        with pytest.raises(ConfigurationError):
            fab.inject_update_fault("shard0", "melt_cpu")
        with pytest.raises(ConfigurationError):
            fab.inject_update_fault("no-such-shard", "lose_update")


# -- warm restarts replay the persisted chain ----------------------------------

class TestWarmRestartReplay:
    def test_kill_then_warm_restart_replays_deltas(self, make_fabric,
                                                   base_rules):
        fab = make_fabric()
        clock = fab.manual_clock
        for batch in churn_batches(base_rules, 8, seed=9):
            fab.apply_updates(batch)
        converge(fab)

        victim = fab.specs[0].name
        fab.supervisor.inject_kill(victim)
        fab.probe(victim, clock.now)  # detect the EOF now
        assert fab.supervisor.state(victim) != RUNNING

        converge(fab)
        report = fab.supervisor.report()[victim]
        assert report["warm"], "restart should load the published snapshot"
        # The snapshot is the epoch-0 base: catching up to the fabric's
        # epoch means the persisted delta chain actually replayed.
        assert report["replayed_deltas"] >= 1
        assert report["applied_epoch"] == fab.epoch
        clock.advance(POLICY.open_s * 2)  # let the breaker cool down
        assert_serving_current_rules(fab)


# -- send-path faults ----------------------------------------------------------

class TestSendFaults:
    def test_lost_update_repaired_by_anti_entropy(self, make_fabric,
                                                  base_rules):
        fab = make_fabric()
        victim = fab.specs[0].name
        batches = churn_batches(base_rules, 8, seed=13)
        fab.apply_updates(batches[0])
        fab.inject_update_fault(victim, "lose_update")
        fab.apply_updates(batches[1])  # this epoch never reaches victim
        assert fab.counter("update_faults.lose_update") == 1
        converge(fab)  # tick() pumps the missing epoch back out
        assert fab.counter("update_repairs") >= 1
        assert_serving_current_rules(fab)

    def test_duplicate_update_applied_once(self, make_fabric, base_rules):
        fab = make_fabric()
        victim = fab.specs[0].name
        batches = churn_batches(base_rules, 8, seed=17)
        fab.inject_update_fault(victim, "dup_update")
        fab.apply_updates(batches[0])  # sent twice; second must be a no-op
        fab.apply_updates(batches[1])
        assert fab.counter("update_faults.dup_update") == 1
        converge(fab)
        assert_serving_current_rules(fab)

    def test_reordered_updates_gap_buffered(self, make_fabric, base_rules):
        fab = make_fabric()
        victim = fab.specs[0].name
        batches = churn_batches(base_rules, 12, seed=19)
        fab.inject_update_fault(victim, "reorder_update")
        fab.apply_updates(batches[0])  # held back ...
        fab.apply_updates(batches[1])  # ... and released after this one:
        fab.apply_updates(batches[2])  # the worker sees 2 before 1
        assert fab.counter("update_faults.reorder_update") == 1
        converge(fab)
        assert_serving_current_rules(fab)


# -- persistence-path faults ---------------------------------------------------

class TestChainFaults:
    def test_corrupt_delta_quarantined_then_repaired(self, make_fabric,
                                                     base_rules):
        fab = make_fabric()
        clock = fab.manual_clock
        victim = fab.specs[0].name
        batches = churn_batches(base_rules, 12, seed=23)
        fab.apply_updates(batches[0])
        fab.inject_update_fault(victim, "corrupt_delta")
        fab.apply_updates(batches[1])  # this delta is corrupted on disk
        fab.apply_updates(batches[2])
        assert fab.counter("update_faults.corrupt_delta") == 1
        converge(fab)  # the live worker got the epochs over the pipe

        # A restart replays from disk: the corrupt record (and its
        # successors) are quarantined, the salvaged prefix loads, and
        # anti-entropy repairs the gap back to the current epoch.
        fab.supervisor.inject_kill(victim)
        fab.probe(victim, clock.now)
        converge(fab)
        assert fab.supervisor.report()[victim]["applied_epoch"] == fab.epoch
        clock.advance(POLICY.open_s * 2)
        assert_serving_current_rules(fab)

    def test_crash_mid_compaction_recovers_on_fresh_base(self, make_fabric,
                                                         base_rules):
        fab = make_fabric()
        victim = fab.specs[0].name
        starts_before = fab.supervisor.report()[victim]["starts"]
        batches = churn_batches(base_rules, 8, seed=29)
        fab.apply_updates(batches[0])
        fab.inject_update_fault(victim, "crash_mid_compaction")
        fab.apply_updates(batches[1])
        assert fab.counter("update_faults.crash_mid_compaction") == 1
        assert fab.counter("delta_compactions") >= 1
        # The compaction republished the base at the current epoch and
        # reset the chain before the worker died.
        assert fab.report()["updates"]["delta_chain_lengths"][victim] == 0
        converge(fab)
        report = fab.supervisor.report()[victim]
        assert report["starts"] > starts_before  # it really was recycled
        assert report["applied_epoch"] == fab.epoch
        fab.manual_clock.advance(POLICY.open_s * 2)
        assert_serving_current_rules(fab)

    def test_stale_worker_recycled_when_history_evicted(self, make_fabric,
                                                        base_rules):
        # History keeps only 2 epochs: losing 3 sends in a row leaves
        # the worker beyond pipe repair, so the pump must compact the
        # shard and recycle the worker onto the fresh base.
        fab = make_fabric(epoch_history=2)
        victim = fab.specs[0].name
        for batch in churn_batches(base_rules, 12, seed=31, batch=4)[:3]:
            fab.inject_update_fault(victim, "lose_update")
            fab.apply_updates(batch)
        assert fab.counter("update_faults.lose_update") == 3
        converge(fab)
        assert fab.counter("stale_recycles") >= 1
        fab.manual_clock.advance(POLICY.open_s * 2)
        assert_serving_current_rules(fab)


# -- drain ---------------------------------------------------------------------

class TestSettle:
    def test_settle_drains_backlog_and_lag(self, make_fabric, base_rules):
        fab = make_fabric()
        for batch in churn_batches(base_rules, 16, seed=37):
            fab.apply_updates(batch)
        state = fab.settle(fab.manual_clock.now)
        converge(fab)
        assert state["epoch"] == fab.epoch
        assert fab.max_epoch_lag() == 0
        # Settling compacted every live chain into its base.
        lengths = fab.report()["updates"]["delta_chain_lengths"]
        assert set(lengths.values()) == {0}
        assert_serving_current_rules(fab)


# -- the parent's shard maps ---------------------------------------------------

class TestShardMaps:
    def test_maps_track_a_fresh_plan_and_settle_publishes_them(
            self, make_fabric, base_rules):
        # The parent keeps each shard's global map, not its classifier:
        # after every epoch the map must be the one a fresh partition of
        # the live rules gives, and the bases settle() publishes must
        # hold exactly that partition at the fabric's epoch.  The run is
        # longer than COMPACT_EVERY, so it crosses a compaction too.
        fab = make_fabric(num_shards=3)
        for batch in churn_batches(base_rules, 200, seed=41, batch=3):
            fab.apply_updates(batch)
            plan = ShardPlan.build(fab.rules, 3)
            for spec, assignment in zip(fab.specs, plan.assignments):
                assert fab._shard_map[spec.name] == list(assignment), \
                    (fab.epoch, spec.name)
        assert fab.epoch == 67
        fab.settle(fab.manual_clock.now)
        plan = ShardPlan.build(fab.rules, 3)
        for spec, assignment in zip(fab.specs, plan.assignments):
            payload = read_snapshot(spec.snapshot_path,
                                    kind=SHARD_SNAPSHOT_KIND)
            assert payload["rules"] == [fab.rules[g] for g in assignment]
            assert payload["global_map"] == list(assignment)
            assert payload["epoch"] == fab.epoch
            assert payload["base"].rules == payload["rules"]
        converge(fab)
        assert_serving_current_rules(fab)
