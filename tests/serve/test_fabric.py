"""Sharded multi-process fabric: partition correctness, oracle
equivalence with the single-process service, and shedding behaviour.

Process-spawning tests share one module-scoped fabric where possible —
each fork+build costs real wall time.
"""

import numpy as np
import pytest

from repro.core.errors import (
    AdmissionRejected,
    ConfigurationError,
    ShardUnavailable,
    UpdateError,
)
from repro.core.fields import FIELD_WIDTHS
from repro.core.rule import Rule, RuleSet
from repro.obs.span import StageTimer
from repro.rulesets import generate
from repro.rulesets.profiles import PROFILES
from repro.serve import (
    ClassificationService,
    Fabric,
    ManualClock,
    RUNNING,
    Replica,
    ServicePolicy,
    ShardPlan,
    SupervisionPolicy,
)
from repro.serve.transport import pack_rows
from repro.traffic import matched_trace

POLICY = ServicePolicy(max_in_flight=64, breaker_window=8,
                       breaker_min_calls=4, open_s=1e-3, half_open_probes=2,
                       oracle_check=True)
SUPERVISION = SupervisionPolicy(
    heartbeat_interval_s=0.02, heartbeat_timeout_s=0.5, liveness_misses=2,
    restart_backoff_base_s=1e-3, restart_backoff_max_s=0.05,
    warm_restart_cost_s=1e-3, cold_restart_cost_s=5e-3,
    crash_loop_window_s=5.0, crash_loop_budget=4)


@pytest.fixture(scope="module")
def fw_ruleset():
    return generate(PROFILES["FW01"], size=40, seed=11).with_default()


@pytest.fixture(scope="module")
def fw_headers(fw_ruleset):
    return list(matched_trace(fw_ruleset, 120, seed=21).headers())


@pytest.fixture(scope="module")
def fabric(fw_ruleset, tmp_path_factory):
    clock = ManualClock()
    fab = Fabric(list(fw_ruleset), tmp_path_factory.mktemp("fabric"),
                 num_shards=3, policy=POLICY, supervision=SUPERVISION,
                 clock=clock, charge=clock.advance)
    fab.manual_clock = clock  # test-side handle for advancing time
    yield fab
    fab.supervisor.stop()


# -- partition plan ------------------------------------------------------------

class TestShardPlan:
    def test_bounds_tile_the_dimension(self, fw_ruleset):
        plan = ShardPlan.build(list(fw_ruleset), 3)
        span = 1 << FIELD_WIDTHS[plan.dim]
        assert plan.bounds[0][0] == 0
        assert plan.bounds[-1][1] == span - 1
        for (_, hi), (lo, _) in zip(plan.bounds, plan.bounds[1:]):
            assert lo == hi + 1  # contiguous, no gap, no overlap

    def test_every_rule_lands_somewhere(self, fw_ruleset):
        plan = ShardPlan.build(list(fw_ruleset), 4)
        covered = {idx for a in plan.assignments for idx in a}
        assert covered == set(range(len(fw_ruleset)))

    def test_rule_on_shard_iff_interval_overlaps(self, fw_ruleset):
        rules = list(fw_ruleset)
        plan = ShardPlan.build(rules, 3)
        for (lo, hi), assignment in zip(plan.bounds, plan.assignments):
            for idx, rule in enumerate(rules):
                overlaps = (rule.intervals[plan.dim].lo <= hi
                            and rule.intervals[plan.dim].hi >= lo)
                assert (idx in assignment) == overlaps

    def test_route_respects_bounds(self, fw_ruleset, fw_headers):
        plan = ShardPlan.build(list(fw_ruleset), 3)
        for header in fw_headers:
            shard = plan.route(header)
            lo, hi = plan.bounds[shard]
            assert lo <= header[plan.dim] <= hi

    def test_route_boundary_values(self, fw_ruleset):
        plan = ShardPlan.build(list(fw_ruleset), 3)
        span = 1 << FIELD_WIDTHS[plan.dim]
        header = [0, 0, 0, 0, 0]
        for value, want in [(0, 0), (plan.bounds[0][1], 0),
                            (plan.bounds[1][0], 1), (span - 1, 2)]:
            header[plan.dim] = value
            assert plan.route(header) == want

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 7])
    def test_route_rows_matches_route(self, fw_ruleset, num_shards):
        plan = ShardPlan.build(list(fw_ruleset), num_shards)
        span = 1 << FIELD_WIDTHS[plan.dim]
        values = {0, span - 1}
        for lo, hi in plan.bounds:
            values |= {lo, max(lo - 1, 0), hi}
        headers = []
        for value in sorted(values):
            header = [7, 8, 9, 10, 6]
            header[plan.dim] = value
            headers.append(tuple(header))
        routed = plan.route_rows(np.array(headers, dtype=np.uint32))
        assert routed.tolist() == [plan.route(h) for h in headers]

    def test_wildcards_replicate_everywhere(self):
        rules = [Rule.any(), Rule.from_prefixes(sip="10.0.0.0/8")]
        plan = ShardPlan.build(rules, 4)
        for assignment in plan.assignments:
            assert 0 in assignment  # the wildcard is on every shard
        assert plan.replication_factor() >= 1.0

    def test_single_shard_owns_everything(self, fw_ruleset):
        plan = ShardPlan.build(list(fw_ruleset), 1)
        assert plan.assignments[0] == tuple(range(len(fw_ruleset)))

    def test_bad_arguments_rejected(self, fw_ruleset):
        with pytest.raises(ConfigurationError):
            ShardPlan.build(list(fw_ruleset), 0)
        with pytest.raises(ConfigurationError):
            ShardPlan.build(list(fw_ruleset), 2, dim=99)


# -- no-fault equivalence ------------------------------------------------------

class TestOracleEquivalence:
    """Acceptance criterion: with no faults, the fabric's answers are
    identical to the single-process service's and the linear oracle's."""

    def test_fabric_matches_service_and_oracle(self, fabric, fw_ruleset,
                                               fw_headers):
        from repro.classifiers import LinearSearchClassifier

        oracle = RuleSet(list(fw_ruleset), name="oracle")
        service = ClassificationService(
            [Replica("sram0", LinearSearchClassifier(fw_ruleset))],
            policy=ServicePolicy(), clock=ManualClock())
        for header in fw_headers:
            want = oracle.first_match(header)
            assert fabric.classify(header) == want
            assert service.classify(header) == want
        assert fabric.counter("oracle.divergences") == 0
        assert fabric.counter("oracle.checks") >= len(fw_headers)

    def test_batch_matches_scalar(self, fabric, fw_headers):
        headers = fw_headers[:40]
        outcomes = fabric.classify_batch(headers)
        assert all(o["status"] == "served" for o in outcomes)
        for header, outcome in zip(headers, outcomes):
            assert outcome["rule"] == fabric.classify(header)


class TestPackedBursts:
    """Bursts travel as uint32 rows and come back as int32 answers; the
    caller still sees plain ``int`` rule indices and ``None`` for no
    match."""

    @pytest.fixture(scope="class")
    def sparse(self, tmp_path_factory):
        rules = [Rule.from_prefixes(sip="10.0.0.0/8", proto=6),
                 Rule.from_prefixes(sip="192.168.0.0/16")]
        clock = ManualClock()
        fab = Fabric(rules, tmp_path_factory.mktemp("sparse"), num_shards=2,
                     policy=POLICY, supervision=SUPERVISION,
                     clock=clock, charge=clock.advance)
        yield fab
        fab.supervisor.stop()

    def test_empty_burst_round_trip(self, sparse):
        assert sparse.classify_batch([]) == []
        empty = np.empty((0, 5), dtype=np.uint32)
        for spec in sparse.specs:
            answers = sparse.supervisor.request(spec.name, empty)
            assert answers.dtype == np.int32 and len(answers) == 0
        assert sparse.counter("requests") == 0

    def test_no_match_comes_back_as_none(self, sparse):
        headers = [(0x0A000001, 1, 2, 3, 6), (0x0A000001, 1, 2, 3, 17),
                   (0xC0A80101, 1, 2, 3, 6), (0xFFFFFFFF, 0, 0, 0, 0),
                   (0, 0, 0, 0, 0)]
        want = [0, None, 1, None, None]
        outcomes = sparse.classify_batch(headers)
        assert [o["rule"] for o in outcomes] == want
        assert [sparse.classify(h) for h in headers] == want
        assert sparse.counter("oracle.divergences") == 0

    def test_rule_values_are_plain_ints(self, sparse, fw_headers):
        outcomes = sparse.classify_batch(fw_headers[:16]
                                         + [(0x0A000001, 1, 2, 3, 6)])
        rules = [o["rule"] for o in outcomes]
        assert all(r is None or type(r) is int for r in rules)
        assert any(type(r) is int for r in rules)
        assert type(sparse.classify((0x0A000001, 1, 2, 3, 6))) is int

    def test_queue_full_tail_sheds_in_place(self, sparse):
        limit = POLICY.max_in_flight
        headers = [(0xC0A80101 if i % 3 else 0x0A000001, 1, 2, 3, 6)
                   for i in range(limit + 6)]
        outcomes = sparse.classify_batch(headers)
        assert [o["rule"] for o in outcomes[:limit]] == [
            1 if i % 3 else 0 for i in range(limit)]
        assert outcomes[limit:] == [{"status": "shed",
                                     "reason": "queue_full"}] * 6
        assert sparse._gate.in_flight == 0

    def test_out_of_range_fields_rejected_not_wrapped(self, sparse):
        for bad in ([(1, 2, 3, 4, -1)], [(1 << 32, 0, 0, 0, 0)],
                    np.array([[1, 2, 3, 4, -1]]),
                    [np.array([0, 0, 0, 0, 1 << 32])]):
            with pytest.raises(OverflowError):
                pack_rows(bad)
        with pytest.raises(OverflowError):
            sparse.classify((0x0A000001, 1, 2, 3, 1 << 32))
        with pytest.raises(OverflowError):
            sparse.classify_batch([(0x0A000001, 1, 2, 3, 6),
                                   np.array([0x0A000001, 1, 2, 3, -1])])
        assert sparse._gate.in_flight == 0

    def test_down_shard_sheds_its_rows_only(self, sparse):
        # Last in the class: it leaves shard0 down.
        victim = sparse.specs[0].name
        sparse.supervisor.inject_kill(victim)
        sparse.probe(victim)
        before = sparse.counter("shed_phase.restarting")
        outcomes = sparse.classify_batch([(0x0A000001, 1, 2, 3, 6),
                                          (0xC0A80101, 1, 2, 3, 6),
                                          (0x0A000002, 1, 2, 3, 6)])
        shed = {"status": "shed", "reason": "shard_down", "shard": victim,
                "phase": "restarting"}
        assert outcomes == [shed, {"status": "served", "rule": 1}, shed]
        assert sparse.counter("shed_phase.restarting") == before + 2
        with pytest.raises(ShardUnavailable) as exc:
            sparse.classify((0x0A000001, 1, 2, 3, 6))
        assert exc.value.phase == "restarting"


# -- failure behaviour ---------------------------------------------------------

class TestSheddingAndRecovery:
    def test_dead_shard_sheds_then_recovers(self, fabric, fw_headers):
        clock = fabric.manual_clock
        headers = fw_headers
        victim_idx = fabric.plan.route(headers[0])
        victim = fabric.specs[victim_idx].name

        fabric.supervisor.inject_kill(victim)
        fabric.probe(victim, clock.now)  # detect the EOF now
        assert fabric.supervisor.state(victim) != RUNNING

        with pytest.raises(ShardUnavailable) as exc:
            fabric.classify(headers[0])
        assert exc.value.shard == victim
        assert fabric.counter("shed.shard_down") >= 1
        assert isinstance(exc.value, AdmissionRejected)  # typed shed

        # Other shards keep serving through the outage.
        other = next(h for h in headers
                     if fabric.specs[fabric.plan.route(h)].name != victim)
        assert fabric.classify(other) is not None

        # Past the backoff, a tick restarts the worker warm.
        for _ in range(200):
            clock.advance(5e-3)
            fabric.tick(clock.now)
            if fabric.supervisor.state(victim) == RUNNING:
                break
        assert fabric.supervisor.state(victim) == RUNNING
        assert fabric.counter("warm_restarts") >= 1
        # Breaker may still be open from the outage; let it cool down.
        clock.advance(POLICY.open_s * 2)
        for _ in range(POLICY.half_open_probes + 1):
            try:
                assert fabric.classify(headers[0]) is not None
            except ShardUnavailable:
                clock.advance(POLICY.open_s)
        assert fabric.counter("oracle.divergences") == 0

    def test_stop_writes_fabric_state_snapshot(self, fw_ruleset, tmp_path):
        from repro.harness.cache import CACHE_VERSION
        from repro.harness.snapshots import read_snapshot

        clock = ManualClock()
        fab = Fabric(list(fw_ruleset), tmp_path / "shards", num_shards=2,
                     policy=POLICY, supervision=SUPERVISION,
                     clock=clock, charge=clock.advance)
        try:
            fab.classify((0, 0, 0, 0, 0))
            path = tmp_path / "state.snap"
            state = fab.stop(drain=True, snapshot_path=path)
            assert state["drained"] is True
            loaded = read_snapshot(path, kind="fabric-state",
                                   cache_version=CACHE_VERSION)
            assert loaded["metrics"]["counters"]["fabric.served"] >= 1
        finally:
            fab.supervisor.stop()


# -- the audit catches wrong answers --------------------------------------------

class TestAuditCatchesWrongAnswers:
    """Every served answer is audited (checked, or counted unauditable
    when its epoch left the history), and a wrong one is counted."""

    @pytest.fixture
    def audited(self, fw_ruleset, tmp_path):
        clock = ManualClock()
        fab = Fabric(list(fw_ruleset), tmp_path / "shards", num_shards=2,
                     policy=POLICY, supervision=SUPERVISION,
                     clock=clock, charge=clock.advance, epoch_history=1)
        yield fab
        fab.supervisor.stop()

    @staticmethod
    def tamper(fabric, monkeypatch, wrong, stamp=None):
        """Corrupt the first ``wrong`` answers of the next shard reply;
        ``stamp`` re-stamps every reply with that applied epoch."""
        real = fabric.supervisor.request
        left = [wrong]

        def request(shard, headers, now=None):
            answers = list(real(shard, headers, now))
            for i in range(min(left[0], len(answers))):
                answers[i] = 0 if answers[i] is None else answers[i] + 1
            left[0] = 0
            if stamp is not None:
                fabric.supervisor.handles[shard].applied_epoch = stamp
            return answers

        monkeypatch.setattr(fabric.supervisor, "request", request)

    @staticmethod
    def assert_all_audited(fabric):
        assert (fabric.counter("oracle.checks")
                + fabric.counter("oracle.unauditable")
                == fabric.counter("served"))

    def test_batch_divergences_counted(self, audited, fw_headers,
                                       monkeypatch):
        headers = fw_headers[:40]
        first = audited.plan.route(headers[0])
        assert sum(audited.plan.route(h) == first for h in headers) >= 3
        self.tamper(audited, monkeypatch, wrong=3)
        outcomes = audited.classify_batch(headers)
        assert all(o["status"] == "served" for o in outcomes)
        assert audited.counter("oracle.divergences") == 3
        assert audited.counter("oracle.checks") == len(headers)
        assert audited.counter("served") == len(headers)
        self.assert_all_audited(audited)

    def test_scalar_divergences_counted(self, audited, fw_headers,
                                        monkeypatch):
        self.tamper(audited, monkeypatch, wrong=1)
        for header in fw_headers[:10]:
            audited.classify(header)
        assert audited.counter("oracle.divergences") == 1
        assert audited.counter("oracle.checks") == 10
        self.assert_all_audited(audited)

    def test_evicted_epoch_unauditable_per_header(self, audited, fw_headers,
                                                  monkeypatch):
        audited.apply_updates([("insert", len(audited.rules), Rule.any())])
        assert 0 not in audited._oracles  # epoch_history=1 evicted it
        self.tamper(audited, monkeypatch, wrong=2, stamp=0)
        headers = fw_headers[:20]
        audited.classify_batch(headers)
        audited.classify(headers[0])
        assert audited.counter("oracle.unauditable") == len(headers) + 1
        assert audited.counter("oracle.checks") == 0
        assert audited.counter("oracle.divergences") == 0
        self.assert_all_audited(audited)


# -- one oracle evaluation per burst and epoch ---------------------------------

class TestBurstAudit:
    """A burst's shard groups share one oracle evaluation per epoch, and
    every answer is still audited at the epoch its worker had applied."""

    @pytest.fixture
    def split(self, fw_ruleset, tmp_path):
        clock = ManualClock()
        fab = Fabric(list(fw_ruleset), tmp_path / "shards", num_shards=2,
                     policy=POLICY, supervision=SUPERVISION, clock=clock,
                     charge=clock.advance, stage_timer=StageTimer(clock))
        fab.manual_clock = clock
        yield fab
        fab.supervisor.stop()

    @pytest.fixture
    def evaluations(self, monkeypatch):
        """Every oracle evaluation, as ``(oracle name, rows)``."""
        from repro.classifiers import LinearSearchClassifier

        seen = []
        real = LinearSearchClassifier.classify_batch

        def classify_batch(self, fields):
            seen.append((self.ruleset.name, len(fields[0])))
            return real(self, fields)

        monkeypatch.setattr(LinearSearchClassifier, "classify_batch",
                            classify_batch)
        return seen

    @staticmethod
    def groups(fabric, headers):
        """The shard of each group, in serving order, and its positions."""
        owners = [fabric.plan.route(h) for h in headers]
        order = list(dict.fromkeys(owners))
        assert len(order) == 2
        return [(fabric.specs[i].name,
                 [p for p, o in enumerate(owners) if o == i]) for i in order]

    def test_one_evaluation_at_one_epoch(self, split, fw_headers,
                                         evaluations):
        headers = fw_headers[:40]
        self.groups(split, headers)
        outcomes = split.classify_batch(headers)
        assert all(o["status"] == "served" for o in outcomes)
        assert evaluations == [("oracle@0", len(headers))]
        assert split.counter("oracle.checks") == len(headers)
        assert split.counter("oracle.divergences") == 0
        assert split.stages.breakdown()["audit"]["calls"] == 2

    def test_groups_at_different_epochs(self, split, fw_ruleset, fw_headers,
                                        evaluations, monkeypatch):
        headers = fw_headers[:40]
        (first, _), (second, lagging) = self.groups(split, headers)
        # The second group's worker never hears of epoch 1, at which a
        # new top rule answers every header with 0.
        split.inject_update_fault(second, "lose_update")
        assert split.apply_updates([("insert", 0, Rule.any())]) == 1
        real = split.supervisor.request

        def request(shard, rows, now=None):
            answers = np.array(real(shard, rows, now))
            if shard == second:
                answers[0] += 1
            return answers

        monkeypatch.setattr(split.supervisor, "request", request)
        outcomes = split.classify_batch(headers)
        assert split.supervisor.handles[first].applied_epoch == 1
        assert split.supervisor.handles[second].applied_epoch == 0
        old = [fw_ruleset.first_match(h) for h in headers]
        want = [old[p] if p in lagging else 0 for p in range(len(headers))]
        got = [o["rule"] for o in outcomes]
        assert got != want and got[lagging[0]] != want[lagging[0]]
        got[lagging[0]] = want[lagging[0]]
        assert got == want
        # Each group is audited at its own worker's epoch: the whole
        # burst at epoch 1 for the first, the lagging rows at epoch 0.
        assert evaluations == [("oracle@1", len(headers)),
                               ("oracle@0", len(lagging))]
        assert split.counter("oracle.divergences") == 1
        assert split.counter("oracle.checks") == len(headers)
        assert split.counter("served") == len(headers)
        assert split.stages.breakdown()["audit"]["calls"] == 2

    def test_only_served_epochs_keep_an_index(self, split, fw_headers):
        headers = fw_headers[:40]
        (_, _), (second, _) = self.groups(split, headers)
        split.inject_update_fault(second, "lose_update")
        split.apply_updates([("insert", 0, Rule.any())])
        split.classify_batch(headers)

        def indexed():
            return {e for e, o in split._oracles.items()
                    if o._index is not None}

        assert indexed() == {0, 1}
        clock = split.manual_clock
        for _ in range(400):
            clock.advance(SUPERVISION.heartbeat_interval_s)
            split.tick(clock.now)
            if split.max_epoch_lag() == 0:
                break
        assert split.max_epoch_lag() == 0
        split.apply_updates([("remove", 0)])
        split.classify_batch(headers)
        # The second group's worker reported epoch 2 only with its answer,
        # so epoch 1 kept its index through that burst.
        assert indexed() == {1, 2}
        assert {h.applied_epoch
                for h in split.supervisor.handles.values()} == {2}
        outcomes = split.classify_batch(headers)
        assert all(o["status"] == "served" for o in outcomes)
        assert indexed() == {2}
        assert split.counter("oracle.divergences") == 0


class TestOracleHistory:
    def test_derived_oracles_equal_fresh_builds(self, tmp_path):
        """Each epoch's oracle is the previous one plus the epoch's
        edits; over 60+ churned epochs on CR01 every retained oracle
        equals a fresh build of its epoch's rules."""
        from repro.classifiers import LinearSearchClassifier
        from repro.harness import get_ruleset
        from repro.rulesets import churn_sequence

        base = get_ruleset("CR01")
        ops = churn_sequence(RuleSet(list(base), name="CR01"), 150, seed=7)
        sizes = [1, 3, 0, 2, 4]
        batches, at = [], 0
        while at < len(ops):
            size = sizes[len(batches) % len(sizes)]
            batches.append(ops[at:at + size])
            at += size
        assert len(batches) >= 60
        clock = ManualClock()
        fab = Fabric(list(base), tmp_path / "shards", num_shards=2,
                     policy=POLICY, supervision=SUPERVISION, clock=clock,
                     charge=clock.advance, epoch_history=len(batches) + 1)
        try:
            rules = list(base)
            expected = {0: list(rules)}
            for batch in batches:
                for op in batch:
                    if op[0] == "insert":
                        rules.insert(op[1], op[2])
                    else:
                        rules.pop(op[1])
                expected[fab.apply_updates(batch)] = list(rules)
            assert sorted(fab._oracles) == sorted(expected)
            for epoch, epoch_rules in expected.items():
                oracle = fab._oracles[epoch]
                fresh = LinearSearchClassifier(RuleSet(list(epoch_rules)))
                assert oracle.ruleset.rules == epoch_rules
                assert oracle.ruleset.name == f"oracle@{epoch}"
                assert np.array_equal(oracle._lo, fresh._lo)
                assert np.array_equal(oracle._span, fresh._span)
                assert oracle._lo.dtype == oracle._span.dtype == np.uint32
        finally:
            fab.supervisor.stop()

    def test_rejected_batch_changes_nothing(self, fw_ruleset, tmp_path):
        clock = ManualClock()
        fab = Fabric(list(fw_ruleset), tmp_path / "shards", num_shards=2,
                     policy=POLICY, supervision=SUPERVISION, clock=clock,
                     charge=clock.advance)
        try:
            maps = {name: list(m) for name, m in fab._shard_map.items()}
            with pytest.raises(UpdateError):
                fab.apply_updates([("insert", 0, Rule.any()),
                                   ("remove", len(fab.rules) + 1)])
            assert fab.rules == list(fw_ruleset)
            assert fab._shard_map == maps and fab.epoch == 0
            fab.apply_updates([("insert", 0, Rule.any())])
            assert fab._oracles[1].ruleset.rules == [Rule.any()] + list(
                fw_ruleset)
        finally:
            fab.supervisor.stop()
