"""``classify_many`` answers exactly as the per-header ``classify`` loop.

The shard worker serves each request with one ``classify_many`` call.
Every algorithm must give the per-header answers, freshly built and
behind :class:`UpdatableClassifier` under churn, where the wrapper's
batch path must also leave the same :class:`UpdateStats` (base hits,
overlay hits, slow-path lookups, watchdog fallbacks) as the loop.
"""

from dataclasses import asdict

import pytest

from repro.classifiers import ALGORITHMS, ExpCutsClassifier
from repro.classifiers.updates import UpdatableClassifier
from repro.core.errors import DepthBoundExceededError
from repro.core.rule import RuleSet
from repro.rulesets import churn_sequence, generate
from repro.rulesets.profiles import PROFILES
from repro.traffic import matched_trace

from ..conftest import boundary_headers

#: The counters a lookup moves.
LOOKUP_STATS = ("base_hits", "overlay_hits", "slow_path_lookups",
                "watchdog_fallbacks")


def _trace_headers(ruleset, n, seed):
    return [tuple(int(v) for v in header)
            for header in matched_trace(ruleset, n, seed=seed).headers()]


def _lookup(clf, headers, many):
    """Answers for ``headers`` and the change they made to ``clf.stats``."""
    before = asdict(clf.stats)
    answers = (clf.classify_many(headers) if many
               else [clf.classify(header) for header in headers])
    after = asdict(clf.stats)
    return answers, {name: after[name] - before[name] for name in after}


def _assert_many_equals_loop(clf, headers):
    loop, loop_stats = _lookup(clf, headers, many=False)
    many, many_stats = _lookup(clf, headers, many=True)
    assert many == loop
    assert many_stats == loop_stats
    assert loop == [clf.current_ruleset().first_match(h) for h in headers]
    return loop_stats


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_fresh_build(name, small_fw_ruleset):
    clf = ALGORITHMS[name].build(small_fw_ruleset)
    headers = (boundary_headers(small_fw_ruleset)
               + _trace_headers(small_fw_ruleset, 200, seed=4))
    answers = clf.classify_many(headers)
    assert answers == [clf.classify(h) for h in headers]
    assert answers == [small_fw_ruleset.first_match(h) for h in headers]
    assert clf.classify_many([]) == []


@pytest.fixture(scope="module")
def churn():
    ruleset = generate(PROFILES["FW01"], size=30, seed=21).with_default()
    ops = churn_sequence(ruleset, 60, seed=21, flap_rate=0.35, locality=0.5)
    headers = ([tuple(iv.lo for iv in rule.intervals) for rule in ruleset]
               + _trace_headers(ruleset, 40, seed=8))
    return ruleset, ops, headers


@pytest.mark.parametrize("incremental", [False, True])
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_after_churn(name, incremental, churn):
    """Checked after every op of a 60-op churn stream."""
    ruleset, ops, headers = churn
    clf = UpdatableClassifier(ruleset, ALGORITHMS[name], rebuild_threshold=16,
                              incremental=incremental, edit_budget=256,
                              compaction_watermark=0.3)
    _assert_many_equals_loop(clf, headers)
    for op in ops:
        if op[0] == "insert":
            clf.insert(op[2], op[1])
        else:
            clf.remove(op[1])
        _assert_many_equals_loop(clf, headers)


@pytest.mark.parametrize("incremental", [False, True])
def test_expcuts_churn_meets_every_wrapper_path(incremental, churn):
    """The ExpCuts churn reaches each path of the wrapper's batch lookup:
    the overlay (per-header loop), tombstoned base winners (per-header
    slow path for those headers only) and, when edits are incremental,
    a dirty image (the IR-tree walk)."""
    ruleset, ops, headers = churn
    clf = UpdatableClassifier(ruleset, ExpCutsClassifier, rebuild_threshold=16,
                              incremental=incremental, edit_budget=256,
                              compaction_watermark=0.3)
    seen = {"overlay": 0, "tombstoned_batch": 0, "dirty": 0, "base": 0}
    for op in ops:
        if op[0] == "insert":
            clf.insert(op[2], op[1])
        else:
            clf.remove(op[1])
        stats = _assert_many_equals_loop(clf, headers)
        if clf._overlay:
            seen["overlay"] += 1
        elif stats["slow_path_lookups"]:
            seen["tombstoned_batch"] += 1
        if clf.base._image_dirty:
            seen["dirty"] += 1
        seen["base"] += stats["base_hits"] > 0
    assert seen["tombstoned_batch"] and seen["base"]
    if incremental:
        assert seen["dirty"]
    else:
        assert seen["overlay"] and not seen["dirty"]


def _corrupt_root_tag(clf):
    """Tag the packed root node past every schedule level, as a flipped
    bit in its header word would."""
    engine = clf.base.engine
    engine.image.levels[0][engine.image.root_ptr] |= 0xFF << 24
    engine.image = engine.image  # drop the derived state


def _shrink_schedule(clf):
    engine = clf.base.engine
    engine.schedule = engine.schedule[:1]


@pytest.mark.parametrize("corrupt", [_corrupt_root_tag, _shrink_schedule],
                         ids=["root-tag", "shrunk-schedule"])
def test_corrupted_image_falls_back_to_the_linear_scan(corrupt,
                                                       small_cr_ruleset):
    clf = UpdatableClassifier(small_cr_ruleset, ExpCutsClassifier,
                              rebuild_threshold=100)
    headers = boundary_headers(small_cr_ruleset)[:200]
    corrupt(clf)
    with pytest.raises(DepthBoundExceededError):
        clf.base.engine.classify_many(headers)
    stats = _assert_many_equals_loop(clf, headers)
    assert stats["watchdog_fallbacks"] == stats["slow_path_lookups"] > 0
    if corrupt is _corrupt_root_tag:
        assert stats["watchdog_fallbacks"] == len(headers)


def test_tombstoned_hit_takes_the_slow_path_for_that_header_only():
    ruleset = RuleSet(generate(PROFILES["FW01"], size=20, seed=3).rules)
    clf = UpdatableClassifier(ruleset.with_default(), ExpCutsClassifier,
                              rebuild_threshold=100)
    headers = [tuple(iv.lo for iv in rule.intervals) for rule in ruleset]
    clf.remove(0)
    stats = _assert_many_equals_loop(clf, headers)
    tombstoned = sum(clf.base.classify(h) == 0 for h in headers)
    assert stats["slow_path_lookups"] == tombstoned > 0
    assert stats["base_hits"] == len(headers) - tombstoned
