"""Pinned structure digests for the HiCuts and HyperCuts trees.

Each digest covers everything npsim and the figures read from a built
tree: the layout word count, ``depth()``, the sorted leaf sizes, and
every ``access_trace`` read (region, address, words, compute cycles)
plus its result over a seeded traffic sample.  It also covers the node
count and ``garbage_fraction()`` after every op of a churn stream
replayed through ``UpdatableClassifier(incremental=True)``, so the
copy-on-write insert path is pinned too.  A change to either tree that
moves any of these must be deliberate: update the digest and say why.
"""

import hashlib

import pytest

from repro.classifiers import HiCutsClassifier, HyperCutsClassifier
from repro.classifiers.updates import UpdatableClassifier
from repro.rulesets import churn_sequence, generate
from repro.rulesets.profiles import PROFILES
from repro.traffic import matched_trace

#: Rule-set sizes keep the whole module under a few seconds: HiCuts at
#: ``binth=1`` on FW01 grows by thousands of nodes per extra rule.
SIZES = {"FW01": 16, "CR01": 48}

CASES = {
    ("hicuts-binth1", "FW01"): (HiCutsClassifier, {"binth": 1}),
    ("hicuts-binth1", "CR01"): (HiCutsClassifier, {"binth": 1}),
    ("hicuts-binth8", "FW01"): (HiCutsClassifier, {"binth": 8}),
    ("hicuts-binth8", "CR01"): (HiCutsClassifier, {"binth": 8}),
    ("hypercuts", "FW01"): (HyperCutsClassifier, {}),
    ("hypercuts", "CR01"): (HyperCutsClassifier, {}),
}

DIGESTS = {
    ("hicuts-binth1", "FW01"):
        "686ac5cdd9e1c7ad6373d134cfbab7cb4ce1c90a1fb79465848e728559168d9f",
    ("hicuts-binth1", "CR01"):
        "6fc7921369a7147b469d1e5604c88fe5d931d697da1e802ac1c8617228149612",
    ("hicuts-binth8", "FW01"):
        "c490775bf11846a383ad35181d3b2730a92931aa02f8953acc8e54f64f33d47d",
    ("hicuts-binth8", "CR01"):
        "d63d05c7765e51b6662953d36de6dfb2a20c328f7c2ef73fab74583f0ffb4d84",
    ("hypercuts", "FW01"):
        "193523ea161cc4c8ef694fe971e869ffabe969c32c4764cae3a00d79841f1bff",
    ("hypercuts", "CR01"):
        "e7de2f36b2bf615226b3023791fbd67d7d19af3d6c678a57d7078329999d8ed1",
}


def structure_digest(algo, params, profile: str) -> str:
    ruleset = generate(PROFILES[profile], size=SIZES[profile],
                       seed=5).with_default()
    clf = algo.build(ruleset, **params)
    h = hashlib.sha256()
    h.update(repr((clf.memory_words(), clf.depth(),
                   sorted(clf.leaf_sizes()))).encode())
    trace = matched_trace(ruleset, 200, seed=8)
    for idx in range(len(trace)):
        lookup = clf.access_trace(trace.header(idx))
        h.update(repr([(r.region, r.addr, r.nwords, r.compute_before)
                       for r in lookup.reads]).encode())
        h.update(repr((lookup.compute_after, lookup.result)).encode())
    updatable = UpdatableClassifier(ruleset, algo, rebuild_threshold=16,
                                    incremental=True, edit_budget=256,
                                    compaction_watermark=0.3, **params)
    for op in churn_sequence(ruleset, 40, seed=13, flap_rate=0.3):
        if op[0] == "insert":
            updatable.insert(op[2], op[1])
        else:
            updatable.remove(op[1])
        base = updatable.base
        h.update(repr((len(base.nodes), base.garbage_fraction())).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES), ids="-".join)
def test_structure_digest_pinned(case):
    algo, params = CASES[case]
    assert structure_digest(algo, params, case[1]) == DIGESTS[case]
