"""The cost walk and the traced walk of each bespoke structure, pinned.

For ExpCuts (aggregated or not, with or without ``POP_COUNT``), HiCuts,
HyperCuts and linear search, every :class:`LookupTrace` that npsim
lowers (each read's region, address, words and ``compute_before``, plus
``compute_after`` and the result) and every
:meth:`DecisionTrace.to_dict` the tests assert on hash to the digests
below.  The headers are seeded matched traffic plus every corner-case
probe of a CR01 set with its default rule and a FW01 set without one
(so no-match walks are covered too).

The digests were computed by running the commit before each structure's
traced and costed walks were merged into one, so they hold the merged
walk to the records of the two separate walks it replaced.
"""

import hashlib
import json

import pytest

from repro.classifiers import (
    ExpCutsClassifier,
    HiCutsClassifier,
    HyperCutsClassifier,
    LinearSearchClassifier,
)
from repro.obs import DecisionTrace
from repro.rulesets import generate
from repro.rulesets.profiles import PROFILES
from repro.traffic import corner_case_trace, matched_trace

STRUCTURES = {
    "expcuts-aggregated-popcount": (
        ExpCutsClassifier, {"aggregated": True, "use_pop_count": True}),
    "expcuts-aggregated-risc": (
        ExpCutsClassifier, {"aggregated": True, "use_pop_count": False}),
    "expcuts-flat-popcount": (
        ExpCutsClassifier, {"aggregated": False, "use_pop_count": True}),
    "expcuts-flat-risc": (
        ExpCutsClassifier, {"aggregated": False, "use_pop_count": False}),
    "hicuts": (HiCutsClassifier, {}),
    "hypercuts": (HyperCutsClassifier, {}),
    "linear": (LinearSearchClassifier, {}),
}

#: ``(cost digest, decision digest)`` per structure.
PINS = {
    "expcuts-aggregated-popcount": (
        "a3a76f275e7668bd0f5e08210ab7a0debbebf5b41cff196f40d8a0089ac3a586",
        "712d9870be5cbe2799142ce2b24dd575e30fc95416133c794011f185d3a12ce7"),
    "expcuts-aggregated-risc": (
        "9f00b018bf017a9d4fbac10be69c675b45a21585626be63a5ad44392aed8aac1",
        "712d9870be5cbe2799142ce2b24dd575e30fc95416133c794011f185d3a12ce7"),
    "expcuts-flat-popcount": (
        "f65cdf0971eaa72e5933c32de3825e3265410bee0a62a6eb71c4a9016da31aa6",
        "2949c91041d9abfdeb65d6cb931b02a8887920b531b5349aad0f86e33c898572"),
    "expcuts-flat-risc": (
        "f65cdf0971eaa72e5933c32de3825e3265410bee0a62a6eb71c4a9016da31aa6",
        "2949c91041d9abfdeb65d6cb931b02a8887920b531b5349aad0f86e33c898572"),
    "hicuts": (
        "f70302f8ac66dabf4a5bdb710c46ecfb04db34b2fd36d45305b4838295a6006e",
        "d0d9a63caee7d23ea390b432879294361f413f40f027be062742a6e2bc2aed2b"),
    "hypercuts": (
        "d798807a7370a8f9aa6c441d91126160bf91e9252a9af0e579519a94a4e580e2",
        "422e256ef62aefac4ed48de8f8fa1f9c88e278aeb135f1105f4bb25234a2d7ce"),
    "linear": (
        "d817841a15a43f9e9c1c9441ab770862e39876211d420ed8392b53476e120ab3",
        "5624945883856300825aa97551157d3750de6b796ab28541ee78e366f48821e5"),
}


@pytest.fixture(scope="module")
def workloads():
    """``(rule set, headers)`` for the CR01 and FW01 sets."""
    sets = [
        generate(PROFILES["CR01"], size=160, seed=27).with_default(),
        generate(PROFILES["FW01"], size=120, seed=28),
    ]
    out = []
    for seed, ruleset in enumerate(sets, start=41):
        headers = []
        for trace in (matched_trace(ruleset, 200, seed=seed),
                      corner_case_trace(ruleset)):
            headers.extend(trace.header(i) for i in range(len(trace)))
        out.append((ruleset, headers))
    return out


def walk_digests(clf, headers, cost, decision) -> None:
    """Feed every header's access trace and decision trace to the two
    hashes."""
    for header in headers:
        lookup = clf.access_trace(header)
        cost.update(json.dumps([
            [[r.region, r.addr, r.nwords, r.compute_before]
             for r in lookup.reads],
            lookup.compute_after, lookup.result]).encode())
        dtrace = DecisionTrace()
        result = clf.classify(header, trace=dtrace)
        decision.update(json.dumps([result, dtrace.to_dict()],
                                   sort_keys=True).encode())


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_walks_match_their_pins(name, workloads):
    cls, params = STRUCTURES[name]
    cost, decision = hashlib.sha256(), hashlib.sha256()
    for ruleset, headers in workloads:
        walk_digests(cls.build(ruleset, **params), headers, cost, decision)
    assert (cost.hexdigest(), decision.hexdigest()) == PINS[name]
