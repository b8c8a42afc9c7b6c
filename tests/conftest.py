"""Shared fixtures and hypothesis strategies for the whole suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.core.fields import FIELD_WIDTHS
from repro.core.interval import Interval, full_interval, prefix_to_interval
from repro.core.rule import Rule, RuleSet
from repro.rulesets import generate
from repro.rulesets.profiles import PROFILES


# -- deterministic sample rule sets ------------------------------------------

@pytest.fixture
def tiny_ruleset() -> RuleSet:
    """Four hand-written rules exercising prefixes, ranges and wildcards."""
    return RuleSet([
        Rule.from_prefixes(sip="10.0.0.0/8", dport=(0, 1023), proto=6),
        Rule.from_prefixes(dip="192.168.1.0/24"),
        Rule.from_ranges(sport=(1024, 65535), proto=17),
        Rule.any(),
    ], name="tiny")


@pytest.fixture(scope="session")
def small_fw_ruleset() -> RuleSet:
    """A 40-rule firewall-profile set (fast to build trees for)."""
    return generate(PROFILES["FW01"], size=40, seed=11).with_default()


@pytest.fixture(scope="session")
def small_cr_ruleset() -> RuleSet:
    """A 60-rule core-router-profile set."""
    return generate(PROFILES["CR01"], size=60, seed=12).with_default()


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(2007)


# -- hypothesis strategies ------------------------------------------------------

def interval_strategy(width: int) -> st.SearchStrategy[Interval]:
    """Arbitrary closed interval within a width-bit domain."""
    hi_max = (1 << width) - 1

    @st.composite
    def build(draw):
        lo = draw(st.integers(0, hi_max))
        hi = draw(st.integers(lo, hi_max))
        return Interval(lo, hi)

    return build()


def prefix_interval_strategy(width: int) -> st.SearchStrategy[Interval]:
    """Aligned power-of-two block (a binary prefix)."""

    @st.composite
    def build(draw):
        plen = draw(st.integers(0, width))
        value = draw(st.integers(0, (1 << width) - 1))
        return prefix_to_interval(value, plen, width)

    return build()


@st.composite
def rule_strategy(draw, prefix_ips: bool = True) -> Rule:
    """A structurally valid random rule.

    ``prefix_ips`` keeps IP constraints prefix-shaped (as every real data
    set does, and as the parser requires); ports stay arbitrary ranges.
    """
    ip_strategy = prefix_interval_strategy(32) if prefix_ips else interval_strategy(32)
    sip = draw(ip_strategy)
    dip = draw(ip_strategy)
    sport = draw(st.one_of(st.just(full_interval(16)), interval_strategy(16)))
    dport = draw(st.one_of(st.just(full_interval(16)), interval_strategy(16)))
    proto = draw(st.one_of(
        st.just(full_interval(8)),
        st.integers(0, 255).map(lambda v: Interval(v, v)),
    ))
    return Rule((sip, dip, sport, dport, proto))


@st.composite
def ruleset_strategy(draw, max_rules: int = 12, prefix_ips: bool = True) -> RuleSet:
    rules = draw(st.lists(rule_strategy(prefix_ips=prefix_ips),
                          min_size=1, max_size=max_rules))
    return RuleSet(rules, name="hypothesis")


def boundary_headers(ruleset: RuleSet) -> list[tuple[int, ...]]:
    """Headers on every rule edge: per rule and field, the field at the
    rule's ``lo``, ``hi``, ``lo-1`` and ``hi+1`` (clipped to the field's
    range) with the other fields at the rule's ``lo``; plus the all-zero
    and all-maximum headers."""
    maxima = [(1 << w) - 1 for w in FIELD_WIDTHS]
    headers = [tuple(maxima), (0,) * len(maxima)]
    for rule in ruleset:
        base = [iv.lo for iv in rule.intervals]
        for f, iv in enumerate(rule.intervals):
            for value in (iv.lo, iv.hi, iv.lo - 1, iv.hi + 1):
                header = list(base)
                header[f] = min(max(value, 0), maxima[f])
                headers.append(tuple(header))
    return headers


@st.composite
def header_strategy(draw) -> tuple[int, int, int, int, int]:
    return tuple(
        draw(st.integers(0, (1 << width) - 1)) for width in FIELD_WIDTHS
    )


@st.composite
def header_near_rules_strategy(draw, ruleset: RuleSet):
    """Headers biased to rule boundaries (where classifiers break)."""
    if not len(ruleset):
        return draw(header_strategy())
    rule = ruleset[draw(st.integers(0, len(ruleset) - 1))]
    header = []
    for fld, iv in enumerate(rule.intervals):
        limit = (1 << FIELD_WIDTHS[fld]) - 1
        choice = draw(st.sampled_from(["lo", "hi", "below", "above", "inside"]))
        if choice == "lo":
            value = iv.lo
        elif choice == "hi":
            value = iv.hi
        elif choice == "below":
            value = max(iv.lo - 1, 0)
        elif choice == "above":
            value = min(iv.hi + 1, limit)
        else:
            value = draw(st.integers(iv.lo, iv.hi))
        header.append(value)
    return tuple(header)
