"""Stateful & adversarial traffic scenarios.

The rest of :mod:`repro.traffic` produces *stateless* header samples —
fine for throughput figures, blind to everything ROADMAP item 5 cares
about: connection structure (what a flow cache and an admission layer
actually see) and traffic that fights back.  This module generates
**connection-oriented** traces where every flow runs a seeded TCP state
machine, composes them into flow mixes (bulk transfers, multimedia/QoS
streams per the TTSS workload taxonomy, interactive sessions), and
overlays adversarial streams:

* **SYN floods** — spoofed-source handshake openers that never complete,
  aimed at whatever tracks half-open connections;
* **cache-busting scans** — an ACK-scan sweep whose every packet is a
  distinct 5-tuple, the pessimal input for the exact-match
  :class:`~repro.npsim.flowcache.FlowCache`;
* **worst-case headers** — mined from :class:`~repro.obs.trace.DecisionTrace`
  output to hit a classifier's maximum tree depth and longest leaf
  scans (an algorithmic-complexity attack).

Every generated flow is a *legal* transition sequence of the state
machine below (property-tested in ``tests/traffic/test_scenarios.py``),
and classification semantics are untouched: a scenario only decides
*which* headers arrive in *what* order with *what* connection metadata —
the verdict for any header still matches the linear oracle.

State machine (packet kinds, client perspective)::

    (start) --SYN--> SYN may repeat (retransmission while unanswered)
    SYN    --SYNACK--> server answers (header reversed)
    SYNACK --ACK-->   handshake complete
    ACK    --DATA/FIN-->  payload, then teardown
    DATA   --DATA/FIN-->
    FIN    --FINACK-->  (header reversed; flow complete)

Flows may legally *abandon* after SYN or SYNACK (mid-handshake
abandonment — exactly what a flood does, and what rare flaky clients do
too); DATA packets may carry an invalid checksum (``checksum_ok=False``)
which a serving front line is expected to shed before classification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ..core.errors import ConfigurationError
from ..core.fields import Header
from ..core.rule import RuleSet
from ..obs.trace import DecisionTrace
from .generator import matched_trace
from .trace import PACKET_BYTES, Trace

# -- the TCP state machine ----------------------------------------------------

#: Packet kinds emitted by the per-flow state machine.
SYN = "SYN"
SYNACK = "SYNACK"
ACK = "ACK"
DATA = "DATA"
FIN = "FIN"
FINACK = "FINACK"

#: Legal successor kinds for every kind (``None`` = flow start).  This
#: table *is* the state machine: the generator only ever emits sequences
#: whose consecutive pairs appear here, and the property tests replay
#: every generated flow against it.
LEGAL_NEXT: dict[str | None, tuple[str, ...]] = {
    None: (SYN,),
    SYN: (SYN, SYNACK),          # retransmit while unanswered, or answer
    SYNACK: (ACK,),
    ACK: (DATA, FIN),
    DATA: (DATA, FIN),
    FIN: (FINACK,),
    FINACK: (),                  # terminal
}

#: Kinds a flow may legally end on *without* completing: mid-handshake
#: abandonment (client gave up, or a flood source that never intended to
#: answer).  Everything else must run to ``FINACK``.
ABANDON_KINDS = frozenset({SYN, SYNACK})

#: Kinds whose header travels server->client (5-tuple reversed).
REVERSED_KINDS = frozenset({SYNACK, FINACK})

#: Traffic classes that are adversarial (vs the legitimate mix).
ATTACK_CLASSES = frozenset({"syn_flood", "scan", "worst_case"})


class ScenarioPacket(NamedTuple):
    """One packet of a scenario trace, with connection metadata."""

    header: Header
    kind: str
    klass: str
    flow_id: int
    checksum_ok: bool


def reverse_header(header: Sequence[int]) -> Header:
    """The reply direction of a 5-tuple (swap src/dst address and port)."""
    return Header(int(header[1]), int(header[0]),
                  int(header[3]), int(header[2]), int(header[4]))


def is_legal_sequence(kinds: Sequence[str]) -> bool:
    """True iff every consecutive transition in ``kinds`` is legal.

    This is *prefix* legality — what a finite capture window can
    witness: a trace ending mid-run legally cuts flows wherever the
    window closes.  Whole generated flows satisfy the stronger
    :func:`is_complete_sequence`.
    """
    prev: str | None = None
    for kind in kinds:
        if kind not in LEGAL_NEXT.get(prev, ()):
            return False
        prev = kind
    return prev is not None


def is_complete_sequence(kinds: Sequence[str]) -> bool:
    """Prefix-legal *and* properly terminated: the flow either tore
    down (``FINACK``) or legally abandoned mid-handshake."""
    return (is_legal_sequence(kinds)
            and (kinds[-1] == FINACK or kinds[-1] in ABANDON_KINDS))


def flow_packets(header: Sequence[int], data_packets: int, *,
                 flow_id: int, klass: str, rng: np.random.Generator,
                 abandon_after: str | None = None,
                 syn_retransmits: int = 0,
                 corrupt_rate: float = 0.0) -> list[ScenarioPacket]:
    """The full packet sequence of one seeded TCP flow.

    ``abandon_after`` (``"SYN"`` or ``"SYNACK"``) truncates the flow
    mid-handshake; ``syn_retransmits`` duplicates the opening SYN (what
    a real client does when the first SYN is lost or policed away);
    ``corrupt_rate`` flags that fraction of DATA packets
    ``checksum_ok=False``.
    """
    if abandon_after is not None and abandon_after not in ABANDON_KINDS:
        raise ConfigurationError(
            f"flows may only abandon after {sorted(ABANDON_KINDS)}, "
            f"not {abandon_after!r}")
    fwd = Header(*(int(v) for v in header))
    rev = reverse_header(fwd)

    def pkt(kind: str, ok: bool = True) -> ScenarioPacket:
        h = rev if kind in REVERSED_KINDS else fwd
        return ScenarioPacket(h, kind, klass, flow_id, ok)

    out = [pkt(SYN)]
    for _ in range(syn_retransmits):
        out.append(pkt(SYN))
    if abandon_after == SYN:
        return out
    out.append(pkt(SYNACK))
    if abandon_after == SYNACK:
        return out
    out.append(pkt(ACK))
    for _ in range(max(0, int(data_packets))):
        ok = not (corrupt_rate > 0.0 and rng.random() < corrupt_rate)
        out.append(pkt(DATA, ok))
    out.append(pkt(FIN))
    out.append(pkt(FINACK))
    return out


# -- flow mixes ---------------------------------------------------------------

@dataclass(frozen=True)
class MixComponent:
    """One legitimate traffic class of a flow mix.

    ``weight`` is the relative share of *flows* (not packets) the class
    contributes; ``data_packets`` bounds the per-flow payload length
    (inclusive).  The defaults below follow the TTSS workload split:
    a few long bulk transfers, steady medium-length multimedia/QoS
    streams, and many short interactive exchanges.
    """

    name: str
    weight: float
    data_packets: tuple[int, int]


#: The default legitimate mix (TTSS-style bulk / multimedia / interactive).
DEFAULT_MIX: tuple[MixComponent, ...] = (
    MixComponent("bulk", 1.0, (24, 48)),
    MixComponent("multimedia", 3.0, (16, 32)),
    MixComponent("interactive", 6.0, (1, 4)),
)


# -- scenario definitions -----------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """A named, composable traffic scenario.

    ``attack`` selects the adversarial overlay (``None`` for a purely
    legitimate mix); ``attack_ratio`` is attack packets per legitimate
    packet; ``syn_retransmits`` makes legitimate flows duplicate their
    opening SYN, modelling real clients retransmitting through a
    SYN-authentication front line (spoofed flood sources never do).
    """

    name: str
    description: str
    attack: str | None = None
    attack_ratio: float = 0.0
    syn_retransmits: int = 0
    abandon_rate: float = 0.02
    corrupt_rate: float = 0.01
    mix: tuple[MixComponent, ...] = DEFAULT_MIX


#: The scenario catalog (see docs/robustness.md for the prose version).
SCENARIOS: dict[str, Scenario] = {
    "mixed": Scenario(
        "mixed",
        "bulk + multimedia (QoS) + interactive connection mix, no adversary"),
    "syn-flood": Scenario(
        "syn-flood",
        "mixed legit flows + spoofed-source SYN flood that never completes "
        "a handshake (legit flows retransmit their SYN once)",
        attack="syn_flood", attack_ratio=1.5, syn_retransmits=1),
    "cache-bust": Scenario(
        "cache-bust",
        "mixed legit flows + ACK-scan sweep of all-distinct 5-tuples "
        "(maximizes flow-cache misses and evictions)",
        attack="scan", attack_ratio=1.0),
    "worst-case": Scenario(
        "worst-case",
        "mixed legit flows + replay of headers mined from DecisionTrace "
        "output to hit maximum tree depth / longest leaf scans",
        attack="worst_case", attack_ratio=0.5),
}


def get_scenario(name: str | Scenario) -> Scenario:
    """Resolve a scenario by name (raises typed on unknown names)."""
    if isinstance(name, Scenario):
        return name
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; choose from "
            f"{', '.join(sorted(SCENARIOS))}") from None


# -- the composed trace -------------------------------------------------------

@dataclass
class ScenarioTrace:
    """A scenario's packet stream: a :class:`Trace` plus per-packet
    connection metadata (kind, traffic class, flow id, checksum flag)."""

    scenario: str
    trace: Trace
    kinds: tuple[str, ...]
    classes: tuple[str, ...]
    flow_ids: np.ndarray
    checksum_ok: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.trace)
        if not (len(self.kinds) == len(self.classes) == len(self.flow_ids)
                == len(self.checksum_ok) == n):
            raise ConfigurationError(
                "scenario metadata arrays must match the trace length")

    def __len__(self) -> int:
        return len(self.trace)

    def packet(self, index: int) -> ScenarioPacket:
        return ScenarioPacket(
            self.trace.header(index), self.kinds[index], self.classes[index],
            int(self.flow_ids[index]), bool(self.checksum_ok[index]),
        )

    def packets(self):
        for i in range(len(self)):
            yield self.packet(i)

    def attack_mask(self) -> np.ndarray:
        """Boolean mask of adversarial packets."""
        return np.array([c in ATTACK_CLASSES for c in self.classes])

    @property
    def attack_count(self) -> int:
        return int(self.attack_mask().sum())

    def class_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for klass in self.classes:
            counts[klass] = counts.get(klass, 0) + 1
        return counts

    def flow_kind_sequences(self) -> dict[int, list[str]]:
        """Per-flow kind sequences in arrival order (for the legality
        property tests)."""
        flows: dict[int, list[str]] = {}
        for i in range(len(self)):
            flows.setdefault(int(self.flow_ids[i]), []).append(self.kinds[i])
        return flows


# -- adversarial streams ------------------------------------------------------

def syn_flood_packets(ruleset: RuleSet, count: int, *, seed: int,
                      flow_id_base: int) -> list[ScenarioPacket]:
    """``count`` spoofed-source SYNs aimed at one popular service.

    Sources are uniform random over the full 32-bit space (spoofed, so
    per-source accounting is useless — the point of the attack); the
    destination side is sampled inside one rule's region so the flood
    lands on a real service, like an actual flood would.
    """
    rng = np.random.default_rng(seed)
    target = ruleset[int(rng.integers(0, max(1, len(ruleset) - 1)))] \
        if len(ruleset) else None
    out: list[ScenarioPacket] = []
    for i in range(count):
        if target is not None:
            dip = int(rng.integers(target.intervals[1].lo,
                                   target.intervals[1].hi + 1))
            dport = int(rng.integers(target.intervals[3].lo,
                                     target.intervals[3].hi + 1))
            proto = int(rng.integers(target.intervals[4].lo,
                                     target.intervals[4].hi + 1))
        else:
            dip, dport, proto = 0, 80, 6
        header = Header(int(rng.integers(0, 1 << 32)), dip,
                        int(rng.integers(1024, 1 << 16)), dport, proto)
        out.append(ScenarioPacket(header, SYN, "syn_flood",
                                  flow_id_base + i, True))
    return out


def scan_packets(ruleset: RuleSet, count: int, *, seed: int,
                 flow_id_base: int) -> list[ScenarioPacket]:
    """An ACK-scan sweep: ``count`` packets, every 5-tuple distinct.

    One scanner source walks destination addresses and ports in a
    stride pattern that never repeats a (dip, dport) pair — the exact
    adversary of an exact-match flow cache (0% hit rate by
    construction, evictions all the way).  ACK/data probes rather than
    SYNs: real scanners use them precisely because they slip past
    SYN-focused defenses, so the cache sees every packet.
    """
    rng = np.random.default_rng(seed)
    sip = int(rng.integers(0, 1 << 32))
    sport = int(rng.integers(1024, 1 << 16))
    dip_base = int(rng.integers(0, 1 << 31))
    out: list[ScenarioPacket] = []
    for i in range(count):
        header = Header(sip, (dip_base + (i // 1024)) & 0xFFFFFFFF,
                        sport, i % 1024, 6)
        out.append(ScenarioPacket(header, DATA, "scan",
                                  flow_id_base + i, True))
    return out


def mine_worst_case(classifier, candidates: Trace,
                    top: int = 16) -> list[Header]:
    """Headers whose decision path is deepest/most expensive.

    Classifies every candidate with a :class:`DecisionTrace` and ranks
    by (depth, leaf-scan length, accesses, words) — the costliest
    lookups the candidate pool can produce.  An adversary with the rule
    set (or probing latency) finds these too; replaying them is the
    algorithmic-complexity attack scenario.
    """
    scored: list[tuple[tuple[int, int, int, int], int]] = []
    for idx in range(len(candidates)):
        trace = DecisionTrace()
        classifier.classify(candidates.header(idx), trace=trace)
        scored.append(((trace.depth, trace.linear_search_length,
                        trace.total_accesses, trace.total_words), idx))
    scored.sort(key=lambda s: (s[0], -s[1]), reverse=True)
    return [candidates.header(idx) for _, idx in scored[:max(1, top)]]


def worst_case_packets(ruleset: RuleSet, count: int, *, seed: int,
                       flow_id_base: int, classifier=None,
                       pool: int = 512, top: int = 16) -> list[ScenarioPacket]:
    """``count`` packets replaying mined maximum-cost headers.

    With no ``classifier`` given, an ExpCuts tree is built on the rule
    set (the paper's algorithm — the one whose depth bound the mined
    headers saturate).
    """
    if classifier is None:
        from ..classifiers import ALGORITHMS  # lazy: avoid import cycles

        classifier = ALGORITHMS["expcuts"].build(ruleset)
    candidates = matched_trace(ruleset, pool, seed=seed,
                               matched_fraction=0.8)
    worst = mine_worst_case(classifier, candidates, top=top)
    rng = np.random.default_rng(seed + 0xBAD)
    out: list[ScenarioPacket] = []
    for i in range(count):
        header = worst[int(rng.integers(0, len(worst)))]
        out.append(ScenarioPacket(header, DATA, "worst_case",
                                  flow_id_base + i, True))
    return out


# -- composition --------------------------------------------------------------

def _legit_packets(ruleset: RuleSet, target: int, *, seed: int,
                   scenario: Scenario) -> list[list[ScenarioPacket]]:
    """Per-flow packet sequences totalling at least ``target`` packets."""
    rng = np.random.default_rng(seed)
    weights = np.array([c.weight for c in scenario.mix], dtype=float)
    weights /= weights.sum()
    mean_pkts = sum(w * (4 + (c.data_packets[0] + c.data_packets[1]) / 2)
                    for w, c in zip(weights, scenario.mix))
    n_flows = max(4, int(target / mean_pkts * 1.5) + 4)
    flow_headers = matched_trace(ruleset, n_flows, seed=seed,
                                 matched_fraction=0.9)
    flows: list[list[ScenarioPacket]] = []
    total = 0
    for fid in range(n_flows):
        if total >= target:
            break
        comp = scenario.mix[int(rng.choice(len(scenario.mix), p=weights))]
        abandon = None
        if rng.random() < scenario.abandon_rate:
            abandon = SYN if rng.random() < 0.5 else SYNACK
        pkts = flow_packets(
            flow_headers.header(fid),
            int(rng.integers(comp.data_packets[0], comp.data_packets[1] + 1)),
            flow_id=fid, klass=comp.name, rng=rng,
            abandon_after=abandon,
            syn_retransmits=scenario.syn_retransmits,
            corrupt_rate=scenario.corrupt_rate,
        )
        flows.append(pkts)
        total += len(pkts)
    return flows


def _interleave(flows: list[list[ScenarioPacket]],
                overlays: list[tuple[list[ScenarioPacket], float, float]],
                rng: np.random.Generator) -> list[ScenarioPacket]:
    """Merge flows and attack overlays into one arrival order.

    Every packet gets a position key in [0, 1); per-stream keys are
    sorted so intra-flow order (the state machine's legality) is
    preserved, then one global sort interleaves the streams.  Overlay
    streams draw their keys from a sub-window ``[lo, hi)`` so an attack
    occupies a contiguous phase of the timeline rather than diluting
    uniformly — before/during/after behaviour stays visible.
    """
    keyed: list[tuple[float, int, ScenarioPacket]] = []
    serial = 0
    for pkts in flows:
        keys = np.sort(rng.random(len(pkts)))
        for key, pkt in zip(keys, pkts):
            keyed.append((float(key), serial, pkt))
            serial += 1
    for pkts, lo, hi in overlays:
        keys = np.sort(lo + rng.random(len(pkts)) * (hi - lo))
        for key, pkt in zip(keys, pkts):
            keyed.append((float(key), serial, pkt))
            serial += 1
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [pkt for _, _, pkt in keyed]


#: The window of the run an attack overlay occupies (fraction of the
#: packet-position timeline).
ATTACK_WINDOW = (0.25, 0.80)


def build_scenario(name: str | Scenario, ruleset: RuleSet, count: int,
                   seed: int = 1, classifier=None,
                   packet_bytes: int = PACKET_BYTES) -> ScenarioTrace:
    """Compose a full scenario trace of ``count`` packets.

    ``classifier`` is only consulted by the ``worst-case`` scenario (to
    mine maximum-depth headers); pass the classifier actually under
    test, or leave ``None`` to mine against a fresh ExpCuts build.
    """
    if count < 8:
        raise ConfigurationError("scenario traces need at least 8 packets")
    scenario = get_scenario(name)
    n_attack = int(count * scenario.attack_ratio / (1 + scenario.attack_ratio))
    n_legit = count - n_attack
    flows = _legit_packets(ruleset, n_legit, seed=seed, scenario=scenario)
    flow_id_base = len(flows) + 1_000_000  # attack ids never collide
    overlays: list[tuple[list[ScenarioPacket], float, float]] = []
    if scenario.attack == "syn_flood":
        overlays.append((syn_flood_packets(
            ruleset, n_attack, seed=seed + 1, flow_id_base=flow_id_base),
            *ATTACK_WINDOW))
    elif scenario.attack == "scan":
        overlays.append((scan_packets(
            ruleset, n_attack, seed=seed + 1, flow_id_base=flow_id_base),
            *ATTACK_WINDOW))
    elif scenario.attack == "worst_case":
        overlays.append((worst_case_packets(
            ruleset, n_attack, seed=seed + 1, flow_id_base=flow_id_base,
            classifier=classifier), *ATTACK_WINDOW))
    elif scenario.attack is not None:
        raise ConfigurationError(
            f"scenario {scenario.name!r} names unknown attack "
            f"{scenario.attack!r}")

    rng = np.random.default_rng(seed + 0x5CE)
    merged = _interleave(flows, overlays, rng)[:count]
    trace = Trace.from_headers([p.header for p in merged],
                               packet_bytes=packet_bytes)
    return ScenarioTrace(
        scenario=scenario.name,
        trace=trace,
        kinds=tuple(p.kind for p in merged),
        classes=tuple(p.klass for p in merged),
        flow_ids=np.array([p.flow_id for p in merged], dtype=np.int64),
        checksum_ok=np.array([p.checksum_ok for p in merged], dtype=bool),
    )


def scenario_arrivals(strace: ScenarioTrace, base_rate_per_s: float,
                      attack_factor: float = 8.0,
                      seed: int = 1) -> np.ndarray:
    """Seeded Poisson arrival times for a scenario trace.

    Legitimate packets arrive at ``base_rate_per_s``; adversarial
    packets arrive ``attack_factor`` times faster (a flood adds load, it
    does not slow the victims' own sending).  Combined with the
    contiguous attack window from :func:`build_scenario`, the aggregate
    rate genuinely spikes for the duration of the attack.
    """
    if base_rate_per_s <= 0:
        raise ConfigurationError("base rate must be positive")
    if attack_factor < 1.0:
        raise ConfigurationError("attack_factor must be >= 1.0")
    rng = np.random.default_rng(seed)
    attack = strace.attack_mask()
    times = np.empty(len(strace), dtype=float)
    t = 0.0
    for idx in range(len(strace)):
        rate = base_rate_per_s * (attack_factor if attack[idx] else 1.0)
        t += rng.exponential(1.0 / rate)
        times[idx] = t
    return times
