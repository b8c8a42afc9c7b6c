"""ExpCuts (Explicit Cuttings) decision-tree construction — §4.2 of the paper.

ExpCuts departs from HiCuts in two ways that buy an *explicit* worst-case
search time:

* **Fixed stride.**  Every internal node cuts the current search space into
  ``2**w`` equal sub-spaces, consuming the concatenated 104-bit header in a
  fixed field order.  Tree depth is therefore exactly bounded by
  ``ceil(104 / w)`` (13 levels for ``w = 8``) — no data-dependent depth.
* **No leaf linear search.**  Cutting continues until the highest-priority
  rule intersecting a sub-space *covers* it entirely (equivalent to
  ``binth = 1``), so a leaf stores a single rule id and classification
  never scans rule lists.

Both choices would explode memory with naive ``2**w``-entry pointer arrays;
the HABS + CPA aggregation of :mod:`repro.core.habs` recovers it (Figure 6
measures the effect).

Soundness of node sharing
-------------------------
Child nodes are hash-consed on ``(level, projected-rule list)`` where each
rule is clipped to the child box and translated to the box origin.
Because every cut below a node depends only on not-yet-consumed header
bits — i.e. only on box-relative coordinates — equal projections provably
induce equal subtrees, so sharing cannot change classification results.
(Sharing on rule-id sets alone, a tempting shortcut, is *unsound* for
ranges that cover siblings partially; ``tests/core/test_expcuts.py``
contains the counterexample.)

Builder performance
-------------------
Two properties keep construction polynomial in practice (profiled per the
optimisation-workflow guide; the naive per-child partition was ~50×
slower):

* **Run-based partition.**  On the cut field, each rule occupies a
  contiguous span of children and is clipped only at its two boundary
  children, so children between consecutive span endpoints have
  *identical* projections.  The builder enumerates those uniform runs
  (≤ ``4·N + 1``, capped at ``2**w``) and builds one child per run.
* **Interned projections.**  A projected rule is a flat 11-int tuple
  ``(rule_id, lo0, hi0, …, lo4, hi4)``, interned once per build to a
  small int id.  A child's rule list is a tuple of ids, so a memo probe
  hashes ints, not rule tuples.  Each id's span on a level's cut (its
  first and last child and the ids of its at most three distinct child
  projections) is computed once, and a node appends each rule to just
  the runs its span touches.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Sequence

from .budget import BudgetMeter
from .errors import IncrementalUpdateError
from .fields import CutStep, FIELD_WIDTHS, NUM_FIELDS, cut_schedule
from .habs import HabsArray, compress
from .rule import RuleSet

#: Builder-level reference encoding: non-negative = internal node id,
#: negative = leaf.  ``REF_NO_MATCH`` is the empty leaf; other leaves
#: encode ``-(rule_id + 2)``.
REF_NO_MATCH = -1

#: A flat projected rule: (rule_id, lo0, hi0, lo1, hi1, ..., lo4, hi4).
FlatRule = tuple[int, ...]


def leaf_ref(rule_id: int) -> int:
    """Encode a matched-rule leaf reference."""
    return -(rule_id + 2)


def ref_rule_id(ref: int) -> int | None:
    """Decode a leaf reference; ``None`` for the no-match leaf."""
    if ref >= 0:
        raise ValueError("not a leaf reference")
    if ref == REF_NO_MATCH:
        return None
    return -ref - 2


def flat_projection(ruleset: RuleSet) -> tuple[FlatRule, ...]:
    """Root projections of all rules as flat tuples."""
    flat = []
    for rule_id, rule in enumerate(ruleset.rules):
        row: list[int] = [rule_id]
        for iv in rule.intervals:
            row.append(iv.lo)
            row.append(iv.hi)
        flat.append(tuple(row))
    return tuple(flat)


@dataclass(frozen=True)
class InternalNode:
    """One internal tree node: its level and its compressed child refs."""

    level: int
    children: HabsArray

    @property
    def words(self) -> int:
        """Figure-4 layout words: one header word plus the CPA."""
        return 1 + self.children.compressed_slots


@dataclass
class ExpCutsTree:
    """A built ExpCuts decision tree (pre-layout intermediate form)."""

    stride: int
    habs_bits_log2: int
    schedule: list[CutStep]
    nodes: list[InternalNode]
    root_ref: int
    num_rules: int
    #: Build-time statistics (nodes visited, memo hits, ...).
    build_stats: dict = dc_field(default_factory=dict)

    def layout_words(self) -> int:
        """Figure-4 words of every node in ``nodes``, garbage included.

        A running total kept in ``build_stats``: set by the build,
        advanced by each swapped-in edit, and computed once for a tree
        unpickled without it.
        """
        words = self.build_stats.get("layout_words")
        if words is None:
            words = sum(node.words for node in self.nodes)
            self.build_stats["layout_words"] = words
        return words

    @property
    def depth_bound(self) -> int:
        """The explicit worst-case number of levels, ``len(schedule)``."""
        return len(self.schedule)

    def classify(self, header: Sequence[int]) -> int | None:
        """Reference (IR-level) lookup; returns a rule id or ``None``.

        The production path is :class:`repro.core.engine.ExpCutsEngine`
        over the packed word image — this walk exists so the tree can be
        validated independently of the layout.
        """
        ref = self.root_ref
        while ref >= 0:
            node = self.nodes[ref]
            step = self.schedule[node.level]
            key = (header[step.field] >> step.shift) & ((1 << step.width) - 1)
            ref = node.children.lookup(key)
        return ref_rule_id(ref)

    def node_count(self) -> int:
        return len(self.nodes)

    def level_histogram(self) -> dict[int, int]:
        """Number of internal nodes per level."""
        hist: dict[int, int] = {}
        for node in self.nodes:
            hist[node.level] = hist.get(node.level, 0) + 1
        return hist

    def max_depth(self) -> int:
        """Deepest level that actually holds a node, plus one."""
        if not self.nodes:
            return 0
        return max(node.level for node in self.nodes) + 1


@dataclass
class ExpCutsConfig:
    """Build parameters.

    ``stride``
        Bits consumed per level (the paper's ``w``; default 8 → 13 levels).
    ``habs_bits_log2``
        The paper's ``v``: the HABS has ``2**v`` bits (default 4 → the
        16-bit HABS that fits one word beside the cut info, Figure 4).
        For levels narrower than ``v`` bits the effective ``v`` shrinks to
        the level width.
    ``max_nodes``
        Safety valve against pathological rule sets.
    """

    stride: int = 8
    habs_bits_log2: int = 4
    max_nodes: int = 4_000_000


def _remaining_widths(schedule: Sequence[CutStep]) -> list[tuple[int, ...]]:
    """Per level, the remaining (not yet consumed) bit width of each field
    *before* that level's cut, in node-normalised coordinates."""
    widths = list(FIELD_WIDTHS)
    out: list[tuple[int, ...]] = []
    for step in schedule:
        out.append(tuple(widths))
        widths[step.field] -= step.width
    out.append(tuple(widths))  # after the last level: all zeros
    return out


class _Builder:
    """Recursive hash-consing builder (one instance per build call).

    Every distinct projected rule is interned to a small int id
    (``interned[id]`` is the :data:`FlatRule`, ``intern_ids`` the
    inverse), so a child's rule list is a tuple of ids and its memo key
    is ``(level, ids)``.  Interning is a bijection on projections, so
    two keys are equal exactly when the projected rule lists are: the
    node set is the one projection keys give.  Ids mean nothing outside
    the builder that issued them.
    """

    def __init__(self, config: ExpCutsConfig,
                 meter: BudgetMeter | None = None) -> None:
        self.config = config
        self.meter = meter
        self.schedule = cut_schedule(config.stride)
        self.widths = _remaining_widths(self.schedule)
        # Per level, per field: the "full range" (lo, hi) pair used by the
        # cover tests, precomputed once.
        self.full_hi = [
            tuple((1 << w) - 1 for w in widths) for widths in self.widths
        ]
        self.nodes: list[InternalNode] = []
        self.memo: dict[tuple[int, tuple[int, ...]], int] = {}
        self.memo_hits = 0
        self.child_evals = 0
        self.interned: list[FlatRule] = []
        self.intern_ids: dict[FlatRule, int] = {}
        # Per level: id -> its span record on that level's cut (_span).
        self.spans: list[dict[int, tuple]] = [{} for _ in self.schedule]

    def full_cover(self, rule: FlatRule, level: int) -> bool:
        full = self.full_hi[level]
        for fld in range(NUM_FIELDS):
            if rule[1 + 2 * fld] != 0 or rule[2 + 2 * fld] != full[fld]:
                return False
        return True

    def intern(self, rule: FlatRule) -> int:
        rid = self.intern_ids.get(rule)
        if rid is None:
            rid = self.intern_ids[rule] = len(self.interned)
            self.interned.append(rule)
        return rid

    def build(self, level: int, rules: Sequence[FlatRule]) -> int:
        """The ref of the subtree for ``rules`` (priority order) at
        ``level``: a leaf, or a node built or found in the memo."""
        if not rules:
            return REF_NO_MATCH
        if self.full_cover(rules[0], level):
            # The highest-priority rule intersecting this box covers it:
            # every point here matches it first.  This is the paper's
            # "sub-space full-covered by a certain set of rules" leaf.
            return leaf_ref(rules[0][0])
        if level == len(self.schedule):
            # All 104 bits consumed: the box is a single header point, so
            # intersecting == matching and the first rule wins.
            return leaf_ref(rules[0][0])
        key = (level, tuple(map(self.intern, rules)))
        cached = self.memo.get(key)
        if cached is not None:
            self.memo_hits += 1
            return cached
        return self._node(key)

    def _span(self, level: int, rid: int) -> tuple:
        """Rule ``rid`` on ``level``'s cut: ``(k_lo, k_hi, lo_id, lo_full,
        mid_id, mid_full, hi_id, hi_full, edges)``.

        ``k_lo..k_hi`` are the children the rule intersects.  ``lo_id``
        is its projection into child ``k_lo``, ``mid_id`` into every
        child strictly between and ``hi_id`` into child ``k_hi`` (a
        one-child span has only ``lo_id``).  Each ``*_full`` says
        whether that projection covers its whole child box.  ``edges``
        are the run boundaries the span adds to a node's partition.
        """
        rule = self.interned[rid]
        fld = self.schedule[level].field
        pos = 1 + 2 * fld
        shift = self.widths[level + 1][fld]  # child-local bits on the cut
        child_full = (1 << shift) - 1
        full_next = self.full_hi[level + 1]
        others_full = all(
            rule[1 + 2 * other] == 0
            and rule[2 + 2 * other] == full_next[other]
            for other in range(NUM_FIELDS) if other != fld)
        head, tail = rule[:pos], rule[pos + 2:]
        lo, hi = rule[pos], rule[pos + 1]
        k_lo, k_hi = lo >> shift, hi >> shift
        # Box-relative clips: the span's first child keeps the rule's low
        # offset, its last child the high one, every child between is
        # cut whole.
        clip_lo = lo & child_full
        clip_hi = hi & child_full if k_lo == k_hi else child_full
        lo_id = self.intern(head + (clip_lo, clip_hi) + tail)
        lo_full = others_full and clip_lo == 0 and clip_hi == child_full
        mid_id = hi_id = -1
        mid_full = hi_full = False
        if k_hi - k_lo > 1:
            mid_id = self.intern(head + (0, child_full) + tail)
            mid_full = others_full
        if k_hi > k_lo:
            clip_hi = hi & child_full
            hi_id = self.intern(head + (0, clip_hi) + tail)
            hi_full = others_full and clip_hi == child_full
        return (k_lo, k_hi, lo_id, lo_full, mid_id, mid_full, hi_id, hi_full,
                (k_lo, k_lo + 1, k_hi, k_hi + 1))

    def _node(self, key: tuple[int, tuple[int, ...]]) -> int:
        """Build the node for memo ``key`` (a miss) and record it."""
        level, ids = key
        step = self.schedule[level]
        nchildren = 1 << step.width
        spans = self.spans[level]
        records = []
        crit = {0, nchildren}
        for rid in ids:
            rec = spans.get(rid)
            if rec is None:
                rec = spans[rid] = self._span(level, rid)
            records.append(rec)
            crit.update(rec[8])

        # Children between consecutive critical indices have identical
        # projections (see module docstring): one child per run.  Each
        # span is appended to just the runs it touches, in priority
        # order; a run closes at its first full cover, below which
        # lower-priority rules are dead.
        starts = sorted(crit)  # ends with the nchildren sentinel
        nruns = len(starts) - 1
        run_of = {start: r for r, start in enumerate(starts)}
        runs: list[list[int]] = [[] for _ in range(nruns)]
        closed = [False] * nruns
        open_runs = nruns
        for k_lo, k_hi, lo_id, lo_full, mid_id, mid_full, hi_id, hi_full, _ \
                in records:
            r_lo = run_of[k_lo]
            if not closed[r_lo]:
                runs[r_lo].append(lo_id)
                if lo_full:
                    closed[r_lo] = True
                    open_runs -= 1
            if k_hi != k_lo:
                r_hi = run_of[k_hi]
                if mid_full:
                    for r in range(r_lo + 1, r_hi):
                        if not closed[r]:
                            runs[r].append(mid_id)
                            closed[r] = True
                            open_runs -= 1
                else:
                    for r in range(r_lo + 1, r_hi):
                        if not closed[r]:
                            runs[r].append(mid_id)
                if not closed[r_hi]:
                    runs[r_hi].append(hi_id)
                    if hi_full:
                        closed[r_hi] = True
                        open_runs -= 1
            if not open_runs:
                break

        # The children, in run order, with build()'s checks: a run closed
        # by its first rule is that rule's full-cover leaf.
        child_level = level + 1
        last_level = child_level == len(self.schedule)
        memo = self.memo
        refs: list[int] = []
        for r, run in enumerate(runs):
            if not run:
                ref = REF_NO_MATCH
            elif last_level or (closed[r] and len(run) == 1):
                ref = leaf_ref(self.interned[run[0]][0])
            else:
                child_key = (child_level, tuple(run))
                ref = memo.get(child_key)
                if ref is None:
                    ref = self._node(child_key)
                else:
                    self.memo_hits += 1
            refs += [ref] * (starts[r + 1] - starts[r])
        self.child_evals += nruns

        v = min(self.config.habs_bits_log2, step.width)
        node_id = len(self.nodes)
        if node_id >= self.config.max_nodes:
            raise MemoryError(
                f"ExpCuts build exceeded max_nodes={self.config.max_nodes}"
            )
        children = compress(refs, v)
        if self.meter is not None:
            # Figure 4 word cost of this node in the aggregated image:
            # one header word plus the compressed pointer array.
            self.meter.add_node(1 + children.compressed_slots)
        self.nodes.append(InternalNode(level, children))
        memo[key] = node_id
        return node_id


def insert_into_tree(tree: ExpCutsTree, rule_flat: FlatRule, precedes, *,
                     edit_budget: int = 4096,
                     max_nodes: int = 4_000_000) -> int:
    """Incrementally insert one rule into a built tree (copy-on-write).

    ``rule_flat`` is the rule's root projection ``(rule_id, lo0, hi0,
    ...)``; ``precedes(existing_id)`` says whether the new rule outranks
    an existing one (priority in an ExpCuts tree lives only in which
    rule a leaf references).  Paths intersecting the rule's box are
    copied; a leaf whose covering rule the new rule outranks is replaced
    by a locally rebuilt subtree (the regular builder over the two
    rules).  Because every cut below a node depends only on box-relative
    coordinates, the edit memoises on ``(old ref, projected rule)`` —
    the same soundness argument as build-time node sharing.

    Validate-then-swap: nothing reachable from the serving ``root_ref``
    is mutated; the candidate root is probed at the rule's corner
    headers and swapped only if the probes agree.  On budget overrun or
    probe disagreement the appended nodes are discarded and
    :class:`IncrementalUpdateError` is raised.  Returns the number of
    nodes appended; replaced-node words accumulate in
    ``tree.build_stats["garbage_words"]`` and appended-node words in
    ``tree.build_stats["layout_words"]`` for compaction watermarks.
    """
    rule_id = rule_flat[0]
    config = ExpCutsConfig(stride=tree.stride,
                           habs_bits_log2=tree.habs_bits_log2,
                           max_nodes=max_nodes)
    builder = _Builder(config)
    if len(builder.schedule) != len(tree.schedule):
        raise IncrementalUpdateError(
            "tree schedule does not match its declared stride")
    builder.nodes = tree.nodes  # append in place (copy-on-write)
    checkpoint = len(tree.nodes)
    live_words = tree.layout_words()
    garbage = 0
    memo: dict[tuple, int | None] = {}

    def subtree(level: int, rules: tuple[FlatRule, ...]) -> int:
        try:
            ref = builder.build(level, rules)
        except MemoryError as exc:
            raise IncrementalUpdateError(str(exc)) from exc
        if len(tree.nodes) - checkpoint > edit_budget:
            raise IncrementalUpdateError(
                f"expcuts: subtree rebuild blew edit_budget={edit_budget}")
        return ref

    def descend(ref: int, level: int, rel: FlatRule) -> int | None:
        """New ref for this subtree, or None when unchanged."""
        nonlocal garbage
        if ref == REF_NO_MATCH:
            return subtree(level, (rel,))
        if ref < 0:
            existing = ref_rule_id(ref)
            if not precedes(existing):
                return None  # the covering rule keeps outranking us
            if builder.full_cover(rel, level):
                return leaf_ref(rule_id)
            full = builder.full_hi[level]
            existing_rel: list[int] = [existing]
            for fld in range(NUM_FIELDS):
                existing_rel.extend((0, full[fld]))
            return subtree(level, (rel, tuple(existing_rel)))
        key = (ref, rel)
        if key in memo:
            return memo[key]
        node = tree.nodes[ref]
        step = tree.schedule[node.level]
        fld = step.field
        pos = 1 + 2 * fld
        width = builder.widths[node.level][fld]
        shift = width - step.width
        child_full = (1 << shift) - 1
        lo, hi = rel[pos], rel[pos + 1]
        refs = node.children.decompress()
        changed = False
        for k in range(lo >> shift, (hi >> shift) + 1):
            base = k << shift
            clip_lo = lo - base if lo > base else 0
            clip_hi = hi - base if hi < base + child_full else child_full
            child_rel = rel[:pos] + (clip_lo, clip_hi) + rel[pos + 2:]
            new_ref = descend(refs[k], node.level + 1, child_rel)
            if new_ref is not None and new_ref != refs[k]:
                refs[k] = new_ref
                changed = True
        if not changed:
            memo[key] = None
            return None
        if len(tree.nodes) - checkpoint >= edit_budget:
            raise IncrementalUpdateError(
                f"expcuts: edit touched more than edit_budget="
                f"{edit_budget} nodes")
        if len(tree.nodes) >= config.max_nodes:
            raise IncrementalUpdateError(
                f"expcuts: edit exceeded max_nodes={config.max_nodes}")
        garbage += node.words
        children = compress(refs, min(tree.habs_bits_log2, step.width))
        tree.nodes.append(InternalNode(node.level, children))
        new_ref = len(tree.nodes) - 1
        memo[key] = new_ref
        return new_ref

    def rollback() -> None:
        del tree.nodes[checkpoint:]

    try:
        new_root = descend(tree.root_ref, 0, rule_flat)
    except IncrementalUpdateError:
        rollback()
        raise
    if new_root is None:
        return 0  # shadowed everywhere: the tree already agrees
    # Pre-swap probe at the rule's corners: the winner must be the new
    # rule or one that outranks it.
    corners = (tuple(rule_flat[1 + 2 * f] for f in range(NUM_FIELDS)),
               tuple(rule_flat[2 + 2 * f] for f in range(NUM_FIELDS)))
    for header in corners:
        ref = new_root
        while ref >= 0:
            node = tree.nodes[ref]
            step = tree.schedule[node.level]
            key = (header[step.field] >> step.shift) \
                & ((1 << step.width) - 1)
            ref = node.children.lookup(key)
        got = ref_rule_id(ref)
        if got is None or (got != rule_id and precedes(got)):
            rollback()
            raise IncrementalUpdateError(
                f"expcuts: edited tree answers {got!r} at a corner of "
                f"rule {rule_id}")
    tree.root_ref = new_root
    tree.num_rules = max(tree.num_rules, rule_id + 1)
    tree.build_stats["garbage_words"] = (
        tree.build_stats.get("garbage_words", 0) + garbage)
    tree.build_stats["layout_words"] = live_words + sum(
        node.words for node in tree.nodes[checkpoint:])
    return len(tree.nodes) - checkpoint


def build_expcuts(ruleset: RuleSet, config: ExpCutsConfig | None = None,
                  meter: BudgetMeter | None = None) -> ExpCutsTree:
    """Build an ExpCuts tree for ``ruleset``.

    Rules are taken in priority (list) order; returns the tree IR which
    :mod:`repro.core.layout` packs into the SRAM word image.  With a
    ``meter`` the build charges nodes and Figure-4 layout words as it
    allocates them and raises :class:`BuildBudgetExceeded` cooperatively.
    """
    config = config or ExpCutsConfig()
    builder = _Builder(config, meter)
    root = builder.build(0, flat_projection(ruleset))
    return ExpCutsTree(
        stride=config.stride,
        habs_bits_log2=config.habs_bits_log2,
        schedule=builder.schedule,
        nodes=builder.nodes,
        root_ref=root,
        num_rules=len(ruleset),
        build_stats={
            "memo_hits": builder.memo_hits,
            "child_evaluations": builder.child_evals,
            "unique_nodes": len(builder.nodes),
            "layout_words": sum(node.words for node in builder.nodes),
        },
    )
