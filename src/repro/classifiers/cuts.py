"""The cutting tree HiCuts and HyperCuts share.

HiCuts is HyperCuts with one cut dimension per node, so both are built,
edited, walked and laid out by the code here.  Each algorithm supplies
only what makes it that paper's algorithm:

* ``choose_cuts(rules, widths, spfac) -> {field: log2 cuts}`` — the cut
  heuristic run at every internal node;
* ``_index_cycles(node)`` — the ME cycles to form a node's child index,
  which npsim charges per descend.

An internal node cuts ``dims`` simultaneously into ``prod(2**lg_i)``
children indexed by the concatenation of per-dimension sub-indices
(first dim = most significant bits).  Recursion stops when at most
``binth`` rules remain; those are searched linearly.

Builder machinery (shared with :mod:`repro.core.expcuts`): projected
rules are flat 11-int tuples, rules behind a higher-priority full cover
of a box are pruned, children are hash-consed on their normalised
projected rule lists, and children between rule-span endpoints on each
cut dimension (uniform runs) are built once per run combination.

Layout: one monolithic ``tree`` region holding internal nodes (1 header
word + one pointer word per child) and, inline behind each leaf's count
word, the leaf's rule entries at 6 words apiece.
"""

from __future__ import annotations

import abc
import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

from ..core.budget import BudgetMeter, BuildBudget, meter_for
from ..core.engine import LookupTrace, MemRead
from ..core.errors import IncrementalUpdateError
from ..core.expcuts import FlatRule, REF_NO_MATCH, flat_projection
from ..core.fields import FIELD_WIDTHS, NUM_FIELDS
from ..core.rule import RuleSet
from ..obs.trace import DecisionTrace
from .base import MemoryRegion, PacketClassifier
from .linear import RULE_COMPARE_CYCLES, RULE_WORDS


@dataclass(frozen=True)
class _Internal:
    """Internal node cutting ``dims`` simultaneously.

    ``dims``      fields cut, in index-significance order (first = most
                  significant bits of the child index);
    ``lgs``       log2 cuts per dim (parallel to ``dims``);
    ``shifts``    child-local remaining bit width per dim;
    ``children``  builder refs, length ``2 ** sum(lgs)``.
    """

    dims: tuple[int, ...]
    lgs: tuple[int, ...]
    shifts: tuple[int, ...]
    children: tuple[int, ...]


@dataclass(frozen=True)
class _Leaf:
    """Leaf node: rule ids searched linearly, in priority order."""

    rule_ids: tuple[int, ...]


@dataclass
class CutsParams:
    """The two classic tuning knobs plus a node-count safety valve."""

    binth: int = 8
    spfac: float = 4.0
    max_nodes: int = 2_000_000


#: A cut heuristic: ``(rules, widths, spfac) -> {field: log2 cuts}``.
ChooseCuts = Callable[[tuple[FlatRule, ...], Sequence[int], float],
                      dict[int, int]]


def _node_words(node: _Internal | _Leaf) -> int:
    """Layout words: header + pointer array, or count word + inline
    6-word rule entries."""
    if isinstance(node, _Internal):
        return 1 + len(node.children)
    return 1 + RULE_WORDS * len(node.rule_ids)


def _covers(rule: FlatRule, widths: Sequence[int]) -> bool:
    for fld in range(NUM_FIELDS):
        if rule[1 + 2 * fld] != 0 or rule[2 + 2 * fld] != (1 << widths[fld]) - 1:
            return False
    return True


def _prune(rules: tuple[FlatRule, ...],
           widths: Sequence[int]) -> tuple[FlatRule, ...]:
    """Truncate the list after the first full-covering rule."""
    for idx, rule in enumerate(rules):
        if _covers(rule, widths):
            return rules[: idx + 1]
    return rules


class _Builder:
    def __init__(self, params: CutsParams, choose_cuts: ChooseCuts,
                 name: str, meter: BudgetMeter | None = None) -> None:
        self.params = params
        self.choose_cuts = choose_cuts
        self.name = name
        self.meter = meter
        self.nodes: list[_Internal | _Leaf] = []
        self.memo: dict[tuple, int] = {}

    def intern(self, node: _Internal | _Leaf) -> int:
        node_id = len(self.nodes)
        if node_id >= self.params.max_nodes:
            raise MemoryError(
                f"{self.name} build exceeded max_nodes={self.params.max_nodes}")
        if self.meter is not None:
            self.meter.add_node(_node_words(node))
        self.nodes.append(node)
        return node_id

    def build(self, rules: tuple[FlatRule, ...],
              widths: tuple[int, ...]) -> int:
        rules = _prune(rules, widths)
        if not rules:
            return REF_NO_MATCH
        is_point = all(w == 0 for w in widths)
        if (len(rules) <= self.params.binth or is_point
                or _covers(rules[0], widths)):
            key = ("leaf", tuple(r[0] for r in rules))
            cached = self.memo.get(key)
            if cached is not None:
                return cached
            node_id = self.intern(_Leaf(tuple(r[0] for r in rules)))
            self.memo[key] = node_id
            return node_id

        key = (widths, rules)
        cached = self.memo.get(key)
        if cached is not None:
            return cached

        lgs_map = self.choose_cuts(rules, widths, self.params.spfac)
        cut_dims = tuple(sorted(lgs_map))
        lgs = tuple(lgs_map[fld] for fld in cut_dims)
        shifts = tuple(widths[fld] - lg for fld, lg in zip(cut_dims, lgs))
        child_widths = list(widths)
        for fld, shift in zip(cut_dims, shifts):
            child_widths[fld] = shift
        child_widths_t = tuple(child_widths)

        # Per-dim uniform runs, then their Cartesian product: children
        # inside one run-combination share identical projections.
        per_dim_runs: list[list[int]] = []
        for fld, lg, shift in zip(cut_dims, lgs, shifts):
            nchildren = 1 << lg
            pos = 1 + 2 * fld
            crit = {0, nchildren}
            for rule in rules:
                k_lo = rule[pos] >> shift
                k_hi = rule[pos + 1] >> shift
                crit.update((k_lo, k_lo + 1, k_hi, k_hi + 1))
            starts = sorted(c for c in crit if 0 <= c < nchildren)
            starts.append(nchildren)
            per_dim_runs.append(starts)

        total_lg = sum(lgs)
        refs = [REF_NO_MATCH] * (1 << total_lg)
        self._fill(rules, cut_dims, lgs, shifts, per_dim_runs, 0, [],
                   child_widths_t, refs)

        node_id = self.intern(_Internal(cut_dims, lgs, shifts, tuple(refs)))
        self.memo[key] = node_id
        return node_id

    def _fill(self, rules, cut_dims, lgs, shifts, per_dim_runs, depth,
              chosen_runs, child_widths, refs) -> None:
        """Recurse over run combinations; fill every covered child slot."""
        if depth == len(cut_dims):
            child_rules: list[FlatRule] = []
            for rule in rules:
                clipped = rule
                alive = True
                for fld, shift, (start, _end) in zip(cut_dims, shifts, chosen_runs):
                    pos = 1 + 2 * fld
                    lo, hi = clipped[pos], clipped[pos + 1]
                    base = start << shift
                    top = base + (1 << shift) - 1
                    if lo > top or hi < base:
                        alive = False
                        break
                    clip_lo = lo - base if lo > base else 0
                    clip_hi = hi - base if hi < top else (1 << shift) - 1
                    clipped = clipped[:pos] + (clip_lo, clip_hi) + clipped[pos + 2:]
                if not alive:
                    continue
                child_rules.append(clipped)
                if _covers(clipped, child_widths):
                    break
            ref = self.build(tuple(child_rules), child_widths)
            # Write the ref into every child slot of this run-combination.
            self._assign(refs, lgs, chosen_runs, 0, 0, ref)
            return
        starts = per_dim_runs[depth]
        for idx in range(len(starts) - 1):
            chosen_runs.append((starts[idx], starts[idx + 1]))
            self._fill(rules, cut_dims, lgs, shifts, per_dim_runs, depth + 1,
                       chosen_runs, child_widths, refs)
            chosen_runs.pop()

    def _assign(self, refs, lgs, chosen_runs, depth, base, ref) -> None:
        if depth == len(lgs):
            refs[base] = ref
            return
        remaining_lg = sum(lgs[depth + 1:])
        start, end = chosen_runs[depth]
        for k in range(start, end):
            self._assign(refs, lgs, chosen_runs, depth + 1,
                         base | (k << remaining_lg), ref)


def _child_index(node: _Internal, header: Sequence[int],
                 origin: list[int]) -> int:
    """The child slot ``header`` falls in; advances ``origin`` (each
    field's box origin) into that child's box.  Indexing is box-relative
    because shared nodes are reached via different paths: projections
    are origin-normalised."""
    index = 0
    for fld, lg, shift in zip(node.dims, node.lgs, node.shifts):
        k = (header[fld] - origin[fld]) >> shift
        index = (index << lg) | k
        origin[fld] += k << shift
    return index


class CutsClassifier(PacketClassifier):
    """Cutting-tree classification with leaf linear search."""

    #: The algorithm's cut heuristic (see the module docstring).
    choose_cuts: ChooseCuts

    def __init__(self, ruleset: RuleSet, nodes: list[_Internal | _Leaf],
                 root_ref: int, params: CutsParams) -> None:
        super().__init__(ruleset)
        self.nodes = nodes
        self.root_ref = root_ref
        self.params = params
        self._tree_words, self._node_offsets = self._layout_words()
        #: Layout words of nodes replaced by edits (see garbage_fraction).
        self._garbage_words = 0

    @classmethod
    def build(cls, ruleset: RuleSet, binth: int = 8, spfac: float = 4.0,
              max_nodes: int = 2_000_000,
              budget: BuildBudget | None = None) -> "CutsClassifier":
        params = CutsParams(binth=binth, spfac=spfac, max_nodes=max_nodes)
        builder = _Builder(params, cls.choose_cuts, cls.name,
                           meter_for(budget, cls.name))
        root = builder.build(flat_projection(ruleset), tuple(FIELD_WIDTHS))
        return cls(ruleset, builder.nodes, root, params)

    @abc.abstractmethod
    def _index_cycles(self, node: _Internal) -> int:
        """ME cycles to form ``node``'s child index."""

    # -- incremental edits --------------------------------------------------

    def _covers_box(self, rule_id: int, box_lo: Sequence[int],
                    widths: Sequence[int]) -> bool:
        """Does the (absolute) rule fully cover the box at ``box_lo``?"""
        rule = self.ruleset[rule_id]
        for fld in range(NUM_FIELDS):
            iv = rule.intervals[fld]
            if iv.lo > box_lo[fld] \
                    or iv.hi < box_lo[fld] + (1 << widths[fld]) - 1:
                return False
        return True

    def _clip_flat(self, rule_id: int, box_lo: Sequence[int],
                   widths: Sequence[int]) -> FlatRule:
        """The rule's projection clipped to the box, box-relative."""
        rule = self.ruleset[rule_id]
        row: list[int] = [rule_id]
        for fld in range(NUM_FIELDS):
            iv = rule.intervals[fld]
            top = box_lo[fld] + (1 << widths[fld]) - 1
            row.append(max(iv.lo, box_lo[fld]) - box_lo[fld])
            row.append(min(iv.hi, top) - box_lo[fld])
        return tuple(row)

    def _first_match_from(self, root_ref: int,
                          header: Sequence[int]) -> int | None:
        """Classify from a candidate root (also the pre-swap probe)."""
        ref, _ = self._walk(root_ref, header)
        if ref == REF_NO_MATCH:
            return None
        for rule_id in self.nodes[ref].rule_ids:
            if self.ruleset[rule_id].matches(header):
                return rule_id
        return None

    def insert_rule(self, rule_id: int, precedes, *,
                    edit_budget: int = 4096) -> int:
        """Insert ``self.ruleset[rule_id]`` by copy-on-write path edits.

        ``precedes(existing_id)`` says whether the new rule outranks an
        existing one — priority lives only in leaf list order, so the
        caller (which knows the live priority order) supplies the
        comparison.  Nodes along every path intersecting the rule's box
        are copied (the descent fans out over the Cartesian product of
        per-dimension child ranges), leaves splice the rule in at its
        priority rank, and a leaf that overflows past ``binth`` is
        re-cut node-locally with the regular builder.  The edit is
        **validate-then-swap**: nothing the serving root reaches is
        mutated; the new root is probed at the rule's corner headers and
        only then swapped in.  On any failure (``edit_budget`` node
        appends exceeded, ``max_nodes``, probe disagreement) the
        appended nodes are discarded and :class:`IncrementalUpdateError`
        is raised — the old root never stopped serving.  Returns the
        number of nodes appended.
        """
        rule = self.ruleset[rule_id]
        bounds = tuple((iv.lo, iv.hi) for iv in rule.intervals)
        checkpoint = len(self.nodes)
        garbage = 0
        leaf_memo: dict[tuple[int, ...], int] = {}

        def append(node: _Internal | _Leaf) -> int:
            if len(self.nodes) - checkpoint >= edit_budget:
                raise IncrementalUpdateError(
                    f"{self.name}: edit touched more than "
                    f"edit_budget={edit_budget} nodes")
            if len(self.nodes) >= self.params.max_nodes:
                raise IncrementalUpdateError(
                    f"{self.name}: edit exceeded max_nodes="
                    f"{self.params.max_nodes}")
            self.nodes.append(node)
            return len(self.nodes) - 1

        def new_leaf(rule_ids: tuple[int, ...]) -> int:
            cached = leaf_memo.get(rule_ids)
            if cached is not None:
                return cached
            ref = append(_Leaf(rule_ids))
            leaf_memo[rule_ids] = ref
            return ref

        def recut(rule_ids: tuple[int, ...], box_lo: list[int],
                  widths: tuple[int, ...]) -> int:
            flat = tuple(self._clip_flat(rid, box_lo, widths)
                         for rid in rule_ids)
            builder = _Builder(self.params, self.choose_cuts, self.name)
            builder.nodes = self.nodes  # append in place (copy-on-write)
            try:
                ref = builder.build(flat, widths)
            except MemoryError as exc:
                raise IncrementalUpdateError(str(exc)) from exc
            if len(self.nodes) - checkpoint > edit_budget:
                raise IncrementalUpdateError(
                    f"{self.name}: node-local re-cut blew edit_budget="
                    f"{edit_budget}")
            return ref

        def edit_leaf(node: _Leaf, box_lo: list[int],
                      widths: tuple[int, ...]) -> int | None:
            ids = node.rule_ids
            rank = len(ids)
            for idx, existing in enumerate(ids):
                if precedes(existing):
                    rank = idx
                    break
            for existing in ids[:rank]:
                if self._covers_box(existing, box_lo, widths):
                    return None  # shadowed by a higher-priority full cover
            if self._covers_box(rule_id, box_lo, widths):
                new_ids = ids[:rank] + (rule_id,)
            else:
                new_ids = ids[:rank] + (rule_id,) + ids[rank:]
            if (len(new_ids) > max(self.params.binth, len(ids))
                    and any(w > 0 for w in widths)):
                return recut(new_ids, box_lo, widths)
            return new_leaf(new_ids)

        def descend(ref: int, box_lo: list[int],
                    widths: tuple[int, ...]) -> int | None:
            """New ref for this subtree, or None when unchanged."""
            nonlocal garbage
            if ref == REF_NO_MATCH:
                if self._covers_box(rule_id, box_lo, widths):
                    return new_leaf((rule_id,))
                return recut((rule_id,), box_lo, widths)
            node = self.nodes[ref]
            if isinstance(node, _Leaf):
                replacement = edit_leaf(node, box_lo, widths)
                if replacement is not None:
                    garbage += _node_words(node)
                return replacement
            child_widths = list(widths)
            dim_ranges = []
            for fld, shift in zip(node.dims, node.shifts):
                lo, hi = bounds[fld]
                base0 = box_lo[fld]
                k_lo = (max(lo, base0) - base0) >> shift
                k_hi = (min(hi, base0 + (1 << widths[fld]) - 1)
                        - base0) >> shift
                dim_ranges.append(range(k_lo, k_hi + 1))
                child_widths[fld] = shift
            child_widths_t = tuple(child_widths)
            new_children: list[int] | None = None
            for combo in itertools.product(*dim_ranges):
                index = 0
                child_lo = list(box_lo)
                for fld, lg, shift, k in zip(node.dims, node.lgs,
                                             node.shifts, combo):
                    index = (index << lg) | k
                    child_lo[fld] = box_lo[fld] + (k << shift)
                new_ref = descend(node.children[index], child_lo,
                                  child_widths_t)
                if new_ref is not None and new_ref != node.children[index]:
                    if new_children is None:
                        new_children = list(node.children)
                    new_children[index] = new_ref
            if new_children is None:
                return None
            garbage += _node_words(node)
            return append(_Internal(node.dims, node.lgs, node.shifts,
                                    tuple(new_children)))

        def rollback() -> None:
            del self.nodes[checkpoint:]

        try:
            new_root = descend(self.root_ref, [0] * NUM_FIELDS,
                               tuple(FIELD_WIDTHS))
        except IncrementalUpdateError:
            rollback()
            raise
        if new_root is None:
            return 0  # rule shadowed everywhere: the tree already agrees
        # Pre-swap probe: at the rule's own corners the winner must be
        # the new rule or something that outranks it.
        for header in (tuple(lo for lo, _ in bounds),
                       tuple(hi for _, hi in bounds)):
            got = self._first_match_from(new_root, header)
            if got is None or (got != rule_id and precedes(got)):
                rollback()
                raise IncrementalUpdateError(
                    f"{self.name}: edited tree answers {got!r} at a corner "
                    f"of rule {rule_id}")
        # Swap.  Nodes replaced along the copied paths become garbage
        # (approximately: DAG sharing can keep some alive), tracked so the
        # update layer's compaction watermark can see structure bloat.
        self.root_ref = new_root
        appended = len(self.nodes) - checkpoint
        cursor = self._tree_words
        for node_id in range(checkpoint, len(self.nodes)):
            self._node_offsets[node_id] = cursor
            cursor += _node_words(self.nodes[node_id])
        self._tree_words = cursor
        self._garbage_words += garbage
        return appended

    def garbage_fraction(self) -> float:
        """Fraction of the layout estimated unreachable after edits."""
        return self._garbage_words / max(self._tree_words, 1)

    # -- structure accounting ---------------------------------------------

    def _layout_words(self) -> tuple[int, dict[int, int]]:
        """Word offsets of each node in the ``tree`` region."""
        offsets: dict[int, int] = {}
        cursor = 0
        for node_id, node in enumerate(self.nodes):
            offsets[node_id] = cursor
            cursor += _node_words(node)
        return cursor, offsets

    def memory_regions(self) -> list[MemoryRegion]:
        # One monolithic region: leaves store their rule entries inline
        # (6 words each) right behind the node header, so tree walk and
        # linear search hit the same structure.  Being a single region it
        # can occupy only one SRAM channel — exactly why the paper finds
        # HiCuts capped by leaf linear search (Figures 8/9) while the
        # level-segmented ExpCuts image spreads over all four.
        return [MemoryRegion("tree", self._tree_words, 1.0)]

    # -- lookup -------------------------------------------------------------

    def _walk(self, root_ref: int, header: Sequence[int]
              ) -> tuple[int, list[tuple[int, int]]]:
        """Descend from ``root_ref`` to ``header``'s leaf.

        Returns the leaf ref (``REF_NO_MATCH`` for an empty box) and the
        ``(ref, child index)`` of every internal node passed.
        """
        path: list[tuple[int, int]] = []
        ref = root_ref
        origin = [0] * NUM_FIELDS
        while ref != REF_NO_MATCH:
            node = self.nodes[ref]
            if isinstance(node, _Leaf):
                break
            index = _child_index(node, header, origin)
            path.append((ref, index))
            ref = node.children[index]
        return ref, path

    def classify(self, header: Sequence[int],
                 trace: DecisionTrace | None = None) -> int | None:
        if trace is None:
            return self._first_match_from(self.root_ref, header)
        result = self.access_trace(header, trace).result
        self._emit_lookup_metrics(trace)
        return result

    def access_trace(self, header: Sequence[int],
                     trace: DecisionTrace | None = None) -> LookupTrace:
        """The descent plus the leaf linear scan, read by read.

        With ``trace`` the same walk also records its descent steps and
        the leaf scan, whose length is exactly the cost Figure 8 sweeps
        ``binth`` to expose.
        """
        if trace is not None:
            trace.begin(self.name, header)
        ref, path = self._walk(self.root_ref, header)
        reads: list[MemRead] = []
        for node_ref, index in path:
            addr = self._node_offsets[node_ref]
            node = self.nodes[node_ref]
            reads.append(MemRead("tree", addr, 1, 2))
            reads.append(MemRead("tree", addr + 1 + index, 1,
                                 self._index_cycles(node)))
            if trace is not None:
                trace.node("tree", addr, words=2, fields=list(node.dims),
                           strides=list(node.lgs), slot=index)
        result = None
        if ref != REF_NO_MATCH:
            leaf = self.nodes[ref]
            leaf_addr = self._node_offsets[ref]
            reads.append(MemRead("tree", leaf_addr, 1, 2))
            if trace is not None:
                trace.leaf("tree", leaf_addr, words=1, rules=len(leaf.rule_ids))
            for slot, rule_id in enumerate(leaf.rule_ids):
                rule_addr = leaf_addr + 1 + slot * RULE_WORDS
                reads.append(MemRead("tree", rule_addr, RULE_WORDS,
                                     RULE_COMPARE_CYCLES))
                matched = self.ruleset[rule_id].matches(header)
                if trace is not None:
                    trace.linear("tree", rule_addr, RULE_WORDS, rule=rule_id,
                                 matched=matched)
                if matched:
                    result = rule_id
                    break
        if trace is not None:
            trace.finish(result)
        return LookupTrace(tuple(reads), compute_after=RULE_COMPARE_CYCLES,
                           result=result)

    # -- statistics -----------------------------------------------------------

    def depth(self) -> int:
        """Maximum tree depth (data dependent — no explicit bound)."""

        def node_depth(ref: int, seen: dict[int, int]) -> int:
            if ref < 0:
                return 0
            if ref in seen:
                return seen[ref]
            node = self.nodes[ref]
            seen[ref] = 0  # cycle guard (tree is acyclic; DAG via sharing)
            if isinstance(node, _Leaf):
                depth = 1
            else:
                depth = 1 + max(node_depth(c, seen) for c in node.children)
            seen[ref] = depth
            return depth

        return node_depth(self.root_ref, {})

    def leaf_sizes(self) -> list[int]:
        return [len(n.rule_ids) for n in self.nodes if isinstance(n, _Leaf)]

    def mean_dims_cut(self) -> float:
        """Average number of dimensions cut per internal node (> 1 is
        what distinguishes HyperCuts from HiCuts)."""
        internal = [n for n in self.nodes if isinstance(n, _Internal)]
        if not internal:
            return 0.0
        return sum(len(n.dims) for n in internal) / len(internal)
