"""ExpCuts packaged behind the common classifier interface."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.budget import BuildBudget, meter_for
from ..core.engine import ExpCutsEngine, LookupTrace
from ..core.expcuts import (
    ExpCutsConfig,
    ExpCutsTree,
    build_expcuts,
    insert_into_tree,
)
from ..core.layout import TreeImage, pack_tree
from ..core.rule import RuleSet
from ..core.stats import TreeStats, collect_stats
from ..obs.trace import DecisionTrace
from .base import MemoryRegion, PacketClassifier


class ExpCutsClassifier(PacketClassifier):
    """The paper's algorithm: fixed-stride cuts, HABS aggregation, no
    leaf linear search, explicit worst-case lookup bound."""

    name = "expcuts"

    def __init__(self, ruleset: RuleSet, tree: ExpCutsTree, image: TreeImage,
                 use_pop_count: bool = True) -> None:
        super().__init__(ruleset)
        self.tree = tree
        self.image = image
        self.engine = ExpCutsEngine(image, use_pop_count=use_pop_count)

    @classmethod
    def build(
        cls,
        ruleset: RuleSet,
        stride: int = 8,
        habs_bits_log2: int = 4,
        aggregated: bool = True,
        use_pop_count: bool = True,
        max_nodes: int = 4_000_000,
        budget: BuildBudget | None = None,
    ) -> "ExpCutsClassifier":
        """Build the tree and pack its word image.

        ``aggregated=False`` and ``use_pop_count=False`` are the Figure 6
        and §5.4 ablation switches; both leave results unchanged.
        ``budget`` bounds the build cooperatively (nodes, layout bytes,
        wall clock) — see :mod:`repro.core.budget`.
        """
        config = ExpCutsConfig(stride=stride, habs_bits_log2=habs_bits_log2,
                               max_nodes=max_nodes)
        meter = meter_for(budget, cls.name)
        tree = build_expcuts(ruleset, config, meter=meter)
        # The builder already charged the aggregated word estimate; the
        # uncompressed ablation image is only sized during packing.
        image = pack_tree(tree, aggregated=aggregated,
                          meter=None if aggregated else meter_for(budget, cls.name))
        if meter is not None:
            meter.checkpoint()
        return cls(ruleset, tree, image, use_pop_count=use_pop_count)

    # -- incremental edits --------------------------------------------------

    #: Class-level default so pre-edit snapshots unpickle cleanly.
    _image_dirty = False

    def insert_rule(self, rule_id: int, precedes, *,
                    edit_budget: int = 4096) -> int:
        """Incrementally insert ``self.ruleset[rule_id]`` into the tree
        (see :func:`repro.core.expcuts.insert_into_tree`).  The packed
        word image goes stale: lookups fall back to the IR-level tree
        walk until :meth:`_ensure_image` repacks it lazily."""
        rule = self.ruleset[rule_id]
        row: list[int] = [rule_id]
        for iv in rule.intervals:
            row.append(iv.lo)
            row.append(iv.hi)
        appended = insert_into_tree(self.tree, tuple(row), precedes,
                                    edit_budget=edit_budget)
        if appended:
            self._image_dirty = True
        return appended

    def garbage_fraction(self) -> float:
        """Fraction of tree nodes estimated unreachable after edits."""
        garbage = self.tree.build_stats.get("garbage_words", 0)
        return garbage / max(self.tree.layout_words(), 1)

    def _ensure_image(self) -> None:
        """Repack the word image after incremental edits (lazy: scalar
        lookups serve from the IR tree; batch/trace/npsim paths need the
        packed image and trigger the repack)."""
        if self._image_dirty:
            self.image = pack_tree(self.tree, aggregated=self.image.aggregated)
            self.engine = ExpCutsEngine(
                self.image, use_pop_count=self.engine.use_pop_count)
            self._image_dirty = False

    def classify(self, header: Sequence[int],
                 trace: DecisionTrace | None = None) -> int | None:
        if trace is not None:
            result = self.access_trace(header, trace).result
            self._emit_lookup_metrics(trace)
            return result
        if self._image_dirty:
            return self.tree.classify(header)
        return self.engine.classify(header)

    def classify_many(self, headers: Sequence[Sequence[int]]
                      ) -> list[int | None]:
        # An edited tree answers from its IR walk, as ``classify`` does:
        # repacking here would put a full pack on the request path.
        if self._image_dirty:
            return [self.tree.classify(header) for header in headers]
        return self.engine.classify_many(headers)

    def classify_batch(self, fields: Sequence[np.ndarray]) -> np.ndarray:
        self._ensure_image()
        return self.engine.classify_batch(fields)

    def access_trace(self, header: Sequence[int],
                     trace: DecisionTrace | None = None) -> LookupTrace:
        self._ensure_image()
        return self.engine.access_trace(header, trace)

    def memory_regions(self) -> list[MemoryRegion]:
        regions = []
        total = max(self.image.total_words, 1)
        for level, seg in enumerate(self.image.levels):
            if len(seg) == 0:
                continue
            # Every populated level is visited at most once per lookup;
            # weight by node population as a proxy for hit likelihood.
            regions.append(MemoryRegion(f"level:{level}", len(seg), len(seg) / total))
        return regions

    def worst_case_accesses(self) -> int:
        """Two single-word reads per level — the explicit bound the paper
        trades memory for."""
        return 2 * self.tree.depth_bound

    def stats(self) -> TreeStats:
        return collect_stats(self.tree)
