"""HiCuts (Hierarchical Intelligent Cuttings) — Gupta & McKeown, HotI 1999.

The baseline ExpCuts derives from (§4.1 of the reproduced paper).  Each
internal node cuts its box into equal sub-spaces along one heuristically
chosen dimension; recursion stops when at most ``binth`` rules remain,
which are then *linearly searched* — the cost ExpCuts exists to remove
(Figure 8 sweeps ``binth`` to expose it).

Heuristics implemented (the classic ones):

* **Dimension choice** — cut the dimension whose rule projections form the
  most distinct clipped intervals (ties broken toward the wider remaining
  field).
* **Cut count** — powers of two, grown from ``~sqrt(n)`` while the space
  measure ``sm(C) = Σ rules(child) + C`` stays within ``spfac * n``.
* **Node reuse** — children are hash-consed on their normalised projected
  rule lists (the same soundness argument as ExpCuts node sharing).
* **Cover pruning** — rules behind a higher-priority full cover of a box
  are dropped from that box.

Layout: one monolithic ``tree`` region holding internal nodes and, inline
behind each leaf header, the leaf's rule entries at 6 words apiece — read
entry-by-entry during leaf linear search (paper §6.6).  Monolithic means
single-channel placement, the root cause of the HiCuts throughput cap the
paper measures.

The tree itself — builder, incremental edits, walk and layout — is the
cutting tree shared with HyperCuts (:mod:`repro.classifiers.cuts`); this
module supplies only the one-dimension cut heuristic and its index cost.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..core.expcuts import FlatRule
from ..core.fields import NUM_FIELDS
from .cuts import CutsClassifier, _Internal

#: ME cycles for one internal-node descend (load dim/shift, index math).
NODE_COMPUTE_CYCLES = 5


def choose_cuts(rules: tuple[FlatRule, ...], widths: Sequence[int],
                spfac: float) -> dict[int, int]:
    """Cut one dimension: the one with the most distinct projections,
    into a power-of-two count bounded by the spfac space measure."""
    best_field = None
    best_score = (-1, -1)
    for fld in range(NUM_FIELDS):
        if widths[fld] == 0:
            continue
        pos = 1 + 2 * fld
        distinct = len({(r[pos], r[pos + 1]) for r in rules})
        score = (distinct, widths[fld])
        if distinct > 1 and score > best_score:
            best_score = score
            best_field = fld
    if best_field is None:
        # No dimension separates the rules; fall back to any dimension
        # with remaining width so recursion still terminates (boxes
        # shrink to points, where the cover check fires).  The builder
        # makes a point box a leaf, so some width is always left.
        best_field = next(fld for fld in range(NUM_FIELDS) if widths[fld] > 0)

    fld = best_field
    n = len(rules)
    width = widths[fld]
    budget = spfac * max(n, 1)
    pos = 1 + 2 * fld

    def space_measure(lg: int) -> float:
        shift = width - lg
        total = 1 << lg
        for r in rules:
            total += (r[pos + 1] >> shift) - (r[pos] >> shift) + 1
        return total

    best = max(1, min(width, int(math.log2(max(math.sqrt(n), 2)))))
    while best < width and space_measure(best + 1) <= budget:
        best += 1
    return {fld: best}


class HiCutsClassifier(CutsClassifier):
    """Decision-tree classification with leaf linear search."""

    name = "hicuts"
    choose_cuts = staticmethod(choose_cuts)

    def _index_cycles(self, node: _Internal) -> int:
        return NODE_COMPUTE_CYCLES
