"""HyperCuts — Singh, Baboescu, Varghese & Wang, SIGCOMM 2003.

The second field-dependent baseline the paper cites (§2, [9]).  Where
HiCuts cuts one dimension per node, HyperCuts cuts *several at once*: a
node splits into ``prod(2**lg_i)`` children indexed by the concatenation
of per-dimension sub-indices.  Multi-dimensional cutting separates rules
that differ in different fields in a single memory access, typically
trading a wider node for a shallower tree.

Implemented heuristics (the classic ones, adapted to power-of-two cuts):

* **Dimension selection** — cut every dimension whose count of distinct
  rule projections is above the mean over cuttable dimensions (the
  original paper's rule).
* **Cut budget** — the total fan-out is grown dimension-by-dimension
  (round-robin over the selected dimensions, widest remaining field
  first) while the HiCuts space measure stays within ``spfac * n`` and
  the fan-out stays within :data:`MAX_LOG2_FANOUT`.
* **Node sharing and cover pruning** — identical to the other cutting
  builders (projection-keyed hash-consing; truncation after a full
  cover).

Leaves hold up to ``binth`` rules searched linearly against inline
6-word entries, exactly like HiCuts — so HyperCuts inherits the same
Figure 8 cliff; its advantage is fewer tree levels before it.  The tree
itself is the cutting tree shared with HiCuts
(:mod:`repro.classifiers.cuts`); this module supplies only the
multi-dimension cut heuristic and its index cost.
"""

from __future__ import annotations

from typing import Sequence

from ..core.expcuts import FlatRule
from ..core.fields import NUM_FIELDS
from .cuts import CutsClassifier, _Internal

#: ME cycles to form a multi-dimension child index (per dimension:
#: subtract origin, shift, merge).
DIM_INDEX_CYCLES = 4

#: Upper bound on a single node's log2 fan-out (2**6 = 64 children).
MAX_LOG2_FANOUT = 6


def choose_cuts(rules: tuple[FlatRule, ...], widths: Sequence[int],
                spfac: float) -> dict[int, int]:
    """Cut the dims with above-mean distinct projections (HyperCuts
    rule), growing per-dim log2 cut counts round-robin under the
    budget."""
    distinct = {}
    for fld in range(NUM_FIELDS):
        if widths[fld] == 0:
            continue
        pos = 1 + 2 * fld
        count = len({(r[pos], r[pos + 1]) for r in rules})
        if count > 1:
            distinct[fld] = count
    if not distinct:
        dims = [fld for fld in range(NUM_FIELDS) if widths[fld] > 0][:1]
    else:
        mean = sum(distinct.values()) / len(distinct)
        dims = [fld for fld, count in distinct.items() if count >= mean]

    n = len(rules)
    budget = spfac * max(n, 1)
    lgs = {fld: 0 for fld in dims}

    def space_measure() -> float:
        total = 1
        for lg in lgs.values():
            total <<= lg
        for rule in rules:
            spans = 1
            for fld, lg in lgs.items():
                shift = widths[fld] - lg
                pos = 1 + 2 * fld
                spans *= (rule[pos + 1] >> shift) - (rule[pos] >> shift) + 1
            total += spans
        return total

    # Seed with one cut on the widest selected dim, then grow.
    order = sorted(dims, key=lambda fld: -widths[fld])
    progressed = True
    while progressed and sum(lgs.values()) < MAX_LOG2_FANOUT:
        progressed = False
        for fld in order:
            if lgs[fld] >= widths[fld]:
                continue
            if sum(lgs.values()) >= MAX_LOG2_FANOUT:
                break
            lgs[fld] += 1
            if space_measure() > budget and sum(lgs.values()) > 1:
                lgs[fld] -= 1
            else:
                progressed = True
    if all(lg == 0 for lg in lgs.values()):
        lgs[order[0]] = 1
    return {fld: lg for fld, lg in lgs.items() if lg > 0}


class HyperCutsClassifier(CutsClassifier):
    """Multi-dimensional cutting with leaf linear search."""

    name = "hypercuts"
    choose_cuts = staticmethod(choose_cuts)

    def _index_cycles(self, node: _Internal) -> int:
        return DIM_INDEX_CYCLES * len(node.dims)
