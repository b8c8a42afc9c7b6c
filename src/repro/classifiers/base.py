"""The common classifier interface every algorithm in the library implements.

A classifier is built once from a :class:`~repro.core.rule.RuleSet` and
then answers three questions:

* ``classify(header)`` — which rule matches first (functional result);
  pass ``trace=DecisionTrace()`` to additionally record the decision
  path (nodes visited, strides, POP_COUNTs, linear-search lengths) —
  see :mod:`repro.obs.trace`; ``classify_many(headers)`` answers a
  request's headers in one call;
* ``access_trace(header)`` — exactly which memory references and compute
  cycles that lookup costs (consumed by :mod:`repro.npsim`);
* ``memory_regions()`` — the logical memory segments the built structure
  occupies (consumed by the channel allocator).

Keeping performance characterisation *derived from the real built data
structure* — rather than from closed-form estimates — is the library's
central design rule (DESIGN.md §5).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.engine import LookupTrace
from ..core.rule import RuleSet
from ..obs.metrics import metrics_enabled, metrics_scope
from ..obs.trace import DecisionTrace


@dataclass(frozen=True)
class MemoryRegion:
    """One logical memory segment of a built classifier.

    ``name`` matches the ``region`` field of trace reads; ``words`` is the
    segment size; ``access_weight`` estimates the fraction of lookup reads
    that hit this region (used by bandwidth-aware placement).
    """

    name: str
    words: int
    access_weight: float

    @property
    def bytes(self) -> int:
        return self.words * 4


class PacketClassifier(abc.ABC):
    """Abstract base for all packet classification algorithms."""

    #: Short algorithm name used in reports and benchmarks.
    name: str = "abstract"

    def __init__(self, ruleset: RuleSet) -> None:
        self.ruleset = ruleset

    # -- construction -----------------------------------------------------

    @classmethod
    @abc.abstractmethod
    def build(cls, ruleset: RuleSet, **params) -> "PacketClassifier":
        """Preprocess ``ruleset`` into the algorithm's search structure."""

    # -- lookup -----------------------------------------------------------

    @abc.abstractmethod
    def classify(self, header: Sequence[int],
                 trace: DecisionTrace | None = None) -> int | None:
        """First-matching rule index for one header, or ``None``.

        With ``trace`` given, the lookup's decision path is recorded
        into it; the returned rule is identical either way (the suite
        property-tests traced == untraced == linear oracle per
        algorithm).
        """

    def _classify_traced(self, header: Sequence[int],
                         trace: DecisionTrace) -> int | None:
        """Fallback traced lookup, derived from :meth:`access_trace`.

        ExpCuts, HiCuts, HyperCuts and linear search record the decision
        path inside their own ``access_trace(header, trace)`` instead,
        so the traced walk is the costed walk; everything else gets
        exact read-level steps from the access trace for free.
        """
        result = trace.record_lookup(self.name, header, self.access_trace(header))
        self._emit_lookup_metrics(trace)
        return result

    def _emit_lookup_metrics(self, trace: DecisionTrace) -> None:
        """Fold one traced lookup into the metrics registry (if enabled)."""
        if not metrics_enabled():
            return
        scope = metrics_scope(f"classify.{self.name}")
        scope.counter("lookups").inc()
        scope.log_histogram("depth").observe(trace.depth)
        scope.log_histogram("accesses").observe(trace.total_accesses)
        scope.log_histogram("words").observe(trace.total_words)
        if trace.linear_search_length:
            scope.log_histogram("linear_search_length").observe(
                trace.linear_search_length
            )

    def classify_many(self, headers: Sequence[Sequence[int]]
                      ) -> list[int | None]:
        """:meth:`classify` for each header, in order.

        The serving loop's lookup: algorithms whose walk has per-call
        setup to hoist override it; the answers are always those of
        per-header :meth:`classify`.
        """
        return [self.classify(header) for header in headers]

    def classify_batch(self, fields: Sequence[np.ndarray]) -> np.ndarray:
        """Vectorized lookup over five parallel field arrays.

        Default implementation loops over :meth:`classify`; algorithms
        with a NumPy fast path override it.  Returns ``int64`` rule ids
        with ``-1`` for no-match.
        """
        n = len(fields[0])
        out = np.full(n, -1, dtype=np.int64)
        for idx in range(n):
            header = tuple(int(f[idx]) for f in fields)
            result = self.classify(header)
            if result is not None:
                out[idx] = result
        return out

    # -- characterisation ---------------------------------------------------

    @abc.abstractmethod
    def access_trace(self, header: Sequence[int]) -> LookupTrace:
        """The memory/compute footprint of classifying ``header``."""

    @abc.abstractmethod
    def memory_regions(self) -> list[MemoryRegion]:
        """The logical memory segments the structure occupies."""

    def memory_bytes(self) -> int:
        """Total structure size in bytes."""
        return sum(region.bytes for region in self.memory_regions())

    def memory_words(self) -> int:
        return sum(region.words for region in self.memory_regions())

    # -- misc ---------------------------------------------------------------

    def worst_case_accesses(self) -> int | None:
        """An explicit bound on per-lookup memory accesses, if one exists.

        ExpCuts returns a real bound (the paper's headline property);
        algorithms with data-dependent search depth return ``None``.
        """
        return None

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} rules={len(self.ruleset)} "
            f"mem={self.memory_bytes() / 1024:.1f}KiB>"
        )
