"""Incremental rule updates over rebuild-based classifiers.

Decision-tree and cross-producting structures are built for lookup speed,
not mutation — on the paper's platform the XScale control core rebuilds
the structure and hot-swaps the SRAM image while microengines keep
classifying.  This module packages that standard production scheme:

* inserts land in a small linear **overlay** consulted alongside the
  compiled base structure (priority-correct merge);
* deletes **tombstone** rules; if a lookup's base result is tombstoned the
  slow path (``RuleSet.first_match`` over the live rule list) answers exactly;
* once the overlay or tombstone count crosses ``rebuild_threshold`` the
  base classifier is **rebuilt** from the live rule list (the hot-swap).

The hot-swap is **atomic, validate-then-swap**: the new structure is
built and spot-checked against the linear oracle *before* it replaces
the serving snapshot.  A rebuild that raises, or whose structure
disagrees with the oracle, is rolled back — the old snapshot keeps
serving, the failure is recorded in ``failures``, and retry is deferred
until further updates land *or*, with ``rebuild_retry_seconds`` set, a
wall-clock interval elapses (observed on the next update or
:meth:`~UpdatableClassifier.poll`).  A per-lookup **depth watchdog** catches a
lookup that escapes the base structure's explicit bound (a corrupted
image) and answers from the linear slow path instead of crashing.

Rebuilds can additionally be bounded by a
:class:`~repro.core.budget.BuildBudget` (node count, Figure-6 layout
bytes, wall-clock deadline).  A build that exceeds it raises the typed
:class:`~repro.core.errors.BuildBudgetExceeded`, which the **degradation
chain** resolves instead of crashing: retry with coarser parameters
(larger ``binth``/``stride``, from :data:`DEGRADATION_LADDERS`), else
swap in the linear slow path over the live rules — still exact, just
slow, and ``npsim`` charges it the modelled slow-path cycles because
the served :meth:`access_trace` *is* the linear scan.  Every step is
visible in :class:`UpdateStats` and the ``builds.*`` metrics scope.

Semantics are always exact first-match over the *current* rule list —
``tests/classifiers/test_updates.py`` drives random update/lookup
sequences against the linear oracle, including a hypothesis state
machine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence, Type

from ..core.budget import BuildBudget
from ..core.errors import (
    BuildBudgetExceeded,
    ConfigurationError,
    IncrementalUpdateError,
    RebuildError,
    ReproError,
    UpdateError,
)
from ..core.rule import Rule, RuleSet
from ..obs import metrics_scope, obs_warn
from .base import MemoryRegion, PacketClassifier

#: Coarser-parameter retry ladders per base algorithm, tried left to
#: right when a build blows its budget.  Larger ``binth`` leaves more
#: rules per leaf (fewer nodes, more linear search); a larger ``stride``
#: gives ExpCuts fewer, fatter levels.  Algorithms without tunable
#: coarseness (HSM, RFC, ...) go straight to the linear fallback.
DEGRADATION_LADDERS: dict[str, tuple[dict[str, object], ...]] = {
    "expcuts": ({"stride": 12}, {"stride": 16}),
    "hicuts": ({"binth": 32}, {"binth": 128}),
    "hypercuts": ({"binth": 32}, {"binth": 128}),
}


@dataclass
class UpdateStats:
    """Operation counters (exposed so tests/benchmarks can see the
    fast/slow path split)."""

    inserts: int = 0
    removes: int = 0
    rebuilds: int = 0
    failed_rebuilds: int = 0
    base_hits: int = 0
    overlay_hits: int = 0
    slow_path_lookups: int = 0
    watchdog_fallbacks: int = 0
    #: Build attempts that raised BuildBudgetExceeded.
    budget_exceeded: int = 0
    #: Swaps that served a coarser-parameter structure.
    degraded_rebuilds: int = 0
    #: Swaps that fell all the way back to the linear slow path.
    linear_fallbacks: int = 0
    #: Inserts absorbed by an in-place structure edit (no overlay entry).
    incremental_inserts: int = 0
    #: In-place edits rejected (budget/probe) and diverted to the overlay.
    incremental_rejects: int = 0
    #: Watermark-triggered rebuilds that reclaimed tombstones/garbage.
    compactions: int = 0


@dataclass(frozen=True)
class RebuildFailure:
    """Record of one rejected hot-swap (the old snapshot kept serving)."""

    error: str
    rules: int
    pending_updates: int


@dataclass
class _OverlayEntry:
    rule: Rule
    #: Priority expressed as position in the live rule order.
    position: int


class UpdatableClassifier:
    """First-match classification with insert/remove over any base
    :class:`PacketClassifier`."""

    def __init__(self, ruleset: RuleSet,
                 base_class: Type[PacketClassifier],
                 rebuild_threshold: int = 32,
                 spot_check_headers: int = 32,
                 budget: BuildBudget | None = None,
                 degrade: bool = True,
                 rebuild_retry_seconds: float | None = None,
                 clock: Callable[[], float] | None = None,
                 incremental: bool = False,
                 edit_budget: int = 4096,
                 compaction_watermark: float = 0.25,
                 **build_params) -> None:
        """``spot_check_headers`` caps the validate-then-swap equivalence
        check (0 disables it).

        ``budget`` bounds every (re)build; ``degrade`` enables the
        coarser-params → linear-slow-path chain when it is exceeded.
        With ``degrade=False`` a budget overrun is treated like any
        failed rebuild: rolled back, the old snapshot keeps serving.

        ``rebuild_retry_seconds`` arms a second, wall-clock retry
        trigger after a failed rebuild: the retry fires when pending
        updates grow past the failure point **or** once that interval
        elapses (checked on the next update or :meth:`poll`).  Without
        it, a low-write-rate deployment that failed one rebuild stays
        on the overlay slow path indefinitely.  ``clock`` is injectable
        for deterministic tests (like :class:`~repro.core.budget.BuildBudget`).

        ``incremental=True`` lets inserts edit the base structure in
        place when it supports ``insert_rule`` (the cutting trees):
        copy-on-write node-local re-cuts bounded by ``edit_budget``
        appended nodes per edit, validate-then-swap at subtree
        granularity.  A rejected edit falls back to the overlay path
        transparently.  Tombstones and replaced-node garbage accumulate
        until either fraction crosses ``compaction_watermark``, which
        triggers the regular budget-guarded rebuild (the *compaction*)
        — degrading down the usual ladder when the budget trips, never
        blocking classification.
        """
        if rebuild_threshold < 1:
            raise ConfigurationError("rebuild_threshold must be >= 1")
        if spot_check_headers < 0:
            raise ConfigurationError("spot_check_headers must be non-negative")
        if rebuild_retry_seconds is not None and rebuild_retry_seconds < 0:
            raise ConfigurationError(
                "rebuild_retry_seconds must be non-negative")
        if edit_budget < 1:
            raise ConfigurationError("edit_budget must be >= 1")
        if not 0.0 < compaction_watermark <= 1.0:
            raise ConfigurationError(
                "compaction_watermark must be in (0, 1]")
        self.base_class = base_class
        self.build_params = build_params
        self.rebuild_threshold = rebuild_threshold
        self.spot_check_headers = spot_check_headers
        self.budget = budget
        self.degrade = degrade
        self.rebuild_retry_seconds = rebuild_retry_seconds
        self.incremental = incremental
        self.edit_budget = edit_budget
        self.compaction_watermark = compaction_watermark
        self._clock = clock or time.monotonic
        self.rules: list[Rule] = list(ruleset.rules)
        self.name = f"updatable({base_class.name})"
        self.stats = UpdateStats()
        self.failures: list[RebuildFailure] = []
        #: How the *serving* structure was obtained: ``None`` for a
        #: full-fidelity build, ``"params:..."`` for a coarser ladder
        #: step, ``"linear"`` for the slow-path fallback.
        self.degradation: str | None = None
        #: After a failed rebuild, retry only once pending grows past this.
        self._retry_after_pending: int | None = None
        #: ...or once the wall clock passes this (when the interval is set).
        self._retry_at: float | None = None
        self._rebuild()

    # -- structure maintenance ------------------------------------------------

    def _validate(self, snapshot: list[Rule], base: PacketClassifier) -> None:
        """Spot-check a candidate against the linear oracle; raises
        :class:`RebuildError` on the first disagreement."""
        if self.spot_check_headers > 0 and snapshot:
            oracle = RuleSet(snapshot, name="oracle")
            for rule in snapshot[:self.spot_check_headers]:
                header = tuple(iv.lo for iv in rule.intervals)
                got = base.classify(header)
                want = oracle.first_match(header)
                if got != want:
                    raise RebuildError(
                        f"candidate structure disagrees with the oracle at "
                        f"{header}: got {got}, oracle says {want}"
                    )

    def _build_and_validate(self) -> tuple[list[Rule], PacketClassifier, str | None]:
        """Build a candidate structure, degrading through the chain on
        budget exhaustion; raises rather than swapping on any problem.

        Returns ``(snapshot, base, degradation)``.  Each attempt gets a
        fresh budget meter (``BuildBudget`` is declarative, so a retry's
        deadline restarts); a :class:`BuildBudgetExceeded` from the last
        permitted attempt propagates when degradation is disabled or
        exhausted.
        """
        snapshot = list(self.rules)
        ruleset = RuleSet(snapshot, name="snapshot")
        attempts: list[tuple[dict, str | None]] = [(self.build_params, None)]
        if self.degrade and self.budget is not None:
            for step in DEGRADATION_LADDERS.get(self.base_class.name, ()):
                merged = {**self.build_params, **step}
                tag = "params:" + ",".join(
                    f"{k}={v}" for k, v in sorted(step.items()))
                attempts.append((merged, tag))
        scope = metrics_scope("builds")
        last_exc: BuildBudgetExceeded | None = None
        for params, tag in attempts:
            kwargs = dict(params)
            if self.budget is not None:
                kwargs["budget"] = self.budget
            try:
                base = self.base_class.build(ruleset, **kwargs)
            except BuildBudgetExceeded as exc:
                self.stats.budget_exceeded += 1
                scope.counter("budget_exceeded").inc()
                last_exc = exc
                continue
            self._validate(snapshot, base)
            if tag is not None:
                self.stats.degraded_rebuilds += 1
                scope.counter("degraded_rebuilds").inc()
                obs_warn(f"{self.name}: build budget exceeded "
                         f"({last_exc.limit}); serving coarser structure "
                         f"[{tag}]")
            return snapshot, base, tag
        if self.degrade and last_exc is not None:
            # End of the ladder: serve the linear slow path over the live
            # rules.  It is the oracle itself, so no spot check is needed,
            # and npsim charges its modelled per-rule scan cycles.
            from .linear import LinearSearchClassifier

            base = LinearSearchClassifier(ruleset)
            self.stats.linear_fallbacks += 1
            scope.counter("linear_fallbacks").inc()
            obs_warn(f"{self.name}: build budget exceeded on every ladder "
                     f"step ({last_exc.limit}); serving linear slow path")
            return snapshot, base, "linear"
        if last_exc is not None:
            raise last_exc
        raise AssertionError("unreachable: no build attempt ran")

    def _rebuild(self) -> bool:
        """Atomic validate-then-swap; returns False on a rolled-back
        rebuild (the previous snapshot keeps serving)."""
        try:
            snapshot, base, degradation = self._build_and_validate()
        except Exception as exc:
            if not hasattr(self, "base"):
                # No snapshot to fall back to: the initial build must work.
                raise
            self.stats.failed_rebuilds += 1
            self.failures.append(RebuildFailure(
                error=repr(exc), rules=len(self.rules),
                pending_updates=self.pending_updates,
            ))
            self._retry_after_pending = self.pending_updates
            if self.rebuild_retry_seconds is not None:
                self._retry_at = self._clock() + self.rebuild_retry_seconds
            return False
        # Swap: all serving state replaced in one step.
        self._snapshot = snapshot
        self.base = base
        self.degradation = degradation
        # snapshot index -> current index (None once deleted).
        self._snapshot_to_current: list[int | None] = list(range(len(snapshot)))
        self._overlay: list[_OverlayEntry] = []
        self._tombstones = 0
        self._retry_after_pending = None
        self._retry_at = None
        self.stats.rebuilds += 1
        return True

    def _maybe_rebuild(self) -> None:
        pending = len(self._overlay) + self._tombstones
        if pending < self.rebuild_threshold:
            return
        if (self._retry_after_pending is not None
                and pending <= self._retry_after_pending
                and not self._retry_interval_elapsed()):
            return  # back off until more updates land or the clock says go
        self._rebuild()

    def _retry_interval_elapsed(self) -> bool:
        return self._retry_at is not None and self._clock() >= self._retry_at

    def poll(self) -> bool:
        """Health tick: run any rebuild the backoff rules now permit.

        Updates trigger :meth:`_maybe_rebuild` themselves, but a
        deployment whose write rate dropped to zero after a failed
        rebuild would otherwise never retry — the wall-clock trigger
        needs *something* to observe the clock.  Serving layers call
        this periodically.  Returns True when a rebuild was attempted.
        """
        pending = self.pending_updates
        if pending < self.rebuild_threshold:
            return False
        if (self._retry_after_pending is not None
                and pending <= self._retry_after_pending
                and not self._retry_interval_elapsed()):
            return False
        self._rebuild()
        return True

    @property
    def pending_updates(self) -> int:
        """Updates absorbed since the last rebuild (overlay + tombstones)."""
        return len(self._overlay) + self._tombstones

    def _garbage_fraction(self) -> float:
        fraction = getattr(self.base, "garbage_fraction", None)
        return fraction() if callable(fraction) else 0.0

    def _maybe_compact(self) -> None:
        """Watermark check after an in-place edit or a remove: compact
        (full budget-guarded rebuild) once tombstones or replaced-node
        garbage cross ``compaction_watermark``."""
        if not self.incremental:
            return
        tombstone_fraction = self._tombstones / max(len(self._snapshot), 1)
        if (tombstone_fraction < self.compaction_watermark
                and self._garbage_fraction() < self.compaction_watermark):
            return
        if (self._retry_after_pending is not None
                and not self._retry_interval_elapsed()
                and self.pending_updates <= self._retry_after_pending):
            return  # a recent rebuild failed: honour its backoff
        if self._rebuild():
            self.stats.compactions += 1

    def __len__(self) -> int:
        return len(self.rules)

    # -- updates ---------------------------------------------------------------

    def insert(self, rule: Rule, position: int | None = None) -> int:
        """Insert ``rule`` at priority ``position`` (default: lowest).

        Returns the position actually used.
        """
        if position is None:
            position = len(self.rules)
        if not 0 <= position <= len(self.rules):
            raise UpdateError(f"position {position} out of range")
        self.rules.insert(position, rule)
        # Every live reference at or after the slot shifts down one.
        for idx, current in enumerate(self._snapshot_to_current):
            if current is not None and current >= position:
                self._snapshot_to_current[idx] = current + 1
        for entry in self._overlay:
            if entry.position >= position:
                entry.position += 1
        if self._insert_incremental(rule, position):
            self.stats.inserts += 1
            self._maybe_compact()
            return position
        self._overlay.append(_OverlayEntry(rule, position))
        self.stats.inserts += 1
        self._maybe_rebuild()
        return position

    def _insert_incremental(self, rule: Rule, position: int) -> bool:
        """Absorb an insert by editing the base structure in place.

        The rule is appended to the serving snapshot (the base
        classifier's ruleset wraps the same list, so the new id resolves
        there) and handed to the structure's ``insert_rule`` with a
        priority comparison derived from the snapshot→current mapping.
        Returns False — diverting to the overlay path — when incremental
        mode is off, the base cannot edit (linear fallback), or the edit
        was rejected (budget/probe).
        """
        if not self.incremental:
            return False
        insert_rule = getattr(self.base, "insert_rule", None)
        if insert_rule is None:
            return False
        new_id = len(self._snapshot)
        self._snapshot.append(rule)
        self._snapshot_to_current.append(position)

        def precedes(existing_id: int) -> bool:
            current = self._snapshot_to_current[existing_id]
            # A tombstoned winner must KEEP its leaf: the tombstone is
            # what routes lookups to the exact slow path, which may owe
            # the answer to *other* live rules the leaf no longer sees.
            # Replacing it with the new rule would mask them.
            return current is not None and position < current

        try:
            insert_rule(new_id, precedes, edit_budget=self.edit_budget)
        except IncrementalUpdateError:
            self._snapshot.pop()
            self._snapshot_to_current.pop()
            self.stats.incremental_rejects += 1
            return False
        self.stats.incremental_inserts += 1
        return True

    def remove(self, position: int) -> Rule:
        """Remove the rule at priority ``position``; returns it."""
        if not 0 <= position < len(self.rules):
            raise UpdateError(f"position {position} out of range")
        removed = self.rules.pop(position)
        kept_overlay = []
        dropped_from_overlay = False
        for entry in self._overlay:
            if entry.position == position and not dropped_from_overlay:
                dropped_from_overlay = True
                continue
            if entry.position > position:
                entry.position -= 1
            kept_overlay.append(entry)
        self._overlay = kept_overlay
        if not dropped_from_overlay:
            # The victim lives in the base snapshot: tombstone it.
            for idx, current in enumerate(self._snapshot_to_current):
                if current == position:
                    self._snapshot_to_current[idx] = None
                    self._tombstones += 1
                    break
        for idx, current in enumerate(self._snapshot_to_current):
            if current is not None and current > position:
                self._snapshot_to_current[idx] = current - 1
        self.stats.removes += 1
        if self.incremental:
            self._maybe_compact()
        else:
            self._maybe_rebuild()
        return removed

    def rebuild(self) -> bool:
        """Force the hot-swap rebuild immediately.

        Returns False when the rebuild was rejected and rolled back (the
        failure is recorded in ``failures``).
        """
        return self._rebuild()

    # -- lookup -----------------------------------------------------------------

    def classify(self, header: Sequence[int], trace=None) -> int | None:
        """Index of the first matching rule in the *current* rule order.

        ``trace`` (a :class:`repro.obs.trace.DecisionTrace`) records the
        wrapped structure's walk plus overlay/fallback annotations; the
        returned rule is unchanged.
        """
        best: int | None = None
        for entry in self._overlay:
            if entry.rule.matches(header):
                if best is None or entry.position < best:
                    best = entry.position
        if trace is not None and self._overlay:
            trace.note(overlay_entries=len(self._overlay), overlay_best=best)
        try:
            base_hit = (self.base.classify(header, trace=trace)
                        if trace is not None else self.base.classify(header))
        except (ReproError, LookupError):
            # Depth watchdog / corrupted structure: the base walked past
            # its explicit bound.  Answer exactly from the live rule list.
            self.stats.watchdog_fallbacks += 1
            self.stats.slow_path_lookups += 1
            result = RuleSet(self.rules).first_match(header)
            if trace is not None:
                trace.note(fallback="watchdog_linear_scan")
                trace.finish(result)
            return result
        if base_hit is not None:
            current = self._snapshot_to_current[base_hit]
            if current is None:
                # Tombstoned winner: the base cannot reveal its runner-up,
                # so answer from the live rule list, overlay rules included
                # (exact, amortised away by the rebuild threshold).
                self.stats.slow_path_lookups += 1
                result = RuleSet(self.rules).first_match(header)
                if trace is not None:
                    trace.note(fallback="tombstone_linear_scan")
                    trace.finish(result)
                return result
            if best is None or current < best:
                self.stats.base_hits += 1
                if trace is not None:
                    trace.finish(current)
                return current
        if best is not None:
            self.stats.overlay_hits += 1
        if trace is not None:
            trace.finish(best)
        return best

    def classify_many(self, headers: Sequence[Sequence[int]]
                      ) -> list[int | None]:
        """:meth:`classify` for each header, answered from one
        ``base.classify_many`` call.

        Answers and :class:`UpdateStats` are those of the per-header
        loop, which still serves every header while the overlay holds
        rules or when the base raises (the depth watchdog), and serves a
        header whose base winner is tombstoned.
        """
        if self._overlay:
            return [self.classify(header) for header in headers]
        try:
            hits = self.base.classify_many(headers)
        except (ReproError, LookupError):
            return [self.classify(header) for header in headers]
        mapping = self._snapshot_to_current
        answers = [None if hit is None else mapping[hit] for hit in hits]
        base_hits = len(hits) - hits.count(None)
        # A hit that maps to None is a tombstoned winner.
        if base_hits != len(answers) - answers.count(None):
            for i, hit in enumerate(hits):
                if hit is not None and answers[i] is None:
                    base_hits -= 1
                    answers[i] = self.classify(headers[i])
        self.stats.base_hits += base_hits
        return answers

    def current_ruleset(self) -> RuleSet:
        """The live rule list as a RuleSet (the oracle's view)."""
        return RuleSet(list(self.rules), name="live")

    # -- npsim delegation --------------------------------------------------------
    # The simulator sees whatever structure is actually serving, so a
    # budget-degraded swap (coarser tree, or the linear slow path) is
    # automatically charged its modelled memory accesses and cycles.

    def access_trace(self, header: Sequence[int]):
        return self.base.access_trace(header)

    def memory_regions(self) -> list[MemoryRegion]:
        return self.base.memory_regions()

    def memory_words(self) -> int:
        return self.base.memory_words()

    def worst_case_accesses(self) -> int:
        return self.base.worst_case_accesses()
