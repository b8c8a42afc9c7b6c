"""Sharded, crash-tolerant multi-process serving fabric.

The single-process :class:`~repro.serve.service.ClassificationService`
survives hostile *load*; this module survives hostile *processes*.  The
ruleset is range-partitioned on the source-IP dimension into shards,
each served by a supervised worker process
(:mod:`repro.serve.transport`, :mod:`repro.serve.supervisor`) that is
expendable by design: SIGKILL any worker at any instant and the fabric
sheds that shard's traffic with a typed reason while supervision
restarts it warm from its content-verified snapshot.

**Routing is correctness-preserving.**  Shard ``i`` owns the dim-0
value range ``[start_i, end_i]`` and receives every rule whose dim-0
interval *overlaps* that range (wildcard rules replicate to all
shards).  A header routes by its dim-0 value, and any rule matching the
header necessarily contains that value, hence overlaps the routed
shard's range, hence lives on that shard — so the shard-local first
match (mapped through the shard's ``global_map``) *is* the global first
match.  The in-lock linear-oracle audit re-proves this on live traffic.

Routing by source address is also the fabric's **flow affinity**: every
packet of a flow carries the same source IP, so a flow always lands on
the same worker and observes monotone rule-version history even while
other shards restart.

Failure handling lifts the service's machinery to fabric level:

- admission (in-flight bound + token bucket + drain/stop) through the
  :class:`~repro.serve.admission.ServingFrame` the service shares,
  counted under ``fabric.*``;
- a per-shard :class:`~repro.serve.breaker.CircuitBreaker` — a dead or
  restarting shard *sheds* (:class:`~repro.core.errors.ShardUnavailable`,
  reason ``shard_down``) and trips its breaker instead of blocking the
  caller behind the restart;
- supervision restarts with exponential backoff under a crash-loop
  budget; a corrupt snapshot is quarantined, rebuilt cold, and the
  fabric builds and re-publishes a healthy snapshot.

**Live rule updates** propagate with epoch consistency
(:meth:`Fabric.apply_updates`): each update batch bumps a fabric-wide
monotonic epoch, is translated into shard-local edits, applied to each
shard's global map in the parent, persisted as a chained delta record
next to each shard's snapshot (:mod:`repro.harness.snapshots`), and
fanned to the workers over the existing pipes.  The parent keeps no
classifier: a shard's base is built only when it is published.
Workers apply batches strictly in epoch order (duplicates drop, gaps
buffer), report their applied epoch on every pong and classify result,
and answers are oracle-audited against exactly the rule version they
were served at — a lagging worker is *stale*, never *wrong*.  A
restarted worker replays base + deltas before rejoining; a worker
lagging beyond the retained op history is reseeded and recycled.  Anti-entropy (:meth:`Fabric.pump_updates`, run
from :meth:`Fabric.tick`) re-sends missed epochs, so lost, duplicated
or reordered update messages delay convergence but never corrupt it.

Deliberate non-goals (see ``docs/serving.md``): the fabric does not do
deadlines or retries — those belong to the caller-facing service
layer.  A down shard never blocks: the caller retries after
supervision recovers it.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..classifiers import LinearSearchClassifier
from ..core.errors import (
    ConfigurationError,
    ShardUnavailable,
    UpdateError,
)
from ..core.fields import FIELD_WIDTHS
from ..core.rule import Rule, RuleSet
from ..npsim.faults import UPDATE_FAULT_KINDS
from ..obs.span import StageTimer
from .admission import ServingFrame
from .breaker import CircuitBreaker
from .policy import ServicePolicy
from .supervisor import DOWN_PHASES, RUNNING, SupervisionPolicy, Supervisor
from .transport import (
    SHARD_DELTA_KIND,
    ShardSpec,
    apply_map_op,
    pack_rows,
    write_shard_snapshot,
)


#: Every ``shed_phase.*`` a shard shed is counted under.
SHED_PHASES = ("breaker_open", "restarting", "parked", "down", "mid_request")
#: Delta-chain length at which a shard's base is republished at the
#: current epoch and its chain reset.
COMPACT_EVERY = 64


@dataclass(frozen=True)
class ShardPlan:
    """Range partition of a ruleset over one header dimension.

    ``bounds[i]`` is shard ``i``'s closed value range on ``dim`` and
    ``assignments[i]`` the global indices of the rules whose ``dim``
    interval overlaps it, in global priority order.
    """

    dim: int
    bounds: tuple[tuple[int, int], ...]
    assignments: tuple[tuple[int, ...], ...]
    #: Each shard's first ``dim`` value, for :meth:`route`.
    starts: tuple[int, ...] = field(init=False, repr=False, compare=False)
    #: :attr:`starts` as one uint32 array, for :meth:`route_rows`.
    _start_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        starts = tuple(lo for lo, _ in self.bounds)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "_start_array",
                           np.array(starts, dtype=np.uint32))

    @classmethod
    def build(cls, rules: Sequence[Rule], num_shards: int,
              dim: int = 0) -> "ShardPlan":
        if num_shards < 1:
            raise ConfigurationError("num_shards must be >= 1")
        if not 0 <= dim < len(FIELD_WIDTHS):
            raise ConfigurationError(f"no header dimension {dim}")
        span = 1 << FIELD_WIDTHS[dim]
        if num_shards > span:
            raise ConfigurationError(
                f"cannot cut a {FIELD_WIDTHS[dim]}-bit dimension "
                f"into {num_shards} shards")
        width = span // num_shards
        bounds = []
        for i in range(num_shards):
            lo = i * width
            hi = span - 1 if i == num_shards - 1 else (i + 1) * width - 1
            bounds.append((lo, hi))
        assignments: list[tuple[int, ...]] = []
        for lo, hi in bounds:
            picked = tuple(
                idx for idx, rule in enumerate(rules)
                if rule.intervals[dim].lo <= hi and rule.intervals[dim].hi >= lo
            )
            assignments.append(picked)
        return cls(dim, tuple(bounds), tuple(assignments))

    @property
    def num_shards(self) -> int:
        return len(self.bounds)

    def route(self, header: Sequence[int]) -> int:
        """The shard owning ``header`` (by its ``dim`` value)."""
        return bisect_right(self.starts, header[self.dim]) - 1

    def route_rows(self, rows: np.ndarray) -> np.ndarray:
        """The owning shard of every row of an ``(n, 5)`` uint32 block,
        in one search over the shard starts."""
        return np.searchsorted(self._start_array, rows[:, self.dim],
                               side="right") - 1

    def replication_factor(self) -> float:
        """Mean copies per rule (1.0 = perfect cut, N = all wildcards)."""
        total_rules = max(1, len({i for a in self.assignments for i in a}))
        return sum(len(a) for a in self.assignments) / total_rules


class Fabric(ServingFrame):
    """Front a ruleset with supervised, sharded worker processes.

    Thread-safe under the same single-lock discipline as the service:
    the admission gate's lock serialises routing, breaker updates,
    supervision and the oracle audit.  Construction builds each shard's
    structure once, publishes it as a verified snapshot (so worker
    starts — including every restart — are warm), then spawns the
    workers.
    """

    SCOPE = "fabric"

    def __init__(self, rules: Sequence[Rule], snapshot_dir,
                 num_shards: int = 3,
                 policy: ServicePolicy | None = None,
                 supervision: SupervisionPolicy | None = None,
                 clock: Callable[[], float] | None = None,
                 charge: Callable[[float], None] | None = None,
                 lookup_cost_s: float = 0.0,
                 stage_timer: StageTimer | None = None,
                 epoch_history: int = 1024) -> None:
        """Every shard serves an incremental ExpCuts build with default
        parameters.  ``epoch_history`` bounds how many past epochs of
        linear oracles and per-shard op batches are retained (for
        settled-epoch audits and anti-entropy re-sends — a worker
        lagging further is reseeded and recycled)."""
        if epoch_history < 1:
            raise ConfigurationError("epoch_history must be >= 1")
        super().__init__(policy, clock, stage_timer)
        self._charge = charge
        self._lookup_cost_s = lookup_cost_s
        self.rules = list(rules)
        self.plan = ShardPlan.build(self.rules, num_shards)
        fabric = self._scope
        self._epoch_lag = fabric.bind("epoch_lag", "log_histogram")
        self._shed_shard_down = fabric.bind("shed.shard_down")
        self._shed_phases = {phase: fabric.bind(f"shed_phase.{phase}")
                             for phase in SHED_PHASES}
        self._oracle_unauditable = fabric.bind("oracle.unauditable")

        snapshot_dir = Path(snapshot_dir)
        snapshot_dir.mkdir(parents=True, exist_ok=True)
        #: Fabric-wide monotonic update epoch (0 = the built base).
        self.epoch = 0
        self._epoch_history_limit = epoch_history
        #: Linear oracle per retained epoch (the current one included),
        #: for settled-epoch audits of answers served by lagging workers.
        #: Each epoch's is derived from the one before (see
        #: :meth:`_apply_updates_locked`).
        self._oracles: dict[int, LinearSearchClassifier] = {
            0: LinearSearchClassifier(RuleSet(list(self.rules),
                                              name="oracle@0"))}
        #: Epochs whose oracle may hold a candidate index (see
        #: :meth:`_evaluate`).
        self._indexed: set[int] = set()
        #: Per-shard retained op batches, for anti-entropy re-sends.
        self._shard_ops_history: dict[str, dict[int, tuple]] = {}
        #: Per-shard delta-chain cursor: base/prev payload hashes and
        #: the live delta paths (swept on compaction).
        self._delta_chain: dict[str, dict] = {}
        #: Armed control-plane faults (see :meth:`inject_update_fault`).
        self._armed_update_faults: dict[str, list[str]] = {}
        #: Updates held back by an armed ``reorder_update``.
        self._held_updates: dict[str, list[tuple[int, tuple]]] = {}
        self.specs: list[ShardSpec] = []
        #: Per-shard global map: the global index of each shard rule.
        self._shard_map: dict[str, list[int]] = {}
        self.breakers: dict[str, CircuitBreaker] = {}
        for i, assignment in enumerate(self.plan.assignments):
            name = f"shard{i}"
            spec = ShardSpec(
                name=name,
                rules=tuple(self.rules[g] for g in assignment),
                global_map=tuple(assignment),
                snapshot_path=str(snapshot_dir / f"{name}.snap"),
                incremental=True,
            )
            self.specs.append(spec)
            self._shard_map[name] = list(assignment)
            self._shard_ops_history[name] = {}
            self._publish_shard(name)
            self.breakers[name] = CircuitBreaker(self.policy,
                                                 clock=self._clock, name=name)
        self.supervisor = Supervisor(
            self.specs,
            policy=supervision,
            clock=self._clock,
            charge=charge,
            metrics=self._scope,
            reseed_snapshot=self._reseed_shard,
            stage_timer=self.stages,
        )
        self.supervisor.start()

    # -- snapshot publication ----------------------------------------------

    def _publish_shard(self, name: str) -> None:
        """Build the shard's structure and publish it as its snapshot.

        The spec is refreshed to the fabric's current rules and epoch
        first, so the published image and any future cold build agree
        on what epoch they represent.  The parent keeps no built
        structure: the base is written and dropped.  The republished
        base starts a fresh delta chain, and deltas of the previous base
        (now unreplayable) are swept.
        """
        spec = self._refresh_spec(name)
        header = write_shard_snapshot(Path(spec.snapshot_path), spec,
                                      spec.build_base())
        self._sweep_deltas(name)
        self._delta_chain[name] = {
            "base_sha": header.sha256, "prev_sha": header.sha256,
            "paths": [],
        }

    def _refresh_spec(self, name: str) -> ShardSpec:
        """Re-derive one shard's spec from the parent's live state
        (current rules, global map, epoch) and install it everywhere a
        future worker start would read it."""
        index = next(i for i, s in enumerate(self.specs) if s.name == name)
        global_map = self._shard_map[name]
        spec = dataclasses.replace(
            self.specs[index],
            rules=tuple(self.rules[g] for g in global_map),
            global_map=tuple(global_map),
            epoch=self.epoch,
        )
        self.specs[index] = spec
        supervisor = getattr(self, "supervisor", None)
        if supervisor is not None:
            supervisor.refresh_spec(name, spec)
        return spec

    def _sweep_deltas(self, name: str) -> None:
        """Delete the delta files of a shard's superseded base."""
        state = self._delta_chain.get(name)
        stale = list(state["paths"]) if state else []
        if not stale:
            # No cursor yet (first publish): sweep by glob so a reused
            # snapshot directory cannot leak another run's records.
            path = Path(self._spec(name).snapshot_path)
            stale = sorted(path.parent.glob(f"{path.name}.*.delta"))
        for old in stale:
            try:
                Path(old).unlink()
            except OSError:
                pass

    def _spec(self, name: str) -> ShardSpec:
        return next(s for s in self.specs if s.name == name)

    def _reseed_shard(self, spec: ShardSpec) -> None:
        """Supervision callback after a corrupt-snapshot cold start."""
        self._publish_shard(spec.name)
        self._scope.counter("snapshot_reseeds").inc()

    # -- live rule updates -------------------------------------------------

    def apply_updates(self, ops: Sequence[tuple]) -> int:
        """Apply one batch of global rule edits as a new update epoch.

        ``ops`` is an ordered sequence of ``("insert", position, rule)``
        / ``("remove", position)`` against the evolving global rule
        list.  The batch is atomic from the fabric's point of view: it is
        validated whole first (a rejected batch changes nothing), then
        the global list, the oracle history, every shard's global map,
        the persisted delta chain and the fan-out all advance to the
        same new epoch under the request lock.  Returns that epoch.

        Workers converge asynchronously — a request served meanwhile is
        audited against the epoch its worker had applied, and
        :meth:`pump_updates` (run from :meth:`tick`) re-sends anything
        lost on the way.
        """
        with self._lock:
            return self._apply_updates_locked(ops)

    def _apply_updates_locked(self, ops: Sequence[tuple]) -> int:
        size = len(self.rules)
        for op in ops:
            if not op or op[0] not in ("insert", "remove"):
                raise UpdateError(f"unknown update op {op!r}")
            last = size if op[0] == "insert" else size - 1
            if not 0 <= op[1] <= last:
                raise UpdateError(f"position {op[1]} out of range")
            size += 1 if op[0] == "insert" else -1
        epoch = self.epoch + 1
        # The new epoch's oracle is the previous one plus this batch's
        # edits: no rule is re-read.
        oracle = self._oracles[self.epoch].copy(name=f"oracle@{epoch}")
        shard_ops: dict[str, list[tuple]] = {s.name: [] for s in self.specs}
        for op in ops:
            if op[0] == "insert":
                _, position, rule = op
                self.rules.insert(position, rule)
                oracle.insert(rule, position)
                interval = rule.intervals[self.plan.dim]
                for i, spec in enumerate(self.specs):
                    lo, hi = self.plan.bounds[i]
                    gmap = self._shard_map[spec.name]
                    if interval.lo <= hi and interval.hi >= lo:
                        local = bisect_left(gmap, position)
                        shard_op = ("insert", local, rule, position)
                    else:
                        shard_op = ("shift", position, 1)
                    shard_ops[spec.name].append(shard_op)
                    apply_map_op(gmap, shard_op)
            else:
                _, position = op
                self.rules.pop(position)
                oracle.remove(position)
                for spec in self.specs:
                    gmap = self._shard_map[spec.name]
                    local = bisect_left(gmap, position)
                    if local < len(gmap) and gmap[local] == position:
                        shard_op = ("remove", local, position)
                    else:
                        shard_op = ("shift", position, -1)
                    shard_ops[spec.name].append(shard_op)
                    apply_map_op(gmap, shard_op)
        # Every view advanced together: commit the epoch, persist and fan
        # out.
        self.epoch = epoch
        self._oracles[epoch] = oracle
        while len(self._oracles) > self._epoch_history_limit:
            self._oracles.pop(next(iter(self._oracles)))
        for spec in self.specs:
            name = spec.name
            batch = tuple(shard_ops[name])
            history = self._shard_ops_history[name]
            history[epoch] = batch
            while len(history) > self._epoch_history_limit:
                history.pop(next(iter(history)))
            self._write_delta(spec, epoch, batch)
            self._send_update(name, epoch, batch)
            armed = self._armed_update_faults.get(name, [])
            if "crash_mid_compaction" in armed:
                armed.remove("crash_mid_compaction")
                self._compact_shard(name, crash=True)
            elif len(self._delta_chain[name]["paths"]) >= COMPACT_EVERY:
                self._compact_shard(name)
        self._scope.counter("updates_applied").inc(len(ops))
        self._scope.counter("epochs").inc()
        self._scope.gauge("epoch").set(epoch)
        return epoch

    def _write_delta(self, spec: ShardSpec, epoch: int, batch: tuple) -> None:
        """Persist one epoch's shard-local batch as a chained delta."""
        from ..harness.cache import CACHE_VERSION
        from ..harness.snapshots import delta_path, write_delta

        state = self._delta_chain[spec.name]
        path = delta_path(Path(spec.snapshot_path), epoch)
        header = write_delta(path, list(batch), kind=SHARD_DELTA_KIND,
                             cache_version=CACHE_VERSION, epoch=epoch,
                             base_sha=state["base_sha"],
                             prev_sha=state["prev_sha"])
        state["prev_sha"] = header.sha256
        state["paths"].append(path)
        armed = self._armed_update_faults.get(spec.name, [])
        if "corrupt_delta" in armed:
            armed.remove("corrupt_delta")
            raw = bytearray(path.read_bytes())
            raw[-1] ^= 0xFF
            path.write_bytes(bytes(raw))
            self._scope.counter("update_faults.corrupt_delta").inc()

    def _send_update(self, shard: str, epoch: int, batch: tuple) -> None:
        """Fan one epoch to one worker, applying any armed send fault."""
        armed = self._armed_update_faults.get(shard, [])
        fault = next((k for k in ("lose_update", "dup_update",
                                  "reorder_update") if k in armed), None)
        if fault is not None:
            armed.remove(fault)
            self._scope.counter(f"update_faults.{fault}").inc()
        if fault == "lose_update":
            return
        if fault == "reorder_update":
            self._held_updates.setdefault(shard, []).append((epoch, batch))
            return
        sends = [(epoch, batch)]
        if fault == "dup_update":
            sends.append((epoch, batch))
        # A held (reordered) epoch rides out *after* this newer one, so
        # the worker sees them out of order and must buffer the gap.
        sends.extend(self._held_updates.pop(shard, ()))
        for send_epoch, send_batch in sends:
            self.supervisor.send_update(shard, send_epoch, list(send_batch))

    def _compact_shard(self, name: str, crash: bool = False) -> None:
        """Republish the shard's base at the current epoch and reset its
        delta chain (the persistence analogue of the classifier-level
        compaction).  ``crash=True`` is the chaos hook: the new base is
        published but the worker is killed before the stale deltas are
        swept — the restart must reject them by base-hash mismatch."""
        self._publish_shard(name)
        self._scope.counter("delta_compactions").inc()
        if crash:
            self._scope.counter("update_faults.crash_mid_compaction").inc()
            self.supervisor.recycle(name, "crash_mid_compaction")

    def inject_update_fault(self, shard: str, kind: str) -> None:
        """Arm one control-plane fault against ``shard``'s next update
        activity (chaos hook; see
        :data:`repro.npsim.faults.UPDATE_FAULT_KINDS`)."""
        if kind not in UPDATE_FAULT_KINDS:
            raise ConfigurationError(f"unknown update fault kind {kind!r}")
        if shard not in self._shard_map:
            raise ConfigurationError(f"unknown shard {shard!r}")
        self._armed_update_faults.setdefault(shard, []).append(kind)

    def pump_updates(self, now: float | None = None) -> None:
        """Anti-entropy: re-send missed epochs to lagging workers.

        Runs under the caller's lock (from :meth:`tick`).  A worker
        whose applied epoch fell behind the retained op history cannot
        be repaired over the pipe: its shard is compacted (base
        republished at the current epoch) and the worker recycled so it
        restarts warm on the fresh base.
        """
        for spec in self.specs:
            name = spec.name
            handle = self.supervisor.handles[name]
            if handle.state != RUNNING or handle.applied_epoch >= self.epoch:
                continue
            history = self._shard_ops_history[name]
            missing = range(handle.applied_epoch + 1, self.epoch + 1)
            if all(e in history for e in missing):
                for e in missing:
                    if not self.supervisor.send_update(name, e,
                                                       list(history[e]), now):
                        break
                self._scope.counter("update_repairs").inc()
            else:
                self._compact_shard(name)
                self.supervisor.recycle(name, "stale_epoch", now)
                self._scope.counter("stale_recycles").inc()

    def max_epoch_lag(self) -> int:
        """Worst staleness across running workers, in epochs."""
        lags = [self.epoch - h.applied_epoch
                for h in self.supervisor.handles.values()
                if h.state == RUNNING]
        return max(lags, default=0)

    def settle(self, now: float | None = None) -> dict:
        """Drain update state: compact every shard with a live delta
        chain, then pump lagging workers.  Returns the post-settle
        ``epoch`` and ``max_epoch_lag`` (the update-storm soak's drain
        bar)."""
        with self._lock:
            for spec in self.specs:
                if self._delta_chain[spec.name]["paths"]:
                    self._compact_shard(spec.name)
            self.pump_updates(now)
            return {"epoch": self.epoch,
                    "max_epoch_lag": self.max_epoch_lag()}

    # -- the request path --------------------------------------------------

    def classify(self, header: Sequence[int]) -> int | None:
        """Global first-match rule index for ``header``.

        Sheds with :class:`~repro.core.errors.AdmissionRejected`
        subclasses; :class:`ShardUnavailable` (reason ``shard_down``)
        when the owning shard is dead, restarting, parked, or its
        breaker is open.  Any answer returned was produced by the owning
        worker and (policy permitting) audited against the full-ruleset
        linear oracle in-lock.  The header travels as a one-row burst
        through the same shard path as :meth:`classify_batch`.
        """
        with self._lock:
            with self.stages.span("admission"):
                self._gate.admit()
            try:
                shard = self.specs[self.plan.route(header)].name
                answers, elapsed = self._serve_shard(
                    shard, pack_rows((header,)), slice(None), {})
                self._latency_us.observe(elapsed * 1e6)
            finally:
                self._gate.release()
        answer = int(answers[0])
        return None if answer < 0 else answer

    def classify_batch(self, headers: Sequence[Sequence[int]]) -> list[dict]:
        """Classify a batch, grouping headers per shard (one pipe round
        trip per shard instead of per header).

        The burst is packed once into an ``(n, 5)`` uint32 block, admitted
        in one gate call and routed with one vectorised search; each
        shard's rows travel to its worker and through the audit as one
        block.  Never raises per-header conditions; returns one outcome
        dict per header, in order: ``{"status": "served", "rule":
        idx|None}`` or ``{"status": "shed", "reason": ..., "shard": ...}``.
        """
        n = len(headers)
        outcomes: list = [None] * n
        with self._lock:
            decisions = self._gate.admit_burst(n)
            admitted = decisions.count(None)
            try:
                index = None
                if admitted < n:
                    index = np.flatnonzero([d is None for d in decisions])
                    for pos, reason in enumerate(decisions):
                        if reason is not None:
                            outcomes[pos] = {"status": "shed",
                                             "reason": reason}
                if admitted:
                    rows = pack_rows(headers)
                    self._serve_burst(rows if index is None else rows[index],
                                      index, outcomes)
            finally:
                self._gate.release_many(admitted)
        return outcomes

    def _serve_burst(self, rows: np.ndarray, index: np.ndarray | None,
                     outcomes: list) -> None:
        """Serve the admitted rows of one burst (``index`` maps them to
        burst positions; ``None`` when all were admitted), shard by
        shard in the order each shard first appears, filling
        ``outcomes`` in place.  The shard groups share one audit memo,
        so the oracle reads the burst once per epoch (see
        :meth:`_audit`)."""
        owner = self.plan.route_rows(rows)
        groups = [(np.flatnonzero(owner == i), i)
                  for i in range(self.plan.num_shards)]
        groups = sorted((g for g in groups if len(g[0])),
                        key=lambda g: g[0][0])
        expected: dict[int, np.ndarray] = {}
        for picked, i in groups:
            shard = self.specs[i].name
            positions = (picked if index is None else index[picked]).tolist()
            try:
                answers, _ = self._serve_shard(shard, rows, picked, expected)
            except ShardUnavailable as exc:
                for pos in positions:
                    outcomes[pos] = {"status": "shed",
                                     "reason": "shard_down",
                                     "shard": shard, "phase": exc.phase}
                continue
            for pos, answer in zip(positions, answers.tolist()):
                outcomes[pos] = {"status": "served",
                                 "rule": None if answer < 0 else answer}

    def _serve_shard(self, shard: str, block: np.ndarray,
                     picked: np.ndarray | slice,
                     expected: dict[int, np.ndarray]
                     ) -> tuple[np.ndarray, float]:
        """One shard's rows ``block[picked]``, under the request lock:
        breaker and supervisor checks, one pipe round trip, the modelled
        lookup charge, the breaker record and the audit (``block`` and
        ``expected`` are the burst's, see :meth:`_audit`).

        Returns the answers (``-1`` = no match) and the elapsed time the
        breaker saw; raises :class:`ShardUnavailable`, already counted,
        when the shard cannot serve.
        """
        rows = block[picked]
        n = len(rows)
        breaker = self.breakers[shard]
        now = self._clock()
        if not breaker.allow():
            self._shed_shard(shard, "breaker_open", n)
        state = self.supervisor.state(shard)
        if state != RUNNING:
            # Dead/restarting/parked: shed and tell the breaker, so a
            # long outage opens the circuit and later requests shed at
            # the breaker without even poking the supervisor.
            breaker.record_failure(0.0)
            self._shed_shard(shard, DOWN_PHASES.get(state, "down"), n)
        try:
            with self.stages.span("transport"):
                answers = np.asarray(self.supervisor.request(shard, rows,
                                                             now))
        except ShardUnavailable:
            breaker.record_failure(self._clock() - now)
            self._shed_shard_down.inc(n)
            self._shed_phases["mid_request"].inc(n)
            raise
        cost = self._lookup_cost_s * n
        if self._charge is not None and cost > 0:
            # The modelled lookup cost is the classify stage; the pipe
            # round trip above is transport (real time, so it reads as
            # zero on a simulated clock — by design).
            with self.stages.span("classify"):
                self._charge(cost)
        elapsed = max(self._clock() - now, cost)
        breaker.record_success(elapsed)
        applied = self.supervisor.handles[shard].applied_epoch
        self._epoch_lag.observe(max(0, self.epoch - applied))
        with self.stages.span("audit"):
            self._audit(block, picked, answers, applied, expected)
        self._served.inc(n)
        return answers, elapsed

    def _shed_shard(self, shard: str, phase: str, n: int) -> None:
        self._shed_shard_down.inc(n)
        self._shed_phases[phase].inc(n)
        raise ShardUnavailable(shard, phase)

    def _audit(self, block: np.ndarray, picked: np.ndarray | slice,
               answers: np.ndarray, applied_epoch: int,
               expected: dict[int, np.ndarray]) -> None:
        """In-lock differential check of one shard's answers (for rows
        ``block[picked]``) against the oracle *at the epoch the answering
        worker had applied* — a lagging worker's answer is correct for
        the rule version it served, so auditing it against a newer
        ruleset would flag staleness as wrongness.  An epoch evicted from
        history cannot be audited and each of its answers is counted
        instead.

        ``expected`` holds the oracle's answers for the whole burst
        ``block``: the first audited group of a burst evaluates every row
        at its epoch, and a later group at that epoch reads its rows from
        it.  A group at another epoch evaluates only its own rows.
        """
        if not self.policy.oracle_check:
            return
        oracle = self._oracles.get(applied_epoch)
        if oracle is None:
            self._oracle_unauditable.inc(len(answers))
            return
        self._oracle_checks.inc(len(answers))
        if not expected:
            expected[applied_epoch] = self._evaluate(oracle, applied_epoch,
                                                     block)
        if applied_epoch in expected:
            want = expected[applied_epoch][picked]
        else:
            want = self._evaluate(oracle, applied_epoch, block[picked])
        wrong = int(np.count_nonzero(want != answers))
        if wrong:
            self._oracle_divergences.inc(wrong)

    def _evaluate(self, oracle: LinearSearchClassifier, epoch: int,
                  rows: np.ndarray) -> np.ndarray:
        """The epoch's oracle answers for ``rows``.

        The oracle builds its candidate index on first use.  Only epochs
        that a running worker serves (as its last reply or pong told)
        may keep one: every evaluation first drops the index of every
        other epoch, so at most one index per running worker is alive.
        """
        serving = {handle.applied_epoch
                   for handle in self.supervisor.handles.values()
                   if handle.state == RUNNING}
        for stale in self._indexed - serving:
            if stale in self._oracles:
                self._oracles[stale].drop_index()
        self._indexed = (self._indexed & serving) | {epoch}
        return oracle.classify_batch(rows.T)

    # -- supervision passthrough -------------------------------------------

    def tick(self, now: float | None = None) -> None:
        """Periodic supervision pass (heartbeats due, restarts due),
        followed by update anti-entropy for lagging workers."""
        with self._lock:
            at = self._clock() if now is None else now
            self.supervisor.tick(at)
            self.pump_updates(at)

    def probe(self, shard: str, now: float | None = None) -> bool:
        """Immediately heartbeat one shard; returns liveness."""
        with self._lock:
            return self.supervisor.probe(shard, now)

    # -- lifecycle and reporting --------------------------------------------

    def _final_state(self, drained: bool) -> dict:
        # Stop the workers first: supervisor.stop() sets
        # fabric.shards_available, which the metrics snapshot records.
        workers = self.supervisor.stop()
        state = self._stopped_state(self.rules, drained)
        state["workers"] = workers
        state["supervision"] = self.supervisor.report()
        return state

    def report(self) -> dict:
        """JSON-friendly view: metrics, breakers, supervision, plan."""
        with self._lock:
            return {
                "metrics": self.metrics.snapshot(),
                "updates": {
                    "epoch": self.epoch,
                    "max_epoch_lag": self.max_epoch_lag(),
                    "applied_epochs": {
                        name: handle.applied_epoch
                        for name, handle in self.supervisor.handles.items()
                    },
                    "delta_chain_lengths": {
                        name: len(state["paths"])
                        for name, state in self._delta_chain.items()
                    },
                },
                "plan": {
                    "num_shards": self.plan.num_shards,
                    "dim": self.plan.dim,
                    "bounds": list(self.plan.bounds),
                    "rules_per_shard": [len(a) for a in
                                        self.plan.assignments],
                    "replication_factor": self.plan.replication_factor(),
                },
                "breakers": {name: b.report()
                             for name, b in self.breakers.items()},
                "supervision": self.supervisor.report(),
                "outages": [dataclasses.asdict(o)
                            for o in self.supervisor.outages],
            }
