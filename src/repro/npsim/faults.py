"""Fault injection and graceful degradation for the NP simulator.

The paper's platform is expected to *degrade*, not stop: the XScale core
hot-swaps SRAM images while 71 microengine threads keep classifying, and
a saturated or failed channel costs bandwidth, not correctness.  This
module injects exactly those hazards into the DES on a deterministic,
seeded schedule and measures what they cost:

* :class:`ChannelFailure` — an SRAM channel drops dead mid-run.  Reads
  re-route to the region's replica (``failover`` placement), or — after
  a ``recovery_cycles`` rebuild window modelling the control plane
  re-placing the image — to the healthiest surviving channel.  Packets
  that need an unreachable region during the window are counted and
  dropped, never crashed on.
* :class:`LatencySpike` — a channel's read latency is multiplied for a
  time window (controller contention, refresh storms).
* :class:`MicroengineStall` — an ME pipeline freezes for a window
  (exception handling on the real part).
* header faults — a seeded fraction of packets arrive malformed
  (``drop_rate``) or corrupted (``corrupt_rate``); each is detected,
  counted and dropped at a small validate cost.

Every degradation lands in a :class:`ResilienceReport`: the event log,
drop/fallback counters, and throughput measured before vs after the
first channel loss — the robustness analogue of Table 5.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import FaultPlanError
from ..obs.metrics import metrics_enabled, metrics_scope
from .memory import MemoryChannel

#: Packet verdicts from :meth:`FaultInjector.packet_verdict`.
PACKET_OK = 0
PACKET_DROP = 1
PACKET_CORRUPT = 2

_MASK64 = (1 << 64) - 1


def seeded_uniform(seed: int, seq: int) -> float:
    """Deterministic uniform in [0, 1) per (seed, sequence number).

    A splitmix64 finalizer — order-independent, so the drop schedule does
    not change when threads interleave differently.  Shared with the
    serving layer (:mod:`repro.serve`), whose retry jitter must likewise
    be reproducible per (seed, request, attempt) regardless of thread
    interleaving.
    """
    x = (seq * 0x9E3779B97F4A7C15 + (seed + 1) * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x / 2.0 ** 64


#: Backwards-compatible internal alias.
_uniform = seeded_uniform


@dataclass(frozen=True)
class ChannelFailure:
    """Channel ``channel`` goes permanently offline at ``at_cycle``."""

    channel: str
    at_cycle: float


@dataclass(frozen=True)
class LatencySpike:
    """Reads on ``channel`` see ``factor``x latency during the window."""

    channel: str
    start_cycle: float
    end_cycle: float
    factor: float


@dataclass(frozen=True)
class MicroengineStall:
    """ME ``me_index`` services no thread during the window."""

    me_index: int
    at_cycle: float
    duration_cycles: float


#: Valid :attr:`WorkerFault.kind` values (the process-level hazards the
#: serving fabric's chaos soak injects).
WORKER_FAULT_KINDS = ("kill", "hang", "slow_start", "corrupt_snapshot")


#: Valid :attr:`UpdateFault.kind` values (the control-plane hazards the
#: update-storm soak injects against rule-update propagation).
UPDATE_FAULT_KINDS = ("lose_update", "dup_update", "reorder_update",
                      "crash_mid_compaction", "corrupt_delta")


@dataclass(frozen=True)
class UpdateFault:
    """A control-plane fault against one shard's update propagation.

    Armed deterministically on the fabric *just before* the update
    batch that creates epoch ``at_epoch`` is applied (epoch indices
    keep the schedule bit-reproducible, exactly like
    :class:`WorkerFault` packet indices).  Kinds:

    * ``lose_update`` — the epoch's update message is never sent to the
      shard's worker; anti-entropy must re-send it.
    * ``dup_update`` — the message is delivered twice; the worker must
      drop the duplicate by epoch.
    * ``reorder_update`` — the message is held and delivered *after*
      the next epoch's; the worker must buffer the gap and apply in
      epoch order.
    * ``crash_mid_compaction`` — a delta-chain compaction republishes
      the shard's base and then the worker is killed before the stale
      deltas are swept; the restart must reject them (base-hash
      mismatch) and come up warm on the new base.
    * ``corrupt_delta`` — the epoch's persisted delta record is
      corrupted on disk; a later restart must detect the broken chain,
      quarantine the unreplayable suffix and serve the salvaged prefix
      until anti-entropy repairs the lag.
    """

    shard: str
    kind: str
    at_epoch: int


@dataclass(frozen=True)
class WorkerFault:
    """A process-level fault against one fabric shard worker.

    Injected deterministically *just before* request ``at_packet`` is
    offered (request indices, not cycles: the fabric soak is request
    driven, so indexing by packet keeps the schedule bit-reproducible
    regardless of wall-clock timing).  Kinds:

    * ``kill`` — SIGKILL the worker process (abrupt death; the
      supervisor detects it and restarts warm from the shard snapshot).
    * ``hang`` — the worker stops replying but stays alive (liveness
      deadline, not EOF, must catch it).
    * ``slow_start`` — the worker's *next* restart costs ``factor``×
      the normal restart time (a cold cache, a slow disk).
    * ``corrupt_snapshot`` — the shard's on-disk snapshot is corrupted
      and the worker killed, so the restart must detect the corruption,
      quarantine the file and fall back to a cold rebuild.
    """

    shard: str
    kind: str
    at_packet: int
    factor: float = 4.0


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, seeded schedule of injected faults.

    ``recovery_cycles`` models the control-plane rebuild after a channel
    loss: regions without a replica are unreachable (their packets are
    dropped) for that long, then re-placed on the healthiest surviving
    channel.  ``validate_cycles`` is the per-packet cost of detecting
    and discarding a malformed/corrupted header.
    """

    seed: int = 2007
    channel_failures: tuple[ChannelFailure, ...] = ()
    latency_spikes: tuple[LatencySpike, ...] = ()
    me_stalls: tuple[MicroengineStall, ...] = ()
    worker_faults: tuple[WorkerFault, ...] = ()
    update_faults: tuple[UpdateFault, ...] = ()
    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    recovery_cycles: float = 25_000.0
    validate_cycles: int = 16

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_rate <= 1.0 or not 0.0 <= self.corrupt_rate <= 1.0:
            raise FaultPlanError("header fault rates must be within [0, 1]")
        if self.drop_rate + self.corrupt_rate >= 1.0:
            raise FaultPlanError(
                "drop_rate + corrupt_rate must stay below 1.0 "
                "(some packets must survive)"
            )
        if self.recovery_cycles < 0:
            raise FaultPlanError("recovery_cycles must be non-negative")
        if self.validate_cycles < 0:
            raise FaultPlanError("validate_cycles must be non-negative")
        for failure in self.channel_failures:
            if failure.at_cycle < 0:
                raise FaultPlanError(f"failure time {failure.at_cycle} is negative")
        for spike in self.latency_spikes:
            if spike.factor < 1.0:
                raise FaultPlanError("latency spike factor must be >= 1.0")
            if spike.end_cycle <= spike.start_cycle:
                raise FaultPlanError("latency spike window is empty")
        for stall in self.me_stalls:
            if stall.duration_cycles <= 0:
                raise FaultPlanError("stall duration must be positive")
            if stall.me_index < 0:
                raise FaultPlanError("stall ME index must be non-negative")
        for fault in self.worker_faults:
            if fault.kind not in WORKER_FAULT_KINDS:
                raise FaultPlanError(
                    f"unknown worker fault kind {fault.kind!r} "
                    f"(valid: {', '.join(WORKER_FAULT_KINDS)})")
            if fault.at_packet < 0:
                raise FaultPlanError("worker fault at_packet must be "
                                     "non-negative")
            if fault.factor < 1.0:
                raise FaultPlanError("worker fault factor must be >= 1.0")
        for fault in self.update_faults:
            if fault.kind not in UPDATE_FAULT_KINDS:
                raise FaultPlanError(
                    f"unknown update fault kind {fault.kind!r} "
                    f"(valid: {', '.join(UPDATE_FAULT_KINDS)})")
            if fault.at_epoch < 1:
                raise FaultPlanError(
                    "update fault at_epoch must be >= 1 (epoch 0 is the "
                    "pre-update base)")

    @property
    def first_failure_cycle(self) -> float | None:
        """Time of the earliest channel loss, if any."""
        if not self.channel_failures:
            return None
        return min(f.at_cycle for f in self.channel_failures)

    def is_empty(self) -> bool:
        return (not self.channel_failures and not self.latency_spikes
                and not self.me_stalls and not self.worker_faults
                and not self.update_faults
                and self.drop_rate == 0.0 and self.corrupt_rate == 0.0)

    # -- serving-layer projections ----------------------------------------
    # The serving layer (repro.serve) replays a FaultPlan against replica
    # endpoints rather than DES channels: a channel failure makes the
    # replica backed by that channel raise transient errors until the
    # control plane re-places its image (the recovery window), and a
    # latency spike stretches its service time (slow calls, which trip
    # the circuit breaker).  These projections keep one seeded plan as
    # the single source of truth for both layers.

    def outage_windows(self, channel: str) -> tuple[tuple[float, float], ...]:
        """``(start, end)`` windows during which ``channel`` is down but
        recoverable for the serving layer (failure + recovery window)."""
        return tuple(
            (f.at_cycle, f.at_cycle + self.recovery_cycles)
            for f in self.channel_failures if f.channel == channel
        )

    def slow_windows(self, channel: str) -> tuple[tuple[float, float, float], ...]:
        """``(start, end, factor)`` latency-spike windows for ``channel``."""
        return tuple(
            (s.start_cycle, s.end_cycle, s.factor)
            for s in self.latency_spikes if s.channel == channel
        )

    def worker_fault_schedule(self) -> dict[int, tuple[WorkerFault, ...]]:
        """Process-level faults grouped by injection request index.

        The fabric's chaos soak consults this once per offered request:
        ``schedule.get(idx, ())`` are the faults to inject before
        request ``idx``.  Order within one index is plan order, so the
        schedule — like everything else in the plan — is deterministic.
        """
        schedule: dict[int, list[WorkerFault]] = {}
        for fault in self.worker_faults:
            schedule.setdefault(fault.at_packet, []).append(fault)
        return {idx: tuple(faults) for idx, faults in schedule.items()}

    def update_fault_schedule(self) -> dict[int, tuple[UpdateFault, ...]]:
        """Control-plane faults grouped by the epoch they arm before.

        The update-storm soak consults this once per update batch:
        ``schedule.get(epoch, ())`` are the faults to arm on the fabric
        before the batch that creates ``epoch`` is applied.  Order
        within one epoch is plan order, so the schedule is
        deterministic.
        """
        schedule: dict[int, list[UpdateFault]] = {}
        for fault in self.update_faults:
            schedule.setdefault(fault.at_epoch, []).append(fault)
        return {epoch: tuple(faults) for epoch, faults in schedule.items()}

    def to_dict(self) -> dict:
        """A JSON-friendly rendering (the documented schema)."""
        return {
            "seed": self.seed,
            "channel_failures": [
                {"channel": f.channel, "at_cycle": f.at_cycle}
                for f in self.channel_failures
            ],
            "latency_spikes": [
                {"channel": s.channel, "start_cycle": s.start_cycle,
                 "end_cycle": s.end_cycle, "factor": s.factor}
                for s in self.latency_spikes
            ],
            "me_stalls": [
                {"me_index": s.me_index, "at_cycle": s.at_cycle,
                 "duration_cycles": s.duration_cycles}
                for s in self.me_stalls
            ],
            "worker_faults": [
                {"shard": f.shard, "kind": f.kind,
                 "at_packet": f.at_packet, "factor": f.factor}
                for f in self.worker_faults
            ],
            "update_faults": [
                {"shard": f.shard, "kind": f.kind, "at_epoch": f.at_epoch}
                for f in self.update_faults
            ],
            "drop_rate": self.drop_rate,
            "corrupt_rate": self.corrupt_rate,
            "recovery_cycles": self.recovery_cycles,
            "validate_cycles": self.validate_cycles,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        try:
            return cls(
                seed=data.get("seed", 2007),
                channel_failures=tuple(
                    ChannelFailure(f["channel"], float(f["at_cycle"]))
                    for f in data.get("channel_failures", ())
                ),
                latency_spikes=tuple(
                    LatencySpike(s["channel"], float(s["start_cycle"]),
                                 float(s["end_cycle"]), float(s["factor"]))
                    for s in data.get("latency_spikes", ())
                ),
                me_stalls=tuple(
                    MicroengineStall(int(s["me_index"]), float(s["at_cycle"]),
                                     float(s["duration_cycles"]))
                    for s in data.get("me_stalls", ())
                ),
                worker_faults=tuple(
                    WorkerFault(f["shard"], f["kind"], int(f["at_packet"]),
                                float(f.get("factor", 4.0)))
                    for f in data.get("worker_faults", ())
                ),
                update_faults=tuple(
                    UpdateFault(f["shard"], f["kind"], int(f["at_epoch"]))
                    for f in data.get("update_faults", ())
                ),
                drop_rate=float(data.get("drop_rate", 0.0)),
                corrupt_rate=float(data.get("corrupt_rate", 0.0)),
                recovery_cycles=float(data.get("recovery_cycles", 25_000.0)),
                validate_cycles=int(data.get("validate_cycles", 16)),
            )
        except (KeyError, TypeError) as exc:
            raise FaultPlanError(f"malformed fault plan: {exc!r}") from exc


@dataclass(frozen=True)
class DegradationEvent:
    """One recorded degradation (times are ME cycles)."""

    time: float
    kind: str
    detail: str


@dataclass
class ResilienceReport:
    """What the injected faults cost one simulation run."""

    events: list[DegradationEvent]
    packets_completed: int
    #: Malformed headers detected and dropped (``drop_rate``).
    packets_dropped: int
    #: Corrupted headers detected and dropped (``corrupt_rate``).
    packets_corrupted: int
    #: Packets abandoned because a region was unreachable mid-recovery.
    packets_lost_to_regions: int
    #: Reads served by a replica after the primary channel failed.
    replica_reads: int
    #: Reads served by an emergency re-placement after recovery.
    remapped_reads: int
    stalled_me_cycles: float
    #: Steady-state throughput before / after the first channel loss
    #: (equal when no channel fails).
    throughput_before_gbps: float
    throughput_after_gbps: float

    @property
    def total_discarded(self) -> int:
        return (self.packets_dropped + self.packets_corrupted
                + self.packets_lost_to_regions)

    @property
    def degradation_fraction(self) -> float:
        """Throughput lost across the first channel failure."""
        if self.throughput_before_gbps <= 0:
            return 0.0
        return max(0.0, 1.0 - self.throughput_after_gbps / self.throughput_before_gbps)

    def summary(self) -> str:
        lines = ["Resilience report:"]
        lines.append(f"  completed packets     : {self.packets_completed}")
        lines.append(f"  malformed dropped     : {self.packets_dropped}")
        lines.append(f"  corrupted dropped     : {self.packets_corrupted}")
        lines.append(f"  lost to dead regions  : {self.packets_lost_to_regions}")
        lines.append(f"  replica reads         : {self.replica_reads}")
        lines.append(f"  remapped reads        : {self.remapped_reads}")
        lines.append(f"  stalled ME cycles     : {self.stalled_me_cycles:.0f}")
        lines.append(
            f"  throughput before/after first loss: "
            f"{self.throughput_before_gbps:.2f} / {self.throughput_after_gbps:.2f} Gbps "
            f"({self.degradation_fraction * 100.0:.1f}% degradation)"
        )
        if self.events:
            lines.append("  events:")
            for event in self.events:
                lines.append(f"    [{event.time:>12.0f}] {event.kind}: {event.detail}")
        return "\n".join(lines)


def _window_gbps(times: list[float], me_clock_mhz: float, packet_bytes: int) -> float:
    """Throughput over a completion-time window, Table-5 units."""
    if len(times) < 2 or times[-1] <= times[0]:
        return 0.0
    mpps = (len(times) - 1) / (times[-1] - times[0]) * me_clock_mhz
    return mpps * packet_bytes * 8 / 1000.0


class FaultInjector:
    """Runtime state of one :class:`FaultPlan` over one simulation.

    The simulator consults it on the hot path only when an injector is
    present — a run without one executes the exact pre-fault code path,
    so fault-free results stay bit-identical.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.events: list[DegradationEvent] = []
        self.packets_dropped = 0
        self.packets_corrupted = 0
        self.packets_lost_to_regions = 0
        self.replica_reads = 0
        self.remapped_reads = 0
        self.stalled_me_cycles = 0.0
        self._check_headers = plan.drop_rate > 0.0 or plan.corrupt_rate > 0.0
        self._primary: list[MemoryChannel] = []
        self._backup: list[MemoryChannel | None] = []
        self._region_names: list[str] = []
        self._channels: list[MemoryChannel] = []
        self._remap_cache: dict[int, MemoryChannel] = {}
        self._rerouted: set[int] = set()
        self._lost_noted: set[int] = set()
        self._me_windows: dict[int, list[tuple[float, float]]] = {}
        self._stall_noted: set[tuple[int, float]] = set()
        self._prepared = False

    # -- wiring ------------------------------------------------------------

    def prepare(
        self,
        channels: list[MemoryChannel],
        primary: list[MemoryChannel],
        backup: list[MemoryChannel | None],
        region_names: list[str],
        num_mes: int,
    ) -> None:
        """Wire the plan into a simulator's channels and region table."""
        plan = self.plan
        by_name = {ch.config.name: ch for ch in channels}
        for failure in plan.channel_failures:
            channel = by_name.get(failure.channel)
            if channel is None:
                raise FaultPlanError(
                    f"fault plan names unknown channel {failure.channel!r} "
                    f"(have {sorted(by_name)})"
                )
            channel.fail_at(failure.at_cycle)
            self.events.append(DegradationEvent(
                failure.at_cycle, "channel_failed",
                f"{failure.channel} offline",
            ))
        for spike in plan.latency_spikes:
            channel = by_name.get(spike.channel)
            if channel is None:
                raise FaultPlanError(
                    f"fault plan names unknown channel {spike.channel!r}"
                )
            channel.add_latency_spike(spike.start_cycle, spike.end_cycle,
                                      spike.factor)
            self.events.append(DegradationEvent(
                spike.start_cycle, "latency_spike",
                f"{spike.channel} x{spike.factor:g} until "
                f"{spike.end_cycle:.0f}",
            ))
        for stall in plan.me_stalls:
            if stall.me_index >= num_mes:
                raise FaultPlanError(
                    f"stall targets ME {stall.me_index}; run uses {num_mes} MEs"
                )
            self._me_windows.setdefault(stall.me_index, []).append(
                (stall.at_cycle, stall.at_cycle + stall.duration_cycles)
            )
        for windows in self._me_windows.values():
            windows.sort()
        self._channels = list(channels)
        self._primary = list(primary)
        self._backup = list(backup)
        self._region_names = list(region_names)
        self.events.sort(key=lambda e: e.time)
        self._prepared = True

    # -- hot-path queries --------------------------------------------------

    def route(self, rid: int, now: float) -> MemoryChannel | None:
        """The channel serving region ``rid`` at ``now``.

        Returns the primary while it is healthy, the replica after a
        failure, the emergency re-placement after the recovery window —
        or ``None`` while the region is unreachable (caller drops the
        packet).
        """
        primary = self._primary[rid]
        offline_at = primary.offline_at
        if offline_at is None or now < offline_at:
            return primary
        backup = self._backup[rid]
        if backup is not None and not backup.is_offline(now):
            if rid not in self._rerouted:
                self._rerouted.add(rid)
                self.events.append(DegradationEvent(
                    now, "failover",
                    f"region {self._region_names[rid]} re-routed to replica "
                    f"{backup.config.name}",
                ))
            self.replica_reads += 1
            return backup
        if now >= offline_at + self.plan.recovery_cycles:
            target = self._remap(rid, now)
            if target is not None:
                self.remapped_reads += 1
                return target
        if rid not in self._lost_noted:
            self._lost_noted.add(rid)
            self.events.append(DegradationEvent(
                now, "region_unreachable",
                f"region {self._region_names[rid]} unreachable; dropping its "
                f"packets until recovery",
            ))
        return None

    def _remap(self, rid: int, now: float) -> MemoryChannel | None:
        """Emergency re-placement onto the healthiest surviving channel."""
        cached = self._remap_cache.get(rid)
        if cached is not None and not cached.is_offline(now):
            return cached
        survivors = [
            ch for ch in self._channels
            if not ch.is_offline(now) and ch.config.kind != "scratch"
        ]
        if not survivors:
            return None
        best = max(survivors, key=lambda ch: ch.config.headroom)
        self._remap_cache[rid] = best
        self.events.append(DegradationEvent(
            now, "region_remapped",
            f"region {self._region_names[rid]} re-placed on {best.config.name} "
            f"after recovery",
        ))
        return best

    def packet_verdict(self, seq: int) -> int:
        """Deterministic header fate for packet ``seq``."""
        if not self._check_headers:
            return PACKET_OK
        u = _uniform(self.plan.seed, seq)
        if u < self.plan.drop_rate:
            return PACKET_DROP
        if u < self.plan.drop_rate + self.plan.corrupt_rate:
            return PACKET_CORRUPT
        return PACKET_OK

    def note_header_fault(self, verdict: int) -> None:
        if verdict == PACKET_CORRUPT:
            self.packets_corrupted += 1
        else:
            self.packets_dropped += 1

    def note_region_loss(self, rid: int, now: float) -> None:
        self.packets_lost_to_regions += 1

    def me_stall_until(self, me_index: int, now: float) -> float:
        """End of the stall window covering ``now`` (0.0 when none)."""
        windows = self._me_windows.get(me_index)
        if not windows:
            return 0.0
        for start, end in windows:
            if start <= now < end:
                if (me_index, start) not in self._stall_noted:
                    self._stall_noted.add((me_index, start))
                    self.events.append(DegradationEvent(
                        now, "me_stalled",
                        f"ME {me_index} stalled until {end:.0f}",
                    ))
                return end
            if start > now:
                break
        return 0.0

    # -- reporting ---------------------------------------------------------

    def report(self, completion_times: list[float], packets_completed: int,
               me_clock_mhz: float, packet_bytes: int) -> ResilienceReport:
        """Fold the run's outcome into a :class:`ResilienceReport`."""
        fail_at = self.plan.first_failure_cycle
        if fail_at is None:
            overall = _window_gbps(completion_times, me_clock_mhz, packet_bytes)
            before = after = overall
        else:
            before = _window_gbps(
                [t for t in completion_times if t < fail_at],
                me_clock_mhz, packet_bytes,
            )
            after = _window_gbps(
                [t for t in completion_times if t >= fail_at],
                me_clock_mhz, packet_bytes,
            )
        report = ResilienceReport(
            events=sorted(self.events, key=lambda e: e.time),
            packets_completed=packets_completed,
            packets_dropped=self.packets_dropped,
            packets_corrupted=self.packets_corrupted,
            packets_lost_to_regions=self.packets_lost_to_regions,
            replica_reads=self.replica_reads,
            remapped_reads=self.remapped_reads,
            stalled_me_cycles=self.stalled_me_cycles,
            throughput_before_gbps=before,
            throughput_after_gbps=after,
        )
        emit_resilience_metrics(report)
        return report


def emit_resilience_metrics(report: ResilienceReport) -> None:
    """Re-emit a :class:`ResilienceReport` through the metrics registry.

    Degraded runs then share one report surface with clean runs: the
    ``faults.*`` scope carries the drop counters, failover/remap read
    counts and one counter per degradation event kind next to the
    ``npsim.*`` throughput aggregates.  No-op while metrics are disabled.
    """
    if not metrics_enabled():
        return
    scope = metrics_scope("faults")
    scope.counter("packets_dropped").inc(report.packets_dropped)
    scope.counter("packets_corrupted").inc(report.packets_corrupted)
    scope.counter("packets_lost_to_regions").inc(report.packets_lost_to_regions)
    scope.counter("replica_reads").inc(report.replica_reads)
    scope.counter("remapped_reads").inc(report.remapped_reads)
    scope.counter("stalled_me_cycles").inc(report.stalled_me_cycles)
    scope.gauge("throughput_before_gbps").set(report.throughput_before_gbps)
    scope.gauge("throughput_after_gbps").set(report.throughput_after_gbps)
    scope.gauge("degradation_fraction").set(report.degradation_fraction)
    for event in report.events:
        scope.counter(f"events.{event.kind}").inc()
