"""The soak experiments: four specs run by one simulated-clock driver.

Not paper figures: these experiments hold the serving stack built on
ExpCuts to the paper's standard — every answer exact — while something
fights it.  Each is a :class:`SoakSpec` run by :func:`run_soak`:

* **serve-soak** — a :class:`~repro.serve.service.ClassificationService`
  (two ``UpdatableClassifier(ExpCuts)`` replicas, ``sram0``/``sram1``)
  under the full robustness gauntlet at once: bursty traffic from
  :func:`repro.traffic.burst_arrivals` whose peaks overrun the admission
  token bucket; a seeded :class:`~repro.npsim.faults.FaultPlan` replayed
  against the replicas (1 simulated cycle ≡ 1 µs of serving time) — a
  latency spike makes the primary miss its deadline until the slow-call
  breaker trips, and a channel outage makes it raise transient errors
  until the recovery window ends, exercising retry, failover and the
  half-open probe cycle; and mid-soak inserts/removes plus periodic
  :meth:`~repro.serve.service.ClassificationService.poll` ticks, so
  rebuilds happen while traffic flows.  Its scenario-free run also
  exports itself to ``<out_dir>/perf_report_<ruleset>.json`` (the stage
  breakdown, log-bucketed latency histograms and the SLO burn-rate
  report with its per-window timeseries) and ``.prom`` (Prometheus text
  exposition).  Neither holds wall times, hostnames or dates.
* **chaos-soak** — a :class:`~repro.serve.fabric.Fabric` (three
  supervised ``ExpCuts`` shard workers, range-partitioned on source IP)
  through a seeded schedule of process-level faults while bursty
  traffic flows: worker kills (SIGKILL, detected by pipe EOF, warm
  restart from the shard's content-verified snapshot); a corrupt-snapshot
  restart (the published snapshot is bit-flipped on disk before the
  kill, so the restart must quarantine it and rebuild cold, and the
  fabric re-publishes a healthy image); a hang (the
  worker stays alive but stops answering, and only the heartbeat
  liveness deadline can catch it); and a slow start (the next restart's
  simulated cost is stretched, widening the recovery window).
* **update-storm** — the same fabric under a seeded
  :func:`~repro.rulesets.generator.churn_sequence` of over 1000 rule
  updates per simulated second (inserts, removes, flapping rules,
  locality bursts).  Every batch is one fabric epoch: applied to each
  shard's global map in the parent, persisted as a chained delta record
  next to each shard's snapshot, and fanned to the workers over the
  pipes.  Update-path faults (:class:`~repro.npsim.faults.UpdateFault`)
  ride on top: one epoch's fan-out lost, doubled or delivered after its
  successor (the worker's in-order apply plus the tick-driven
  anti-entropy pump must converge); a just-written delta bit-flipped
  (the next warm restart quarantines the broken chain suffix and
  catches up over the pipe); a crash mid-compaction (the restart
  rejects the superseded deltas by base-hash mismatch); and kills while
  the delta chains are long, so the warm restarts replay base + deltas.
* **adversarial-soak** — the service behind a
  :class:`~repro.serve.guard.FloodGuard` through the four scenarios of
  :mod:`repro.traffic.scenarios`, one phase each: ``mixed``, the
  no-adversary baseline of stateful bulk / multimedia / interactive
  flows whose legitimate goodput every attack phase is judged against;
  ``syn-flood``, spoofed handshake openers at 8x the legitimate rate,
  which the guard's half-open budget answers with SYN authentication
  (spoofed sources never retransmit, so the flood sheds at the front
  door while real clients pay one extra round trip); ``cache-bust``, an
  ACK scan of distinct 5-tuples whose exact-match flow-cache collapse is
  visible per traffic class; and ``worst-case``, headers mined from
  ``DecisionTrace`` output to saturate the tree depth.

A spec is data: topology, traffic, fault plan, update stream (a
per-packet hook), SLO set, acceptance checks (its report hook raises)
and report fields.  :func:`run_soak` owns what they share: the request
loop (idle span, the spec's per-packet hooks, submit through the guard
when a scenario is set, outcome/SLO/latency/divergence accounting), the
fabric's quiesce loop and teardown, the stage-attribution audit, the SLO
burn-rate check, the zero-divergence check, the shared report fields and
footer, and BENCH gating.

All time is simulated (:class:`~repro.serve.ManualClock`: seeded
arrivals, lookup service time, backoff, restart costs), so every result
reproduces bit for bit; real wall-clock only bounds the fabric's pipe
waits, where dead workers answer never and healthy workers always.
Every served answer is audited against the linear oracle.  The full,
scenario-free run of each soak writes ``BENCH_<experiment>.json`` with
its headline quantities in ``metrics`` (rate-compared by
``scripts/check_bench_regression.py``) and its accounting in ``extra``
(recorded, never rate-compared — lower is better there).
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

from ..classifiers import ALGORITHMS
from ..classifiers.updates import UpdatableClassifier
from ..core.errors import (
    AdmissionRejected,
    DeadlineExceeded,
    ReproError,
    TransientServiceError,
)
from ..core.rule import RuleSet
from ..npsim import (
    ChannelFailure,
    FaultPlan,
    LatencySpike,
    UpdateFault,
    WorkerFault,
)
from ..npsim.flowcache import simulate_class_hit_rates
from ..obs.export import write_prometheus
from ..obs.perf import write_bench_record
from ..obs.slo import SLO, SLOMonitor
from ..obs.span import StageTimer
from ..obs.trace import DecisionTrace
from ..rulesets.generator import churn_sequence
from ..serve import (
    ClassificationService,
    Fabric,
    FloodGuard,
    ManualClock,
    Replica,
    RetryPolicy,
    ServicePolicy,
    SupervisionPolicy,
)
from ..serve.guard import HALF_OPEN_BUDGET
from ..traffic import (
    ATTACK_CLASSES,
    build_scenario,
    burst_arrivals,
    scenario_arrivals,
)
from .cache import cache_dir, get_ruleset, get_trace
from .experiments import ExperimentResult
from .report import render_table

#: Serving-time convention for FaultPlan replay: 1 cycle ≡ 1 µs.
CYCLE_S = 1e-6

#: Simulated service time per lookup: the primary replica and every
#: fabric shard take ``LOOKUP_S``, the standby replica is slower.
LOOKUP_S = 60e-6
STANDBY_LOOKUP_S = 90e-6

#: Legitimate arrival rate; bursts (and, in phased specs, attack
#: packets) arrive ``burst_factor`` times faster.
BASE_RATE_PER_S = 3_000.0

#: SLO evaluation window (simulated seconds).  The full soaks span a
#: couple of simulated seconds, so 0.25 s windows give a dozen-odd
#: verdicts; the quick soaks are ~10x shorter.
SLO_WINDOW_S = 0.25
SLO_WINDOW_QUICK_S = 0.05

SERVE_POLICY = ServicePolicy(
    max_in_flight=64,
    rate_limit_per_s=8_000.0,
    burst=48,
    default_deadline_s=300e-6,
    retry=RetryPolicy(max_attempts=3, base_s=100e-6, max_backoff_s=2e-3,
                      jitter=0.5, seed=2007),
    breaker_window=32,
    breaker_min_calls=8,
    failure_rate_threshold=0.5,
    slow_call_rate_threshold=0.8,
    slow_call_s=200e-6,
    open_s=50e-3,
    half_open_probes=3,
    shadow=False,  # the oracle audit is the stronger check
    oracle_check=True,
)

FABRIC_POLICY = ServicePolicy(
    max_in_flight=64,
    rate_limit_per_s=None,  # overload is serve-soak's hazard, not these
    breaker_window=16,
    breaker_min_calls=4,
    failure_rate_threshold=0.5,
    open_s=4e-3,
    half_open_probes=2,
    shadow=False,
    oracle_check=True,  # settled-epoch audit: the acceptance criterion
)

SUPERVISION = SupervisionPolicy(
    heartbeat_interval_s=0.02,
    heartbeat_timeout_s=0.5,  # real; a healthy worker answers in ms
    liveness_misses=2,
    reply_timeout_s=10.0,
    ready_timeout_s=120.0,
    restart_backoff_base_s=2e-3,
    restart_backoff_mult=2.0,
    restart_backoff_max_s=0.1,
    warm_restart_cost_s=2e-3,
    cold_restart_cost_s=10e-3,
    crash_loop_window_s=5.0,
    crash_loop_budget=4,
)


class Report(NamedTuple):
    """What a spec's report hook hands back to :func:`run_soak`."""

    metrics: dict
    extra: dict
    heading: str
    rows: list
    note: str
    data: dict


@dataclass(frozen=True)
class SoakSpec:
    """One soak experiment: data, plus hooks where the soaks differ."""

    experiment: str
    title: str
    #: Packets per run (per phase in a phased spec), ``(quick, full)``.
    packets: tuple[int, int]
    seed: int
    #: Peak (or attack) arrival rate over ``BASE_RATE_PER_S``.
    burst_factor: float
    policy: ServicePolicy
    #: Fault schedule, ``(quick, full)``.  Channel faults replay against
    #: the replicas; worker faults fire at packet indices and update
    #: faults at fabric epochs.
    faults: tuple[FaultPlan, FaultPlan]
    slos: tuple[SLO, ...]
    #: ``report(runs) -> Report``: acceptance checks (raise) and result.
    report: Callable[[list[SoakRun]], Report]
    #: Topology: three supervised shard workers instead of two replicas.
    fabric: bool = False
    #: ``setup(run)``: the per-run state this spec's hooks keep.
    setup: Callable[[SoakRun], None] | None = None
    #: ``hook(run, idx)`` before each request, in this order.
    hooks: tuple[Callable[[SoakRun, int], None], ...] = ()
    #: ``observe(run, idx, t0, outcome)`` after each request.
    observe: Callable[[SoakRun, int, float, str], None] | None = None
    #: ``finish(run)`` after the quiesce loop, while the target serves.
    finish: Callable[[SoakRun], None] | None = None
    #: One run per scenario, each on a fresh stack with scenario-paced
    #: arrivals; empty means one run, with the caller's scenario if any.
    phases: tuple[str, ...] = ()
    #: The guard's half-open budget when a scenario is set.
    half_open_budget: int = HALF_OPEN_BUDGET
    #: File name for the final state snapshot in the cache directory.
    state_snapshot: str | None = None
    #: The :func:`_shared_fields` a single-run spec reports in ``extra``.
    extras: tuple[str, ...] = ()
    #: Where the soak writes its artifacts, if it writes any.
    out_dir: str | None = None

    @property
    def bench(self) -> str:
        """The BENCH record name."""
        return self.experiment.replace("-", "_")


class SoakRun:
    """One pass of the request loop: the live state a spec's hooks see.

    A spec's ``setup`` adds whatever its hooks keep.  After the pass,
    :func:`_run_phase` adds ``loop_span_s`` (the clock when the trace ran
    out), ``state`` (the target's stop summary), its ``counters``,
    ``span_s``, ``attribution`` and ``slo_report``.
    """

    def __init__(self, spec: SoakSpec, quick: bool, scenario: str | None,
                 snapshot_dir: Path | None) -> None:
        self.spec = spec
        self.quick = quick
        self.ruleset_name = "FW01" if quick else "CR01"
        self.packets = spec.packets[0 if quick else 1]
        self.ruleset = get_ruleset(self.ruleset_name)
        # A scenario swaps the sampled stateless trace for a stateful
        # scenario trace (same packet count, same seed).
        self.strace = None
        if scenario is not None:
            self.strace = build_scenario(scenario, self.ruleset,
                                         self.packets, seed=spec.seed)
            self.trace = self.strace.trace
        else:
            self.trace = get_trace(self.ruleset_name, count=self.packets,
                                   seed=spec.seed)
        if spec.phases:
            self.arrivals = scenario_arrivals(
                self.strace, base_rate_per_s=BASE_RATE_PER_S,
                attack_factor=spec.burst_factor, seed=spec.seed)
        else:
            self.arrivals = burst_arrivals(
                self.packets, base_rate_per_s=BASE_RATE_PER_S,
                burst_factor=spec.burst_factor, period_s=0.05,
                burst_fraction=0.25, seed=spec.seed)
        self.plan = spec.faults[0 if quick else 1]
        self.schedule = self.plan.worker_fault_schedule()
        self.faults_injected = 0
        self.clock = ManualClock()
        self.timer = StageTimer(clock=self.clock)
        self.prefix = "fabric" if spec.fabric else "serve"
        slos = spec.slos
        if self.strace is not None and self.strace.attack_count:
            # An attack scenario's sheds are the defense working; lift
            # the ceiling by the attack's share of offered traffic.
            share = self.strace.attack_count / len(self.strace)
            slos = [replace(s, bound=min(0.95, s.bound + share))
                    if s.name == "shed-ceiling" else s for s in slos]
        self.monitor = SLOMonitor(slos, window_s=SLO_WINDOW_QUICK_S if quick
                                  else SLO_WINDOW_S)
        self.outcomes = dict.fromkeys(
            ("served", "shed", "error") if spec.fabric
            else ("served", "shed", "deadline", "error"), 0)
        if spec.fabric:
            self.target = Fabric(
                list(self.ruleset), snapshot_dir, num_shards=3,
                policy=spec.policy, supervision=SUPERVISION,
                clock=self.clock, charge=self.clock.advance,
                lookup_cost_s=LOOKUP_S, stage_timer=self.timer)
        else:
            expcuts = ALGORITHMS["expcuts"]
            replicas = [
                Replica(name, UpdatableClassifier(self.ruleset, expcuts,
                                                  rebuild_threshold=8),
                        fault_hook=_replica_hook(self.clock, self.plan, name,
                                                 service_s))
                for name, service_s in (("sram0", LOOKUP_S),
                                        ("sram1", STANDBY_LOOKUP_S))
            ]
            self.target = ClassificationService(
                replicas, policy=spec.policy, clock=self.clock,
                sleep=self.clock.sleep, stage_timer=self.timer)
        metrics = self.target.metrics
        #: Request-level latency (admission to answer, retries and
        #: backoff included): the per-attempt histogram can't see a
        #: retried request's full story.  It lives in the target's
        #: registry so one export captures the whole run.
        self.request_latency = metrics.log_histogram(
            "driver.request_latency_us")
        self.divergence_counter = metrics.counter(
            f"{self.prefix}.oracle.divergences")
        self.guard = None
        if self.strace is not None:
            self.guard = FloodGuard(self.target.classify,
                                    metrics.scope("guard"),
                                    half_open_budget=spec.half_open_budget)

    def count(self, name: str) -> int:
        """A counter of the stopped target, named without its prefix."""
        return self.counters.get(f"{self.prefix}.{name}", 0)

    @property
    def goodput_kpps(self) -> float:
        served = self.outcomes["served"]
        return served / self.span_s / 1e3 if self.span_s > 0 else 0.0


def run_soak(spec: SoakSpec, quick: bool = False,
             scenario: str | None = None) -> ExperimentResult:
    """Run one soak end to end; raise if any acceptance check fails.

    ``scenario`` drives a single-run spec with a stateful scenario trace
    through a :class:`~repro.serve.guard.FloodGuard`, keeping the burst
    arrivals and fault plan, so the spec's acceptance bar still applies;
    the BENCH record is written only for the full scenario-free run.
    """
    wall_start = time.time()
    runs = [_run_phase(spec, quick, phase)
            for phase in (spec.phases or (scenario,))]
    divergences = sum(run.count("oracle.divergences") for run in runs)
    if divergences:
        raise AssertionError(
            f"{spec.experiment} served {divergences} wrong answers (oracle "
            f"divergences); faults, churn and hostile traffic may cost "
            f"throughput or freshness, never correctness")
    for run in runs:
        # Every injected kill must show up as a death and a restart.
        kills = sum(1 for f in run.plan.worker_faults
                    if f.kind in ("kill", "corrupt_snapshot"))
        deaths, restarts = run.count("worker_deaths"), run.count("restarts")
        if deaths < kills:
            raise AssertionError(
                f"only {deaths} worker deaths recorded for {kills} injected "
                f"kills; supervision is missing deaths")
        if restarts < kills:
            raise AssertionError(
                f"only {restarts} restarts for {kills} injected kills; "
                f"workers are staying dead")
    metrics, extra, heading, rows, note, data = spec.report(runs)
    rows.append(("oracle divergences", "0", "must be 0"))
    footer = ""
    if not spec.phases:
        (run,) = runs
        fields = _shared_fields(run)
        extra = {**{name: fields[name] for name in spec.extras}, **extra}
        if run.guard is not None:
            extra["scenario"] = run.strace.scenario
            extra["scenario_class_counts"] = run.strace.class_counts()
            extra["guard"] = run.guard.report()
            extra["guard_shed_reasons"] = _prefixed(run.counters,
                                                    "guard.shed.")
            rows.insert(1, ("guard sheds",
                            str(sum(extra["guard_shed_reasons"].values())),
                            f"scenario '{run.strace.scenario}', "
                            f"engaged={run.guard.engaged}"))
        data = {"outcomes": run.outcomes, **data}
        footer = "\n\n" + render_table(
            f"Stage attribution (simulated time, coverage "
            f"{run.attribution['coverage'] * 100:.2f}%)",
            ["Stage", "Time", "Share"],
            run.timer.table_rows(run.span_s),
        )
        slos = fields["slo"].values()
        footer += (f"\nSLOs: {sum(s['compliant'] for s in slos)}/{len(slos)} "
                   f"compliant over {fields['slo_windows']} windows of "
                   f"{run.monitor.window_s * 1e3:.0f} ms")
    text = render_table(heading, ["Quantity", "Value", "Note"], rows)
    text += note + footer

    wall = time.time() - wall_start
    if not quick and scenario is None:
        write_bench_record(spec.bench, metrics, wall, extra=extra)
    return ExperimentResult(spec.experiment, spec.title, text,
                            {"metrics": metrics, "extra": extra, **data})


def _run_phase(spec: SoakSpec, quick: bool,
               scenario: str | None) -> SoakRun:
    """Build one stack, drive the trace through it, stop it, audit it."""
    snapshot_dir = None
    if spec.fabric:
        # A fresh directory per run: a reused one would hold an earlier
        # run's delta records, which this run's restarts would quarantine.
        snapshot_dir = Path(tempfile.mkdtemp(prefix=f"{spec.bench}_",
                                             dir=cache_dir()))
    run = None
    try:
        run = SoakRun(spec, quick, scenario, snapshot_dir)
        if spec.setup is not None:
            spec.setup(run)
        _request_loop(run)
        run.loop_span_s = run.clock.now
        if spec.fabric:
            # Quiesce: let supervision finish backed-off restarts injected
            # near the end of the trace and pump lagging workers, so the
            # accounting covers every fault's detect->restart->recover arc.
            for _ in range(1_000):
                if (not run.target.supervisor.any_down()
                        and run.target.max_epoch_lag() == 0):
                    break
                _idle_tick(run)
        if spec.finish is not None:
            spec.finish(run)
        snapshot_path = (cache_dir() / spec.state_snapshot
                         if spec.state_snapshot else None)
        run.state = run.target.stop(drain=True, snapshot_path=snapshot_path)
    finally:
        if spec.fabric:
            # Never leak worker processes, even when acceptance fails.
            if run is not None:
                run.target.supervisor.stop()
            shutil.rmtree(snapshot_dir, ignore_errors=True)
    run.counters = run.state["metrics"]["counters"]
    run.span_s = run.clock.now
    # The accounting audit: every simulated microsecond must fall inside
    # exactly one stage span, or this raises with the gap spelled out.
    run.attribution = run.timer.check_attribution(run.span_s)
    run.slo_report = run.monitor.check()
    return run


#: SLO window counter for each request outcome.
_WINDOW_COUNT = {"served": "served", "shed": "shed", "deadline": "errors",
                 "error": "errors"}


def _request_loop(run: SoakRun) -> None:
    spec, clock, timer, monitor = run.spec, run.clock, run.timer, run.monitor
    outcomes = run.outcomes
    for idx in range(run.packets):
        if run.arrivals[idx] > clock.now:
            # Waiting for the next arrival is where simulated time not
            # spent serving goes; spanning it keeps the stage sum equal
            # to the end-to-end clock.
            with timer.span("idle"):
                clock.advance(run.arrivals[idx] - clock.now)
        for hook in spec.hooks:
            hook(run, idx)
        t0 = clock.now
        divergences_before = run.divergence_counter.value
        monitor.count(t0, "offered")
        try:
            if run.guard is not None:
                pkt = run.strace.packet(idx)
                run.guard.submit(pkt.header, kind=pkt.kind,
                                 checksum_ok=pkt.checksum_ok, klass=pkt.klass)
            else:
                run.target.classify(run.trace.header(idx))
        except AdmissionRejected:
            outcome = "shed"
        except DeadlineExceeded:
            outcome = "deadline" if "deadline" in outcomes else "error"
        except ReproError:
            outcome = "error"
        else:
            outcome = "served"
            latency_us = (clock.now - t0) * 1e6
            run.request_latency.observe(latency_us)
            monitor.observe_latency(t0, latency_us)
        outcomes[outcome] += 1
        monitor.count(t0, _WINDOW_COUNT[outcome])
        if spec.observe is not None:
            spec.observe(run, idx, t0, outcome)
        delta = run.divergence_counter.value - divergences_before
        if delta:
            monitor.count(t0, "divergences", delta)


def _idle_tick(run: SoakRun) -> None:
    """Let 5 ms of simulated time pass idle, then run supervision."""
    with run.timer.span("idle"):
        run.clock.advance(5e-3)
    run.target.tick(run.clock.now)


_QUANTILES = {"p50": 0.50, "p99": 0.99, "p999": 0.999}


def _quantiles(name: str, hist, keys=("p50", "p99", "p999", "max")) -> dict:
    return {f"{name}_{key}": round(hist.max if key == "max"
                                   else hist.percentile(_QUANTILES[key]), 3)
            for key in keys}


def _shared_fields(run: SoakRun) -> dict:
    """Every result field a single-run spec may list in ``extras``."""
    attempt = run.target.metrics.log_histogram(f"{run.prefix}.latency_us")
    slos = run.slo_report["slos"]
    return {
        "packets_offered": run.packets,
        "served": run.outcomes["served"],
        "shed": run.outcomes["shed"],
        "errors": run.outcomes["error"],
        "oracle_checks": run.count("oracle.checks"),
        "oracle_divergences": run.count("oracle.divergences"),
        "drained": run.state["drained"],
        "sim_span_s": round(run.span_s, 6),
        **_quantiles("latency_us", attempt),
        **_quantiles("request_latency_us", run.request_latency),
        "stage_breakdown": {
            name: {"seconds": round(stage["seconds"], 6),
                   "fraction": round(stage["fraction"], 4),
                   "calls": stage["calls"]}
            for name, stage in run.attribution["stages"].items()
        },
        "stage_coverage": round(run.attribution["coverage"], 6),
        "slo": {
            name: {"violations": s["violations"],
                   "windows": s["windows_evaluated"],
                   "compliant": s["compliant"]}
            for name, s in slos.items()
        },
        "slo_windows": run.slo_report["windows"],
    }


_LATENCY = ("latency_us_p50", "latency_us_p99", "latency_us_p999",
            "latency_us_max")
_REQUEST_LATENCY = tuple(f"request_{name}" for name in _LATENCY)
_STAGES_AND_SLOS = ("stage_breakdown", "stage_coverage", "slo",
                    "slo_windows")


def _prefixed(counters: dict, prefix: str) -> dict:
    """The counters under ``prefix``, keyed by the rest of their name."""
    return {k.removeprefix(prefix): v for k, v in sorted(counters.items())
            if k.startswith(prefix)}


def _heading(run: SoakRun, headline: str) -> str:
    topology = "3 shard workers" if run.spec.fabric else "2 replicas"
    tag = "" if run.strace is None else f", scenario {run.strace.scenario}"
    return (f"{headline} ({run.ruleset_name}, {topology}, "
            f"simulated {run.span_s:.2f}s{tag})")


def _latency_row(label: str, hist, note: str) -> tuple[str, str, str]:
    return (label,
            f"{hist.percentile(0.5):.0f} / {hist.percentile(0.99):.0f} / "
            f"{hist.percentile(0.999):.0f} µs", note)


def _supervision(report: dict) -> dict:
    return {name: {"state": s["state"], "starts": s["starts"]}
            for name, s in report["supervision"].items()}


# -- serve-soak: the service under overload and faults --------------------

#: The acceptance bar as burn-rate SLOs per time window.  Latency
#: objectives judge request-level latency (admission to answer, retries
#: and backoff included), so the bound sits above the per-attempt
#: deadline.  Bursts legitimately shed and the fault windows
#: legitimately slow the primary, hence the non-zero error budgets
#: everywhere except correctness, which tolerates nothing.
SERVE_SLOS = (
    SLO("no-divergence", "divergences", 0.0, kind="ceiling"),
    SLO("goodput-floor", "goodput_kpps", 1.0, kind="floor",
        budget_fraction=0.25),
    SLO("p99-request-latency", "latency_us_p99",
        2.0 * SERVE_POLICY.default_deadline_s * 1e6, kind="ceiling",
        budget_fraction=0.2),
    SLO("shed-ceiling", "shed_rate", 0.6, kind="ceiling",
        budget_fraction=0.25),
)

#: The seeded hazard schedule (cycles, i.e. µs of serving), ``(quick, full)``.
SERVE_FAULTS = (
    FaultPlan(seed=2007,
              latency_spikes=(LatencySpike("sram0", 30_000.0, 70_000.0, 6.0),),
              channel_failures=(ChannelFailure("sram0", 90_000.0),),
              recovery_cycles=30_000.0),
    FaultPlan(seed=2007,
              latency_spikes=(LatencySpike("sram0", 250_000.0, 450_000.0,
                                           6.0),),
              channel_failures=(ChannelFailure("sram0", 650_000.0),),
              recovery_cycles=150_000.0),
)


def _replica_hook(clock: ManualClock, plan: FaultPlan, channel: str,
                  base_service_s: float):
    """Replay one channel's faults against a replica.

    Called with the current simulated time before every lookup: inside
    an outage window the lookup fails fast with a retryable error (the
    SRAM image is gone until the control plane re-places it); otherwise
    the hook charges the lookup's service time, stretched by any active
    latency spike.  Over an empty plan it only charges the service time.
    """
    outages = [(s * CYCLE_S, e * CYCLE_S) for s, e in plan.outage_windows(channel)]
    spikes = [(s * CYCLE_S, e * CYCLE_S, f)
              for s, e, f in plan.slow_windows(channel)]

    def hook(now: float) -> None:
        for start, end in outages:
            if start <= now < end:
                raise TransientServiceError(
                    f"{channel} offline until t={end * 1e3:.0f}ms "
                    f"(injected channel failure)")
        service_s = base_service_s
        for start, end, factor in spikes:
            if start <= now < end:
                service_s *= factor
        clock.advance(service_s)

    return hook


def _serve_setup(run: SoakRun) -> None:
    run.inserted = []


def _service_churn(run: SoakRun, idx: int) -> None:
    """Re-insert clones of existing rules and remove them again, so the
    live rule count oscillates and rebuilds trigger; poll in between."""
    update_every = 120 if run.quick else 400
    poll_every = 500 if run.quick else 1_000
    if idx and idx % update_every == 0:
        if len(run.inserted) >= 8:
            run.target.remove(run.inserted.pop())
        else:
            rule = run.ruleset[(idx // update_every) % len(run.ruleset)]
            run.inserted.append(run.target.insert(rule))
    if idx and idx % poll_every == 0:
        run.target.poll()


def _serve_report(runs: list[SoakRun]) -> Report:
    (run,) = runs
    report = run.target.report()
    shed_reasons = _prefixed(run.counters, "serve.shed.")
    shed = sum(shed_reasons.values())
    breaker_opens = sum(r["open_count"] for r in report["replicas"].values())
    transitions = sum(len(r["transitions"])
                      for r in report["replicas"].values())
    if not shed:
        raise AssertionError("serve-soak shed nothing; the burst traffic "
                             "no longer overruns admission")
    if not breaker_opens:
        raise AssertionError("serve-soak never opened a breaker; the "
                             "fault plan no longer degrades the primary")

    served, packets = run.outcomes["served"], run.packets
    metrics = {
        "goodput_kpps": round(run.goodput_kpps, 3),
        "served_fraction": round(served / packets, 4),
    }
    extra = {
        "shed": shed,
        "shed_rate": round(shed / packets, 4),
        "shed_reasons": shed_reasons,
        **{name: run.count(name)
           for name in ("deadline_exceeded", "transient_failures", "retries",
                        "failovers")},
        "breaker_opens": breaker_opens,
        "breaker_transitions": transitions,
    }
    rows = [
        ("offered / served / shed", f"{packets} / {served} / {shed}", ""),
        ("goodput", f"{run.goodput_kpps:.1f} kpps",
         f"{served / packets * 100:.1f}% of offered"),
        _latency_row("attempt latency p50 / p99 / p99.9",
                     run.target.metrics.log_histogram("serve.latency_us"),
                     f"deadline {run.spec.policy.default_deadline_s * 1e6:.0f} µs"),
        _latency_row("request latency p50 / p99 / p99.9",
                     run.request_latency, "retries and backoff included"),
        ("deadline misses", str(extra["deadline_exceeded"]),
         "late answers dropped, never returned"),
        ("retries / failovers",
         f"{extra['retries']} / {extra['failovers']}", ""),
        ("breaker opens / transitions",
         f"{breaker_opens} / {transitions}", "primary spiked then lost"),
    ]
    note = ("\nEvery answer audited against the linear oracle; "
            f"final state snapshot: {run.spec.state_snapshot} "
            f"(drained={run.state['drained']})")
    if run.strace is None:
        json_path, prom_path = _export(run)
        note += f"\nArtifacts: {json_path}, {prom_path}"
    return Report(
        metrics, extra,
        _heading(run, "Serve-soak: bursty overload + fault plan"), rows, note,
        {"fault_plan": run.plan.to_dict(),
         "replicas": {name: {"state": rep["state"],
                             "open_count": rep["open_count"]}
                      for name, rep in report["replicas"].items()}})


def _export(run: SoakRun) -> tuple[Path, Path]:
    """Write the run's artifacts (see the module docstring) to the
    spec's ``out_dir``; returns their paths."""
    out = Path(run.spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = _json_safe({
        "experiment": run.spec.experiment,
        "ruleset": run.ruleset_name,
        "quick": run.quick,
        "packets_offered": run.packets,
        "outcomes": run.outcomes,
        "sim_span_s": round(run.span_s, 9),
        "goodput_kpps": round(run.goodput_kpps, 3),
        "stage_attribution": run.attribution,
        "histograms": {
            "attempt_latency_us":
                run.target.metrics.log_histogram("serve.latency_us").to_dict(),
            "request_latency_us": run.request_latency.to_dict(),
        },
        "slo": run.slo_report,
        "counters": dict(sorted(run.counters.items())),
    })
    json_path = out / f"perf_report_{run.ruleset_name}.json"
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    prom_path = write_prometheus(run.target.metrics,
                                 out / f"perf_report_{run.ruleset_name}.prom")
    return json_path, prom_path


def _json_safe(obj):
    """Replace non-finite floats (an SLO's infinite burn rate) with
    ``None`` so the artifact stays strict JSON."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


# -- chaos-soak: the fabric under worker-level chaos ----------------------

#: Recovery windows legitimately shed a downed shard's traffic, so the
#: shed ceiling and goodput floor both carry error budget; correctness
#: carries none.
CHAOS_SLOS = (
    SLO("no-divergence", "divergences", 0.0, kind="ceiling"),
    SLO("goodput-floor", "goodput_kpps", 1.0, kind="floor",
        budget_fraction=0.3),
    SLO("p99-latency", "latency_us_p99", 500.0, kind="ceiling",
        budget_fraction=0.2),
    SLO("shed-ceiling", "shed_rate", 0.7, kind="ceiling",
        budget_fraction=0.3),
)

#: The seeded chaos schedule, keyed by packet index, ``(quick, full)``.
#: Both satisfy the acceptance floor — three kills plus one
#: corrupt-snapshot restart — and add a hang (liveness-deadline
#: detection) and a slow start (stretched recovery window).
CHAOS_FAULTS = (
    FaultPlan(seed=2007, worker_faults=(
        WorkerFault("shard0", "kill", 100),
        WorkerFault("shard1", "kill", 290),
        WorkerFault("shard2", "corrupt_snapshot", 470),
        WorkerFault("shard0", "hang", 650),
        WorkerFault("shard1", "slow_start", 790, factor=4.0),
        WorkerFault("shard1", "kill", 800),
    )),
    FaultPlan(seed=2007, worker_faults=(
        WorkerFault("shard0", "kill", 700),
        WorkerFault("shard1", "kill", 1900),
        WorkerFault("shard2", "corrupt_snapshot", 3100),
        WorkerFault("shard0", "hang", 4300),
        WorkerFault("shard1", "slow_start", 5190, factor=4.0),
        WorkerFault("shard1", "kill", 5200),
        WorkerFault("shard2", "kill", 5600),
    )),
)


def _corrupt_file(path: Path) -> None:
    """Flip one mid-payload byte: header parses, checksum must not."""
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


def _supervise(run: SoakRun, idx: int) -> None:
    """Inject this packet's worker faults, force detection, then run the
    fabric's supervision tick.

    The probes right after injection are the supervision layer doing
    exactly what a heartbeat tick would — pulled forward so discovery
    latency does not depend on where the heartbeat cadence happened to
    fall relative to the injection index.
    """
    fabric, clock = run.target, run.clock
    for fault in run.schedule.get(idx, ()):
        now = clock.now
        if fault.kind == "kill":
            fabric.supervisor.inject_kill(fault.shard)
            fabric.probe(fault.shard, now)
        elif fault.kind == "hang":
            fabric.supervisor.inject_hang(fault.shard)
            # A hung worker eats the probe without answering; the
            # liveness deadline (N consecutive misses) is the only
            # detector.
            for _ in range(SUPERVISION.liveness_misses):
                fabric.probe(fault.shard, now)
        elif fault.kind == "corrupt_snapshot":
            spec = next(s for s in fabric.specs if s.name == fault.shard)
            _corrupt_file(Path(spec.snapshot_path))
            fabric.supervisor.inject_kill(fault.shard)
            fabric.probe(fault.shard, now)
        elif fault.kind == "slow_start":
            fabric.supervisor.arm_slow_start(fault.shard, fault.factor)
        run.faults_injected += 1
    fabric.tick(clock.now)


def _chaos_setup(run: SoakRun) -> None:
    # Offered/served while >= 1 shard is down (True) or all are up.
    run.window = {True: {"offered": 0, "served": 0},
                  False: {"offered": 0, "served": 0}}


def _mark_recovery(run: SoakRun, idx: int) -> None:
    run.in_recovery = run.target.supervisor.any_down()


def _recovery_window(run: SoakRun, idx: int, t0: float,
                     outcome: str) -> None:
    window = run.window[run.in_recovery]
    window["offered"] += 1
    if outcome == "served":
        window["served"] += 1


def _chaos_report(runs: list[SoakRun]) -> Report:
    """Every injected fault must be visible in ``fabric.*`` metrics
    (:func:`run_soak` checks the kills), and goodput inside recovery
    windows must stay within 50% of healthy goodput: a dead shard sheds
    its own traffic, it does not take the fabric down with it."""
    (run,) = runs
    report = run.target.report()
    deaths, restarts = run.count("worker_deaths"), run.count("restarts")
    if not run.count("heartbeat_misses"):
        raise AssertionError("no heartbeat misses recorded; the hang "
                             "injection no longer exercises liveness")
    if not run.count("corrupt_snapshot_restarts"):
        raise AssertionError("no corrupt-snapshot restart recorded; the "
                             "quarantine-and-rebuild path went untested")
    if not run.count("shed.shard_down"):
        raise AssertionError("no shard_down sheds; recovery windows were "
                             "invisible to callers, which cannot be right")
    rec, healthy = run.window[True], run.window[False]
    healthy_rate = healthy["served"] / max(1, healthy["offered"])
    recovery_rate = rec["served"] / max(1, rec["offered"])
    goodput_ratio = recovery_rate / healthy_rate if healthy_rate else 0.0
    if rec["offered"] and goodput_ratio < 0.5:
        raise AssertionError(
            f"recovery-window goodput collapsed to "
            f"{goodput_ratio:.2f}x of healthy (floor 0.5): a dead shard "
            f"must shed its own traffic only")

    served, packets = run.outcomes["served"], run.packets
    metrics = {
        "goodput_kpps": round(run.goodput_kpps, 3),
        "served_fraction": round(served / packets, 4),
        "recovery_goodput_ratio": round(goodput_ratio, 4),
    }
    extra = {
        "faults_injected": run.faults_injected,
        "worker_deaths": deaths,
        "deaths_by_cause": _prefixed(run.counters, "fabric.deaths."),
        "restarts": restarts,
        **{name: run.count(name)
           for name in ("warm_restarts", "cold_restarts",
                        "corrupt_snapshot_restarts", "snapshot_reseeds",
                        "heartbeat_misses")},
        "shed_shard_down": run.count("shed.shard_down"),
        "breaker_opens": sum(b["open_count"]
                             for b in report["breakers"].values()),
        "recovery_offered": rec["offered"],
        "recovery_served": rec["served"],
        "healthy_rate": round(healthy_rate, 4),
        "recovery_rate": round(recovery_rate, 4),
        "replication_factor": round(report["plan"]["replication_factor"], 4),
        "outages": len(report["outages"]),
    }
    rows = [
        ("offered / served / shed",
         f"{packets} / {served} / {run.outcomes['shed']}", ""),
        ("faults injected", str(run.faults_injected),
         "kills + corrupt snapshot + hang + slow start"),
        ("worker deaths / restarts", f"{deaths} / {restarts}",
         f"warm {extra['warm_restarts']}, cold {extra['cold_restarts']}"),
        ("corrupt-snapshot restarts",
         str(extra["corrupt_snapshot_restarts"]),
         f"quarantined, rebuilt, reseeded x{extra['snapshot_reseeds']}"),
        ("heartbeat misses", str(extra["heartbeat_misses"]),
         "hang caught by the liveness deadline"),
        ("goodput", f"{run.goodput_kpps:.1f} kpps",
         f"recovery/healthy ratio {goodput_ratio:.2f} (floor 0.50)"),
        _latency_row("request latency p50 / p99 / p99.9",
                     run.request_latency,
                     "shard pipe + simulated lookup cost"),
    ]
    note = ("\nEvery served answer audited in-lock against the "
            "full-ruleset linear oracle; every death restarted warm "
            "from a verified snapshot (cold only after the injected "
            "corruption, then reseeded).")
    return Report(
        metrics, extra,
        _heading(run, "Chaos-soak: worker kills, hangs and snapshot "
                      "corruption"), rows, note,
        {"fault_plan": run.plan.to_dict(),
         "supervision": _supervision(report)})


# -- update-storm: the fabric under sustained rule churn ------------------

#: Update ops per batch and packets between batches.  At the trace's
#: 3000 pps base arrival rate, one 4-op batch per 4 packets sustains
#: ~3000 updates per simulated second — 3x the acceptance floor.
BATCH_OPS = 4
BATCH_EVERY_PACKETS = 4

#: Staleness SLO: served answers may lag the newest epoch by at most
#: this many epochs at p99.
EPOCH_LAG_SLO = 8

#: Fraction of served answers allowed to come from a lagging epoch in
#: any SLO window (fault recovery makes some staleness legitimate).
STALE_RATE_CEILING = 0.5

#: Correctness carries no error budget; staleness and goodput do — fault
#: recovery windows legitimately serve lagging answers and shed a
#: restarting shard's traffic.
STORM_SLOS = (
    SLO("no-divergence", "divergences", 0.0, kind="ceiling"),
    SLO("goodput-floor", "goodput_kpps", 1.0, kind="floor",
        budget_fraction=0.3),
    SLO("staleness-ceiling", "stale_rate", STALE_RATE_CEILING,
        kind="ceiling", budget_fraction=0.3),
    SLO("p99-latency", "latency_us_p99", 500.0, kind="ceiling",
        budget_fraction=0.2),
)

#: Update faults keyed by epoch, worker kills by packet index, ``(quick,
#: full)``.  The kills land while the victims' delta chains are long
#: (between compactions at every 64th epoch), so the warm restarts
#: genuinely replay deltas; the shard0 kill lands right after its
#: corrupt-delta injection, so that restart must quarantine the broken
#: suffix.
STORM_FAULTS = (
    FaultPlan(seed=2007, update_faults=(
        UpdateFault("shard0", "lose_update", 20),
        UpdateFault("shard1", "dup_update", 40),
        UpdateFault("shard2", "reorder_update", 60),
        UpdateFault("shard0", "corrupt_delta", 80),
        UpdateFault("shard1", "crash_mid_compaction", 120),
    ), worker_faults=(
        WorkerFault("shard0", "kill", 330),
        WorkerFault("shard2", "kill", 570),
    )),
    FaultPlan(seed=2007, update_faults=(
        UpdateFault("shard0", "lose_update", 100),
        UpdateFault("shard1", "dup_update", 300),
        UpdateFault("shard2", "reorder_update", 500),
        UpdateFault("shard0", "corrupt_delta", 700),
        UpdateFault("shard1", "crash_mid_compaction", 900),
        UpdateFault("shard2", "lose_update", 1100),
        UpdateFault("shard0", "reorder_update", 1300),
    ), worker_faults=(
        WorkerFault("shard0", "kill", 2830),
        WorkerFault("shard2", "kill", 4570),
        WorkerFault("shard1", "kill", 5390),
    )),
)


def _storm_setup(run: SoakRun) -> None:
    total_updates = (run.packets // BATCH_EVERY_PACKETS) * BATCH_OPS
    run.churn = churn_sequence(
        RuleSet(list(run.ruleset), name=run.ruleset_name), total_updates,
        seed=run.spec.seed, insert_fraction=0.5, flap_rate=0.3, locality=0.6)
    run.churn_cursor = 0
    run.update_schedule = run.plan.update_fault_schedule()
    run.outcomes["stale"] = 0


def _epoch_batch(run: SoakRun, idx: int) -> None:
    """One epoch of churn every ``BATCH_EVERY_PACKETS`` packets, with that
    epoch's scheduled update faults armed first."""
    if idx % BATCH_EVERY_PACKETS or run.churn_cursor >= len(run.churn):
        return
    fabric = run.target
    for fault in run.update_schedule.get(fabric.epoch + 1, ()):
        fabric.inject_update_fault(fault.shard, fault.kind)
    batch = run.churn[run.churn_cursor:run.churn_cursor + BATCH_OPS]
    run.churn_cursor += len(batch)
    with run.timer.span("update"):
        fabric.apply_updates(batch)


def _count_stale(run: SoakRun, idx: int, t0: float, outcome: str) -> None:
    """A served answer from a worker behind the newest epoch is stale —
    correct for its epoch, and audited as such."""
    if outcome != "served":
        return
    fabric = run.target
    shard = fabric.specs[fabric.plan.route(run.trace.header(idx))].name
    if fabric.supervisor.handles[shard].applied_epoch < fabric.epoch:
        run.outcomes["stale"] += 1
        run.monitor.count(t0, "stale")


def _settle_and_sweep(run: SoakRun) -> None:
    """Drain the update machinery — compactions reset the delta chains,
    every worker converges to the newest epoch — then
    sweep the fabric's answers against a fresh linear oracle over the
    final rule list, end to end."""
    fabric = run.target
    drain = fabric.settle(run.clock.now)
    for _ in range(200):
        if drain["max_epoch_lag"] == 0:
            break
        _idle_tick(run)
        drain = fabric.settle(run.clock.now)
    run.drain = drain
    final_oracle = RuleSet(list(fabric.rules), name="final-oracle")
    headers = [run.trace.header(i) for i in range(min(run.packets, 200))]
    run.sweep_answers = len(headers)
    run.sweep_mismatches = sum(
        1 for header, out in zip(headers, fabric.classify_batch(headers))
        if out.get("status") == "served"
        and out["rule"] != final_oracle.first_match(header))


def _storm_report(runs: list[SoakRun]) -> Report:
    """A churning fabric may serve stale answers but never wrong ones; it
    must sustain >= 1000 updates per simulated second with p99 epoch lag
    under the staleness SLO, survive every update-path fault with at
    least one restart replaying deltas, and drain afterwards."""
    (run,) = runs
    report = run.target.report()
    drain = run.drain
    replayed = sum(w.get("replayed_deltas", 0)
                   for w in report["supervision"].values())
    lag = run.target.metrics.log_histogram("fabric.epoch_lag")
    lag_p99 = lag.percentile(0.99)
    storm_span_s = run.loop_span_s
    updates = run.churn_cursor
    updates_per_s = updates / storm_span_s if storm_span_s else 0.0
    kills = run.faults_injected
    if run.sweep_mismatches:
        raise AssertionError(
            f"{run.sweep_mismatches} post-drain answers disagree with the "
            f"final rule list; the storm's edits did not converge")
    if updates_per_s < 1000.0:
        raise AssertionError(
            f"sustained only {updates_per_s:.0f} updates/s "
            f"(floor 1000); the storm is not a storm")
    if lag_p99 > EPOCH_LAG_SLO:
        raise AssertionError(
            f"p99 epoch lag {lag_p99:.1f} exceeds the staleness SLO "
            f"({EPOCH_LAG_SLO} epochs); updates are not propagating")
    if replayed < 1:
        raise AssertionError(
            "no restart replayed deltas; the kills landed on empty "
            "chains and the warm-replay path went untested")
    if not run.count("update_faults.corrupt_delta"):
        raise AssertionError("the corrupt-delta fault was never injected")
    if not run.count("update_faults.crash_mid_compaction"):
        raise AssertionError(
            "the crash-mid-compaction fault was never injected")
    if drain["max_epoch_lag"] != 0:
        raise AssertionError(
            f"the fabric did not drain: lag {drain['max_epoch_lag']}")

    metrics = {
        "goodput_kpps": round(run.goodput_kpps, 3),
        "updates_per_s": round(updates_per_s, 1),
        "staleness_headroom_epochs": round(EPOCH_LAG_SLO - lag_p99, 3),
    }
    extra = {
        "stale_served": run.outcomes["stale"],
        "updates_applied": updates,
        "worker_kills": kills,
        "replayed_deltas": replayed,
        # A full run's update_repairs depends on real-time message
        # arrival, so it is reported, never pinned; quick runs are
        # byte-identical.
        **{name: run.count(name)
           for name in ("epochs", "worker_deaths", "restarts",
                        "delta_compactions", "update_repairs",
                        "stale_recycles")},
        "oracle_unauditable": run.count("oracle.unauditable"),
        "update_faults": {
            kind: run.count(f"update_faults.{kind}")
            for kind in ("lose_update", "dup_update", "reorder_update",
                         "corrupt_delta", "crash_mid_compaction")
        },
        "sweep_answers": run.sweep_answers,
        "sweep_mismatches": run.sweep_mismatches,
        **_quantiles("epoch_lag", lag, ("p50", "p99", "max")),
        "drained_lag": drain["max_epoch_lag"],
        "final_rules": len(run.target.rules),
        "storm_span_s": round(storm_span_s, 6),
    }
    rows = [
        ("offered / served / shed",
         f"{run.packets} / {run.outcomes['served']} / "
         f"{run.outcomes['shed']}", ""),
        ("updates applied", f"{updates} ({updates_per_s:.0f}/s)",
         "floor 1000/s"),
        ("epochs / compactions",
         f"{extra['epochs']} / {extra['delta_compactions']}",
         "chains capped at 64 deltas"),
        ("epoch lag p50 / p99 / max",
         f"{extra['epoch_lag_p50']:.1f} / {lag_p99:.1f} / {lag.max:.0f}",
         f"SLO: p99 <= {EPOCH_LAG_SLO}"),
        ("stale answers", f"{run.outcomes['stale']}",
         "correct for their epoch, audited as such"),
        ("kills / deaths / delta replays",
         f"{kills} / {extra['worker_deaths']} / {replayed}",
         "warm restarts replay base + chained deltas"),
        ("update faults",
         ", ".join(f"{k.split('_')[0]} x{v}"
                   for k, v in extra["update_faults"].items() if v),
         "lose/dup/reorder + corrupt + mid-compaction crash"),
        ("goodput", f"{run.goodput_kpps:.1f} kpps",
         f"while churning {updates_per_s:.0f} rules/s"),
        ("drain", f"lag {drain['max_epoch_lag']}",
         f"must reach 0; post-drain sweep {run.sweep_mismatches} wrong"),
    ]
    note = ("\nEvery served answer audited against the linear oracle at "
            "the epoch its worker had applied; every restart replayed "
            "base + verified delta chain (broken suffixes quarantined).")
    return Report(
        metrics, extra,
        _heading(run, "Update-storm: live churn with epoch-consistent "
                      "propagation"), rows, note,
        {"fault_plan": run.plan.to_dict(), "drain": drain,
         "supervision": _supervision(report)})


# -- adversarial-soak: graceful degradation under hostile traffic ---------

#: Phase order: the baseline must run first — attack phases are judged
#: against its goodput.
PHASES = ("mixed", "syn-flood", "cache-bust", "worst-case")

#: Exact-match flow-cache capacity for the per-class hit-rate model.
CACHE_CAPACITY = 256
CACHE_CAPACITY_QUICK = 128

#: Acceptance bar: the guard stops the flood, not the admission queue
#: behind it; shedding the attack must not starve the victims; and the
#: scan's hit rate must sit at least this far below the best legitimate
#: class's for the cache collapse to count as attributed.
MIN_ATTACK_SHED = 0.90
MIN_LEGIT_GOODPUT_RATIO = 0.70
MIN_CLASS_HIT_GAP = 0.30


def _adversarial_setup(run: SoakRun) -> None:
    run.sides = {side: {"offered": 0, "served": 0, "shed": 0, "error": 0}
                 for side in ("legit", "attack")}


def _count_side(run: SoakRun, idx: int, t0: float, outcome: str) -> None:
    klass = run.strace.classes[idx]
    side = run.sides["attack" if klass in ATTACK_CLASSES else "legit"]
    side["offered"] += 1
    side["error" if outcome == "deadline" else outcome] += 1


def _depth_stats(classifier, strace, sample_every: int = 16) -> dict:
    """Mean/max lookup depth for attack vs legitimate headers.

    The service charges a flat simulated cost per lookup, so the
    worst-case scenario's amplification is measured where it actually
    lives: in the classifier's decision traces.
    """
    stats = {"legit": [0, 0, 0], "attack": [0, 0, 0]}  # n, sum, max
    for idx in range(0, len(strace), max(1, sample_every)):
        pkt = strace.packet(idx)
        trace = DecisionTrace()
        classifier.classify(pkt.header, trace=trace)
        side = "attack" if pkt.klass in ATTACK_CLASSES else "legit"
        stats[side][0] += 1
        stats[side][1] += trace.depth
        stats[side][2] = max(stats[side][2], trace.depth)
    return {
        side: {"sampled": n, "mean_depth": round(total / n, 3) if n else 0.0,
               "max_depth": peak}
        for side, (n, total, peak) in stats.items()
    }


def _phase_summary(run: SoakRun) -> dict:
    legit, attack = run.sides["legit"], run.sides["attack"]
    span_s = run.span_s
    return {
        "scenario": run.strace.scenario,
        "sides": run.sides,
        "class_counts": run.strace.class_counts(),
        "divergences": run.count("oracle.divergences"),
        "oracle_checks": run.count("oracle.checks"),
        "guard": run.guard.report(),
        "guard_shed_reasons": _prefixed(run.counters, "guard.shed."),
        "service_shed_reasons": _prefixed(run.counters, "serve.shed."),
        "sim_span_s": round(span_s, 6),
        "legit_served_fraction": round(
            legit["served"] / max(1, legit["offered"]), 4),
        "attack_shed_fraction": round(
            attack["shed"] / max(1, attack["offered"]), 4)
            if attack["offered"] else 0.0,
        "legit_goodput_kpps": round(
            legit["served"] / span_s / 1e3, 3) if span_s > 0 else 0.0,
        "flow_cache": simulate_class_hit_rates(
            run.strace.trace,
            CACHE_CAPACITY_QUICK if run.quick else CACHE_CAPACITY,
            run.strace.classes),
    }


def _adversarial_report(runs: list[SoakRun]) -> Report:
    """Hostile traffic may degrade throughput, never correctness: the
    flood phase sheds >= 90% of attack traffic with legitimate goodput
    >= 0.7x the mixed baseline, and the scan-phase collapse is visible in
    the per-class cache metrics."""
    phases = {run.strace.scenario: _phase_summary(run) for run in runs}
    # Depth amplification for the mined worst-case headers, measured on
    # a fresh build of the same algorithm the replicas serve.
    worst = runs[PHASES.index("worst-case")]
    depth = _depth_stats(ALGORITHMS["expcuts"].build(worst.ruleset),
                         worst.strace)
    baseline = phases["mixed"]
    flood = phases["syn-flood"]
    attack_shed = flood["attack_shed_fraction"]
    baseline_frac = baseline["legit_served_fraction"]
    goodput_ratio = (flood["legit_served_fraction"] / baseline_frac
                     if baseline_frac else 0.0)
    cache = phases["cache-bust"]["flow_cache"]
    legit_rates = {k: v["hit_rate"] for k, v in cache.items()
                   if k not in ATTACK_CLASSES and k != "overall"}
    scan_rate = cache.get("scan", {}).get("hit_rate", 0.0)
    best_legit_rate = max(legit_rates.values()) if legit_rates else 0.0
    hit_gap = best_legit_rate - scan_rate
    if attack_shed < MIN_ATTACK_SHED:
        raise AssertionError(
            f"syn-flood shed only {attack_shed:.1%} of attack traffic "
            f"(floor {MIN_ATTACK_SHED:.0%}); the guard is letting the "
            f"flood through")
    if goodput_ratio < MIN_LEGIT_GOODPUT_RATIO:
        raise AssertionError(
            f"legit goodput under flood fell to {goodput_ratio:.2f}x of "
            f"baseline (floor {MIN_LEGIT_GOODPUT_RATIO:.2f}): shedding the "
            f"attack starved the victims")
    if hit_gap < MIN_CLASS_HIT_GAP:
        raise AssertionError(
            f"scan-phase cache collapse not attributable: best legit class "
            f"hit rate {best_legit_rate:.2f} vs scan {scan_rate:.2f} "
            f"(gap {hit_gap:.2f} < {MIN_CLASS_HIT_GAP:.2f})")

    packets = runs[0].packets
    metrics = {
        "attack_shed_fraction": round(attack_shed, 4),
        "legit_goodput_ratio": round(goodput_ratio, 4),
        "legit_goodput_kpps": flood["legit_goodput_kpps"],
    }
    extra = {
        "ruleset": runs[0].ruleset_name,
        "packets_per_phase": packets,
        "cache_capacity": CACHE_CAPACITY_QUICK if runs[0].quick
        else CACHE_CAPACITY,
        "baseline_legit_served_fraction": baseline_frac,
        "flood_legit_served_fraction": flood["legit_served_fraction"],
        "scan_hit_rate": round(scan_rate, 4),
        "best_legit_hit_rate": round(best_legit_rate, 4),
        "class_hit_gap": round(hit_gap, 4),
        "worst_case_depth": depth,
        "phases": phases,
    }
    rows = []
    for name, p in phases.items():
        legit, attack = p["sides"]["legit"], p["sides"]["attack"]
        rows.append((
            name,
            f"{legit['served']}/{legit['offered']} legit, "
            f"{attack['shed']}/{attack['offered']} attack shed",
            f"cache hit {p['flow_cache']['overall']['hit_rate']:.2f}, "
            f"divergences {p['divergences']}",
        ))
    rows.extend([
        ("attack shed (flood)", f"{attack_shed:.1%}",
         f"floor {MIN_ATTACK_SHED:.0%} — SYN auth at the guard"),
        ("legit goodput ratio", f"{goodput_ratio:.2f}x baseline",
         f"floor {MIN_LEGIT_GOODPUT_RATIO:.2f}"),
        ("cache collapse (scan)",
         f"scan {scan_rate:.2f} vs legit {best_legit_rate:.2f}",
         f"per-class attribution, gap >= {MIN_CLASS_HIT_GAP:.2f}"),
        ("worst-case depth",
         f"attack {depth['attack']['mean_depth']} vs "
         f"legit {depth['legit']['mean_depth']} mean",
         f"max {depth['attack']['max_depth']}"),
    ])
    heading = (f"Adversarial-soak: stateful scenarios vs the serving stack "
               f"({runs[0].ruleset_name}, {packets} packets/phase, "
               f"guard + 2 replicas)")
    note = ("\nEvery served answer audited against the linear oracle; "
            "attacks degrade throughput only, never correctness.")
    return Report(metrics, extra, heading, rows, note, {})


# -- the four specs -------------------------------------------------------

SERVE_SOAK = SoakSpec(
    experiment="serve-soak",
    title="Serving-layer soak under overload and faults",
    packets=(1_200, 8_000),
    seed=7,
    burst_factor=8.0,
    policy=SERVE_POLICY,
    faults=SERVE_FAULTS,
    slos=SERVE_SLOS,
    report=_serve_report,
    setup=_serve_setup,
    hooks=(_service_churn,),
    state_snapshot="serve_soak_state.snap",
    extras=("packets_offered", "served", *_LATENCY, *_REQUEST_LATENCY,
            "oracle_checks", "oracle_divergences", "drained", "sim_span_s",
            *_STAGES_AND_SLOS),
    out_dir="results",
)

CHAOS_SOAK = SoakSpec(
    experiment="chaos-soak",
    title="Fabric chaos-soak under process-level faults",
    packets=(900, 6_000),
    seed=11,
    burst_factor=3.0,
    policy=FABRIC_POLICY,
    faults=CHAOS_FAULTS,
    slos=CHAOS_SLOS,
    report=_chaos_report,
    fabric=True,
    setup=_chaos_setup,
    hooks=(_supervise, _mark_recovery),
    observe=_recovery_window,
    state_snapshot="fabric_state.snap",
    extras=("packets_offered", "served", "shed", "errors", "oracle_checks",
            "oracle_divergences", "drained", "sim_span_s", *_LATENCY,
            *_REQUEST_LATENCY, *_STAGES_AND_SLOS),
)

UPDATE_STORM = SoakSpec(
    experiment="update-storm",
    title="Fabric update-storm: live churn under update-path faults",
    packets=(800, 6_000),
    seed=13,
    burst_factor=3.0,
    policy=FABRIC_POLICY,
    faults=STORM_FAULTS,
    slos=STORM_SLOS,
    report=_storm_report,
    fabric=True,
    setup=_storm_setup,
    hooks=(_epoch_batch, _supervise),
    observe=_count_stale,
    finish=_settle_and_sweep,
    state_snapshot="fabric_storm.snap",
    extras=("packets_offered", "served", "shed", "errors", "oracle_checks",
            "oracle_divergences", "request_latency_us_p50",
            "request_latency_us_p99", "request_latency_us_max",
            "sim_span_s", *_STAGES_AND_SLOS),
)

#: No SLOs: each phase's stage attribution is still audited, and the
#: acceptance bar is the report's.  The hazard here is the traffic, not
#: the hardware, so the fault plan is empty.
ADVERSARIAL_SOAK = SoakSpec(
    experiment="adversarial-soak",
    title="Graceful degradation under adversarial traffic scenarios",
    packets=(700, 3_000),
    seed=13,
    burst_factor=8.0,
    policy=replace(SERVE_POLICY,
                   retry=replace(SERVE_POLICY.retry, seed=2009)),
    faults=(FaultPlan(), FaultPlan()),
    slos=(),
    report=_adversarial_report,
    setup=_adversarial_setup,
    observe=_count_side,
    phases=PHASES,
    # Tighter than the library default: the guard admits up to this
    # many unknown SYNs before SYN authentication engages, and that leak
    # must stay well under 10% of even the quick run's flood volume.
    half_open_budget=32,
)

#: Experiment id -> spec (the harness registry runs these).
SPECS = {spec.experiment: spec
         for spec in (SERVE_SOAK, CHAOS_SOAK, ADVERSARIAL_SOAK, UPDATE_STORM)}
