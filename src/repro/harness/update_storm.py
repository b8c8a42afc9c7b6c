"""Update-storm — the fabric under sustained rule churn while serving.

Not a paper figure: this soak drives a
:class:`~repro.serve.fabric.Fabric` (three supervised ``ExpCuts`` shard
workers) through a seeded churn sequence
(:func:`~repro.rulesets.generator.churn_sequence`) of **over 1000 rule
updates per simulated second** — inserts, removes, flapping rules,
locality bursts — while bursty traffic keeps flowing.  Every update
batch is one fabric epoch: applied to the parent's kept bases, persisted
as a chained delta record next to each shard's snapshot, and fanned to
the workers over the pipes.  The run layers **update-path faults**
(:class:`~repro.npsim.faults.UpdateFault`) on top of a worker kill:

* **lose / dup / reorder** — one epoch's fan-out message is dropped,
  doubled or delivered after its successor; the worker's in-order apply
  (duplicates drop, gaps buffer) plus the tick-driven anti-entropy pump
  must converge every time;
* **corrupt_delta** — a just-written delta record is bit-flipped, so the
  next warm restart must quarantine the broken chain suffix, serve the
  last intact epoch, and catch up over the pipe;
* **crash_mid_compaction** — the shard's base is republished and the
  worker killed before the superseded deltas are swept; the restart must
  reject the stale records by base-hash mismatch;
* **worker kills** — a SIGKILL while the shard's delta chain is long,
  so the warm restart actually *replays* base + deltas (the acceptance
  criterion checks the replay count).

All reported numbers are simulated time (:class:`~repro.serve.ManualClock`),
so the run reproduces bit-for-bit.

Acceptance criteria (raise, loudly, instead of shipping bad numbers):

* **zero settled-epoch oracle divergences** — every served answer equals
  the linear first match over the rule version its worker had applied
  (a lagging worker is *stale*, never *wrong*);
* sustained update rate **>= 1000 updates per simulated second**;
* p99 **epoch lag** under the staleness SLO (stale answers are visible
  and bounded, not silent);
* at least one restart **replayed deltas**, and the corrupt-delta
  restart survived via quarantine + catch-up;
* after the storm the fabric **drains**: rebuild backlog and epoch lag
  both reach zero.

The full run emits ``BENCH_update_storm.json`` with goodput, update
rate and staleness headroom in ``metrics`` (rate-compared by
``scripts/check_bench_regression.py``) and the churn accounting in
``extra``.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

from ..core.errors import AdmissionRejected, ReproError
from ..core.rule import RuleSet
from ..npsim import FaultPlan, UpdateFault, WorkerFault
from ..obs.metrics import LogHistogram
from ..obs.perf import write_bench_record
from ..obs.slo import SLO, SLOMonitor
from ..obs.span import StageTimer
from ..rulesets.generator import churn_sequence
from ..serve import Fabric, ManualClock, ServicePolicy, SupervisionPolicy
from ..traffic import burst_arrivals
from .cache import cache_dir, get_ruleset, get_trace
from .experiments import ExperimentResult
from .report import render_table

#: Simulated service time per fabric lookup.
LOOKUP_COST_S = 60e-6

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

POLICY = ServicePolicy(
    max_in_flight=64,
    rate_limit_per_s=None,
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
    heartbeat_timeout_s=0.5,
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

SLO_WINDOW_S = 0.25
SLO_WINDOW_QUICK_S = 0.05


def _slos() -> list[SLO]:
    """The storm's acceptance bar as burn-rate SLOs.

    Correctness carries no error budget; staleness and goodput do —
    fault recovery windows legitimately serve lagging answers and shed
    a restarting shard's traffic.
    """
    return [
        SLO("no-divergence", "divergences", 0.0, kind="ceiling"),
        SLO("goodput-floor", "goodput_kpps", 1.0, kind="floor",
            budget_fraction=0.3),
        SLO("staleness-ceiling", "stale_rate", STALE_RATE_CEILING,
            kind="ceiling", budget_fraction=0.3),
        SLO("p99-latency", "latency_us_p99", 500.0, kind="ceiling",
            budget_fraction=0.2),
    ]


def _fault_plan(quick: bool) -> FaultPlan:
    """The seeded fault schedule: update faults keyed by epoch, worker
    kills keyed by packet index.

    The kills land while the victims' delta chains are long (between
    compactions at every 64th epoch), so the warm restarts genuinely
    replay deltas; the shard0 kill lands right after its corrupt-delta
    injection, so that restart must quarantine the broken suffix.
    """
    if quick:
        update_faults = (
            UpdateFault("shard0", "lose_update", 20),
            UpdateFault("shard1", "dup_update", 40),
            UpdateFault("shard2", "reorder_update", 60),
            UpdateFault("shard0", "corrupt_delta", 80),
            UpdateFault("shard1", "crash_mid_compaction", 120),
        )
        worker_faults = (
            WorkerFault("shard0", "kill", 330),
            WorkerFault("shard2", "kill", 570),
        )
    else:
        update_faults = (
            UpdateFault("shard0", "lose_update", 100),
            UpdateFault("shard1", "dup_update", 300),
            UpdateFault("shard2", "reorder_update", 500),
            UpdateFault("shard0", "corrupt_delta", 700),
            UpdateFault("shard1", "crash_mid_compaction", 900),
            UpdateFault("shard2", "lose_update", 1100),
            UpdateFault("shard0", "reorder_update", 1300),
        )
        worker_faults = (
            WorkerFault("shard0", "kill", 2830),
            WorkerFault("shard2", "kill", 4570),
            WorkerFault("shard1", "kill", 5390),
        )
    return FaultPlan(seed=2007, worker_faults=worker_faults,
                     update_faults=update_faults)


def run_update_storm(quick: bool = False) -> ExperimentResult:
    wall_start = time.time()
    ruleset_name = "FW01" if quick else "CR01"
    packets = 800 if quick else 6_000
    ruleset = get_ruleset(ruleset_name)
    trace = get_trace(ruleset_name, count=packets, seed=13)
    arrivals = burst_arrivals(packets, base_rate_per_s=3_000.0,
                              burst_factor=3.0, period_s=0.05,
                              burst_fraction=0.25, seed=13)
    total_updates = (packets // BATCH_EVERY_PACKETS) * BATCH_OPS
    churn = churn_sequence(RuleSet(list(ruleset), name=ruleset_name),
                           total_updates, seed=13,
                           insert_fraction=0.5, flap_rate=0.3, locality=0.6)
    plan = _fault_plan(quick)
    kill_schedule = plan.worker_fault_schedule()
    update_schedule = plan.update_fault_schedule()

    clock = ManualClock()
    timer = StageTimer(clock=clock)
    # A fresh directory per run: a reused one would hold an earlier
    # run's delta records, which this run's restarts would quarantine.
    snapshot_dir = Path(tempfile.mkdtemp(prefix="fabric_storm_",
                                         dir=cache_dir()))
    fabric = Fabric(list(ruleset), snapshot_dir, num_shards=3,
                    policy=POLICY, supervision=SUPERVISION,
                    algorithm="expcuts", clock=clock, charge=clock.advance,
                    lookup_cost_s=LOOKUP_COST_S, stage_timer=timer,
                    incremental=True, compact_every=64)
    monitor = SLOMonitor(_slos(), window_s=SLO_WINDOW_QUICK_S if quick
                         else SLO_WINDOW_S)
    request_latency = LogHistogram("request_latency_us")
    backlog_track = LogHistogram("rebuild_backlog")
    divergence_counter = fabric.metrics.counter("fabric.oracle.divergences")

    outcomes = {"served": 0, "shed": 0, "error": 0, "stale": 0}
    churn_cursor = 0
    updates_applied = 0
    kills = 0
    try:
        for idx in range(packets):
            if arrivals[idx] > clock.now:
                with timer.span("idle"):
                    clock.advance(arrivals[idx] - clock.now)
            # One epoch of churn between every BATCH_EVERY_PACKETS
            # packets, with that epoch's scheduled faults armed first.
            if idx % BATCH_EVERY_PACKETS == 0 and churn_cursor < len(churn):
                next_epoch = fabric.epoch + 1
                for fault in update_schedule.get(next_epoch, ()):
                    fabric.inject_update_fault(fault.shard, fault.kind)
                batch = churn[churn_cursor:churn_cursor + BATCH_OPS]
                churn_cursor += len(batch)
                with timer.span("update"):
                    fabric.apply_updates(batch)
                updates_applied += len(batch)
            for fault in kill_schedule.get(idx, ()):
                fabric.supervisor.inject_kill(fault.shard)
                fabric.probe(fault.shard, clock.now)
                kills += 1
            fabric.tick(clock.now)
            backlog_track.observe(fabric.rebuild_backlog())
            header = trace.header(idx)
            shard = fabric.specs[fabric.plan.route(header)].name
            t0 = clock.now
            divergences_before = divergence_counter.value
            monitor.count(t0, "offered")
            try:
                fabric.classify(header)
            except AdmissionRejected:
                outcomes["shed"] += 1
                monitor.count(t0, "shed")
            except ReproError:
                outcomes["error"] += 1
                monitor.count(t0, "errors")
            else:
                outcomes["served"] += 1
                monitor.count(t0, "served")
                handle = fabric.supervisor.handles[shard]
                if handle.applied_epoch < fabric.epoch:
                    outcomes["stale"] += 1
                    monitor.count(t0, "stale")
                latency_us = (clock.now - t0) * 1e6
                request_latency.observe(latency_us)
                monitor.observe_latency(t0, latency_us)
            delta = divergence_counter.value - divergences_before
            if delta:
                monitor.count(t0, "divergences", delta)
        storm_span_s = clock.now
        # Quiesce: finish restarts, pump stragglers, then drain the
        # update machinery — compactions absorb backlog, the delta
        # chains reset, every worker converges to the newest epoch.
        for _ in range(1_000):
            if (not fabric.supervisor.any_down()
                    and fabric.max_epoch_lag() == 0):
                break
            with timer.span("idle"):
                clock.advance(5e-3)
            fabric.tick(clock.now)
        drain = fabric.settle(clock.now)
        for _ in range(200):
            if drain["rebuild_backlog"] == 0 and drain["max_epoch_lag"] == 0:
                break
            with timer.span("idle"):
                clock.advance(5e-3)
            fabric.tick(clock.now)
            drain = fabric.settle(clock.now)
        # Post-drain differential sweep: the fabric's answers against a
        # fresh linear oracle over the final rule list, end to end.
        final_oracle = RuleSet(list(fabric.rules), name="final-oracle")
        sweep = min(packets, 200)
        sweep_headers = [trace.header(i) for i in range(sweep)]
        sweep_out = fabric.classify_batch(sweep_headers)
        sweep_mismatch = sum(
            1 for header, out in zip(sweep_headers, sweep_out)
            if out.get("status") == "served"
            and out["rule"] != final_oracle.first_match(header))
        state = fabric.stop(snapshot_path=cache_dir() / "fabric_storm.snap")
    finally:
        fabric.supervisor.stop()
        shutil.rmtree(snapshot_dir, ignore_errors=True)

    report = fabric.report()
    counters = state["metrics"]["counters"]

    def c(name: str, default: int = 0):
        return counters.get(f"fabric.{name}", default)

    divergences = c("oracle.divergences")
    replayed = sum(w.get("replayed_deltas", 0)
                   for w in report["supervision"].values())
    lag_hist = fabric.metrics.log_histogram("fabric.epoch_lag")
    lag_p99 = lag_hist.percentile(0.99)
    updates_per_s = updates_applied / storm_span_s if storm_span_s else 0.0

    # -- acceptance criteria (fail loudly, not quietly) --------------------
    if divergences:
        raise AssertionError(
            f"update-storm served {divergences} wrong answers (settled-"
            f"epoch oracle divergences); a churning fabric may serve "
            f"stale answers but never wrong ones")
    if sweep_mismatch:
        raise AssertionError(
            f"{sweep_mismatch} post-drain answers disagree with the "
            f"final rule list; the storm's edits did not converge")
    if updates_per_s < 1000.0:
        raise AssertionError(
            f"sustained only {updates_per_s:.0f} updates/s "
            f"(floor 1000); the storm is not a storm")
    if lag_p99 > EPOCH_LAG_SLO:
        raise AssertionError(
            f"p99 epoch lag {lag_p99:.1f} exceeds the staleness SLO "
            f"({EPOCH_LAG_SLO} epochs); updates are not propagating")
    if c("worker_deaths") < kills:
        raise AssertionError(
            f"only {c('worker_deaths')} worker deaths for {kills} "
            f"injected kills; supervision is missing deaths")
    if replayed < 1:
        raise AssertionError(
            "no restart replayed deltas; the kills landed on empty "
            "chains and the warm-replay path went untested")
    if not c("update_faults.corrupt_delta"):
        raise AssertionError("the corrupt-delta fault was never injected")
    if not c("update_faults.crash_mid_compaction"):
        raise AssertionError(
            "the crash-mid-compaction fault was never injected")
    if drain["rebuild_backlog"] != 0 or drain["max_epoch_lag"] != 0:
        raise AssertionError(
            f"the fabric did not drain: backlog "
            f"{drain['rebuild_backlog']}, lag {drain['max_epoch_lag']}")

    span_s = clock.now
    attribution = timer.check_attribution(span_s)
    slo_report = monitor.check()
    served = outcomes["served"]
    goodput_kpps = served / span_s / 1e3 if span_s > 0 else 0.0
    staleness_headroom = EPOCH_LAG_SLO - lag_p99
    metrics = {
        "goodput_kpps": round(goodput_kpps, 3),
        "updates_per_s": round(updates_per_s, 1),
        "staleness_headroom_epochs": round(staleness_headroom, 3),
    }
    extra = {
        "packets_offered": packets,
        "served": served,
        "shed": outcomes["shed"],
        "errors": outcomes["error"],
        "stale_served": outcomes["stale"],
        "updates_applied": updates_applied,
        "epochs": c("epochs"),
        "worker_kills": kills,
        "worker_deaths": c("worker_deaths"),
        "restarts": c("restarts"),
        "replayed_deltas": replayed,
        "delta_compactions": c("delta_compactions"),
        "update_repairs": c("update_repairs"),
        "stale_recycles": c("stale_recycles"),
        "update_faults": {
            kind: c(f"update_faults.{kind}")
            for kind in ("lose_update", "dup_update", "reorder_update",
                         "corrupt_delta", "crash_mid_compaction")
        },
        "oracle_checks": c("oracle.checks"),
        "oracle_divergences": divergences,
        "oracle_unauditable": c("oracle.unauditable"),
        "sweep_answers": sweep,
        "sweep_mismatches": sweep_mismatch,
        "epoch_lag_p50": round(lag_hist.percentile(0.50), 3),
        "epoch_lag_p99": round(lag_p99, 3),
        "epoch_lag_max": round(lag_hist.max, 3),
        "backlog_p50": round(backlog_track.percentile(0.50), 3),
        "backlog_p99": round(backlog_track.percentile(0.99), 3),
        "backlog_max": round(backlog_track.max, 3),
        "drained_backlog": drain["rebuild_backlog"],
        "drained_lag": drain["max_epoch_lag"],
        "final_rules": len(fabric.rules),
        "request_latency_us_p50": round(request_latency.percentile(0.50), 3),
        "request_latency_us_p99": round(request_latency.percentile(0.99), 3),
        "request_latency_us_max": round(request_latency.max, 3),
        "storm_span_s": round(storm_span_s, 6),
        "sim_span_s": round(span_s, 6),
        "stage_breakdown": {
            name: {"seconds": round(stage["seconds"], 6),
                   "fraction": round(stage["fraction"], 4),
                   "calls": stage["calls"]}
            for name, stage in attribution["stages"].items()
        },
        "stage_coverage": round(attribution["coverage"], 6),
        "slo": {
            name: {"violations": s["violations"],
                   "windows": s["windows_evaluated"],
                   "compliant": s["compliant"]}
            for name, s in slo_report["slos"].items()
        },
        "slo_windows": slo_report["windows"],
    }

    rows = [
        ("offered / served / shed",
         f"{packets} / {served} / {outcomes['shed']}", ""),
        ("updates applied", f"{updates_applied} "
         f"({updates_per_s:.0f}/s)", "floor 1000/s"),
        ("epochs / compactions",
         f"{extra['epochs']} / {extra['delta_compactions']}",
         f"chains capped at 64 deltas"),
        ("epoch lag p50 / p99 / max",
         f"{extra['epoch_lag_p50']:.1f} / {lag_p99:.1f} / "
         f"{lag_hist.max:.0f}",
         f"SLO: p99 <= {EPOCH_LAG_SLO}"),
        ("stale answers", f"{outcomes['stale']}",
         "correct for their epoch, audited as such"),
        ("kills / deaths / delta replays",
         f"{kills} / {extra['worker_deaths']} / {replayed}",
         "warm restarts replay base + chained deltas"),
        ("update faults",
         ", ".join(f"{k.split('_')[0]} x{v}"
                   for k, v in extra["update_faults"].items() if v),
         "lose/dup/reorder + corrupt + mid-compaction crash"),
        ("goodput", f"{goodput_kpps:.1f} kpps",
         f"while churning {updates_per_s:.0f} rules/s"),
        ("drain", f"backlog {drain['rebuild_backlog']}, "
         f"lag {drain['max_epoch_lag']}", "both must reach 0"),
        ("oracle divergences", str(divergences),
         f"settled-epoch audit; post-drain sweep {sweep_mismatch} wrong"),
    ]
    text = render_table(
        f"Update-storm: live churn with epoch-consistent propagation "
        f"({ruleset_name}, 3 shard workers, simulated {span_s:.2f}s)",
        ["Quantity", "Value", "Note"],
        rows,
    )
    text += ("\nEvery served answer audited against the linear oracle at "
             "the epoch its worker had applied; every restart replayed "
             "base + verified delta chain (broken suffixes quarantined).")
    compliant = sum(1 for s in slo_report["slos"].values() if s["compliant"])
    text += (f"\nSLOs: {compliant}/{len(slo_report['slos'])} compliant over "
             f"{slo_report['windows']} windows of "
             f"{monitor.window_s * 1e3:.0f} ms")

    wall = time.time() - wall_start
    if not quick:
        write_bench_record("update_storm", metrics, wall, extra=extra)
    return ExperimentResult(
        "update-storm",
        "Fabric update-storm: live churn under update-path faults", text,
        {"metrics": metrics, "extra": extra, "outcomes": outcomes,
         "fault_plan": plan.to_dict(), "drain": drain,
         "supervision": {name: {"state": s["state"], "starts": s["starts"]}
                         for name, s in report["supervision"].items()}},
    )


#: Registry-compatible alias (the registry falls back to ``run``).
run = run_update_storm
