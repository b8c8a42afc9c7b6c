"""Chaos-soak — the multi-process fabric under worker-level chaos.

Not a paper figure: this experiment drives a
:class:`~repro.serve.fabric.Fabric` (three supervised ``ExpCuts`` shard
workers, range-partitioned on source IP) through a seeded schedule of
**process-level faults** while bursty traffic flows:

* **worker kills** — SIGKILL mid-run, detection via pipe EOF, warm
  restart from the shard's content-verified snapshot;
* a **corrupt-snapshot restart** — the published snapshot is bit-flipped
  on disk before the kill, so the restart must quarantine it, rebuild
  cold under the build budget, and the fabric re-publishes a healthy
  image (the *next* restart is warm again);
* a **hang** — the worker stays alive but stops answering; only the
  heartbeat liveness deadline can catch this;
* a **slow start** — the next restart's simulated cost is stretched,
  widening the recovery window the goodput criterion measures.

Every fault is injected at a fixed packet index from the plan's
:meth:`~repro.npsim.faults.FaultPlan.worker_fault_schedule` and is
immediately followed by supervision probes, so *detection* is as
deterministic as injection.  All reported numbers are simulated time
(:class:`~repro.serve.ManualClock`: arrivals, lookup service time,
restart backoff and restart costs), so the run reproduces bit-for-bit;
real wall-clock only bounds pipe waits, where dead workers answer never
and healthy workers answer always.

Acceptance criteria (raise, loudly, instead of shipping bad numbers):

* **zero oracle divergences** — every served answer equals the
  full-ruleset linear first match, audited in-lock;
* every injected death is visible in ``fabric.*`` metrics (worker
  deaths, restarts, heartbeat misses, cold/corrupt restarts, sheds
  with reason ``shard_down``);
* goodput inside recovery windows (≥ 1 shard down) stays within 50% of
  healthy-window goodput — a dead shard sheds its own traffic, it does
  not take the fabric down with it.

The full run emits ``BENCH_chaos_soak.json`` with goodput in
``metrics`` (rate-compared by ``scripts/check_bench_regression.py``)
and the chaos accounting in ``extra``.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

from ..core.errors import AdmissionRejected, ReproError
from ..npsim import FaultPlan, WorkerFault
from ..obs.metrics import LogHistogram
from ..obs.perf import write_bench_record
from ..obs.slo import SLO, SLOMonitor
from ..obs.span import StageTimer
from ..serve import Fabric, FloodGuard, ManualClock, ServicePolicy, SupervisionPolicy
from ..traffic import build_scenario, burst_arrivals
from .cache import cache_dir, get_ruleset, get_trace
from .experiments import ExperimentResult
from .report import render_table

#: Simulated service time per fabric lookup.
LOOKUP_COST_S = 60e-6

POLICY = ServicePolicy(
    max_in_flight=64,
    rate_limit_per_s=None,  # overload is PR 4's soak; chaos is this one's
    breaker_window=16,
    breaker_min_calls=4,
    failure_rate_threshold=0.5,
    open_s=4e-3,
    half_open_probes=2,
    shadow=False,
    oracle_check=True,  # the acceptance criterion
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


#: SLO evaluation window (simulated seconds).
SLO_WINDOW_S = 0.25
SLO_WINDOW_QUICK_S = 0.05


def _slos(shed_ceiling: float = 0.7) -> list[SLO]:
    """The chaos soak's acceptance bar as burn-rate SLOs.

    Recovery windows legitimately shed a downed shard's traffic, so
    the shed-rate ceiling and goodput floor both carry error budget;
    correctness carries none.  ``shed_ceiling`` is raised for
    adversarial scenarios, where shedding attack volume is intended.
    """
    return [
        SLO("no-divergence", "divergences", 0.0, kind="ceiling"),
        SLO("goodput-floor", "goodput_kpps", 1.0, kind="floor",
            budget_fraction=0.3),
        SLO("p99-latency", "latency_us_p99", 500.0, kind="ceiling",
            budget_fraction=0.2),
        SLO("shed-ceiling", "shed_rate", shed_ceiling, kind="ceiling",
            budget_fraction=0.3),
    ]


def _fault_plan(quick: bool) -> FaultPlan:
    """The seeded chaos schedule, keyed by packet index.

    Both modes satisfy the acceptance floor — three kills plus one
    corrupt-snapshot restart — and add a hang (liveness-deadline
    detection) and a slow start (stretched recovery window).
    """
    if quick:
        faults = (
            WorkerFault("shard0", "kill", 100),
            WorkerFault("shard1", "kill", 290),
            WorkerFault("shard2", "corrupt_snapshot", 470),
            WorkerFault("shard0", "hang", 650),
            WorkerFault("shard1", "slow_start", 790, factor=4.0),
            WorkerFault("shard1", "kill", 800),
        )
    else:
        faults = (
            WorkerFault("shard0", "kill", 700),
            WorkerFault("shard1", "kill", 1900),
            WorkerFault("shard2", "corrupt_snapshot", 3100),
            WorkerFault("shard0", "hang", 4300),
            WorkerFault("shard1", "slow_start", 5190, factor=4.0),
            WorkerFault("shard1", "kill", 5200),
            WorkerFault("shard2", "kill", 5600),
        )
    return FaultPlan(seed=2007, worker_faults=faults)


def _corrupt_file(path: Path) -> None:
    """Flip one mid-payload byte: header parses, checksum must not."""
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


def _apply_fault(fabric: Fabric, fault: WorkerFault, now: float) -> None:
    """Inject one fault, then force deterministic detection.

    The probes right after injection are the supervision layer doing
    exactly what a heartbeat tick would — pulled forward so discovery
    latency does not depend on where the heartbeat cadence happened to
    fall relative to the injection index.
    """
    if fault.kind == "kill":
        fabric.supervisor.inject_kill(fault.shard)
        fabric.probe(fault.shard, now)
    elif fault.kind == "hang":
        fabric.supervisor.inject_hang(fault.shard)
        # A hung worker eats the probe without answering; the liveness
        # deadline (N consecutive misses) is the only detector.
        for _ in range(SUPERVISION.liveness_misses):
            fabric.probe(fault.shard, now)
    elif fault.kind == "corrupt_snapshot":
        spec = next(s for s in fabric.specs if s.name == fault.shard)
        _corrupt_file(Path(spec.snapshot_path))
        fabric.supervisor.inject_kill(fault.shard)
        fabric.probe(fault.shard, now)
    elif fault.kind == "slow_start":
        fabric.supervisor.arm_slow_start(fault.shard, fault.factor)


def run_chaos_soak(quick: bool = False,
                   scenario: str | None = None) -> ExperimentResult:
    wall_start = time.time()
    ruleset_name = "FW01" if quick else "CR01"
    packets = 900 if quick else 6_000
    ruleset = get_ruleset(ruleset_name)
    # As in serve-soak, ``scenario`` swaps in a stateful scenario trace
    # (same count, same seed, same burst arrivals) in front of the same
    # chaos schedule; the BENCH record stays scenario-free.
    strace = None
    if scenario is not None:
        strace = build_scenario(scenario, ruleset, packets, seed=11)
        trace = strace.trace
    else:
        trace = get_trace(ruleset_name, count=packets, seed=11)
    arrivals = burst_arrivals(packets, base_rate_per_s=3_000.0,
                              burst_factor=3.0, period_s=0.05,
                              burst_fraction=0.25, seed=11)
    plan = _fault_plan(quick)
    schedule = plan.worker_fault_schedule()

    clock = ManualClock()
    timer = StageTimer(clock=clock)
    # A fresh directory per run: a reused one would hold an earlier
    # run's delta records, which this run's restarts would quarantine.
    snapshot_dir = Path(tempfile.mkdtemp(prefix="fabric_chaos_",
                                         dir=cache_dir()))
    fabric = Fabric(list(ruleset), snapshot_dir, num_shards=3,
                    policy=POLICY, supervision=SUPERVISION,
                    algorithm="expcuts", clock=clock, charge=clock.advance,
                    lookup_cost_s=LOOKUP_COST_S, stage_timer=timer)
    shed_ceiling = 0.7
    if strace is not None and strace.attack_count:
        # Attack sheds are the defense working, not an SLO violation.
        shed_ceiling = min(0.95, 0.7 + strace.attack_count / len(strace))
    monitor = SLOMonitor(_slos(shed_ceiling),
                         window_s=SLO_WINDOW_QUICK_S if quick
                         else SLO_WINDOW_S)
    request_latency = LogHistogram("request_latency_us")
    divergence_counter = fabric.metrics.counter("fabric.oracle.divergences")
    guard = None
    if strace is not None:
        guard = FloodGuard(fabric.classify, fabric.metrics.scope("guard"))

    outcomes = {"served": 0, "shed": 0, "error": 0}
    window = {True: {"offered": 0, "served": 0},    # >= 1 shard down
              False: {"offered": 0, "served": 0}}   # all shards up
    injected = 0
    try:
        for idx in range(packets):
            if arrivals[idx] > clock.now:
                with timer.span("idle"):
                    clock.advance(arrivals[idx] - clock.now)
            for fault in schedule.get(idx, ()):
                _apply_fault(fabric, fault, clock.now)
                injected += 1
            fabric.tick(clock.now)
            in_recovery = fabric.supervisor.any_down()
            window[in_recovery]["offered"] += 1
            t0 = clock.now
            divergences_before = divergence_counter.value
            monitor.count(t0, "offered")
            try:
                if guard is not None:
                    pkt = strace.packet(idx)
                    guard.submit(pkt.header, kind=pkt.kind,
                                 checksum_ok=pkt.checksum_ok,
                                 klass=pkt.klass)
                else:
                    fabric.classify(trace.header(idx))
            except AdmissionRejected:
                outcomes["shed"] += 1
                monitor.count(t0, "shed")
            except ReproError:
                outcomes["error"] += 1
                monitor.count(t0, "errors")
            else:
                outcomes["served"] += 1
                window[in_recovery]["served"] += 1
                monitor.count(t0, "served")
                latency_us = (clock.now - t0) * 1e6
                request_latency.observe(latency_us)
                monitor.observe_latency(t0, latency_us)
            delta = divergence_counter.value - divergences_before
            if delta:
                monitor.count(t0, "divergences", delta)
        # Quiesce: let supervision finish backed-off restarts injected
        # near the end of the trace, so the run's accounting covers
        # every fault's full detect->restart->recover arc.
        for _ in range(1_000):
            if not fabric.supervisor.any_down():
                break
            with timer.span("idle"):
                clock.advance(5e-3)
            fabric.tick(clock.now)
        state = fabric.stop(snapshot_path=cache_dir() / "fabric_state.snap")
    finally:
        # Never leak worker processes, even when acceptance fails.
        fabric.supervisor.stop()
        shutil.rmtree(snapshot_dir, ignore_errors=True)

    report = fabric.report()
    counters = state["metrics"]["counters"]

    def c(name: str, default: int = 0):
        return counters.get(f"fabric.{name}", default)

    divergences = c("oracle.divergences")
    deaths = c("worker_deaths")
    restarts = c("restarts")
    kills = sum(1 for f in plan.worker_faults
                if f.kind in ("kill", "corrupt_snapshot"))

    # -- acceptance criteria (fail loudly, not quietly) --------------------
    if divergences:
        raise AssertionError(
            f"chaos-soak served {divergences} wrong answers (oracle "
            f"divergences); a restarting fabric must never serve stale "
            f"or mis-sharded results")
    if deaths < kills:
        raise AssertionError(
            f"only {deaths} worker deaths recorded for {kills} injected "
            f"kills; supervision is missing deaths")
    if restarts < kills:
        raise AssertionError(
            f"only {restarts} restarts for {kills} injected kills; "
            f"workers are staying dead")
    if not c("heartbeat_misses"):
        raise AssertionError("no heartbeat misses recorded; the hang "
                             "injection no longer exercises liveness")
    if not c("corrupt_snapshot_restarts"):
        raise AssertionError("no corrupt-snapshot restart recorded; the "
                             "quarantine-and-rebuild path went untested")
    if not c("shed.shard_down"):
        raise AssertionError("no shard_down sheds; recovery windows were "
                             "invisible to callers, which cannot be right")
    rec, healthy = window[True], window[False]
    healthy_rate = healthy["served"] / max(1, healthy["offered"])
    recovery_rate = rec["served"] / max(1, rec["offered"])
    goodput_ratio = recovery_rate / healthy_rate if healthy_rate else 0.0
    if rec["offered"] and goodput_ratio < 0.5:
        raise AssertionError(
            f"recovery-window goodput collapsed to "
            f"{goodput_ratio:.2f}x of healthy (floor 0.5): a dead shard "
            f"must shed its own traffic only")

    span_s = clock.now
    attribution = timer.check_attribution(span_s)
    slo_report = monitor.check()
    attempt_latency = fabric.metrics.log_histogram("fabric.latency_us")
    served = outcomes["served"]
    goodput_kpps = served / span_s / 1e3 if span_s > 0 else 0.0
    metrics = {
        "goodput_kpps": round(goodput_kpps, 3),
        "served_fraction": round(served / packets, 4),
        "recovery_goodput_ratio": round(goodput_ratio, 4),
    }
    extra = {
        "packets_offered": packets,
        "served": served,
        "shed": outcomes["shed"],
        "errors": outcomes["error"],
        "faults_injected": injected,
        "worker_deaths": deaths,
        "deaths_by_cause": {k.removeprefix("fabric.deaths."): v
                            for k, v in sorted(counters.items())
                            if k.startswith("fabric.deaths.")},
        "restarts": restarts,
        "warm_restarts": c("warm_restarts"),
        "cold_restarts": c("cold_restarts"),
        "corrupt_snapshot_restarts": c("corrupt_snapshot_restarts"),
        "snapshot_reseeds": c("snapshot_reseeds"),
        "heartbeat_misses": c("heartbeat_misses"),
        "shed_shard_down": c("shed.shard_down"),
        "breaker_opens": sum(b["open_count"]
                             for b in report["breakers"].values()),
        "oracle_checks": c("oracle.checks"),
        "oracle_divergences": divergences,
        "recovery_offered": rec["offered"],
        "recovery_served": rec["served"],
        "healthy_rate": round(healthy_rate, 4),
        "recovery_rate": round(recovery_rate, 4),
        "replication_factor": round(
            report["plan"]["replication_factor"], 4),
        "drained": state["drained"],
        "sim_span_s": round(span_s, 6),
        "outages": len(report["outages"]),
        "latency_us_p50": round(attempt_latency.percentile(0.50), 3),
        "latency_us_p99": round(attempt_latency.percentile(0.99), 3),
        "latency_us_p999": round(attempt_latency.percentile(0.999), 3),
        "latency_us_max": round(attempt_latency.max, 3),
        "request_latency_us_p50": round(request_latency.percentile(0.50), 3),
        "request_latency_us_p99": round(request_latency.percentile(0.99), 3),
        "request_latency_us_p999": round(request_latency.percentile(0.999), 3),
        "request_latency_us_max": round(request_latency.max, 3),
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
    if strace is not None:
        extra["scenario"] = strace.scenario
        extra["scenario_class_counts"] = strace.class_counts()
        extra["guard"] = guard.report()
        extra["guard_shed_reasons"] = {
            k.removeprefix("guard.shed."): v
            for k, v in sorted(counters.items())
            if k.startswith("guard.shed.")}

    rows = [
        ("offered / served / shed",
         f"{packets} / {served} / {outcomes['shed']}", ""),
        ("faults injected", str(injected),
         "kills + corrupt snapshot + hang + slow start"),
        ("worker deaths / restarts", f"{deaths} / {restarts}",
         f"warm {extra['warm_restarts']}, cold {extra['cold_restarts']}"),
        ("corrupt-snapshot restarts",
         str(extra["corrupt_snapshot_restarts"]),
         f"quarantined, rebuilt, reseeded x{extra['snapshot_reseeds']}"),
        ("heartbeat misses", str(extra["heartbeat_misses"]),
         "hang caught by the liveness deadline"),
        ("goodput", f"{goodput_kpps:.1f} kpps",
         f"recovery/healthy ratio {goodput_ratio:.2f} (floor 0.50)"),
        ("request latency p50 / p99 / p99.9",
         f"{request_latency.percentile(0.5):.0f} / "
         f"{request_latency.percentile(0.99):.0f} / "
         f"{request_latency.percentile(0.999):.0f} µs",
         "shard pipe + simulated lookup cost"),
        ("oracle divergences", str(divergences), "must be 0"),
    ]
    if guard is not None:
        guard_shed = sum(v for k, v in counters.items()
                         if k.startswith("guard.shed."))
        rows.insert(1, ("guard sheds", str(guard_shed),
                        f"scenario '{strace.scenario}', "
                        f"engaged={guard.engaged}"))
    scenario_tag = "" if strace is None else f", scenario {strace.scenario}"
    text = render_table(
        f"Chaos-soak: worker kills, hangs and snapshot corruption "
        f"({ruleset_name}, 3 shard workers, simulated {span_s:.2f}s{scenario_tag})",
        ["Quantity", "Value", "Note"],
        rows,
    )
    text += ("\nEvery served answer audited in-lock against the "
             "full-ruleset linear oracle; every death restarted warm "
             "from a verified snapshot (cold only after the injected "
             "corruption, then reseeded).")
    text += "\n\n" + render_table(
        f"Stage attribution (simulated time, coverage "
        f"{attribution['coverage'] * 100:.2f}%)",
        ["Stage", "Time", "Share"],
        timer.table_rows(span_s),
    )
    compliant = sum(1 for s in slo_report["slos"].values() if s["compliant"])
    text += (f"\nSLOs: {compliant}/{len(slo_report['slos'])} compliant over "
             f"{slo_report['windows']} windows of "
             f"{monitor.window_s * 1e3:.0f} ms")

    wall = time.time() - wall_start
    if not quick and scenario is None:
        write_bench_record("chaos_soak", metrics, wall, extra=extra)
    return ExperimentResult(
        "chaos-soak", "Fabric chaos-soak under process-level faults", text,
        {"metrics": metrics, "extra": extra, "outcomes": outcomes,
         "fault_plan": plan.to_dict(),
         "supervision": {name: {"state": s["state"], "starts": s["starts"]}
                         for name, s in report["supervision"].items()}},
    )


#: Registry-compatible alias (the registry falls back to ``run``).
run = run_chaos_soak
