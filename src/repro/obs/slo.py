"""Declarative SLOs evaluated over sliding windows of simulated time.

A serving soak used to assert point conditions ("zero divergences",
"some sheds"); this module turns the acceptance bar into declarative
service-level objectives — a goodput floor, a p99 ceiling, a shed-rate
ceiling, a zero-divergence invariant — evaluated per time window with
**burn-rate** accounting, the way an on-call dashboard would judge the
same service:

* every request outcome is fed into the monitor with its (simulated)
  timestamp; the monitor buckets them into fixed windows
  (:class:`SLOMonitor` ``window_s``);
* at the end of the run each closed window is evaluated against every
  :class:`SLO`; a window violates a floor when its value is below the
  bound, a ceiling when above;
* each SLO carries an **error budget**: the fraction of windows allowed
  to violate (``budget_fraction``, 0 = zero tolerance).  The **burn
  rate** is ``violating_fraction / budget_fraction`` — above 1.0 the
  budget is being spent faster than it is earned and the SLO fails.

Latency quantiles come from a per-window
:class:`~repro.obs.metrics.LogHistogram`, so a window's p99 is a real
tail reading, not an integer bucket edge.  The per-window metric rows
double as serve-soak's timeseries artifact (``results/perf_report_*``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.errors import ConfigurationError
from .metrics import LogHistogram

#: Counters every window tracks (fed via :meth:`SLOMonitor.count`).
WINDOW_COUNTS = ("offered", "served", "shed", "errors", "divergences",
                 "stale")

FLOOR = "floor"
CEILING = "ceiling"


@dataclass(frozen=True)
class SLO:
    """One declarative objective over per-window metrics.

    ``metric`` names a key of the per-window metric row (see
    :meth:`SLOMonitor.window_metrics`): the counters above plus
    ``goodput_kpps``, ``served_fraction``, ``shed_rate`` and the
    ``latency_us_p50/p99/p999/max`` quantiles.
    """

    name: str
    metric: str
    bound: float
    kind: str = CEILING
    #: Fraction of evaluated windows allowed to violate (0 = none).
    budget_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in (FLOOR, CEILING):
            raise ConfigurationError(
                f"SLO kind must be {FLOOR!r} or {CEILING!r}, "
                f"not {self.kind!r}")
        if not 0.0 <= self.budget_fraction < 1.0:
            raise ConfigurationError("budget_fraction must be in [0, 1)")

    def violated_by(self, value: float) -> bool:
        if self.kind == FLOOR:
            return value < self.bound
        return value > self.bound


class _Window:
    """One time window's accumulators."""

    __slots__ = ("index", "counts", "latency")

    def __init__(self, index: int) -> None:
        self.index = index
        self.counts = dict.fromkeys(WINDOW_COUNTS, 0)
        self.latency = LogHistogram("window_latency_us")


class SLOMonitor:
    """Bucket request outcomes into time windows, then judge the SLOs.

    Timestamps are whatever clock the caller runs on — the soaks feed
    simulated seconds, so the evaluation reproduces bit-for-bit.  Only
    windows that saw at least one offered request are evaluated: an
    idle window spends no error budget.
    """

    def __init__(self, slos, window_s: float) -> None:
        if window_s <= 0:
            raise ConfigurationError("window_s must be positive")
        self.slos = list(slos)
        names = [slo.name for slo in self.slos]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate SLO names in {names}")
        self.window_s = float(window_s)
        self._windows: dict[int, _Window] = {}

    def _window(self, t: float) -> _Window:
        index = int(math.floor(t / self.window_s))
        win = self._windows.get(index)
        if win is None:
            win = self._windows[index] = _Window(index)
        return win

    def count(self, t: float, name: str, amount: int = 1) -> None:
        """Count one outcome (``offered``/``served``/``shed``/...)."""
        if name not in WINDOW_COUNTS:
            raise ConfigurationError(
                f"unknown window counter {name!r}; "
                f"choose from {WINDOW_COUNTS}")
        self._window(t).counts[name] += amount

    def observe_latency(self, t: float, latency_us: float) -> None:
        self._window(t).latency.observe(latency_us)

    # -- evaluation --------------------------------------------------------

    def window_metrics(self, win: _Window) -> dict:
        """The derived metric row one window is judged on."""
        counts = win.counts
        offered = counts["offered"]
        lat = win.latency
        row = {
            "t": win.index * self.window_s,
            **counts,
            "goodput_kpps": counts["served"] / self.window_s / 1e3,
            "served_fraction": counts["served"] / offered if offered else 0.0,
            "shed_rate": counts["shed"] / offered if offered else 0.0,
            "stale_rate": (counts["stale"] / counts["served"]
                           if counts["served"] else 0.0),
            "latency_us_p50": lat.percentile(0.50),
            "latency_us_p99": lat.percentile(0.99),
            "latency_us_p999": lat.percentile(0.999),
            "latency_us_max": lat.max,
        }
        return row

    def timeseries(self) -> list[dict]:
        """Per-window metric rows in time order (the trajectory artifact)."""
        return [self.window_metrics(self._windows[i])
                for i in sorted(self._windows)]

    def evaluate(self) -> dict:
        """Judge every SLO over the non-idle windows.

        Returns a JSON-friendly report: per-SLO violation counts, burn
        rate and compliance, the overall ``ok`` verdict, and the
        per-window timeseries.
        """
        rows = [row for row in self.timeseries() if row["offered"] > 0]
        report: dict = {
            "window_s": self.window_s,
            "windows": len(rows),
            "slos": {},
            "ok": True,
            "timeseries": self.timeseries(),
        }
        for slo in self.slos:
            values = []
            for row in rows:
                if slo.metric not in row:
                    raise ConfigurationError(
                        f"SLO {slo.name!r} references unknown metric "
                        f"{slo.metric!r}; choose from {sorted(row)}")
                values.append(row[slo.metric])
            violations = sum(1 for v in values if slo.violated_by(v))
            fraction = violations / len(values) if values else 0.0
            if slo.budget_fraction > 0:
                burn_rate = fraction / slo.budget_fraction
                compliant = burn_rate <= 1.0
            else:
                # Zero tolerance: any violation blows the budget.
                burn_rate = 0.0 if not violations else float("inf")
                compliant = violations == 0
            worst = None
            if values:
                worst = min(values) if slo.kind == FLOOR else max(values)
            report["slos"][slo.name] = {
                "metric": slo.metric,
                "kind": slo.kind,
                "bound": slo.bound,
                "budget_fraction": slo.budget_fraction,
                "windows_evaluated": len(values),
                "violations": violations,
                "violation_fraction": fraction,
                "burn_rate": burn_rate,
                "worst": worst,
                "compliant": compliant,
            }
            report["ok"] = report["ok"] and compliant
        return report

    def check(self) -> dict:
        """Evaluate and raise (loudly) when any SLO burns its budget."""
        report = self.evaluate()
        if not report["ok"]:
            failing = [
                f"{name}: {s['violations']}/{s['windows_evaluated']} "
                f"windows violate {s['metric']} {s['kind']} {s['bound']} "
                f"(burn rate {s['burn_rate']:.2f}, worst {s['worst']})"
                for name, s in report["slos"].items() if not s["compliant"]
            ]
            raise AssertionError("SLO burn-rate check failed: "
                                 + "; ".join(failing))
        return report
