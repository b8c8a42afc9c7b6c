"""Observability: metrics registry, lookup tracing, DES timeline export.

Independent instruments, all zero-overhead when idle:

* :mod:`repro.obs.metrics` — process-wide counter/gauge/histogram
  registry with named scopes; disabled by default.  Its one histogram
  kind is the log-bucketed :class:`LogHistogram`.
* :mod:`repro.obs.span` — :class:`StageTimer` pipeline stage
  attribution (where each microsecond of a serving run goes).
* :mod:`repro.obs.slo` — declarative SLOs with sliding-window
  burn-rate evaluation.
* :mod:`repro.obs.export` — Prometheus text exposition and JSON
  snapshot export of a registry.
* :mod:`repro.obs.trace` — ``classify(header, trace=DecisionTrace())``
  records the decision path of one lookup.
* :mod:`repro.obs.timeline` — Chrome-trace-format export of a simulator
  run (view in chrome://tracing or Perfetto) plus per-channel
  utilization timeseries.

``repro.obs.perf`` carries the ``BENCH_*.json`` perf-trajectory helpers.
"""

from .export import render_prometheus, write_json_snapshot, write_prometheus
from .metrics import (
    Counter,
    Gauge,
    LogHistogram,
    MetricScope,
    MetricsRegistry,
    disable_metrics,
    enable_metrics,
    get_registry,
    metrics_enabled,
    metrics_scope,
    obs_warn,
)
from .perf import (
    SCHEMA_VERSION,
    extract_throughput,
    read_bench_record,
    write_bench_record,
)
from .slo import SLO, SLOMonitor
from .span import NULL_STAGE_TIMER, NullStageTimer, Span, StageStat, StageTimer
from .timeline import TimelineRecorder
from .trace import DecisionTrace, TraceStep

__all__ = [
    "Counter",
    "DecisionTrace",
    "Gauge",
    "LogHistogram",
    "MetricScope",
    "MetricsRegistry",
    "NULL_STAGE_TIMER",
    "NullStageTimer",
    "SCHEMA_VERSION",
    "SLO",
    "SLOMonitor",
    "Span",
    "StageStat",
    "StageTimer",
    "TimelineRecorder",
    "TraceStep",
    "disable_metrics",
    "enable_metrics",
    "extract_throughput",
    "get_registry",
    "metrics_enabled",
    "metrics_scope",
    "obs_warn",
    "read_bench_record",
    "render_prometheus",
    "write_bench_record",
    "write_json_snapshot",
    "write_prometheus",
]
