"""A lightweight counter/gauge/histogram metrics registry.

Every layer of the library — classifiers, the NP simulator's
microengines and memory channels, the flow cache, the fault injector —
reports into one process-wide registry through named scopes
(``npsim.packets_completed``, ``faults.packets_dropped``, …).

The registry is **disabled by default** and costs nothing while it is:
``get_registry()`` then returns a registry whose scopes hand out shared
null instruments, so ``scope.counter("x").inc()`` is two attribute
lookups and a no-op call.  Code on genuinely hot paths should guard with
:func:`metrics_enabled` instead and skip instrument resolution entirely;
everything wired in this repository emits at end-of-run aggregation
points, where the disabled cost is unmeasurable.

Per-request code (the serving layer counts every request on a private
registry) binds its instruments once with :meth:`MetricScope.bind`: the
returned :class:`BoundInstrument` resolves its name on the first event
and is a plain attribute read after that.

Enable around a region of interest::

    from repro.obs import enable_metrics, get_registry

    enable_metrics()
    ...  # run experiments
    print(get_registry().render())
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

#: Operational warnings (snapshot quarantines, degraded builds, ...) go
#: through one library logger.  With no handler configured, Python's
#: last-resort handler still prints WARNING-level records to stderr, so
#: a corrupted cache file is never silently swallowed again.
_log = logging.getLogger("repro")


def obs_warn(message: str) -> None:
    """Emit a one-line operational warning (works with metrics disabled).

    This is deliberately *not* a metric: metrics are off by default, but
    an integrity event (a quarantined snapshot, a budget-degraded build)
    must reach the operator even on an uninstrumented run.  Callers pair
    it with a counter in the relevant scope for the instrumented case.
    """
    _log.warning(message)


class Counter:
    """A monotonically increasing count (events, packets, reads)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A last-write-wins sample (utilization, occupancy, hit rate)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value}>"


class LogHistogram:
    """An HDR-style log-bucketed histogram: fixed memory, bounded error.

    Latencies span orders of magnitude, so fixed-width or exact-integer
    buckets either blur the tail or grow without bound.  This histogram
    buckets each observation by ``floor(log_g(value))`` with growth
    factor ``g = 1.04``: every bucket spans 4% of its value, so any
    reported quantile is within half a bucket — under 2% relative error,
    comfortably inside the 5% the trajectory tooling assumes — while the
    clamped index range bounds the bucket count (``MAX_BUCKETS``) no
    matter how adversarial the value range is.

    The exact minimum and maximum are tracked on the side: reported
    percentiles are clamped into ``[min, max]``, so ``percentile(1.0)``
    (and ``max``) are exact, not bucket edges.

    Histograms **merge**: worker registries fold into the parent by
    adding bucket counts, which is associative and loses nothing —
    merged percentiles equal the percentiles of the pooled data (to the
    same bucket resolution).
    """

    GROWTH = 1.04
    _LOG_GROWTH = math.log(GROWTH)
    #: Values below this are counted in the dedicated zero bucket;
    #: values above ``MAX_TRACKABLE`` clamp to the top bucket.
    MIN_TRACKABLE = 1e-9
    MAX_TRACKABLE = 1e15
    _MIN_INDEX = math.floor(math.log(MIN_TRACKABLE) / _LOG_GROWTH)
    _MAX_INDEX = math.floor(math.log(MAX_TRACKABLE) / _LOG_GROWTH)
    #: Hard bound on distinct buckets (indices plus the zero bucket).
    MAX_BUCKETS = _MAX_INDEX - _MIN_INDEX + 2
    #: Sentinel index for observations at or below zero.
    ZERO_BUCKET = _MIN_INDEX - 1

    __slots__ = ("name", "counts", "total", "_sum", "_min", "_max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.counts: dict[int, int] = {}
        self.total = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None

    def observe(self, value: float) -> None:
        """Count ``value``: below ``MIN_TRACKABLE`` (negatives count as
        0) in the zero bucket, at or above ``MAX_TRACKABLE`` (inf too)
        as ``MAX_TRACKABLE`` in the top bucket.  NaN is dropped: an
        instrument must never raise."""
        value = float(value)
        if _MIN_TRACKABLE <= value < _MAX_TRACKABLE:
            # In range, floor(log_g(value)) already lies within
            # [_MIN_INDEX, _MAX_INDEX]: no clamp is needed.
            idx = _floor(_ln(value) / _LOG_GROWTH)
        elif value >= _MAX_TRACKABLE:
            value = _MAX_TRACKABLE
            idx = self._MAX_INDEX
        elif value < _MIN_TRACKABLE:
            value = max(value, 0.0)
            idx = self.ZERO_BUCKET
        else:  # NaN
            return
        counts = self.counts
        counts[idx] = counts.get(idx, 0) + 1
        self.total += 1
        self._sum += value
        low = self._min
        if low is None:
            self._min = self._max = value
        elif value < low:
            self._min = value
        elif value > self._max:
            self._max = value

    @property
    def mean(self) -> float:
        return self._sum / self.total if self.total else 0.0

    @property
    def min(self) -> float:
        return self._min if self._min is not None else 0.0

    @property
    def max(self) -> float:
        return self._max if self._max is not None else 0.0

    def _representative(self, idx: int) -> float:
        """The geometric midpoint of bucket ``idx``, clamped to data."""
        if idx == self.ZERO_BUCKET:
            rep = 0.0
        else:
            rep = self.GROWTH ** (idx + 0.5)
        if self._min is not None:
            rep = min(max(rep, self._min), self._max)
        return rep

    def percentile(self, q: float) -> float:
        """Value at quantile ``q`` (0 <= q <= 1), within bucket error."""
        if not self.total:
            return 0.0
        if q >= 1.0:
            return self.max  # exact by the side-tracked maximum
        need = q * self.total
        seen = 0
        for idx in sorted(self.counts):
            seen += self.counts[idx]
            if seen >= need:
                return self._representative(idx)
        return self.max

    def percentiles(self) -> dict[str, float]:
        """The quantile summary every latency consumer wants."""
        return {
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
            "p999": self.percentile(0.999),
            "max": self.max,
        }

    def merge(self, other: "LogHistogram") -> None:
        """Fold another log histogram's buckets into this one."""
        for idx, count in other.counts.items():
            self.counts[idx] = self.counts.get(idx, 0) + count
        self.total += other.total
        self._sum += other._sum
        if other._min is not None and (self._min is None
                                       or other._min < self._min):
            self._min = other._min
        if other._max is not None and (self._max is None
                                       or other._max > self._max):
            self._max = other._max

    def bucket_bounds(self, idx: int) -> tuple[float, float]:
        """The ``[lo, hi)`` value range bucket ``idx`` covers."""
        if idx == self.ZERO_BUCKET:
            return (0.0, self.MIN_TRACKABLE)
        return (self.GROWTH ** idx, self.GROWTH ** (idx + 1))

    def to_dict(self) -> dict:
        return {
            "kind": "log",
            "growth": self.GROWTH,
            "buckets": {str(k): v for k, v in sorted(self.counts.items())},
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            **self.percentiles(),
        }

    def __repr__(self) -> str:
        return (f"<LogHistogram {self.name} n={self.total} "
                f"p50={self.percentile(0.5):.3g} max={self.max:.3g}>")


#: What :meth:`LogHistogram.observe` reads per event, as module globals
#: (a global read is cheaper than a class attribute read through self).
_MIN_TRACKABLE = LogHistogram.MIN_TRACKABLE
_MAX_TRACKABLE = LogHistogram.MAX_TRACKABLE
_LOG_GROWTH = LogHistogram._LOG_GROWTH
_ln = math.log
_floor = math.floor


class _NullInstrument:
    """Shared no-op stand-in for every instrument type when disabled."""

    __slots__ = ()

    def inc(self, amount: int | float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL = _NullInstrument()


class _NullScope:
    """No-op scope: hands out the shared null instrument."""

    __slots__ = ()

    def counter(self, name: str) -> _NullInstrument:
        return _NULL

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL

    def log_histogram(self, name: str) -> _NullInstrument:
        return _NULL

    def bind(self, name: str, kind: str = "counter") -> _NullInstrument:
        return _NULL

    def scope(self, name: str) -> "_NullScope":
        return self


_NULL_SCOPE = _NullScope()


class BoundInstrument:
    """One scope instrument, resolved by name on its first event.

    Resolving lazily keeps the registry's contract that an instrument
    appears in a snapshot only once something was recorded into it.
    :meth:`MetricsRegistry.reset` unbinds every resolved handle, so the
    next event resolves again into the live registry instead of writing
    into a dropped instrument.
    """

    __slots__ = ("_scope", "_name", "_kind", "_inst")

    def __init__(self, scope: "MetricScope", name: str, kind: str) -> None:
        self._scope = scope
        self._name = name
        self._kind = kind
        self._inst = None

    def _resolve(self):
        scope = self._scope
        inst = getattr(scope.registry, self._kind)(scope._qualify(self._name))
        scope.registry._bound.append(self)
        self._inst = inst
        return inst

    def inc(self, amount: int | float = 1) -> None:
        # Counter.inc inlined: one call per event, not two.
        (self._inst or self._resolve()).value += amount

    def observe(self, value: float) -> None:
        (self._inst or self._resolve()).observe(value)


@dataclass
class MetricScope:
    """A named prefix into a live registry (``npsim``, ``faults``, …)."""

    registry: "MetricsRegistry"
    prefix: str

    def _qualify(self, name: str) -> str:
        return f"{self.prefix}.{name}" if self.prefix else name

    def counter(self, name: str) -> Counter:
        return self.registry.counter(self._qualify(name))

    def gauge(self, name: str) -> Gauge:
        return self.registry.gauge(self._qualify(name))

    def log_histogram(self, name: str) -> LogHistogram:
        return self.registry.log_histogram(self._qualify(name))

    def bind(self, name: str, kind: str = "counter") -> BoundInstrument:
        """A handle on instrument ``name`` for per-event code: a
        ``counter`` (``inc``) or a ``log_histogram`` (``observe``).  Hold it, and each event skips the name lookup."""
        return BoundInstrument(self, name, kind)

    def scope(self, name: str) -> "MetricScope":
        return MetricScope(self.registry, self._qualify(name))


@dataclass
class MetricsRegistry:
    """Flat name -> instrument store with scope views."""

    counters: dict[str, Counter] = field(default_factory=dict)
    gauges: dict[str, Gauge] = field(default_factory=dict)
    histograms: dict[str, LogHistogram] = field(default_factory=dict)
    #: Handles resolved into the instruments above; :meth:`reset`
    #: unbinds them along with the instruments it drops.
    _bound: list[BoundInstrument] = field(
        default_factory=list, repr=False, compare=False)

    def counter(self, name: str) -> Counter:
        inst = self.counters.get(name)
        if inst is None:
            inst = self.counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self.gauges.get(name)
        if inst is None:
            inst = self.gauges[name] = Gauge(name)
        return inst

    def log_histogram(self, name: str) -> LogHistogram:
        inst = self.histograms.get(name)
        if inst is None:
            inst = self.histograms[name] = LogHistogram(name)
        return inst

    def scope(self, name: str) -> MetricScope:
        return MetricScope(self, name)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's instruments into this one.

        Subsystems that must observe themselves even while process-wide
        metrics are disabled (the serving layer's shed/breaker counters
        feed its acceptance criteria) run on a private registry and fold
        it into the global one at their aggregation point.  Counters
        add, gauges take the other's last write, histograms merge their
        bucket counts.
        """
        for name, counter in other.counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other.gauges.items():
            self.gauge(name).set(gauge.value)
        for name, hist in other.histograms.items():
            self.log_histogram(name).merge(hist)

    def snapshot(self) -> dict:
        """A JSON-friendly dump of every instrument, sorted by name."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "histograms": {n: h.to_dict() for n, h in sorted(self.histograms.items())},
        }

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
        for handle in self._bound:
            handle._inst = None
        self._bound.clear()

    def render(self) -> str:
        """Human-readable one-line-per-instrument dump."""
        lines = []
        for name, counter in sorted(self.counters.items()):
            lines.append(f"{name:44s} {counter.value}")
        for name, gauge in sorted(self.gauges.items()):
            lines.append(f"{name:44s} {gauge.value:.4f}")
        for name, hist in sorted(self.histograms.items()):
            lines.append(
                f"{name:44s} n={hist.total} mean={hist.mean:.2f} max={hist.max:.0f}"
            )
        return "\n".join(lines) if lines else "(no metrics recorded)"


# -- process-wide registry ---------------------------------------------------

_registry: MetricsRegistry | None = None


def metrics_enabled() -> bool:
    return _registry is not None


def enable_metrics(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Install (or replace) the process-wide registry and return it."""
    global _registry
    _registry = registry if registry is not None else MetricsRegistry()
    return _registry


def disable_metrics() -> None:
    """Return to the zero-overhead no-op state."""
    global _registry
    _registry = None


def get_registry() -> MetricsRegistry | None:
    """The live registry, or ``None`` while metrics are disabled."""
    return _registry


def metrics_scope(name: str) -> MetricScope | _NullScope:
    """A scope into the live registry, or the shared null scope.

    The call-site idiom — resolve the scope once per aggregation point,
    never per event::

        scope = metrics_scope("npsim")
        scope.counter("packets_completed").inc(done)
    """
    if _registry is None:
        return _NULL_SCOPE
    return _registry.scope(name)
