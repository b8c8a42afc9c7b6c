"""Stage attribution: where does each microsecond of a serving run go?

A :class:`StageTimer` attributes elapsed time — real or simulated,
through an injectable clock — to named pipeline stages (``admission``,
``classify``, ``audit``, ...).  The serving layer opens a span around
each stage of every request; the timer accumulates per-stage totals and
call counts, and :meth:`StageTimer.attribution` rolls them up into a
breakdown whose sum is *checked* against the end-to-end wall time, so a
stage the instrumentation forgot shows up as unattributed time instead
of silently vanishing from the story.

Disabled-path cost is near zero by construction: a pipeline that was
not handed a timer uses the shared :data:`NULL_STAGE_TIMER`, whose
``span()`` returns one preallocated no-op context manager — no clock
reads, no allocation, no branches beyond the method call itself
(bounded ≤ 3% on the serve path by ``tests/obs/test_overhead.py``).

Usage::

    timer = StageTimer(clock=clock)          # e.g. a ManualClock
    with timer.span("classify"):
        result = classifier.classify(header)
    ...
    timer.check_attribution(wall_s=clock.now)   # sum must cover the run
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from ..core.errors import ConfigurationError


class StageStat:
    """Accumulated time and call count of one named stage."""

    __slots__ = ("name", "seconds", "calls")

    def __init__(self, name: str) -> None:
        self.name = name
        self.seconds = 0.0
        self.calls = 0

    def __repr__(self) -> str:
        return f"<StageStat {self.name} {self.seconds:.6f}s x{self.calls}>"


class _NullSpan:
    """Shared no-op context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullStageTimer:
    """The do-nothing stand-in used when stage attribution is off."""

    __slots__ = ()
    enabled = False

    def span(self, stage: str) -> _NullSpan:
        return _NULL_SPAN

    def record(self, stage: str, seconds: float, calls: int = 1) -> None:
        pass


NULL_STAGE_TIMER = NullStageTimer()


class Span:
    """One timed region; records its clock delta on exit, even when the
    stage raised (a shed admission is still admission time)."""

    __slots__ = ("_timer", "_stage", "_start")

    def __init__(self, timer: "StageTimer", stage: str) -> None:
        self._timer = timer
        self._stage = stage

    def __enter__(self) -> "Span":
        self._start = self._timer._clock()
        return self

    def __exit__(self, *exc) -> bool:
        self._timer.record(self._stage,
                           self._timer._clock() - self._start)
        return False


class StageTimer:
    """Attribute a run's elapsed time to named pipeline stages.

    Spans must tile, not nest: every instant of the run should fall
    inside exactly one span, or the attribution check will report the
    double-counted or missing time.  Thread-safe (``record`` takes a
    lock); the ManualClock soaks are single-threaded, but a service on a
    real clock may serve from many threads.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._clock = clock or time.monotonic
        self._lock = threading.Lock()
        self.stages: dict[str, StageStat] = {}

    def span(self, stage: str) -> Span:
        return Span(self, stage)

    def record(self, stage: str, seconds: float, calls: int = 1) -> None:
        with self._lock:
            stat = self.stages.get(stage)
            if stat is None:
                stat = self.stages[stage] = StageStat(stage)
            stat.seconds += seconds
            stat.calls += calls

    def total(self) -> float:
        with self._lock:
            return sum(stat.seconds for stat in self.stages.values())

    def merge(self, other: "StageTimer") -> None:
        with other._lock:
            items = [(s.name, s.seconds, s.calls)
                     for s in other.stages.values()]
        for name, seconds, calls in items:
            self.record(name, seconds, calls)

    # -- rollup ------------------------------------------------------------

    def breakdown(self) -> dict[str, dict]:
        """Per-stage totals in first-use order (JSON-friendly)."""
        with self._lock:
            return {
                name: {"seconds": stat.seconds, "calls": stat.calls}
                for name, stat in self.stages.items()
            }

    def attribution(self, wall_s: float) -> dict:
        """The stage breakdown measured against end-to-end wall time.

        ``coverage`` is attributed/wall; ``unattributed_s`` is the time
        no span claimed (negative means spans overlapped and
        double-counted).
        """
        breakdown = self.breakdown()
        attributed = sum(s["seconds"] for s in breakdown.values())
        for stage in breakdown.values():
            stage["fraction"] = (stage["seconds"] / wall_s) if wall_s else 0.0
        return {
            "wall_s": wall_s,
            "attributed_s": attributed,
            "unattributed_s": wall_s - attributed,
            "coverage": (attributed / wall_s) if wall_s else 1.0,
            "stages": breakdown,
        }

    def check_attribution(self, wall_s: float, tolerance: float = 0.01) -> dict:
        """Raise unless the stage sum matches ``wall_s`` within tolerance.

        This is the accounting audit: if instrumentation misses a stage
        (or double-counts one through nested spans), the run must fail
        loudly rather than publish a breakdown that doesn't add up.
        Returns the attribution on success.
        """
        if tolerance < 0:
            raise ConfigurationError("tolerance must be non-negative")
        report = self.attribution(wall_s)
        gap = abs(report["unattributed_s"])
        if wall_s > 0 and gap > tolerance * wall_s:
            raise AssertionError(
                f"stage attribution does not add up: stages sum to "
                f"{report['attributed_s']:.6f}s of {wall_s:.6f}s wall "
                f"({report['coverage']:.1%} coverage, tolerance "
                f"{tolerance:.0%}); stages: "
                + ", ".join(f"{n}={s['seconds']:.6f}s"
                            for n, s in report["stages"].items()))
        return report

    def table_rows(self, wall_s: float) -> list[tuple[str, str, str]]:
        """Rows for :func:`repro.harness.report.render_table`."""
        report = self.attribution(wall_s)
        rows = [
            (name, f"{stat['seconds'] * 1e3:.3f} ms",
             f"{stat['fraction'] * 100:.1f}% of run, "
             f"{stat['calls']} calls")
            for name, stat in report["stages"].items()
        ]
        rows.append(("(unattributed)",
                     f"{report['unattributed_s'] * 1e3:.3f} ms",
                     f"wall {wall_s * 1e3:.3f} ms, "
                     f"coverage {report['coverage'] * 100:.2f}%"))
        return rows
