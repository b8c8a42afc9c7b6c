"""Worker lifecycle supervision for the serving fabric.

The :class:`Supervisor` owns every shard worker process: it spawns
them, probes liveness over the pipe, declares the dead dead (abrupt
exit *or* a hang past the liveness deadline), restarts them with
exponential backoff under a crash-loop budget, and keeps the whole
story visible in ``fabric.*`` metrics.  State machine per worker::

              spawn ok ("ready")
    SPAWNING ────────────────────▶ RUNNING
        ▲                           │ EOF / liveness misses /
        │ restart_at reached,       │ reply timeout
        │ budget ok                 ▼
     DOWN ◀─────────────────────── (death: SIGKILL the remains,
        │        backoff            schedule restart)
        │ crash-loop budget exhausted
        ▼
     PARKED  (no automatic restarts; requests shed with a typed reason)

Time discipline: *scheduling* (backoff, heartbeat cadence, restart
charges) runs on the injectable clock so a simulated soak reproduces
bit-for-bit, while *pipe waits* (how long to wait for a pong before
calling it a miss) are real wall-clock bounds — a dead worker never
answers regardless of how the simulated clock is driven, so outcomes
stay deterministic.

Restarts are **warm by design**: the worker reloads the shard's
content-verified snapshot; a corrupt snapshot is quarantined by the
worker and rebuilt cold (degrading to the linear slow path if the
build raises), after which the supervisor re-publishes a fresh snapshot
via the ``reseed_snapshot`` hook so the *next* restart is warm again.
"""

from __future__ import annotations

import multiprocessing
import os
import select
import signal
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..core.errors import (
    ConfigurationError,
    ShardUnavailable,
    TransientServiceError,
    WorkerCrashLoop,
)
from ..obs.metrics import MetricScope, MetricsRegistry
from ..obs.span import NULL_STAGE_TIMER, StageTimer
from .transport import ShardSpec, pack_rows, unpack_answers, worker_main

SPAWNING = "spawning"
RUNNING = "running"
DOWN = "down"
PARKED = "parked"
STOPPED = "stopped"

#: Shed phase of a shard whose worker is not running, by worker state.
DOWN_PHASES = {DOWN: "restarting", SPAWNING: "restarting", PARKED: "parked"}


@dataclass(frozen=True)
class SupervisionPolicy:
    """Every knob of worker supervision (see ``docs/serving.md``)."""

    # -- liveness ----------------------------------------------------------
    #: Simulated-time cadence of heartbeat probes per worker.
    heartbeat_interval_s: float = 0.05
    #: Real-time wait for a pong before counting a miss.
    heartbeat_timeout_s: float = 1.0
    #: Consecutive missed heartbeats that declare a worker dead.
    liveness_misses: int = 2
    #: Real-time wait for a classify reply before declaring death.
    reply_timeout_s: float = 5.0
    #: Real-time wait for the post-spawn ``ready`` message.
    ready_timeout_s: float = 60.0

    # -- restarts ----------------------------------------------------------
    #: First restart delay after a death (simulated seconds); doubles
    #: per consecutive death up to ``restart_backoff_max_s``.
    restart_backoff_base_s: float = 0.02
    restart_backoff_mult: float = 2.0
    restart_backoff_max_s: float = 1.0
    #: Simulated cost charged for a warm (snapshot) restart.
    warm_restart_cost_s: float = 0.01
    #: Simulated cost charged for a cold (rebuild) restart.
    cold_restart_cost_s: float = 0.1

    # -- crash-loop budget -------------------------------------------------
    #: Restarts within this window (simulated seconds) that exhaust the
    #: budget and park the shard.
    crash_loop_window_s: float = 10.0
    crash_loop_budget: int = 5

    def __post_init__(self) -> None:
        if self.heartbeat_interval_s <= 0 or self.heartbeat_timeout_s <= 0:
            raise ConfigurationError("heartbeat timings must be positive")
        if self.liveness_misses < 1:
            raise ConfigurationError("liveness_misses must be >= 1")
        if self.reply_timeout_s <= 0 or self.ready_timeout_s <= 0:
            raise ConfigurationError("reply/ready timeouts must be positive")
        if self.restart_backoff_base_s < 0 or self.restart_backoff_max_s < 0:
            raise ConfigurationError("backoff delays must be non-negative")
        if self.restart_backoff_mult < 1.0:
            raise ConfigurationError("restart_backoff_mult must be >= 1.0")
        if self.warm_restart_cost_s < 0 or self.cold_restart_cost_s < 0:
            raise ConfigurationError("restart costs must be non-negative")
        if self.crash_loop_window_s <= 0 or self.crash_loop_budget < 1:
            raise ConfigurationError("crash-loop budget must be positive")

    def backoff(self, consecutive_deaths: int) -> float:
        """Restart delay after the Nth consecutive death (1-based)."""
        raw = (self.restart_backoff_base_s
               * self.restart_backoff_mult ** max(0, consecutive_deaths - 1))
        return min(self.restart_backoff_max_s, raw)


@dataclass(frozen=True)
class OutageRecord:
    """One completed worker outage, in simulated time."""

    shard: str
    down_at: float
    up_at: float
    why: str
    warm: bool


class WorkerHandle:
    """Supervisor-side view of one shard worker."""

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.state = STOPPED
        self.process = None
        self.conn = None
        #: ``select.poll`` over ``conn``, registered once per spawn.
        self.poller = None
        self.starts = 0
        self.consecutive_deaths = 0
        self.last_heartbeat_at = float("-inf")
        self.restart_at = 0.0
        self.down_since = 0.0
        self.down_why = ""
        self.heartbeat_misses_now = 0
        self.restart_times: list[float] = []
        self.slow_start_factor = 1.0
        self.last_ready_info: dict = {}
        self.park_error: WorkerCrashLoop | None = None
        #: Last update epoch the worker reported applying (from the
        #: ``ready`` info, every pong, and every classify result).
        self.applied_epoch = spec.epoch

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None


class Supervisor:
    """Spawn, health-check, and restart the fabric's shard workers.

    Not internally locked: the owning :class:`~repro.serve.fabric.Fabric`
    serialises all calls under its request lock, the same discipline the
    circuit breaker uses.
    """

    def __init__(self, specs: Sequence[ShardSpec],
                 policy: SupervisionPolicy | None = None,
                 clock: Callable[[], float] | None = None,
                 charge: Callable[[float], None] | None = None,
                 metrics: MetricsRegistry | MetricScope | None = None,
                 reseed_snapshot: Callable[[ShardSpec], None] | None = None,
                 stage_timer: StageTimer | None = None) -> None:
        if not specs:
            raise ConfigurationError("need at least one shard spec")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate shard names in {names}")
        self.policy = policy or SupervisionPolicy()
        self._clock = clock or time.monotonic
        #: Simulated-cost sink (``ManualClock.advance`` in soaks); with a
        #: real clock the spawn itself already consumed the time.
        self._charge = charge
        # Forked: a spec reaches its worker by fork-time inheritance.
        self._ctx = multiprocessing.get_context("fork")
        self._reseed = reseed_snapshot
        self._stages = stage_timer or NULL_STAGE_TIMER
        if metrics is None:
            metrics = MetricsRegistry()
        if isinstance(metrics, MetricsRegistry):
            metrics = metrics.scope("fabric")
        self._scope = metrics
        self.handles: dict[str, WorkerHandle] = {
            spec.name: WorkerHandle(spec) for spec in specs
        }
        self.outages: list[OutageRecord] = []
        self._update_available()

    # -- queries -----------------------------------------------------------

    def state(self, shard: str) -> str:
        return self.handles[shard].state

    def available(self) -> int:
        return sum(1 for h in self.handles.values() if h.state == RUNNING)

    def any_down(self) -> bool:
        return any(h.state in (DOWN, SPAWNING, PARKED)
                   for h in self.handles.values())

    def _update_available(self) -> None:
        self._scope.gauge("shards_available").set(self.available())
        self._scope.gauge("shards_total").set(len(self.handles))

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spawn every worker (the initial, warm-from-snapshot start)."""
        now = self._clock()
        for handle in self.handles.values():
            self._spawn(handle, now)

    def stop(self) -> dict[str, dict]:
        """Gracefully stop every worker; returns per-shard final stats."""
        stats: dict[str, dict] = {}
        for handle in self.handles.values():
            stats[handle.name] = self._stop_worker(handle)
        self._update_available()
        return stats

    def _stop_worker(self, handle: WorkerHandle) -> dict:
        final: dict = {}
        if handle.state == RUNNING and handle.conn is not None:
            try:
                handle.conn.send(("stop",))
                if handle.conn.poll(self.policy.reply_timeout_s):
                    message = handle.conn.recv()
                    if message[0] == "bye":
                        final = message[1]
            except (EOFError, BrokenPipeError, OSError):
                pass
        self._reap(handle)
        handle.state = STOPPED
        return final

    def _reap(self, handle: WorkerHandle) -> None:
        """Make very sure the OS process is gone and the pipe closed."""
        if handle.process is not None:
            try:
                if handle.process.is_alive():
                    handle.process.kill()
                handle.process.join(timeout=10.0)
            except (OSError, ValueError):
                pass
            handle.process = None
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:
                pass
            handle.conn = None
            handle.poller = None

    # -- spawning ----------------------------------------------------------

    def _spawn(self, handle: WorkerHandle, now: float) -> bool:
        """Start one worker and wait for ``ready`` (bounded, real time).

        Returns True when the worker came up; on failure the handle is
        scheduled for a backed-off retry (or parked by the budget).
        """
        handle.state = SPAWNING
        parent, child = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main, args=(child, handle.spec),
            name=f"fabric-{handle.name}", daemon=True)
        process.start()
        child.close()  # the worker owns this end now; EOF must propagate
        handle.process = process
        handle.conn = parent
        handle.poller = select.poll()
        handle.poller.register(parent.fileno(), select.POLLIN)
        handle.starts += 1
        self._scope.counter("spawns").inc()
        ready = self._await(handle, ("ready",), self.policy.ready_timeout_s)
        if ready is None:
            self._scope.counter("failed_starts").inc()
            self._note_death(handle, now, "failed_start")
            return False
        info = ready[1]
        handle.last_ready_info = info
        handle.state = RUNNING
        handle.heartbeat_misses_now = 0
        handle.last_heartbeat_at = now
        handle.applied_epoch = int(info.get("applied_epoch",
                                            handle.spec.epoch))
        cost = (self.policy.warm_restart_cost_s if info.get("warm")
                else self.policy.cold_restart_cost_s)
        cost *= handle.slow_start_factor
        handle.slow_start_factor = 1.0
        if self._charge is not None and cost > 0:
            with self._stages.span("restart"):
                self._charge(cost)
        if info.get("warm"):
            self._scope.counter("warm_restarts").inc()
        else:
            self._scope.counter("cold_restarts").inc()
            if info.get("quarantined"):
                self._scope.counter("corrupt_snapshot_restarts").inc()
                if self._reseed is not None:
                    # Re-publish a healthy snapshot so the *next* restart
                    # is warm again (self-healing store).
                    self._reseed(handle.spec)
        if handle.down_since or handle.starts > 1:
            self.outages.append(OutageRecord(
                handle.name, handle.down_since, self._clock(),
                handle.down_why, bool(info.get("warm"))))
        handle.consecutive_deaths = 0
        self._update_available()
        return True

    # -- death and restart -------------------------------------------------

    def _note_death(self, handle: WorkerHandle, now: float, why: str) -> None:
        """A worker is gone: reap it and schedule the backed-off restart."""
        self._reap(handle)
        handle.consecutive_deaths += 1
        handle.state = DOWN
        handle.down_since = now
        handle.down_why = why
        handle.restart_at = now + self.policy.backoff(handle.consecutive_deaths)
        self._scope.counter("worker_deaths").inc()
        self._scope.counter(f"deaths.{why}").inc()
        self._update_available()

    def tick(self, now: float | None = None) -> None:
        """Periodic supervision pass: heartbeats due, restarts due."""
        if now is None:
            now = self._clock()
        for handle in self.handles.values():
            if handle.state == RUNNING:
                if (now - handle.last_heartbeat_at
                        >= self.policy.heartbeat_interval_s):
                    self.probe(handle.name, now)
            elif handle.state == DOWN and now >= handle.restart_at:
                self._maybe_restart(handle, now)

    def _maybe_restart(self, handle: WorkerHandle, now: float) -> None:
        window_start = now - self.policy.crash_loop_window_s
        handle.restart_times = [t for t in handle.restart_times
                                if t >= window_start]
        if len(handle.restart_times) >= self.policy.crash_loop_budget:
            handle.state = PARKED
            handle.park_error = WorkerCrashLoop(
                handle.name, len(handle.restart_times),
                self.policy.crash_loop_window_s)
            self._scope.counter("crash_loop_parked").inc()
            self._update_available()
            return
        handle.restart_times.append(now)
        self._scope.counter("restarts").inc()
        self._spawn(handle, now)

    def probe(self, shard: str, now: float | None = None) -> bool:
        """Heartbeat one worker immediately; returns liveness.

        A missed pong counts under ``fabric.heartbeat_misses``;
        ``liveness_misses`` consecutive misses — or a closed pipe —
        declare the worker dead and schedule its restart.
        """
        handle = self.handles[shard]
        if handle.state != RUNNING or handle.conn is None:
            return False
        if now is None:
            now = self._clock()
        handle.last_heartbeat_at = now
        self._scope.counter("heartbeats").inc()
        try:
            handle.conn.send(("ping", handle.starts))
        except (BrokenPipeError, OSError):
            self._scope.counter("heartbeat_misses").inc()
            self._note_death(handle, now, "pipe_closed")
            return False
        pong = self._await(handle, ("pong",), self.policy.heartbeat_timeout_s)
        if pong is None:
            self._scope.counter("heartbeat_misses").inc()
            handle.heartbeat_misses_now += 1
            # Not RUNNING here: _await saw EOF and declared the death.
            if (handle.state == RUNNING
                    and handle.heartbeat_misses_now
                    >= self.policy.liveness_misses):
                self._note_death(handle, now, "liveness")
            return False
        handle.heartbeat_misses_now = 0
        handle.applied_epoch = pong[2]
        return True

    def _await(self, handle: WorkerHandle, kinds: tuple[str, ...],
               timeout_s: float):
        """Receive the next message of one of ``kinds`` (real-time bound).

        Stale messages of other kinds (a pong that arrived after its
        probe was already counted as a miss) are drained and dropped.
        Returns ``None`` on timeout; on EOF the death is recorded and
        ``None`` returned.  The wait is the handle's own ``select.poll``,
        registered at spawn: ``Connection.poll`` would build a new
        selector on every call.  A closed peer reads as ready (``POLLHUP``)
        and ``recv`` then raises ``EOFError``.
        """
        wall = time.monotonic
        deadline = wall() + timeout_s
        conn, poller = handle.conn, handle.poller
        while conn is not None:
            remaining = deadline - wall()
            if remaining <= 0:
                return None
            try:
                if not poller.poll(remaining * 1000.0):
                    return None
                message = conn.recv()
            except (EOFError, OSError):
                if handle.state == RUNNING:
                    self._note_death(handle, self._clock(), "pipe_closed")
                # During SPAWNING the caller (_spawn) records the death
                # as "failed_start" — don't double-count it here.
                return None
            if message[0] in kinds:
                return message
            self._scope.counter("stale_messages").inc()
        return None

    # -- serving -----------------------------------------------------------

    def request(self, shard: str, headers,
                now: float | None = None) -> np.ndarray:
        """Classify ``headers`` on ``shard``; returns global rule indices.

        ``headers`` is an ``(n, 5)`` uint32 block or any sequence of
        headers (packed here); the answers are ``n`` int32 global rule
        indices, ``-1`` where no rule matches.

        Raises :class:`ShardUnavailable` when the shard cannot serve
        (down, restarting, parked, or it died mid-request) and
        :class:`TransientServiceError` when the worker answered with an
        error — both retryable conditions for the caller's policy.
        """
        handle = self.handles[shard]
        if handle.state != RUNNING or handle.conn is None:
            raise ShardUnavailable(shard,
                                   DOWN_PHASES.get(handle.state, "down"))
        if now is None:
            now = self._clock()
        try:
            handle.conn.send(("classify", pack_rows(headers).tobytes()))
        except (BrokenPipeError, OSError):
            self._note_death(handle, now, "pipe_closed")
            raise ShardUnavailable(shard, "down") from None
        reply = self._await(handle, ("result", "error"),
                            self.policy.reply_timeout_s)
        if reply is None:
            if handle.state == RUNNING:
                # Alive but silent past the deadline: treat as hung.
                self._note_death(handle, now, "request_timeout")
            raise ShardUnavailable(shard, "down")
        if reply[0] == "error":
            raise TransientServiceError(
                f"shard {shard} lookup failed: {reply[1]}")
        if len(reply) > 2:
            # Answers are stamped with the epoch they were served at so
            # the fabric can audit against exactly that rule version.
            handle.applied_epoch = int(reply[2])
        return unpack_answers(reply[1])

    # -- update propagation ------------------------------------------------

    def send_update(self, shard: str, epoch: int, ops,
                    now: float | None = None) -> bool:
        """Fan one epoch's shard-local edit batch to a running worker.

        One-way (the worker acknowledges via pong/result epochs); a
        closed pipe records the death exactly like a failed heartbeat.
        Returns False when the worker could not be reached — the caller
        relies on anti-entropy, not retries, to converge.
        """
        handle = self.handles[shard]
        if handle.state != RUNNING or handle.conn is None:
            return False
        try:
            handle.conn.send(("update", epoch, ops))
        except (BrokenPipeError, OSError):
            self._note_death(handle, self._clock() if now is None else now,
                             "pipe_closed")
            return False
        self._scope.counter("updates_sent").inc()
        return True

    def refresh_spec(self, shard: str, spec: ShardSpec) -> None:
        """Swap the spec future (re)starts of ``shard`` will serve from.

        The running worker is untouched — its in-memory state already
        reflects (or will converge to) the new spec's epoch via update
        messages; only the next spawn reads the spec.
        """
        if spec.name != shard:
            raise ConfigurationError(
                f"spec {spec.name!r} cannot replace shard {shard!r}")
        self.handles[shard].spec = spec

    def recycle(self, shard: str, why: str = "stale_epoch",
                now: float | None = None) -> None:
        """Deliberately kill a running worker so supervision restarts it
        from the (freshly republished) snapshot — the repair of last
        resort when a worker lags beyond the retained update history."""
        handle = self.handles[shard]
        if handle.state != RUNNING:
            return
        self.inject_kill(shard)
        self._note_death(handle, self._clock() if now is None else now, why)

    # -- chaos hooks -------------------------------------------------------
    # Used by the chaos soak and tests; deliberate, bounded, and safe to
    # call in production (they only touch this supervisor's children).

    def inject_kill(self, shard: str) -> None:
        """SIGKILL the worker *without* telling the supervisor.

        Detection must come from supervision (heartbeat/EOF), exactly
        like a real crash.  Blocks until the OS confirms the death so
        injection points stay deterministic.
        """
        handle = self.handles[shard]
        if handle.process is None or handle.pid is None:
            return
        try:
            os.kill(handle.pid, signal.SIGKILL)
        except (ProcessLookupError, OSError):
            pass
        handle.process.join(timeout=10.0)

    def inject_hang(self, shard: str) -> None:
        """Make the worker stop replying while staying alive."""
        handle = self.handles[shard]
        if handle.state != RUNNING or handle.conn is None:
            return
        try:
            handle.conn.send(("hang",))
        except (BrokenPipeError, OSError):
            pass

    def arm_slow_start(self, shard: str, factor: float) -> None:
        """Multiply the simulated cost of the shard's next restart."""
        if factor < 1.0:
            raise ConfigurationError("slow-start factor must be >= 1.0")
        self.handles[shard].slow_start_factor = factor

    # -- reporting ---------------------------------------------------------

    def report(self) -> dict:
        """JSON-friendly per-shard supervision state (no pids: those are
        nondeterministic and belong in logs, not artifacts)."""
        return {
            name: {
                "state": handle.state,
                "starts": handle.starts,
                "consecutive_deaths": handle.consecutive_deaths,
                "warm": bool(handle.last_ready_info.get("warm")),
                "degradation": handle.last_ready_info.get("degradation"),
                "parked": handle.state == PARKED,
                "applied_epoch": handle.applied_epoch,
                "replayed_deltas": handle.last_ready_info.get(
                    "replayed_deltas", 0),
            }
            for name, handle in self.handles.items()
        }
