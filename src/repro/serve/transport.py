"""Worker-process transport for the sharded serving fabric.

One fabric shard = one OS process running :func:`worker_main` over a
duplex pipe.  The module defines the *entire* parent/worker contract so
the supervisor and the worker cannot drift apart:

parent → worker messages::

    ("ping", seq)          liveness probe; a healthy worker answers pong
    ("classify", rows)     classify a batch; answers ("result", ...)
    ("update", epoch, ops) one epoch's shard-local rule edits (one-way)
    ("stop",)              graceful shutdown; answers ("bye", stats)
    ("hang",)              chaos hook: stop reading the pipe forever
    ("exit", code)         chaos hook: abrupt os._exit (no goodbye)

worker → parent messages::

    ("ready", info)        sent once after the serving structure exists
    ("pong", seq, epoch)   liveness answer with the worker's applied epoch
    ("result", answers, applied_epoch)
                           global rule indices for one classify batch,
                           stamped with the epoch they were served at
    ("error", message)     a lookup failed; the request is retryable
    ("bye", stats)         graceful-stop acknowledgement

**Classify payloads are packed.**  ``rows`` is the ``bytes`` of a
C-contiguous ``(n, 5)`` uint32 header block (:data:`HEADER_DTYPE`, one
row per header in field order), and ``answers`` the ``bytes`` of ``n``
int32 global rule indices (:data:`ANSWER_DTYPE`), ``-1`` for no match.
:func:`pack_rows` and :func:`unpack_answers` are the two ends the parent
uses.  The message itself stays a pickled tuple, so framing and the
order of sends are those of every other message.  The worker answers a
request with one ``classify_many`` call over its rows, which for an
ExpCuts shard is one fused scalar walk loop (see
:meth:`~repro.core.engine.ExpCutsEngine.classify_many`).

**Update epochs.**  Rule updates arrive as ``("update", epoch, ops)``
with a fabric-wide monotonic epoch per batch.  The worker applies
batches strictly in epoch order: a duplicate (epoch already applied) is
dropped and counted, a gap (an epoch arrived early) is buffered until
the missing predecessors arrive — so lost, duplicated, or reordered
update messages can delay convergence but can never corrupt it.  Each
``ops`` batch is a tuple of shard-local edits::

    ("insert", local_pos, rule, global_pos)   rule lands on this shard
    ("remove", local_pos, global_pos)         a shard-local rule leaves
    ("shift", global_pos, +1 | -1)            global renumbering only

applied by :func:`apply_shard_ops`, which the restart path also uses to
replay persisted delta records (:mod:`repro.harness.snapshots`).  Its
renumbering half, :func:`apply_map_op`, is the one the parent runs on
the shard's global map, so the parent, a live worker and a replayed
restart number a shard's rules identically.

The worker is **expendable by design**: all durable state lives in the
shard's content-verified snapshot (:mod:`repro.harness.snapshots`), so a
SIGKILL at any instant costs only the restart.  On start the worker
walks the same degradation ladder the single-process service uses:

1. **warm** — load the shard's snapshot (verified before unpickling);
2. **cold** — on a missing or corrupt snapshot (quarantined first),
   rebuild from the shard's rules as an
   :class:`~repro.classifiers.updates.UpdatableClassifier`;
3. **linear** — if even the cold build raises, serve the linear scan:
   always correct, merely slow.

Answers are *global* rule indices: the worker classifies within its
shard and maps the local result through ``spec.global_map``, so the
fabric can audit every answer against the full-ruleset linear oracle.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from ..classifiers import ALGORITHMS, LinearSearchClassifier
from ..classifiers.updates import UpdatableClassifier
from ..core.errors import ReproError, SnapshotIntegrityError, UpdateError
from ..core.fields import NUM_FIELDS
from ..core.rule import Rule, RuleSet

#: Snapshot ``kind`` for a shard's published build (rules + structure).
SHARD_SNAPSHOT_KIND = "fabric-shard"
#: Delta-record ``kind`` for one epoch's shard-local edit log.
SHARD_DELTA_KIND = "fabric-shard-delta"
#: Wire dtype of a classify request's header rows.
HEADER_DTYPE = np.uint32
#: Wire dtype of a classify result's answers (``-1`` = no match).
ANSWER_DTYPE = np.int32


def pack_rows(headers) -> np.ndarray:
    """Headers as one C-contiguous ``(n, 5)`` uint32 block.

    A uint32 array passes through uncopied.  Anything else is read once
    (a sequence of headers through ``np.fromiter``) and range-checked:
    a field outside ``[0, 2**32)`` raises :class:`OverflowError` instead
    of wrapping into another header.
    """
    if isinstance(headers, np.ndarray):
        if headers.dtype == HEADER_DTYPE:
            return np.ascontiguousarray(headers).reshape(-1, NUM_FIELDS)
        wide = headers.astype(np.int64)
    else:
        wide = np.fromiter(chain.from_iterable(headers), np.int64,
                           NUM_FIELDS * len(headers))
    if (wide >> 32).any():
        raise OverflowError("header field outside [0, 2**32)")
    return wide.astype(HEADER_DTYPE).reshape(-1, NUM_FIELDS)


def unpack_answers(payload: bytes) -> np.ndarray:
    """The int32 answers of one ``result`` message."""
    return np.frombuffer(payload, dtype=ANSWER_DTYPE)


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker needs to serve one shard.

    Specs travel to the worker by fork-time inheritance (cheap, no
    serialisation); the snapshot at ``snapshot_path`` additionally
    carries the *built* structure so a restart is warm.  ``rules`` are
    the shard's rules in global priority order and ``global_map[i]`` is
    the global index of local rule ``i``.
    """

    name: str
    rules: tuple[Rule, ...]
    global_map: tuple[int, ...]
    snapshot_path: str
    algorithm: str = "expcuts"
    rebuild_threshold: int = 32
    #: The fabric update epoch this spec's ``rules``/``global_map``
    #: reflect; a cold build from the spec serves at exactly this epoch.
    epoch: int = 0
    #: Let worker builds absorb inserts by in-place structure edits
    #: (:meth:`~repro.classifiers.updates.UpdatableClassifier`).
    incremental: bool = False
    #: Test hook: die before sending ``ready`` (exercises the
    #: supervisor's failed-start and crash-loop paths).
    crash_on_start: bool = False

    def __post_init__(self) -> None:
        if len(self.rules) != len(self.global_map):
            raise ValueError("global_map must cover every shard rule")

    def build_base(self) -> UpdatableClassifier:
        """Build the shard's structure from its rules: the base the
        parent publishes and a worker's cold start are this one build."""
        ruleset = RuleSet(list(self.rules), name=f"shard-{self.name}")
        return UpdatableClassifier(
            ruleset, ALGORITHMS[self.algorithm],
            rebuild_threshold=self.rebuild_threshold,
            incremental=self.incremental)


def write_shard_snapshot(path: Path, spec: ShardSpec, base):
    """Publish one shard's build as a verified snapshot.

    Returns the written :class:`~repro.harness.snapshots.SnapshotHeader`
    — its payload SHA-256 anchors the shard's delta chain.
    """
    from ..harness.cache import CACHE_VERSION
    from ..harness.snapshots import write_snapshot

    payload = {
        "shard": spec.name,
        "rules": list(spec.rules),
        "global_map": list(spec.global_map),
        "epoch": spec.epoch,
        "base": base,
    }
    return write_snapshot(Path(path), payload, kind=SHARD_SNAPSHOT_KIND,
                          cache_version=CACHE_VERSION)


def apply_map_op(global_map: list[int], op: tuple) -> None:
    """Apply one shard-local op (see module docstring) to the shard's
    global map alone.

    ``global_map`` stays sorted ascending (shard rules are kept in
    global priority order), so local edit positions computed by the
    parent at translation time remain valid here.
    """
    kind = op[0]
    if kind == "insert":
        _, local_pos, _, global_pos = op
        _shift(global_map, global_pos, 1)
        global_map.insert(local_pos, global_pos)
    elif kind == "remove":
        _, local_pos, global_pos = op
        del global_map[local_pos]
        _shift(global_map, global_pos, -1)
    elif kind == "shift":
        _shift(global_map, op[1], op[2])
    else:
        raise UpdateError(f"unknown shard op kind {kind!r}")


def apply_shard_ops(classifier, global_map: list[int], ops) -> None:
    """Apply one epoch's shard-local batch to a classifier and its
    global map: each op's :func:`apply_map_op`, then its classifier edit.

    The classifier is an
    :class:`~repro.classifiers.updates.UpdatableClassifier` or, on the
    last degradation rung, a :class:`LinearSearchClassifier`; both edit
    their rule list through ``insert(rule, position)``/``remove(position)``.
    """
    for op in ops:
        apply_map_op(global_map, op)
        if op[0] == "insert":
            classifier.insert(op[2], op[1])
        elif op[0] == "remove":
            classifier.remove(op[1])


def _shift(global_map: list[int], global_pos: int, delta: int) -> None:
    """Renumber the global indices an insert at (``delta > 0``) or a
    removal of (``delta < 0``) global position ``global_pos`` moves."""
    first = global_pos if delta > 0 else global_pos + 1
    for i, g in enumerate(global_map):
        if g >= first:
            global_map[i] = g + delta


def _load_or_build(spec: ShardSpec) -> tuple[object, list[int], int, dict]:
    """The worker-side start ladder: warm snapshot → cold rebuild → linear.

    Returns ``(classifier, global_map, applied_epoch, info)`` where
    ``info`` is the ``ready`` payload (``warm``, ``degradation``,
    ``quarantined``, ``applied_epoch``, ``replayed_deltas``).  A warm
    start loads the verified base snapshot **and replays its delta
    chain** — a broken link quarantines the unreplayable suffix (inside
    :func:`~repro.harness.snapshots.load_chain`) and the worker serves
    the salvaged epoch; the parent's anti-entropy pump repairs the lag
    over the pipe.
    """
    from ..harness.cache import CACHE_VERSION
    from ..harness.snapshots import load_chain, quarantine

    info: dict = {"shard": spec.name, "pid": os.getpid(),
                  "warm": False, "quarantined": False, "degradation": None,
                  "applied_epoch": spec.epoch, "replayed_deltas": 0}
    path = Path(spec.snapshot_path)
    if path.exists():
        try:
            chain = load_chain(path, kind=SHARD_SNAPSHOT_KIND,
                               cache_version=CACHE_VERSION,
                               delta_kind=SHARD_DELTA_KIND)
            payload = chain.base
            classifier = payload["base"]
            global_map = list(payload["global_map"])
            applied = int(payload.get("epoch", 0))
            for epoch, ops in chain.deltas:
                try:
                    apply_shard_ops(classifier, global_map, ops)
                except ReproError as exc:
                    # A verified record that still fails to apply means
                    # the parent's state diverged from ours; serve the
                    # last good epoch and let the pump repair the lag.
                    info["replay_error"] = repr(exc)
                    break
                applied = epoch
                info["replayed_deltas"] += 1
            info["warm"] = True
            info["applied_epoch"] = applied
            if not chain.intact:
                info["chain_broken"] = chain.broken
            return classifier, global_map, applied, info
        except SnapshotIntegrityError as exc:
            # The published image is unusable: set it aside for the
            # post-mortem and fall through to a cold rebuild — the
            # restart must *survive* corruption, not crash on it.
            quarantine(path, exc.reason)
            info["quarantined"] = True
            info["quarantine_reason"] = exc.reason
    global_map = list(spec.global_map)
    try:
        classifier = spec.build_base()
        info["degradation"] = classifier.degradation
        return classifier, global_map, spec.epoch, info
    except ReproError as exc:
        # Last rung: the linear scan over the shard's rules is the
        # oracle itself — slow, but a worker that serves slowly beats a
        # shard that stays dark.
        info["degradation"] = "linear"
        info["build_error"] = repr(exc)
        ruleset = RuleSet(list(spec.rules), name=f"shard-{spec.name}")
        return LinearSearchClassifier(ruleset), global_map, spec.epoch, info


def worker_main(conn, spec: ShardSpec) -> None:
    """Process target: serve one shard until told (or made) to stop."""
    if spec.crash_on_start:
        os._exit(3)
    classifier, global_map, applied_epoch, info = _load_or_build(spec)
    conn.send(("ready", info))
    served = 0
    dup_updates = 0
    applied_updates = 0
    #: Out-of-order buffer: epochs that arrived before their predecessors.
    pending_epochs: dict[int, object] = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break  # parent went away: nothing left to serve
        kind = message[0]
        if kind == "ping":
            conn.send(("pong", message[1], applied_epoch))
        elif kind == "classify":
            try:
                headers = np.frombuffer(message[1], dtype=HEADER_DTYPE
                                        ).reshape(-1, NUM_FIELDS).tolist()
                answers = [-1 if local is None else global_map[local]
                           for local in classifier.classify_many(headers)]
                served += len(headers)
                conn.send(("result",
                           np.array(answers, dtype=ANSWER_DTYPE).tobytes(),
                           applied_epoch))
            except Exception as exc:  # noqa: BLE001 - reported, not fatal
                conn.send(("error", repr(exc)))
        elif kind == "update":
            # Strict in-order application: duplicates drop, gaps buffer.
            # An op that raises kills the worker (crash-only: supervision
            # restarts it warm and the delta chain replays the truth).
            epoch, ops = message[1], message[2]
            if epoch <= applied_epoch:
                dup_updates += 1
            else:
                pending_epochs[epoch] = ops
                while applied_epoch + 1 in pending_epochs:
                    apply_shard_ops(classifier, global_map,
                                    pending_epochs.pop(applied_epoch + 1))
                    applied_epoch += 1
                    applied_updates += 1
        elif kind == "stop":
            conn.send(("bye", {"served": served,
                               "applied_epoch": applied_epoch,
                               "applied_updates": applied_updates,
                               "dup_updates": dup_updates}))
            break
        elif kind == "hang":
            # Chaos hook: alive but unresponsive — only the liveness
            # deadline can catch this failure mode.
            while True:
                time.sleep(3600.0)
        elif kind == "exit":
            os._exit(message[1])
        else:
            conn.send(("error", f"unknown message kind {kind!r}"))
    conn.close()
