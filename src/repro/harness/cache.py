"""Build cache for classifiers and traces.

Classifier construction dominates harness wall time (tens of seconds for
ExpCuts/HSM on CR04), and every experiment wants the same seven builds.
This module memoises builds in-process and, unless ``REPRO_CACHE=0``,
persists them under ``.repro_cache/`` next to the working directory so
repeated harness/benchmark invocations start hot.

Disk entries are **verified snapshots** (:mod:`repro.harness.snapshots`):
a versioned header plus a SHA-256-checksummed pickle payload, written
atomically.  A load that fails *any* check — bad magic, truncation,
checksum mismatch, version skew — is logged with its path and reason,
counted in the ``snapshots.load_failures`` metric, quarantined as
``*.corrupt``, and falls through to a clean rebuild.  Unverified bytes
never reach the unpickler, and a failure is never silent.

Cache keys include a schema version — bump :data:`CACHE_VERSION` whenever
a change alters built structures, or stale snapshots would silently
shadow new code.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

from ..classifiers import ALGORITHMS, PacketClassifier
from ..core.errors import SnapshotIntegrityError
from ..core.rule import RuleSet
from ..obs import metrics_scope, obs_warn
from ..rulesets import paper_ruleset
from ..traffic import Trace, matched_trace
from . import snapshots

CACHE_VERSION = 8

#: Telemetry knobs never change the built structure, so they are stripped
#: before keying — a traced build and a plain build share one cache entry.
_TELEMETRY_PARAMS = frozenset({"trace", "metrics", "telemetry", "timeline"})

_memory_cache: dict[str, object] = {}


def cache_dir() -> Path:
    root = os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _disk_enabled() -> bool:
    return os.environ.get("REPRO_CACHE", "1") != "0"


def _load(key: str, kind: str):
    if key in _memory_cache:
        return _memory_cache[key]
    if _disk_enabled():
        path = cache_dir() / f"{key}{snapshots.SNAPSHOT_SUFFIX}"
        if path.exists():
            try:
                value = snapshots.read_snapshot(
                    path, kind=kind, cache_version=CACHE_VERSION, digest=key)
            except SnapshotIntegrityError as exc:
                obs_warn(f"snapshot load failed: {path} ({exc.reason}); "
                         f"rebuilding from source")
                metrics_scope("snapshots").counter("load_failures").inc()
                snapshots.quarantine(path, exc.reason)
                return None
            _memory_cache[key] = value
            return value
    return None


def _store(key: str, value, kind: str) -> None:
    _memory_cache[key] = value
    if _disk_enabled():
        path = cache_dir() / f"{key}{snapshots.SNAPSHOT_SUFFIX}"
        try:
            snapshots.write_snapshot(
                path, value, kind=kind, cache_version=CACHE_VERSION,
                digest=key)
        except Exception as exc:
            # A failed store only costs a rebuild next run — but say so.
            obs_warn(f"snapshot store failed: {path} ({exc!r})")
            metrics_scope("snapshots").counter("store_failures").inc()


def _key(*parts: object) -> str:
    blob = repr((CACHE_VERSION,) + parts).encode()
    return hashlib.sha256(blob).hexdigest()[:24]


def get_ruleset(name: str) -> RuleSet:
    """The synthetic twin of one of the paper's sets (memoised)."""
    from ..rulesets import PROFILES

    key = _key("ruleset", name, repr(PROFILES[name]))
    cached = _load(key, "ruleset")
    if cached is None:
        cached = paper_ruleset(name)
        _store(key, cached, "ruleset")
    return cached


def _ruleset_digest(name: str) -> str:
    """Content digest so classifier/trace caches track profile changes."""
    ruleset = get_ruleset(name)
    blob = repr([(tuple(r.intervals), r.action) for r in ruleset]).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def get_trace(ruleset_name: str, count: int = 1500, seed: int = 42,
              matched_fraction: float = 0.65) -> Trace:
    """The evaluation trace for one rule set (memoised).

    ``matched_fraction`` defaults to a mixed accept/miss blend: real
    gateway traffic includes headers no non-default rule matches, which
    is what exercises full leaf scans in linear-search algorithms.
    """
    key = _key("trace", ruleset_name, _ruleset_digest(ruleset_name),
               count, seed, matched_fraction)
    cached = _load(key, "trace")
    if cached is None:
        cached = matched_trace(get_ruleset(ruleset_name), count, seed=seed,
                               matched_fraction=matched_fraction)
        _store(key, cached, "trace")
    return cached


def get_classifier(ruleset_name: str, algorithm: str,
                   **params) -> PacketClassifier:
    """A built classifier for a paper rule set (memoised, incl. on disk).

    Telemetry parameters (:data:`_TELEMETRY_PARAMS`) are stripped before
    keying: they affect observation, never the built structure, so they
    must not fragment (or poison) the cache.
    """
    build_params = {k: v for k, v in params.items()
                    if k not in _TELEMETRY_PARAMS}
    key = _key("classifier", ruleset_name, _ruleset_digest(ruleset_name),
               algorithm, tuple(sorted(build_params.items())))
    cached = _load(key, "classifier")
    if cached is None:
        ruleset = get_ruleset(ruleset_name)
        cached = ALGORITHMS[algorithm].build(ruleset, **build_params)
        _store(key, cached, "classifier")
    return cached


def clear_memory_cache() -> None:
    """Drop the in-process cache (tests use this to isolate state)."""
    _memory_cache.clear()
