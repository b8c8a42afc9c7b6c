"""Perf-trajectory records: ``BENCH_<name>.json`` at the repo root.

Each heavyweight benchmark writes one machine-readable record of what it
measured — throughput figures, wall time, git revision, date — so the
committed history of these files *is* the performance trajectory of the
repository, and ``scripts/check_bench_regression.py`` can fail CI when a
fresh run regresses against the last committed record.
"""

from __future__ import annotations

import json
import os
import subprocess
from datetime import datetime, timezone
from pathlib import Path

BENCH_PREFIX = "BENCH_"

#: Version of the BENCH_*.json payload schema.  Bump when the shape
#: changes incompatibly; ``scripts/check_bench_regression.py`` and
#: ``scripts/bench_trend.py`` refuse records from versions they do not
#: know (records predating the field are implicitly version 1).
SCHEMA_VERSION = 2

#: Key fragments that mark a numeric leaf as a throughput figure.
#: ``kpps``/``goodput`` cover the serving layer, whose goodput numbers
#: were silently dropped while only the link-rate units matched.
THROUGHPUT_UNITS = ("gbps", "mbps", "mpps", "kpps", "goodput")


def repo_root(start: Path | None = None) -> Path:
    """The enclosing git work tree (fallback: two levels above here)."""
    here = start if start is not None else Path(__file__).resolve()
    for candidate in [here] + list(here.parents):
        if (candidate / ".git").exists():
            return candidate
    return Path(__file__).resolve().parents[3]


def _git(root: Path | None, *args: str) -> str | None:
    """``git <args>``'s stripped stdout in ``root``, or ``None`` when git
    is missing or fails (not a work tree, say)."""
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=root or repo_root(), capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def git_sha(root: Path | None = None) -> str | None:
    return _git(root, "rev-parse", "HEAD") or None


def git_dirty(root: Path | None = None) -> bool | None:
    """Does the work tree differ from ``HEAD`` (``None``: not known)?"""
    status = _git(root, "status", "--porcelain")
    return None if status is None else bool(status)


def extract_throughput(data: object, _prefix: str = "",
                       _out: dict | None = None) -> dict[str, float]:
    """Recursively pull throughput-shaped numbers out of a result payload.

    Any numeric leaf whose key path mentions one of
    :data:`THROUGHPUT_UNITS` (gbps/mbps/mpps/kpps/goodput) is kept,
    flattened to a dotted key — enough to turn every experiment's
    ``ExperimentResult.data`` into a comparable record without
    per-benchmark schemas.
    """
    out: dict[str, float] = _out if _out is not None else {}
    if isinstance(data, dict):
        items = [(str(k), v) for k, v in data.items()]
    elif isinstance(data, (list, tuple)):
        items = [(str(i), v) for i, v in enumerate(data)]
    else:
        return out
    for key, value in items:
        path = f"{_prefix}.{key}" if _prefix else key
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            lowered = path.lower()
            if any(unit in lowered for unit in THROUGHPUT_UNITS):
                out[path] = float(value)
        else:
            extract_throughput(value, path, out)
    return out


def write_bench_record(name: str, metrics: dict[str, float],
                       wall_time_s: float, root: Path | None = None,
                       extra: dict | None = None,
                       clock: str | None = None) -> Path:
    """Write ``BENCH_<name>.json`` and return its path.

    ``metrics`` holds only higher-is-better numbers — the regression
    checker flags any metric that *drops*, so a latency percentile or a
    shed rate (where lower is better) belongs in ``extra``, which is
    recorded for the trajectory but never rate-compared.  ``clock``
    names the clock domain the metrics were measured on (``"real"`` or
    ``"simulated"``) and is recorded when given.

    ``git_sha`` is ``HEAD`` when the record is written, so a record
    written before its commit names the commit before the code it
    measured; ``git_dirty: true`` then says the measured code was
    ``HEAD`` plus the uncommitted changes of the work tree.
    """
    root = root if root is not None else repo_root()
    payload = {
        "benchmark": name,
        "schema_version": SCHEMA_VERSION,
        "metrics": {k: metrics[k] for k in sorted(metrics)},
        "wall_time_s": round(wall_time_s, 3),
        "git_sha": git_sha(root),
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    if git_dirty(root):
        payload["git_dirty"] = True
    if clock is not None:
        payload["clock"] = clock
    if extra:
        payload["extra"] = {k: extra[k] for k in sorted(extra)}
    path = root / f"{BENCH_PREFIX}{name}.json"
    # Atomic publish: a Ctrl-C (or crash) mid-write must leave the old
    # committed record, never a truncated JSON that turns every later
    # check_bench_regression.py run into exit 2.
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(payload, indent=2) + "\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def read_bench_record(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())
