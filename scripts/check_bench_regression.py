#!/usr/bin/env python3
"""Compare fresh BENCH_*.json records against the committed baseline.

The benchmarks (``pytest benchmarks/ --benchmark-only``) drop one
``BENCH_<name>.json`` per heavy benchmark at the repo root; the committed
history of those files is the repository's performance trajectory.  This
script compares the records in the working tree against the versions at a
baseline git revision (default ``HEAD``) and fails when any throughput
metric regresses by more than ``--threshold`` (default 15%).

Usage::

    pytest benchmarks/ --benchmark-only -q
    python scripts/check_bench_regression.py [--baseline HEAD] [--threshold 0.15]

Exit status: 0 = no regressions (including "nothing to compare"),
1 = at least one metric regressed, 2 = usage/environment error or a
malformed record (invalid JSON or schema violations — see ``validate``).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_PREFIX = "BENCH_"

#: Payload schema versions this checker understands.  Records written
#: before the field existed are implicitly version 1; an unknown version
#: means the record shape may have changed under us, so the checker
#: refuses it (exit 2) instead of comparing blind.
KNOWN_SCHEMA_VERSIONS = (1, 2)

#: Metric leaves a given benchmark's record MUST carry.  A record that
#: drops one of these has lost the very signal its CI gate exists to
#: track (e.g. an update-storm record without a staleness reading says
#: nothing about propagation health), so absence is a schema violation
#: (exit 2), not a vacuously-passing comparison.
REQUIRED_METRICS: dict[str, tuple[str, ...]] = {
    "update_storm": ("goodput_kpps", "updates_per_s",
                     "staleness_headroom_epochs"),
    "adversarial_soak": ("attack_shed_fraction", "legit_goodput_ratio",
                         "legit_goodput_kpps"),
    "fabric_audit_path": ("uint32_b1_kpps", "uint32_b64_kpps"),
}


def repo_root() -> Path:
    out = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                         capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(2)
    return Path(out.stdout.strip())


def committed_record(root: Path, rev: str, name: str) -> dict | None:
    """The record as committed at ``rev``, or None if absent there."""
    out = subprocess.run(["git", "show", f"{rev}:{name}"],
                         cwd=root, capture_output=True, text=True)
    if out.returncode != 0:
        return None
    try:
        return json.loads(out.stdout)
    except json.JSONDecodeError:
        return None


def validate(record: object) -> list[str]:
    """Schema problems in one BENCH record (empty when well-formed).

    The schema is what :func:`repro.obs.perf.write_bench_record` emits:
    ``benchmark`` (str), ``schema_version`` (known int; absent means
    version 1), ``metrics`` (str -> number, higher-is-better),
    ``wall_time_s`` (number), ``date`` (str), optional ``extra`` (dict).
    A malformed committed record would otherwise make every future
    comparison silently vacuous, so the checker refuses it outright.
    """
    problems = []
    if not isinstance(record, dict):
        return [f"  record is {type(record).__name__}, expected object"]
    if not isinstance(record.get("benchmark"), str):
        problems.append("  'benchmark' missing or not a string")
    version = record.get("schema_version", 1)
    if isinstance(version, bool) or not isinstance(version, int):
        problems.append(
            f"  'schema_version' is {version!r}, expected an integer")
    elif version not in KNOWN_SCHEMA_VERSIONS:
        problems.append(
            f"  'schema_version' {version} is unknown to this checker "
            f"(knows {list(KNOWN_SCHEMA_VERSIONS)}); update "
            f"scripts/check_bench_regression.py for the new schema")
    metrics = record.get("metrics")
    if not isinstance(metrics, dict):
        problems.append("  'metrics' missing or not an object")
    elif not metrics:
        # An empty dict means the benchmark's extractor silently broke:
        # the record would pass every future comparison vacuously.
        problems.append("  'metrics' is empty (benchmark records nothing)")
    else:
        for key, value in sorted(metrics.items()):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                problems.append(f"  metric {key!r} is not a number")
        name = record.get("benchmark")
        if isinstance(name, str):
            for key in REQUIRED_METRICS.get(name, ()):
                if key not in metrics:
                    problems.append(f"  required metric {key!r} missing "
                                    f"from {name!r} record")
    if isinstance(record.get("wall_time_s"), bool) or not isinstance(
            record.get("wall_time_s"), (int, float)):
        problems.append("  'wall_time_s' missing or not a number")
    if not isinstance(record.get("date"), str):
        problems.append("  'date' missing or not a string")
    if "extra" in record and not isinstance(record["extra"], dict):
        problems.append("  'extra' present but not an object")
    return problems


def compare(fresh: dict, baseline: dict, threshold: float) -> list[str]:
    """Human-readable regression lines (empty when within tolerance)."""
    problems = []
    base_metrics = baseline.get("metrics", {})
    for key, new in sorted(fresh.get("metrics", {}).items()):
        old = base_metrics.get(key)
        if not isinstance(old, (int, float)) or old <= 0:
            continue
        drop = (old - new) / old
        if drop > threshold:
            problems.append(
                f"  {key}: {old:.4g} -> {new:.4g}  ({drop:+.1%} drop)"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default="HEAD",
                        help="git revision holding the reference records "
                             "(default: HEAD)")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="relative throughput drop that fails the check "
                             "(default: 0.15)")
    args = parser.parse_args(argv)

    root = repo_root()
    records = sorted(root.glob(f"{BENCH_PREFIX}*.json"))
    if not records:
        print("no BENCH_*.json records in the working tree; "
              "run the benchmarks first")
        return 0

    failed = False
    malformed = False
    for path in records:
        try:
            fresh = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            malformed = True
            print(f"{path.name}: MALFORMED (not valid JSON: {exc})")
            continue
        schema_problems = validate(fresh)
        if schema_problems:
            malformed = True
            print(f"{path.name}: MALFORMED (schema violations)")
            print("\n".join(schema_problems))
            continue
        baseline = committed_record(root, args.baseline, path.name)
        if baseline is None:
            print(f"{path.name}: new benchmark (no baseline at "
                  f"{args.baseline}); nothing to compare")
            continue
        problems = compare(fresh, baseline, args.threshold)
        if problems:
            failed = True
            print(f"{path.name}: REGRESSION vs {args.baseline} "
                  f"(threshold {args.threshold:.0%})")
            print("\n".join(problems))
        else:
            n = len(fresh.get("metrics", {}))
            print(f"{path.name}: ok ({n} metric(s) within "
                  f"{args.threshold:.0%} of {args.baseline})")
    if malformed:
        return 2
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
