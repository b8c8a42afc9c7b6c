"""Command-line entry: ``python -m repro.harness <experiment> [--quick]``.

``all`` regenerates every table and figure in paper order.
``snapshots verify|gc`` audits/cleans the on-disk build cache.
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from ..core.errors import ReproError
from .experiments import REGISTRY, list_experiments, run_experiment

ORDER = ("table1", "table2", "table3", "table4", "table5",
         "fig5", "fig6", "fig7", "fig8", "fig9")


def _unknown(name: str, choices, what: str) -> str:
    """A friendly unknown-name message with did-you-mean suggestions."""
    hints = difflib.get_close_matches(name, list(choices), n=3, cutoff=0.5)
    msg = f"unknown {what} {name!r}"
    if hints:
        msg += "; did you mean " + " or ".join(repr(h) for h in hints) + "?"
    msg += f"\nvalid {what}s: {', '.join(sorted(choices))}"
    return msg


def _snapshots_main(argv: list[str]) -> int:
    """``repro-harness snapshots verify|gc`` — audit the build cache."""
    parser = argparse.ArgumentParser(
        prog="repro-harness snapshots",
        description="Verify or garbage-collect the on-disk snapshot store.",
    )
    parser.add_argument("action", choices=("verify", "gc"),
                        help="verify: report integrity (exit 1 on corruption);"
                             " gc: quarantine corrupt files and delete debris")
    parser.add_argument("--dir", default=None,
                        help="snapshot directory (default: the build cache)")
    parser.add_argument("--any-version", action="store_true",
                        help="accept snapshots from other CACHE_VERSIONs")
    parser.add_argument("--headers-only", action="store_true",
                        help="verify headers without reading payloads")
    args = parser.parse_args(argv)

    from . import snapshots
    from .cache import CACHE_VERSION, cache_dir

    directory = Path(args.dir) if args.dir else cache_dir()
    version = None if args.any_version else CACHE_VERSION
    if args.action == "verify":
        report = snapshots.verify_store(directory, cache_version=version,
                                        full=not args.headers_only)
    else:
        report = snapshots.gc_store(directory, cache_version=version)
    print(report.summary())
    for path, reason in report.corrupt:
        print(f"  corrupt: {path.name}: {reason}")
    if args.action == "verify":
        return 0 if report.healthy else 1
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: normal exit.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ReproError as exc:
        # Every library failure carries a stable machine-readable code
        # (``repro.core.errors``); surface it instead of a stack trace so
        # scripts can branch on the class of failure.
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1


def _main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "snapshots":
        return _snapshots_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-harness",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiment", nargs="?", default=None,
                        help="experiment id (e.g. fig9), or 'all'")
    parser.add_argument("--quick", action="store_true",
                        help="reduced packet counts / sweep density")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments")
    parser.add_argument("--json", metavar="DIR", default=None,
                        help="also write each experiment's data as "
                             "DIR/<experiment>.json")
    profile_group = parser.add_argument_group(
        "profile options",
        "--algorithms and --ruleset are only honoured by the 'profile' "
        "experiment, --out by 'profile' and 'serve-soak'")
    profile_group.add_argument("--algorithms", default=None,
                               help="comma-separated algorithm list "
                                    "(default: expcuts,hicuts)")
    profile_group.add_argument("--ruleset", default=None,
                               help="rule set to profile (default: CR04, "
                                    "CR01 with --quick)")
    profile_group.add_argument("--out", default="results",
                               help="directory for the profile and "
                                    "serve-soak artifacts "
                                    "(default: results/)")
    soak_group = parser.add_argument_group(
        "soak options",
        "only honoured by the 'serve-soak' and 'chaos-soak' experiments")
    soak_group.add_argument("--scenario", default=None,
                            help="traffic scenario to drive the soak with "
                                 "(see repro.traffic.scenarios.SCENARIOS; "
                                 "default: the canonical sampled trace)")
    args = parser.parse_args(argv)

    if args.list or args.experiment is None:
        print("Available experiments:")
        for name, desc in list_experiments():
            print(f"  {name:8s} {desc}")
        print("  snapshots verify|gc   audit the on-disk build cache")
        return 0

    names = ORDER if args.experiment == "all" else (args.experiment,)
    for name in names:
        if name not in REGISTRY:
            print(_unknown(name, tuple(REGISTRY) + ("all",), "experiment"),
                  file=sys.stderr)
            return 2
        start = time.time()
        if name == "profile" and (args.algorithms or args.ruleset
                                  or args.out != "results"):
            from ..classifiers import ALGORITHMS
            from ..rulesets import PROFILES
            from .profile import DEFAULT_ALGORITHMS, run_profile

            algorithms = (tuple(a.strip() for a in args.algorithms.split(",")
                                if a.strip())
                          if args.algorithms else DEFAULT_ALGORITHMS)
            for algorithm in algorithms:
                if algorithm not in ALGORITHMS:
                    print(_unknown(algorithm, ALGORITHMS, "algorithm"),
                          file=sys.stderr)
                    return 2
            if args.ruleset is not None and args.ruleset not in PROFILES:
                print(_unknown(args.ruleset, PROFILES, "ruleset"),
                      file=sys.stderr)
                return 2
            result = run_profile(quick=args.quick, algorithms=algorithms,
                                 ruleset=args.ruleset, out_dir=args.out)
        elif args.scenario is not None or name == "serve-soak":
            from ..traffic.scenarios import SCENARIOS
            from .soak import SPECS, run_soak

            if name not in ("serve-soak", "chaos-soak"):
                print(f"--scenario is only honoured by serve-soak and "
                      f"chaos-soak, not {name!r}", file=sys.stderr)
                return 2
            if args.scenario not in (None, *SCENARIOS):
                print(_unknown(args.scenario, SCENARIOS, "scenario"),
                      file=sys.stderr)
                return 2
            # Only serve-soak exports artifacts; other specs ignore out_dir.
            result = run_soak(replace(SPECS[name], out_dir=args.out),
                              quick=args.quick, scenario=args.scenario)
        else:
            result = run_experiment(name, quick=args.quick)
        print(result.text)
        print(f"[{name} regenerated in {time.time() - start:.1f}s]")
        print()
        if args.json:
            out_dir = Path(args.json)
            out_dir.mkdir(parents=True, exist_ok=True)
            payload = {
                "experiment": result.experiment,
                "title": result.title,
                "quick": args.quick,
                "data": result.data,
            }
            path = out_dir / f"{name}.json"
            path.write_text(json.dumps(payload, indent=2, default=str))
            print(f"[data written to {path}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
