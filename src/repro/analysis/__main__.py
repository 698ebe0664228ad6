"""CLI for the analysis suite.

Usage::

    PYTHONPATH=src python -m repro.analysis lint src/ [--strict]
    PYTHONPATH=src python -m repro.analysis staticcheck src/ [--strict]
    PYTHONPATH=src python -m repro.analysis race SCENARIO.yaml
    PYTHONPATH=src python -m repro.analysis bisect SCENARIO.yaml [--perturb K]
    PYTHONPATH=src python -m repro.analysis rules

``race`` and ``bisect`` run a scenario file through
``repro.scenarios.run_scenario`` — the one run harness — with the
detector attached, or twice with the store-event streams diffed.

Exit codes: 0 clean; 1 usage/internal error; 2 findings (active lint
or staticcheck findings, race conflicts, or a localized replay
divergence).
"""

import argparse
import sys
from pathlib import Path

from .bisect import first_divergence
from .linter import format_report, lint_paths, load_allowlist
from .rules import format_rule_catalog
from .staticcheck import check_paths, format_json, format_sarif

DEFAULT_ALLOWLIST = "analysis-allowlist.txt"


def _cmd_lint(args):
    allowlist = ()
    allowlist_path = args.allowlist
    if allowlist_path is None and Path(DEFAULT_ALLOWLIST).is_file():
        allowlist_path = DEFAULT_ALLOWLIST
    if allowlist_path is not None:
        try:
            allowlist = load_allowlist(allowlist_path)
        except (OSError, ValueError) as exc:
            print(f"lint: bad allowlist: {exc}", file=sys.stderr)
            return 1
    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        print(f"lint: no such path(s): {', '.join(missing)}",
              file=sys.stderr)
        return 1
    result = lint_paths(args.paths, allowlist=allowlist, strict=args.strict)
    print(format_report(result, verbose=args.verbose))
    return 0 if result.ok else 2


def _cmd_staticcheck(args):
    allowlist = ()
    allowlist_path = args.allowlist
    if allowlist_path is None and Path(DEFAULT_ALLOWLIST).is_file():
        allowlist_path = DEFAULT_ALLOWLIST
    if allowlist_path is not None:
        try:
            allowlist = load_allowlist(allowlist_path)
        except (OSError, ValueError) as exc:
            print(f"staticcheck: bad allowlist: {exc}", file=sys.stderr)
            return 1
    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        print(f"staticcheck: no such path(s): {', '.join(missing)}",
              file=sys.stderr)
        return 1
    result = check_paths(args.paths, allowlist=allowlist,
                         strict=args.strict)
    if args.format == "json":
        print(format_json(result))
    elif args.format == "sarif":
        print(format_sarif(result))
    else:
        print(format_report(result, verbose=args.verbose))
    return 0 if result.ok else 2


def _cmd_race(args):
    from repro.scenarios import load_scenario, run_scenario

    result = run_scenario(load_scenario(args.scenario), race_check=True,
                          track_reads=args.track_reads)
    print(result.detector.report())
    return 0 if result.detector.ok else 2


def _cmd_bisect(args):
    from repro.scenarios import load_scenario, run_scenario

    scenario = load_scenario(args.scenario)
    run_a = run_scenario(scenario).recorder
    run_b = run_scenario(scenario, perturb_swap=args.perturb).recorder
    divergence = first_divergence(run_a, run_b)
    if divergence is None:
        print(f"{scenario.name}: replay deterministic — "
              f"{len(run_a.digests)} store events, final digest "
              f"{run_a.final_digest[:16]}… identical across runs")
        return 0
    print(f"{scenario.name}: replay DIVERGED")
    print(divergence.format())
    return 2


def _cmd_rules(_args):
    print(format_rule_catalog())
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="determinism & isolation analysis suite")
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser("lint", help="run the determinism linter")
    lint.add_argument("paths", nargs="+", help="files or trees to lint")
    lint.add_argument("--allowlist", default=None,
                      help=f"allowlist file (default: {DEFAULT_ALLOWLIST} "
                           f"in the current directory, when present)")
    lint.add_argument("--strict", action="store_true",
                      help="also fail stale suppressions/allowlist entries")
    lint.add_argument("--verbose", action="store_true",
                      help="print suppressed and allowlisted findings too")
    lint.set_defaults(func=_cmd_lint)

    staticcheck = sub.add_parser(
        "staticcheck",
        help="run the whole-program concurrency/protocol checker")
    staticcheck.add_argument("paths", nargs="+",
                             help="files or trees to check")
    staticcheck.add_argument(
        "--allowlist", default=None,
        help=f"allowlist file (default: {DEFAULT_ALLOWLIST} in the "
             f"current directory, when present)")
    staticcheck.add_argument(
        "--strict", action="store_true",
        help="also fail stale C-rule suppressions/allowlist entries")
    staticcheck.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)")
    staticcheck.add_argument(
        "--verbose", action="store_true",
        help="print suppressed and allowlisted findings too (text)")
    staticcheck.set_defaults(func=_cmd_staticcheck)

    race = sub.add_parser(
        "race", help="run a scenario file under the race detector")
    race.add_argument("scenario", help="scenario YAML file")
    race.add_argument("--track-reads", action="store_true",
                      help="also flag read-write conflicts (diagnostic; "
                           "level-triggered reads make this noisy)")
    race.set_defaults(func=_cmd_race)

    bisect = sub.add_parser(
        "bisect",
        help="run a scenario file twice and localize the first divergence")
    bisect.add_argument("scenario", help="scenario YAML file")
    bisect.add_argument("--perturb", type=int, default=None,
                        help="flip the order of the Kth dispatched event "
                             "in the second run (divergence fixture)")
    bisect.set_defaults(func=_cmd_bisect)

    rules = sub.add_parser("rules", help="print the rule catalog")
    rules.set_defaults(func=_cmd_rules)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
