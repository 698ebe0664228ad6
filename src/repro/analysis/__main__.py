"""CLI for the analysis suite.

Usage::

    PYTHONPATH=src python -m repro.analysis check src/ [--strict] [--verbose]
    PYTHONPATH=src python -m repro.analysis bisect SCENARIO.yaml [--schedule S]
    PYTHONPATH=src python -m repro.analysis rules

``check`` runs both rule packs in one pass.  ``bisect`` runs a scenario
file twice through ``repro.scenarios.run_scenario`` — the one run
harness — and diffs the store-event streams; with ``--schedule S`` the
second run uses schedule seed ``S``.

Exit codes: 0 clean; 1 usage/internal error; 2 findings (active or
A000 findings, or a localized replay divergence).
"""

import argparse
import sys
from pathlib import Path

from .bisect import first_divergence
from .rules import format_rule_catalog
from .staticcheck import check_paths, format_report, load_allowlist

DEFAULT_ALLOWLIST = "analysis-allowlist.txt"


def _cmd_check(args):
    allowlist = ()
    allowlist_path = args.allowlist
    if allowlist_path is None and Path(DEFAULT_ALLOWLIST).is_file():
        allowlist_path = DEFAULT_ALLOWLIST
    if allowlist_path is not None:
        try:
            allowlist = load_allowlist(allowlist_path)
        except (OSError, ValueError) as exc:
            print(f"check: bad allowlist: {exc}", file=sys.stderr)
            return 1
    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        print(f"check: no such path(s): {', '.join(missing)}",
              file=sys.stderr)
        return 1
    result = check_paths(args.paths, allowlist=allowlist,
                         strict=args.strict)
    print(format_report(result, verbose=args.verbose))
    return 0 if result.ok else 2


def _cmd_bisect(args):
    from repro.scenarios import load_scenario, run_scenario

    scenario = load_scenario(args.scenario)
    run_a = run_scenario(scenario).recorder
    run_b = run_scenario(scenario, schedule=args.schedule).recorder
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

    check = sub.add_parser(
        "check", help="run the static analyzer (D- and C-rules)")
    check.add_argument("paths", nargs="+", help="files or trees to check")
    check.add_argument("--allowlist", default=None,
                       help=f"allowlist file (default: {DEFAULT_ALLOWLIST} "
                            f"in the current directory, when present)")
    check.add_argument("--strict", action="store_true",
                       help="also fail stale suppressions/allowlist entries")
    check.add_argument("--verbose", action="store_true",
                       help="print suppressed and allowlisted findings too")
    check.set_defaults(func=_cmd_check)

    bisect = sub.add_parser(
        "bisect",
        help="run a scenario file twice and localize the first divergence")
    bisect.add_argument("scenario", help="scenario YAML file")
    bisect.add_argument("--schedule", type=int, default=None,
                        help="run the second replay under this schedule "
                             "seed (same-timestamp tie-break order)")
    bisect.set_defaults(func=_cmd_bisect)

    rules = sub.add_parser("rules", help="print the rule catalog")
    rules.set_defaults(func=_cmd_rules)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
