"""Telemetry snapshot/export CLI.

Runs one scenario file through ``repro.scenarios.run_scenario`` and
prints the resulting telemetry snapshot::

    PYTHONPATH=src python -m repro.telemetry scenarios/smoke/telemetry_core.yaml
    PYTHONPATH=src python -m repro.telemetry FILE --format json --check

``--check`` verifies the export contains every core metric family with
activity; exit status 1 lists what's missing (or which of the
scenario's own expectations failed).  Output is deterministic per
scenario seed, so diffs between runs are meaningful.
"""

import argparse
import sys

from .export import check_core_families, render_json, render_text


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="run a scenario file and export its telemetry")
    parser.add_argument("scenario", help="scenario YAML file")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text")
    parser.add_argument("--output", default=None,
                        help="write the export here instead of stdout")
    parser.add_argument("--check", action="store_true",
                        help="fail unless every core metric family is "
                             "present with activity")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)

    # Imported here: the telemetry package itself imports nothing from
    # the rest of ``repro`` (the kernel owns a hub without a cycle).
    from repro.scenarios import load_scenario, run_scenario

    result = run_scenario(load_scenario(args.scenario))
    snapshot = result.env.sim.telemetry.snapshot()
    rendered = (render_json(snapshot) if args.format == "json"
                else render_text(snapshot))
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(rendered)
    else:
        print(rendered, end="" if rendered.endswith("\n") else "\n")

    problems = [f"scenario expectation failed: {failure}"
                for failure in result.failures]
    if args.check:
        problems.extend(check_core_families(snapshot))
    for problem in problems:
        print(f"check: {problem}", file=sys.stderr)
    if args.check and not problems:
        print("check: all core metric families present", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
