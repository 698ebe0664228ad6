"""CLI: ``python -m repro.scenarios {list,run,record,verify}``.

``list``    show the corpus (tier, checks, golden status);
``run``     run one scenario file and print its result (``--report``
            adds the chaos fault table + timeline and the telemetry
            registry — did each fault bite, did each feature engage);
``record``  run and write the golden block back into the file(s);
``verify``  replay every scenario twice against its golden digest; a
            replay that differs from the previous one is bisected to
            its first divergent store event and owning component.  Runs
            with the object plane's freeze guard on, so a mutated shared
            snapshot fails the replay instead of skewing it.

``record`` rewrites only the ``golden:`` block, preserving the rest of
the hand-authored YAML (comments included).

A file that does not load is reported as one ``path: message`` line on
stderr and the command exits 2; ``verify`` reports it as FAIL and goes
on to the next file, then exits 2.
"""

import argparse
import json
import os
import re
import sys

from repro.chaos.engine import format_report
from repro.metrics import format_telemetry
from repro.objects.base import set_freeze_guard

from .errors import GoldenMismatch, ScenarioError
from .loader import corpus_paths, load_scenario
from .runner import record_scenario, run_scenario, verify_scenario

DEFAULT_CORPUS = os.path.join("scenarios", "corpus")


class _LoadFailed(Exception):
    """A scenario file did not load; ``str()`` is ``path: reason``."""

    def __init__(self, path, reason):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


def _scenario_files(path):
    if os.path.isdir(path):
        return corpus_paths(path)
    return [path]


def _load(path):
    try:
        return load_scenario(path)
    except (OSError, ScenarioError) as exc:
        raise _LoadFailed(path, exc) from exc


def _golden_block(golden):
    return ("golden:\n"
            f"  digest: {golden.digest}\n"
            f"  store_events: {golden.store_events}\n"
            f"  sim_time: {golden.sim_time}\n")


def rewrite_golden(path, golden):
    """Replace (or append) the top-level ``golden:`` block in a YAML file.

    Textual, not a YAML re-dump, so authored comments survive.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    block = _golden_block(golden)
    # The golden block runs from the `golden:` line to the next
    # top-level (column-0) key or EOF.
    pattern = re.compile(r"^golden:\n(?:[ \t]+\S[^\n]*\n|\n)*", re.M)
    if pattern.search(text):
        text = pattern.sub(block, text, count=1)
    else:
        if not text.endswith("\n"):
            text += "\n"
        text += "\n" + block
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def cmd_list(args):
    rows = []
    for path in _scenario_files(args.corpus):
        scenario = _load(path)
        flags = []
        if scenario.tier1:
            flags.append("tier1")
        if scenario.race_check:
            flags.append("race")
        if scenario.chaos:
            flags.append(f"chaos×{len(scenario.chaos)}")
        rows.append((
            scenario.name, f"{len(scenario.tenants)}t",
            f"{scenario.workload_count()}w",
            f"{scenario.topology.total_nodes()}n",
            f"{scenario.horizon:g}s",
            "recorded" if scenario.golden else "UNRECORDED",
            ",".join(flags) or "-"))
    width = max(len(row[0]) for row in rows) if rows else 8
    print(f"{'scenario':<{width}}  ten  wl  nodes  horizon  golden      "
          f"flags")
    for name, tenants, workloads, nodes, horizon, golden, flags in rows:
        print(f"{name:<{width}}  {tenants:>3}  {workloads:>2}  {nodes:>5}  "
              f"{horizon:>7}  {golden:<10}  {flags}")
    return 0


def _print_result(result, as_json=False):
    if as_json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return
    verdict = "ok" if result.ok else "FAIL"
    print(f"{result.scenario.name}: {verdict}  "
          f"digest={result.digest[:16]}…  events={result.store_events}  "
          f"pods={result.pods_created}  t={result.sim_time:.2f}s  "
          f"converged={result.converged}")
    for failure in result.failures:
        print(f"  failure: {failure}")


def cmd_run(args):
    status = 0
    for path in _scenario_files(args.path):
        scenario = _load(path)
        if args.seed is not None:
            scenario.seed = args.seed
        result = run_scenario(scenario,
                              race_check=True if args.race else None)
        _print_result(result, as_json=args.json)
        if args.report:
            if result.chaos_report is not None:
                print(format_report(result.chaos_report))
            print(format_telemetry(result.env.sim.telemetry.snapshot()))
        if not result.ok:
            status = 1
    return status


def cmd_record(args):
    for path in _scenario_files(args.path):
        scenario = _load(path)
        result = record_scenario(scenario)
        rewrite_golden(path, scenario.golden)
        print(f"{scenario.name}: recorded {result.digest[:16]}…  "
              f"events={result.store_events}  t={result.sim_time:.2f}s  "
              f"pods={result.pods_created}")
    return 0


def cmd_verify(args):
    status = 0
    set_freeze_guard(True)
    for path in _scenario_files(args.corpus):
        try:
            scenario = _load(path)
        except _LoadFailed as exc:
            print(f"{exc.path}: FAIL — {exc.reason}")
            status = 2
            continue
        try:
            results = verify_scenario(scenario, runs=args.runs)
        except (GoldenMismatch, ScenarioError) as exc:
            print(f"{scenario.name}: FAIL — {exc}")
            status = max(status, 1)
            continue
        extra = " race=clean" if scenario.race_check else ""
        print(f"{scenario.name}: ok — {args.runs}× replay matched "
              f"{scenario.golden.digest[:16]}… "
              f"({results[0].store_events} events){extra}")
    return status


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="Declarative scenario corpus: list, run, record, "
                    "verify (DESIGN.md §14)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="show the scenario corpus")
    p_list.add_argument("corpus", nargs="?", default=DEFAULT_CORPUS)
    p_list.set_defaults(func=cmd_list)

    p_run = sub.add_parser("run", help="run one scenario (no golden gate)")
    p_run.add_argument("path")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_run.add_argument("--race", action="store_true",
                       help="attach the vector-clock race detector")
    p_run.add_argument("--json", action="store_true")
    p_run.add_argument("--report", action="store_true",
                       help="also print the chaos report (per-fault "
                            "counters, timeline) and the telemetry table")
    p_run.set_defaults(func=cmd_run)

    p_record = sub.add_parser(
        "record", help="run and write the golden block into the file(s)")
    p_record.add_argument("path")
    p_record.set_defaults(func=cmd_record)

    p_verify = sub.add_parser(
        "verify", help="replay each scenario against its golden digest")
    p_verify.add_argument("corpus", nargs="?", default=DEFAULT_CORPUS)
    p_verify.add_argument("--runs", type=int, default=2,
                          help="replays per scenario (default 2)")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _LoadFailed as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
