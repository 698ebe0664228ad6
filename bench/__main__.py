"""Command line.

``python -m bench run [--seed 0] [--scale smoke] [--out FILE]``
    every workload, every metric by name with its unit; exits non-zero
    on any failed check.
``python -m bench compare A.json B.json``
    apply each metric's bound, workload by workload.
``python -m bench measure --workload W --seed N --seconds S --trace 0|1``
    the driver's entry point (BENCHMARK.json ``command``): one workload,
    result object as the last line of stdout.
"""

import argparse
import json
import sys

from . import compare as compare_module, harness, spec

def _child_env(pairs):
    env = {}
    for pair in pairs or ():
        key, _, value = pair.partition("=")
        env[key] = value
    return env


def cmd_measure(args):
    names = [w["name"] for w in spec.load_spec()["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    result = harness.measure(args.workload, args.seed, args.seconds,
                             bool(args.trace), scale=args.scale)
    print(json.dumps(result))
    return 0


def cmd_run(args):
    spec_doc = spec.load_spec()
    report = harness.run_all(
        seed=args.seed, scale=args.scale,
        reps=args.reps or (7 if args.scale == "full" else 2),
        workloads=args.workload or None,
        extra_env=_child_env(args.child_env), trace=not args.no_trace)
    out = args.out or spec.OUT / f"run_seed{args.seed}_{args.scale}.json"
    spec.OUT.mkdir(exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)

    units = {m["name"]: m["unit"] for section in ("end_to_end", "per_layer")
             for m in spec_doc[section]}
    print(f"provenance: {json.dumps(report['provenance'])}  "
          f"scale={report['scale']} reps={report['reps']}")
    failed = False
    for name, entry in report["workloads"].items():
        print(f"\n== {name}  (pods={entry['pods']}, latency samples "
              f"n={entry['latency_samples']}, noisy reruns "
              f"{entry['noisy_reruns']})")
        for metric, value in entry["end_to_end"].items():
            # Which clock: what the machine pays, or what the modelled
            # cluster would take.
            clock = "sim " if metric in spec.EXACT else "host"
            print(f"  {clock} {metric:<20} {value['median']:>14.6g} "
                  f"{units[metric]:<11} q1 {value['q1']:.6g}  "
                  f"q3 {value['q3']:.6g}  best {value['best']:.6g}  "
                  f"n={value['n']}")
        print(f"       {'fail_ratio':<20} {entry['fail_ratio']:>14.6g} "
              f"ratio       ({entry['failed']} of {entry['attempted']})")
        for metric, value in sorted(entry.get("per_layer", {}).items()):
            print(f"    {metric:<42} {value:>14.6g} {units[metric]}")
        for problem in entry["problems"]:
            print(f"  FAILED: {problem}")
        failed = failed or bool(entry["fail_ratio"])
    print(f"\nreport written to {out}")
    return 1 if failed else 0


def cmd_compare(args):
    with open(args.base, encoding="utf-8") as handle:
        base = json.load(handle)
    with open(args.new, encoding="utf-8") as handle:
        new = json.load(handle)
    rows, differences = compare_module.compare(base, new)
    print(compare_module.render(rows, differences))
    return 0 if compare_module.passed(rows, differences) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)

    measure = commands.add_parser("measure", help="driver entry point")
    measure.add_argument("--workload", required=True)
    measure.add_argument("--seed", type=int, required=True)
    measure.add_argument("--seconds", type=float, required=True)
    measure.add_argument("--trace", type=int, choices=(0, 1), required=True)
    measure.add_argument("--scale", choices=sorted(spec.SIZES),
                         default="full")
    measure.set_defaults(handler=cmd_measure)

    run = commands.add_parser("run", help="run every workload")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--scale", choices=sorted(spec.SIZES), default="full",
                     help="smoke is for checking the harness only; its "
                          "numbers are never recorded")
    run.add_argument("--reps", type=int,
                     help="repetitions per workload (default 7, smoke 2: "
                          "the quartiles of seven exclude both extremes, so "
                          "one burst of host noise cannot widen the spread)")
    run.add_argument("--workload", action="append",
                     help="restrict to this workload (repeatable)")
    run.add_argument("--no-trace", action="store_true",
                     help="skip the traced repetition and per-layer metrics")
    run.add_argument("--child-env", action="append", metavar="KEY=VALUE",
                     help="harness-only: extra environment for the children "
                          "(ablations; never part of a recorded workload)")
    run.add_argument("--out")
    run.set_defaults(handler=cmd_run)

    compare = commands.add_parser("compare", help="apply the bounds")
    compare.add_argument("base")
    compare.add_argument("new")
    compare.set_defaults(handler=cmd_compare)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except harness.BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
