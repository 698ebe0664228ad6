"""One repetition, in a process of its own.

``python -m bench.child --workload W --seed N --scale S --spawned-at T
[--profile]`` sets the workload up, runs its timed phase once
(under cProfile when ``--profile``), checks the outputs and prints one
JSON document as the last line of stdout.  The parent (``harness``)
starts one child at a time and aggregates.
"""

import argparse
import cProfile
import gc
import json
import resource
import sys
import time


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.monotonic() at spawn")
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)

    # Imported here so that set-up time includes importing the program.
    from . import counters, layers, spec
    from repro.workloads import StressResult

    from .workloads import WORKLOADS

    workload = WORKLOADS[args.workload](
        args.seed, spec.SIZES[args.scale][args.workload])
    workload.setup()
    baseline = counters.read(workload.envs)
    gc.collect()
    # CLOCK_MONOTONIC is system-wide on Linux, so this spans the
    # interpreter's start, the imports and the set-up.
    setup_s = time.monotonic() - args.spawned_at

    profiler = cProfile.Profile() if args.profile else None
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    workload.run()
    if profiler is not None:
        profiler.disable()
    host_wall_s = time.perf_counter() - wall_start
    host_cpu_s = time.process_time() - cpu_start

    outcome = workload.finish()
    counts = counters.derive(
        counters.delta(counters.read(workload.envs), baseline),
        outcome.pods, outcome.extra)
    # For its percentile rule, the one the paper figures use.
    latency = StressResult(mode=args.workload, num_pods=outcome.pods,
                           num_tenants=outcome.extra.get("tenants", 0),
                           creation_times=outcome.creation_times)
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "profiled": bool(profiler),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "pods": outcome.pods,
        "latency_samples": len(latency.creation_times),
        "end_to_end": {
            "setup_s": setup_s,
            "host_wall_s": host_wall_s,
            "host_cpu_s": host_cpu_s,
            "host_pods_per_s": outcome.pods / host_wall_s,
            "host_events_per_s": workload.dispatched / host_wall_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "events_per_pod": workload.dispatched / outcome.pods,
            "sim_create_p50_s": latency.percentile(50),
            "sim_create_p99_s": latency.percentile(99),
            "sim_pods_per_s": (outcome.pods / outcome.sim_load_s
                               if outcome.sim_load_s else 0.0),
        },
        "per_layer": counts,
        "digests": outcome.extra.get("digests"),
    }
    if profiler is not None:
        metrics, trace = layers.summarize(profiler, host_wall_s,
                                          outcome.pods)
        dispatched = counts["simkernel.dispatched"]
        metrics["simkernel.us_per_event"] = (
            metrics["simkernel.self_s"] / dispatched * 1e6
            if dispatched else 0.0)
        document["per_layer"].update(metrics)
        document["trace"] = trace
    json.dump(document, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
