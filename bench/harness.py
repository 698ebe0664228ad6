"""The parent side: start one child per repetition, one at a time,
aggregate, check.

The driver's entry point is :func:`measure` (one workload, ``--seconds``
of timed work, contract-shaped result); ``python -m bench run`` uses
:func:`run_all` (every workload, repetitions interleaved round-robin).
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time

from . import spec

# Switches of the program that would change what is measured.
_STRIPPED_ENV = ("REPRO_KERNEL_LEGACY", "REPRO_WORKERS", "REPRO_SCALE")
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _log(message):
    print(message, file=sys.stderr, flush=True)


def child_env(extra=None):
    env = {key: value for key, value in os.environ.items()
           if key not in _STRIPPED_ENV}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(spec.SRC), str(spec.ROOT)]
        + [path for path in env.get("PYTHONPATH", "").split(os.pathsep)
           if path])
    env.update(extra or {})
    return env


def _spawn(module, arguments, extra_env=None):
    """Run ``python -m bench.<module>`` to completion, one at a time;
    returns the JSON document on the last line of its stdout."""
    if not spec.PACKAGE.is_dir():
        raise BenchError(f"program source not found at {spec.PACKAGE}")
    command = [sys.executable, "-m", f"bench.{module}", *arguments]
    try:
        done = subprocess.run(
            command, cwd=spec.ROOT, env=child_env(extra_env),
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"bench.{module} {' '.join(arguments)}: exceeded "
                         f"{CHILD_TIMEOUT_S} s") from exc
    if done.returncode != 0:
        raise BenchError(f"bench.{module} {' '.join(arguments)}: exited "
                         f"{done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def run_child(workload, seed, scale="full", profile=False, extra_env=None):
    """One repetition in a fresh interpreter; returns its document.

    A repetition started while the 1-minute load average exceeds the
    core count is marked ``noisy``.
    """
    load = os.getloadavg()[0]
    arguments = ["--workload", workload, "--seed", str(seed),
                 "--scale", scale, "--spawned-at", repr(time.monotonic())]
    if profile:
        arguments.append("--profile")
    document = _spawn("child", arguments, extra_env)
    document["load_at_start"] = load
    document["noisy"] = load > (os.cpu_count() or 1)
    return document


def run_unit(workload, seed, **kwargs):
    """A repetition, run again once if it started on a noisy host."""
    document = run_child(workload, seed, **kwargs)
    if document["noisy"]:
        _log(f"{workload}: load {document['load_at_start']:.2f} at start, "
             "re-running once")
        document = run_child(workload, seed, **kwargs)
        document["rerun"] = True
    return document


def run_micro(extra_env=None):
    """The micro op costs (workload-independent), in their own process."""
    return _spawn("micro", [], extra_env)


def provenance(seed):
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=spec.ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": os.cpu_count(), "load_1min": os.getloadavg()[0],
            "seed": seed}


# ----------------------------------------------------------------------
# Aggregation and checks
# ----------------------------------------------------------------------


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def check_units(units):
    """Disagreements between the repetitions of one workload.

    Repetitions share a seed, so every simulated statistic and every
    count must agree bit for bit; a difference means the program is
    nondeterministic (or reads the host's clock).
    """
    problems = []
    first = units[0]
    for unit in units[1:]:
        for name in spec.EXACT:
            if unit["end_to_end"][name] != first["end_to_end"][name]:
                problems.append(
                    f"nondeterministic: {name} "
                    f"{first['end_to_end'][name]!r} vs "
                    f"{unit['end_to_end'][name]!r}")
        if unit.get("digests") != first.get("digests"):
            problems.append("nondeterministic: scenario digests differ "
                            "between repetitions")
    return problems


def _log_problems(workload, units, problems):
    for problem in [p for unit in units for p in unit["problems"]] + problems:
        _log(f"{workload}: {problem}")


def aggregate(units, spec_doc):
    """Median, quartiles and best value of every end-to-end metric over
    ``units``."""
    out = {}
    for metric in spec_doc["end_to_end"]:
        name = metric["name"]
        values = [unit["end_to_end"][name] for unit in units]
        q1, median, q3 = quartiles(values)
        best = min(values) if metric["better"] == "lower" else max(values)
        out[name] = {"median": median, "q1": q1, "q3": q3, "best": best,
                     "n": len(values), "values": values}
    return out


def _units(spec_doc, section):
    return {metric["name"]: metric["unit"] for metric in spec_doc[section]}


# ----------------------------------------------------------------------
# The driver's entry point
# ----------------------------------------------------------------------


def measure(workload, seed, seconds, trace, scale="full", extra_env=None):
    """Run ``workload`` for about ``seconds`` of timed work and return
    the contract's result object."""
    spec_doc = spec.load_spec()
    if trace:
        return _measure_traced(spec_doc, workload, seed, scale, extra_env)
    units = []
    timed = 0.0
    while True:
        unit = run_unit(workload, seed, scale=scale, extra_env=extra_env)
        units.append(unit)
        last = unit["end_to_end"]["host_wall_s"]
        timed += last
        _log(f"{workload} rep {len(units)}: wall {last:.3f} s, "
             f"setup {unit['end_to_end']['setup_s']:.3f} s")
        # Stop where the timed total lands closest to --seconds.
        if timed + last / 2 >= seconds:
            break
    problems = check_units(units)
    _log_problems(workload, units, problems)
    summary = aggregate(units, spec_doc)
    failed = sum(unit["failed"] for unit in units)
    return {
        "correct": not problems and failed == 0,
        "attempted": sum(unit["attempted"] for unit in units),
        "failed": failed,
        "metrics": {
            name: {"value": summary[name][
                "best" if name in spec.BEST_OF_RUN else "median"],
                   "unit": unit}
            for name, unit in _units(spec_doc, "end_to_end").items()},
    }


def traced_pair(workload, seed, scale="full", extra_env=None, plain=None,
                micro=None):
    """An untraced and a traced repetition of the same inputs; the
    per-layer metrics come from the traced one, the overhead ratio from
    the pair.  ``plain`` and ``micro`` reuse an untraced repetition and
    micro op costs already measured.
    Writes ``bench/out/trace_<workload>.json``."""
    if plain is None:
        plain = run_unit(workload, seed, scale=scale, extra_env=extra_env)
    traced = run_unit(workload, seed, scale=scale, extra_env=extra_env,
                      profile=True)
    per_layer = traced["per_layer"]
    per_layer.update(micro or run_micro(extra_env))
    per_layer["trace.overhead_ratio"] = (
        traced["end_to_end"]["host_wall_s"]
        / plain["end_to_end"]["host_wall_s"])
    trace = traced.pop("trace")
    trace.update(workload=workload, seed=seed, scale=scale,
                 overhead_ratio=per_layer["trace.overhead_ratio"])
    spec.OUT.mkdir(exist_ok=True)
    with open(spec.OUT / f"trace_{workload}.json", "w",
              encoding="utf-8") as handle:
        json.dump(trace, handle, indent=1)
    problems = check_units([plain, traced])
    attributed = 1.0 - per_layer["harness.share"]
    drift = abs(trace["profile_total_s"] / trace["traced_wall_s"] - 1.0)
    if drift > 0.02:
        problems.append(f"layer self times sum to "
                        f"{trace['profile_total_s']:.3f} s but the traced "
                        f"wall is {trace['traced_wall_s']:.3f} s")
    _log(f"{workload}: traced {trace['traced_wall_s']:.2f} s "
         f"({per_layer['trace.overhead_ratio']:.2f}x), "
         f"{attributed:.1%} attributed to layers")
    return plain, traced, problems


def _measure_traced(spec_doc, workload, seed, scale, extra_env):
    plain, traced, problems = traced_pair(workload, seed, scale, extra_env)
    _log_problems(workload, [plain, traced], problems)
    per_layer = traced["per_layer"]
    failed = plain["failed"] + traced["failed"]
    return {
        "correct": not problems and failed == 0,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": failed,
        "metrics": {name: {"value": per_layer[name], "unit": unit}
                    for name, unit in _units(spec_doc, "per_layer").items()},
    }


# ----------------------------------------------------------------------
# python -m bench run
# ----------------------------------------------------------------------


def run_all(seed=0, scale="full", reps=7, workloads=None, extra_env=None,
            trace=True):
    """Every workload: ``reps`` repetitions interleaved round-robin, then
    one traced pair each.  Returns the report ``compare`` reads."""
    spec_doc = spec.load_spec()
    names = workloads or [w["name"] for w in spec_doc["workloads"]]
    units = {name: [] for name in names}
    for rep in range(reps):
        for name in names:
            unit = run_unit(name, seed, scale=scale, extra_env=extra_env)
            units[name].append(unit)
            _log(f"rep {rep + 1}/{reps} {name}: wall "
                 f"{unit['end_to_end']['host_wall_s']:.3f} s")
    report = {"provenance": provenance(seed), "scale": scale, "reps": reps,
              "child_env": extra_env or {}, "workloads": {}}
    micro = run_micro(extra_env) if trace else None
    for name in names:
        checked = list(units[name])
        problems = check_units(checked)
        entry = {
            "pods": checked[0]["pods"],
            "latency_samples": checked[0]["latency_samples"],
            "noisy_reruns": sum(1 for u in checked if u.get("rerun")),
            "end_to_end": aggregate(checked, spec_doc),
        }
        if trace:
            _plain, traced, trace_problems = traced_pair(
                name, seed, scale, extra_env, plain=checked[-1], micro=micro)
            checked.append(traced)
            problems += trace_problems
            entry["per_layer"] = traced["per_layer"]
        _log_problems(name, checked, problems)
        entry["attempted"] = sum(u["attempted"] for u in checked)
        entry["failed"] = sum(u["failed"] for u in checked)
        # Operations that failed, plus one per harness-level check
        # (determinism, trace accounting) that did not hold.
        entry["fail_ratio"] = ((entry["failed"] + len(problems))
                               / entry["attempted"])
        entry["problems"] = problems + [
            p for unit in checked for p in unit["problems"]]
        report["workloads"][name] = entry
    return report
