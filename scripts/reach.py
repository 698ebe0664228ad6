#!/usr/bin/env python3
"""Reachability audit: which functions under ``src/repro`` does anything
the project runs call, and which only the tests call?

Usage (from anywhere; it has no options):

    python scripts/reach.py

Each *root* runs in a fresh interpreter under a call-only trace hook
(``sys.settrace`` and ``threading.settrace`` record ``frame.f_code`` on
each ``call`` event and return ``None``, so no line is traced), at most
``os.cpu_count()`` at a time.  The roots are what the project runs
besides its unit tests: the smoke and corpus scenario gates, the five
bench workloads at full scale and ``bench.micro``, every example, and
the paper-figure suite.  The tier-1 suite (``pytest tests``) is traced
the same way, as a separate run.

Every ``def`` under ``src/repro`` (except ``analysis/``) is then
*reached* (a root calls it), *tests-only* (only tier-1 calls it) or
*never* (nothing calls it).  A function is keyed by its file and first
line, which is its first decorator's line, as ``co_firstlineno`` gives
it; its size is its own lines, decorators through its last line, minus
the nested defs and classes it contains.  The output is the per-package
table, then every tests-only and never function, then each run's wall
seconds under the hook.

Pitfall: pytest-benchmark's ``benchmark.pedantic`` clears the hook, so
the figure suite runs with ``--benchmark-disable``.  A root that fails
silently under-counts what is reached, so any failed root makes the
audit exit 1 and name it instead of printing a table.

The full audit takes about 23 minutes of wall clock on two cores, the
figure suite alone about 21 (the per-run seconds it prints say where
the time goes); it is run on demand, not as a gate.
"""

import ast
import collections
import concurrent.futures
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import traceback

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src", "repro")
SKIPPED = ("analysis",)

BENCH_WORKLOADS = ("vc_stress", "super_direct", "vc_hotpath_wal",
                   "tenant_churn", "scenario_corpus")

Root = collections.namedtuple("Root", "name source")


def _roots():
    """Every root, longest first, so the pool finishes early."""
    roots = [Root("pytest benchmarks --benchmark-disable",
                  "import pytest\n"
                  "rc = pytest.main(['benchmarks', '--benchmark-disable',"
                  " '-p', 'no:cacheprovider'])")]
    roots += [Root(f"bench.child {w} --scale full",
                   "import time\nfrom bench.child import main\n"
                   f"rc = main(['--workload', {w!r}, '--seed', '0',"
                   " '--scale', 'full',"
                   " '--spawned-at', str(time.monotonic())])")
              for w in BENCH_WORKLOADS]
    roots += [Root("bench.micro", "from bench.micro import main\nrc = main()")]
    roots += [Root(f"scenarios verify {d}",
                   "from repro.scenarios.__main__ import main\n"
                   f"rc = main(['verify', {d!r}])")
              for d in ("scenarios/corpus", "scenarios/smoke")]
    examples = os.path.join(REPO, "examples")
    roots += [Root(f"examples/{name}",
                   "import runpy\n"
                   f"runpy.run_path({os.path.join(examples, name)!r},"
                   " run_name='__main__')")
              for name in sorted(os.listdir(examples))
              if name.endswith(".py")]
    return roots


TIER1 = Root("pytest tests",
             "import pytest\n"
             "rc = pytest.main(['tests', '-p', 'no:cacheprovider'])")


# -- the traced child ---------------------------------------------------

def trace_child(out_path, source):
    """Run ``source`` under the call hook; write the functions under
    ``SRC`` it called to ``out_path`` and return its exit code (the value
    of ``rc`` it leaves, or of the ``SystemExit`` it raises)."""
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    namespace = {"__name__": "__reach_root__"}
    threading.settrace(hook)
    sys.settrace(hook)
    try:
        exec(compile(source, "<root>", "exec"), namespace)
        rc = namespace.get("rc") or 0
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else int(bool(exc.code))
    except BaseException:
        traceback.print_exc()
        rc = 1
    finally:
        sys.settrace(None)
        threading.settrace(None)
    prefix = SRC + os.sep
    hits = sorted({(c.co_filename, c.co_firstlineno, c.co_name)
                   for c in called if c.co_filename.startswith(prefix)})
    with open(out_path, "w") as fh:
        json.dump(hits, fh)
    return rc


_BOOT = ("import sys\nsys.path.insert(0, {scripts!r})\nimport reach\n"
         "sys.exit(reach.trace_child(sys.argv[1], sys.argv[2]))")


def _run_root(root, out_dir, index):
    out_path = os.path.join(out_dir, f"{index}.json")
    log_path = os.path.join(out_dir, f"{index}.log")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO, "src"), REPO]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    boot = _BOOT.format(scripts=os.path.join(REPO, "scripts"))
    started = time.monotonic()
    with open(log_path, "w") as log:
        proc = subprocess.run(
            [sys.executable, "-c", boot, out_path, root.source],
            cwd=REPO, env=env, stdout=log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL)
    wall_s = time.monotonic() - started
    if proc.returncode != 0 or not os.path.exists(out_path):
        return None, log_path, wall_s
    with open(out_path) as fh:
        called = {(f, line, name) for f, line, name in json.load(fh)}
    return called, log_path, wall_s


def trace_all(runs, out_dir):
    """Run each root in its own traced interpreter.  Returns
    ``{root: (called, log path, wall seconds)}``; ``called`` is ``None``
    for a root that failed."""
    workers = max(1, min(os.cpu_count() or 1, len(runs)))
    with concurrent.futures.ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(_run_root, root, out_dir, i)
                   for i, root in enumerate(runs)]
        return {root: future.result() for root, future in zip(runs, futures)}


# -- the classifier -----------------------------------------------------

Function = collections.namedtuple("Function", "path line name qualname size")


def _span(node):
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return first, node.end_lineno


def functions(path):
    """Every ``def`` in ``path``, with its own size in lines."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = []
    scoped = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def nested(node):
        """The defs and classes directly inside ``node``'s body."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, scoped):
                yield child
            else:
                yield from nested(child)

    def visit(node, prefix):
        for child in nested(node):
            qualname = f"{prefix}{child.name}"
            if isinstance(child, ast.ClassDef):
                visit(child, qualname + ".")
                continue
            first, last = _span(child)
            size = last - first + 1
            for inner in nested(child):
                inner_first, inner_last = _span(inner)
                size -= inner_last - inner_first + 1
            found.append(Function(path, first, child.name, qualname, size))
            visit(child, qualname + ".")

    visit(tree, "")
    return found


def package_of(path):
    rel = os.path.relpath(path, SRC)
    parts = rel.split(os.sep)
    if len(parts) == 1:
        stem = os.path.splitext(parts[0])[0]
        return "repro" if stem == "__init__" else stem
    return ".".join(parts[:-1])


def audited_files():
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d not in SKIPPED)
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def classify(funcs, reached, tested):
    """``{Function: "reached" | "tests-only" | "never"}``; ``reached``
    and ``tested`` hold ``(file, first line, name)`` triples."""
    out = {}
    for fn in funcs:
        key = (fn.path, fn.line, fn.name)
        if key in reached:
            out[fn] = "reached"
        elif key in tested:
            out[fn] = "tests-only"
        else:
            out[fn] = "never"
    return out


CLASSES = ("reached", "tests-only", "never")


def report(classes, file_lines):
    rows = collections.defaultdict(lambda: dict.fromkeys(CLASSES, 0))
    for fn, cls in classes.items():
        rows[package_of(fn.path)][cls] += fn.size
    lines = ["| package | reached | tests-only | never | file lines |",
             "|---|---|---|---|---|"]
    totals = dict.fromkeys(CLASSES, 0)
    for pkg in sorted(file_lines):
        row = rows[pkg]
        for cls in CLASSES:
            totals[cls] += row[cls]
        lines.append(f"| {pkg} | {row['reached']} | {row['tests-only']} "
                     f"| {row['never']} | {file_lines[pkg]} |")
    lines.append(f"| **total without `analysis/`** | {totals['reached']} "
                 f"| {totals['tests-only']} | {totals['never']} "
                 f"| {sum(file_lines.values())} |")
    for cls in CLASSES[1:]:
        lines += ["", f"{cls}:"]
        for fn in sorted((f for f, c in classes.items() if c == cls),
                         key=lambda f: (f.path, f.line)):
            rel = os.path.relpath(fn.path, REPO)
            lines.append(f"  {rel}:{fn.line}  {fn.qualname}  {fn.size}")
    return "\n".join(lines)


def main(roots=None, tier1=TIER1):
    roots = _roots() if roots is None else list(roots)
    # Tier-1 goes second: the figure suite is the longest run.
    runs = roots[:1] + [tier1] + roots[1:]
    with tempfile.TemporaryDirectory(prefix="reach-") as out_dir:
        results = trace_all(runs, out_dir)
        failed = [(root, log) for root, (hits, log, _) in results.items()
                  if hits is None]
        for root, log_path in failed:
            with open(log_path) as fh:
                tail = fh.read().splitlines()[-20:]
            print(f"reach: root failed: {root.name}", file=sys.stderr)
            print("\n".join("    " + line for line in tail), file=sys.stderr)
    if failed:
        print(f"reach: {len(failed)} of {len(runs)} runs failed; no table, "
              "it would under-count what is reached", file=sys.stderr)
        return 1
    called = set().union(*(results[root][0] for root in roots))
    tested = results[tier1][0]
    funcs, file_lines = [], collections.Counter()
    for path in audited_files():
        funcs += functions(path)
        with open(path) as fh:
            file_lines[package_of(path)] += sum(1 for _ in fh)
    print(report(classify(funcs, called, tested), file_lines))
    print("\nwall seconds per run, under the hook:")
    for root in runs:
        print(f"  {results[root][2]:8.1f}  {root.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
