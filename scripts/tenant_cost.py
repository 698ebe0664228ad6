#!/usr/bin/env python3
"""Host cost of one idle tenant: memory, objects and provisioning time.

Usage (from anywhere; it has no options):

    python scripts/tenant_cost.py

It provisions 120 tenants (control plane, syncer registration, the
tenant's controllers and ``default`` namespace), one after another, on
a 20-node ``VirtualClusterEnv`` at seed 0, and idles them 30 sim-s.
That runs twice in this interpreter, each time on a fresh env:

1. untraced: the growth of peak RSS (``ru_maxrss``), of GC-tracked
   objects and of live ``collections.deque`` objects, the host CPU
   spent provisioning, and the bytes of the records in the tenants' own
   stores (``sys.getsizeof`` over each record's object graph, every
   object counted once: records holding a typed snapshot, and records
   holding a dict apart), each divided by the tenant count;
2. under ``tracemalloc``: the bytes still allocated after the idle
   window, per tenant, split by ``repro`` package and by source line.

Each measurement starts after the env's bootstrap and a full
collection, so the super cluster's own cost is not counted; the first
tenant's one-time costs (imports, serde codegen) are spread over all
120.  A 120-tenant run takes a few seconds.
"""

import collections
import gc
import os
import resource
import sys
import time
import tracemalloc

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.core import VirtualClusterEnv  # noqa: E402

TENANTS = 120
NODES = 20
SEED = 0
IDLE_S = 30.0
TOP_LINES = 12


def _collect():
    # Twice: the first pass finalizes suspended generators, the second
    # frees the cycles they were part of.
    gc.collect()
    gc.collect()


def _deques():
    return sum(1 for obj in gc.get_objects()
               if type(obj) is collections.deque)


def idle_env(tenants=TENANTS, idle=IDLE_S, before=None):
    """A bootstrapped env with ``tenants`` tenants provisioned and idled
    ``idle`` sim-s.  ``before()``, if given, is called once the env is
    bootstrapped and collected, just before the first tenant; returns
    ``(env, host CPU seconds spent provisioning)``."""
    env = VirtualClusterEnv(seed=SEED, num_virtual_nodes=NODES)
    env.bootstrap()
    _collect()
    if before is not None:
        before()

    def create():
        for index in range(tenants):
            yield from env.create_tenant(f"idle-{index:03d}")

    started = time.process_time()
    env.run_coroutine(create(), name="create-tenants")
    provision_s = time.process_time() - started
    env.run_for(idle)
    _collect()
    return env, provision_s


def _deep_size(value, seen):
    """Bytes of ``value``'s object graph not yet in ``seen``."""
    if id(value) in seen:
        return 0
    seen.add(id(value))
    size = sys.getsizeof(value)
    if isinstance(value, dict):
        items = [*value.keys(), *value.values()]
    elif isinstance(value, (list, tuple)):
        items = value
    else:
        items = [getattr(value, name, None)
                 for klass in type(value).__mro__
                 for name in klass.__dict__.get("__slots__", ())]
    return size + sum(_deep_size(item, seen) for item in items)


def stored_record_bytes(env):
    """``(typed, dict)`` bytes of the records in every tenant control
    plane's store, each record counted whole, by its value's kind."""
    seen = set()
    sizes = {"typed": 0, "dict": 0}
    for control_plane in env.tenant_operator.control_planes.values():
        for stored in control_plane.api.store._data.values():
            kind = "dict" if isinstance(stored.value, dict) else "typed"
            sizes[kind] += _deep_size(stored, seen)
    return sizes["typed"], sizes["dict"]


def untraced_cost(tenants=TENANTS):
    """Per-tenant RSS (KB), GC-tracked objects, live deques,
    provisioning host ms and stored-record KB (typed, dict), from one
    untraced run."""
    start = {}

    def before():
        start["rss"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        start["objects"] = len(gc.get_objects())
        start["deques"] = _deques()

    env, provision_s = idle_env(tenants, before=before)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    typed, dicts = stored_record_bytes(env)
    cost = {
        "rss_kb": (rss - start["rss"]) / tenants,
        "gc_objects": (len(gc.get_objects()) - start["objects"]) / tenants,
        "deques": (_deques() - start["deques"]) / tenants,
        "provision_ms": provision_s * 1e3 / tenants,
        "stored_typed_kb": typed / 1024 / tenants,
        "stored_dict_kb": dicts / 1024 / tenants,
    }
    del env
    return cost


def _package(filename):
    """``repro.<package>`` for a file under ``src/repro`` (the serde
    code generated from ``repro.objects`` counts there), else the file's
    base name."""
    if filename.startswith("<serde "):
        return "repro.objects"
    parts = os.path.relpath(filename, os.path.join(SRC, "repro")).split(
        os.sep)
    if parts[0] == os.pardir:
        return os.path.basename(filename)
    return "repro" if len(parts) == 1 else f"repro.{parts[0]}"


def traced_cost(tenants=TENANTS):
    """Per-tenant bytes still allocated after the idle window, from one
    run under tracemalloc: ``(total, {package: bytes},
    [(file:line, bytes), ...])``, the lines largest first."""
    snapshots = []
    # A call hook (a coverage or reachability tracer) makes CPython keep
    # a frame object for every parked generator, ~17 KB per idle tenant,
    # so the measured window runs without one.
    hook = sys.gettrace()

    def before():
        tracemalloc.start()
        snapshots.append(tracemalloc.take_snapshot())

    sys.settrace(None)
    try:
        env, _provision_s = idle_env(tenants, before=before)
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
        sys.settrace(hook)
    del env
    by_file = after.compare_to(snapshots[0], "filename")
    packages = collections.Counter()
    for stat in by_file:
        packages[_package(stat.traceback[0].filename)] += stat.size_diff
    total = sum(packages.values())
    lines = []
    for stat in after.compare_to(snapshots[0], "lineno")[:TOP_LINES]:
        frame = stat.traceback[0]
        where = os.path.relpath(frame.filename, SRC) \
            if frame.filename.startswith(SRC) else frame.filename
        lines.append((f"{where}:{frame.lineno}", stat.size_diff / tenants))
    return (total / tenants,
            {name: size / tenants for name, size in packages.items()},
            lines)


def main():
    print(f"{TENANTS} tenants, {NODES} virtual nodes, seed {SEED}, "
          f"idle {IDLE_S:g} sim-s; per tenant:")
    cost = untraced_cost()
    print(f"  RSS                 {cost['rss_kb']:8.1f} KB")
    print(f"  GC-tracked objects  {cost['gc_objects']:8.1f}")
    print(f"  live deques         {cost['deques']:8.1f}")
    print(f"  provisioning        {cost['provision_ms']:8.2f} host ms")
    print(f"  stored records      {cost['stored_typed_kb']:8.1f} KB typed, "
          f"{cost['stored_dict_kb']:.1f} KB dict")
    total, packages, lines = traced_cost()
    print(f"  tracemalloc         {total / 1024:8.1f} KB")
    print("\ntracemalloc KB per tenant by module:")
    for name, size in sorted(packages.items(), key=lambda kv: -kv[1]):
        if abs(size) >= 0.05 * 1024:
            print(f"  {name:<28} {size / 1024:8.1f}")
    print(f"\ntop {TOP_LINES} lines, KB per tenant:")
    for where, size in lines:
        print(f"  {where:<44} {size / 1024:8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
