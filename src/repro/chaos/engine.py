"""The chaos engine: schedules × faults on the simulation clock.

The engine owns a dedicated ``random.Random`` seeded from the chaos
seed, walks each schedule's windows in a simulation process, and
records a timeline of inject/restore actions.  A schedule is a
scenario file's ``ScheduleSpec`` (``repro.scenarios.model``), and
``run_scenario`` is the engine's one caller.  After the run,
:meth:`ChaosEngine.report` summarizes what was injected and
:func:`check_convergence` tells whether the system healed.
"""

import random

from repro.objects import Pod
from repro.simkernel.errors import Interrupt


class ChaosEngine:
    """Composes fault schedules over a :class:`VirtualClusterEnv`."""

    def __init__(self, env, seed, name="chaos"):
        self.env = env
        self.sim = env.sim
        self.name = name
        self.seed = seed
        self.rng = random.Random(seed)
        self._entries = []  # (schedule, fault)
        self._processes = []
        self.timeline = []  # (sim_time, fault_name, action)

    def add(self, schedule, fault):
        """Register ``fault`` to fire on ``schedule`` (a ``ScheduleSpec``)
        once :meth:`start` runs; returns the fault."""
        fault.bind(self.sim, self.rng)
        self._entries.append((schedule, fault))
        return fault

    def start(self):
        for schedule, fault in self._entries:
            self._processes.append(self.sim.spawn(
                self._drive(schedule, fault),
                name=f"{self.name}-{fault.name}"))

    def stop(self):
        """Interrupt every driver; active windows are restored."""
        for process in self._processes:
            process.interrupt("chaos engine stopped")
        self._processes = []

    def _drive(self, schedule, fault):
        active = False
        try:
            for delay, duration in schedule.windows(self.rng):
                yield self.sim.timeout(delay)
                fault.inject()
                active = True
                self._mark(fault, "inject")
                if duration > 0:
                    yield self.sim.timeout(duration)
                fault.restore()
                active = False
                self._mark(fault, "restore")
        except Interrupt:
            pass
        finally:
            if active:
                fault.restore()
                self._mark(fault, "restore")

    def _mark(self, fault, action):
        self.timeline.append((self.sim.now, fault.name, action))

    def report(self):
        return {
            "seed": self.seed,
            "faults": [{"fault": fault.name,
                        "schedule": schedule.to_dict(),
                        "injections": fault.injections,
                        **fault.counters()}
                       for schedule, fault in self._entries],
            "events": len(self.timeline),
            "timeline": list(self.timeline),
        }


def format_report(report):
    """ASCII rendering of a :meth:`ChaosEngine.report` dict: one row
    per fault (did it bite?, and its schedule as the scenario file
    writes it), then the inject/restore timeline."""
    lines = [f"chaos report (seed={report['seed']})",
             f"{'fault':<24} {'fired':>5}  {'extra':<40} schedule",
             "-" * 86]
    for entry in report["faults"]:
        extra = " ".join(
            f"{key}={entry[key]}" for key in sorted(entry)
            if key not in ("fault", "schedule", "injections"))
        schedule = ", ".join(f"{key}: {value}"
                             for key, value in entry["schedule"].items())
        lines.append(f"{entry['fault']:<24.24} {entry['injections']:>5}  "
                     f"{extra:<40} {{{schedule}}}")
    lines.append("timeline:")
    lines.extend(f"  t={when:9.3f}s  {action:<7} {fault}"
                 for when, fault, action in report["timeline"])
    return "\n".join(lines)


def stored_pods(api):
    """``(key, (namespace, name, deleting, annotations, ready))`` for
    every pod in one apiserver's store, read off the stored snapshots
    without encoding them; only a dict value (replayed from a log and
    not read since) is decoded."""
    items, _revision = api.store.list_stored("/registry/pods/")
    rows = []
    for _key, stored in items:
        pod = stored.value
        if isinstance(pod, dict):
            pod = Pod.from_dict(pod)
        meta = pod.metadata
        rows.append((pod.key, (meta.namespace, meta.name,
                               meta.deletion_timestamp is not None,
                               meta.annotations or {}, pod.status.is_ready)))
    return rows


def check_convergence(env):
    """One synchronous convergence check over stores, queues, and health.

    Converged means: every live tenant pod has a matching, equally-ready
    super pod; no super pod claims a tenant object that is gone; the
    syncer queues are drained; every circuit breaker is closed with
    nothing parked.  Returns ``(ok, detail)`` where ``detail`` lists the
    violations found (empty lists when ok).

    The check reads the few fields it compares straight off the stored
    values: a poll over every Pod of every store runs every half
    simulated second, and decoding (or encoding) each one dominated a
    paper-scale run.
    """
    from repro.core.crd import super_namespace
    from repro.core.syncer.conversion import (
        ANNOTATION_TENANT_NAME,
        ANNOTATION_TENANT_NAMESPACE,
        ANNOTATION_VC,
    )

    missing = []     # tenant pod without a ready-matching super pod
    orphaned = []    # super pod whose tenant pod is gone
    super_pods = dict(stored_pods(env.super_cluster.api))

    tenant_live = {}  # tenant key -> set of (namespace, name)
    for key, handle in sorted(env.tenants.items()):
        live = set()
        for pod_key, row in stored_pods(handle.control_plane.api):
            namespace, name, deleting, _annotations, ready = row
            if deleting:
                continue
            live.add((namespace, name))
            sname = super_namespace(handle.vc, namespace)
            super_pod = super_pods.get(f"{sname}/{name}")
            if super_pod is None:
                missing.append((key, pod_key, "no super pod"))
            elif super_pod[4] != ready:
                missing.append((key, pod_key, "readiness mismatch"))
        tenant_live[key] = live

    for pod_key, (_ns, _name, deleting, annotations, _ready) in \
            super_pods.items():
        tenant = annotations.get(ANNOTATION_VC)
        if not tenant or tenant not in tenant_live:
            continue  # not synced, or its tenant was deleted wholesale
        if deleting:
            continue
        origin = (annotations.get(ANNOTATION_TENANT_NAMESPACE) or None,
                  annotations.get(ANNOTATION_TENANT_NAME))
        if origin not in tenant_live[tenant]:
            orphaned.append((tenant, pod_key))

    syncer = env.syncer
    queues = {
        "downward_depth": len(syncer.downward),
        "upward_depth": len(syncer.upward),
        "parked": syncer.health.parked_count(),
    }
    open_circuits = [
        tenant for tenant, entry in syncer.health.stats().items()
        if entry["state"] != "closed"
    ]
    ok = (not missing and not orphaned and not open_circuits
          and queues["downward_depth"] == 0 and queues["upward_depth"] == 0
          and queues["parked"] == 0)
    return ok, {
        "missing": missing,
        "orphaned": orphaned,
        "open_circuits": open_circuits,
        "queues": queues,
    }
