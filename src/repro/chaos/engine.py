"""The chaos engine: schedules × faults on the simulation clock.

The engine owns a dedicated ``random.Random`` seeded from the chaos
seed (or derived deterministically from the simulation RNG), walks each
schedule's windows in a simulation process, and records a timeline of
inject/restore actions.  After the run, :meth:`ChaosEngine.report`
summarizes what was injected and :func:`check_convergence` /
:meth:`ChaosEngine.verify_convergence` assert the system healed.
"""

import random

from repro.simkernel.errors import Interrupt

from .faults import (
    ApiRequestFault,
    ApiServerCrash,
    ForcedCompaction,
    NetworkPartition,
    WatchDrop,
    WorkerCrash,
)
from .schedule import OneShot, Periodic, RandomWindows


class ChaosEngine:
    """Composes fault schedules over a :class:`VirtualClusterEnv`."""

    def __init__(self, env, seed=None, name="chaos"):
        self.env = env
        self.sim = env.sim
        self.name = name
        if seed is None:
            # Derived from the sim RNG: still fully deterministic per
            # simulation seed, without forcing callers to pick one.
            seed = self.sim.rng.randrange(2**32)
        self.seed = seed
        self.rng = random.Random(seed)
        self._entries = []  # (schedule, fault)
        self._processes = []
        self._started = False
        self.timeline = []  # (sim_time, fault_name, action)

    # ------------------------------------------------------------------
    # Plan assembly
    # ------------------------------------------------------------------

    def add(self, schedule, fault):
        """Register ``fault`` to fire on ``schedule``; returns the fault."""
        fault.bind(self.sim, self.rng)
        self._entries.append((schedule, fault))
        if self._started:
            self._processes.append(self.sim.spawn(
                self._drive(schedule, fault),
                name=f"{self.name}-{fault.name}"))
        return fault

    @property
    def faults(self):
        return [fault for _schedule, fault in self._entries]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self):
        if self._started:
            return
        self._started = True
        for schedule, fault in self._entries:
            self._processes.append(self.sim.spawn(
                self._drive(schedule, fault),
                name=f"{self.name}-{fault.name}"))

    def stop(self):
        """Interrupt every driver; active windows are restored."""
        for process in self._processes:
            process.interrupt("chaos engine stopped")
        self._processes = []
        self._started = False

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

    # ------------------------------------------------------------------
    # Reporting and verification
    # ------------------------------------------------------------------

    def report(self):
        return {
            "seed": self.seed,
            "faults": [{"fault": fault.name,
                        "schedule": schedule.describe(),
                        "injections": fault.injections,
                        **fault.counters()}
                       for schedule, fault in self._entries],
            "events": len(self.timeline),
            "timeline": list(self.timeline),
        }

    def verify_convergence(self, timeout=300.0, poll=1.0):
        """Run the sim until the whole system converges; raise on timeout.

        Returns the detail dict from :func:`check_convergence` (empty
        problem lists on success).
        """
        env = self.env

        def converged():
            ok, _detail = check_convergence(env)
            return ok

        env.run_until(converged, timeout=timeout, poll=poll)
        return check_convergence(env)[1]


def format_report(report):
    """ASCII rendering of a :meth:`ChaosEngine.report` dict: one row
    per fault (did it bite?), then the inject/restore timeline."""
    lines = [f"chaos report (seed={report['seed']})",
             f"{'fault':<34} {'schedule':<34} {'fired':>5}  extra",
             "-" * 86]
    for entry in report["faults"]:
        extra = " ".join(
            f"{key}={entry[key]}" for key in sorted(entry)
            if key not in ("fault", "schedule", "injections"))
        lines.append(f"{entry['fault']:<34.34} "
                     f"{entry['schedule']:<34.34} "
                     f"{entry['injections']:>5}  {extra}")
    lines.append("timeline:")
    lines.extend(f"  t={when:9.3f}s  {action:<7} {fault}"
                 for when, fault, action in report["timeline"])
    return "\n".join(lines)


def _decoded_pods(api):
    """All pods in one apiserver's store, decoded to objects."""
    obj_type = api.registry.get("pods")
    raw_items, _revision = api.store.list_prefix("/registry/pods/")
    return [obj_type.from_dict(value) for _key, value, _rev in raw_items]


def check_convergence(env):
    """One synchronous convergence check over stores, queues, and health.

    Converged means: every live tenant pod has a matching, equally-ready
    super pod; no super pod claims a tenant object that is gone; the
    syncer queues are drained; every circuit breaker is closed with
    nothing parked.  Returns ``(ok, detail)`` where ``detail`` lists the
    violations found (empty lists when ok).
    """
    from repro.core.crd import super_namespace
    from repro.core.syncer.conversion import tenant_origin

    missing = []     # tenant pod without a ready-matching super pod
    orphaned = []    # super pod whose tenant pod is gone
    super_api = env.super_cluster.api
    super_pods = {pod.key: pod for pod in _decoded_pods(super_api)}

    tenant_live = {}  # tenant key -> set of (namespace, name)
    for key, handle in sorted(env.tenants.items()):
        live = set()
        for pod in _decoded_pods(handle.control_plane.api):
            if pod.metadata.deletion_timestamp is not None:
                continue
            live.add((pod.metadata.namespace, pod.metadata.name))
            sname = super_namespace(handle.vc, pod.metadata.namespace)
            super_pod = super_pods.get(f"{sname}/{pod.metadata.name}")
            if super_pod is None:
                missing.append((key, pod.key, "no super pod"))
            elif super_pod.status.is_ready != pod.status.is_ready:
                missing.append((key, pod.key, "readiness mismatch"))
        tenant_live[key] = live

    for super_pod in super_pods.values():
        origin = tenant_origin(super_pod)
        if origin is None:
            continue
        tenant, namespace, name = origin
        if tenant not in tenant_live:
            continue  # tenant was deleted wholesale
        if super_pod.metadata.deletion_timestamp is not None:
            continue
        if (namespace, name) not in tenant_live[tenant]:
            orphaned.append((tenant, super_pod.key))

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


def random_plan(engine, horizon=60.0):
    """A seeded random fault mix over every injection point of the env.

    Deterministic per engine seed: which tenants are partitioned, which
    verbs degrade, and every window boundary all come from the engine
    RNG.  ``horizon`` scales the schedule density so roughly the same
    number of windows land in a short smoke run as in a long soak.
    """
    env = engine.env
    rng = engine.rng
    syncer = env.syncer
    tenant_keys = sorted(env.tenants)

    # Partition the syncer from 1..half of the tenants (at least one).
    count = max(1, len(tenant_keys) // 2)
    for key in sorted(rng.sample(tenant_keys, count)):
        client = syncer.tenants[key].client
        engine.add(
            RandomWindows(mean_gap=horizon / 4.0,
                          duration_range=(horizon / 30.0, horizon / 10.0)),
            NetworkPartition(client, name=f"partition:{key}"))

    # Per-verb error + latency injection on the super apiserver.
    engine.add(
        RandomWindows(mean_gap=horizon / 5.0,
                      duration_range=(horizon / 40.0, horizon / 15.0)),
        ApiRequestFault(env.super_cluster, verbs=("create", "update"),
                        error_rate=rng.uniform(0.2, 0.6),
                        extra_latency=rng.uniform(0.0, 0.05),
                        name="reqfault:super"))

    # Watch drops and a forced compaction on one tenant control plane.
    victim = rng.choice(tenant_keys)
    victim_cp = env.tenants[victim].control_plane
    engine.add(Periodic(period=horizon / 3.0, count=2),
               WatchDrop(victim_cp, name=f"watchdrop:{victim}"))
    engine.add(OneShot(at=rng.uniform(horizon / 4.0, horizon / 2.0)),
               ForcedCompaction(victim_cp, name=f"compact:{victim}"))

    # A short full crash of another tenant apiserver.
    crash_victim = rng.choice(tenant_keys)
    engine.add(
        OneShot(at=rng.uniform(horizon / 5.0, horizon / 2.0),
                duration=rng.uniform(horizon / 20.0, horizon / 8.0)),
        ApiServerCrash(env.tenants[crash_victim].control_plane,
                       name=f"crash:{crash_victim}"))

    # Syncer worker crashes: the watchdog has to respawn them.
    engine.add(Periodic(period=horizon / 6.0, count=4),
               WorkerCrash(syncer, count=1))
    return engine
