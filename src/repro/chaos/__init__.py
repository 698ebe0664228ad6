"""Deterministic fault injection for the simulated VirtualCluster.

The chaos engine composes *fault schedules* (one-shot, periodic, or
random-within-seed) over *injection points* wired into the simulation:

- apiserver request faults (per-verb error or latency injection);
- etcd watch-stream drops and forced history compactions;
- network partitions between the syncer and one tenant control plane;
- syncer worker crashes (the watchdog must respawn them).

Everything is driven by the simulation clock and the simulation RNG, so
a chaos run is exactly reproducible from its seed.

Every schedulable fault is one row of :data:`repro.chaos.faults.FAULTS`
(DSL name → class, legal targets, parameters, builder); a scenario
file's ``chaos:`` block is the front door (``python -m repro.scenarios
run FILE --report``).  Programmatic use::

    env = VirtualClusterEnv(num_virtual_nodes=3)
    env.bootstrap()
    tenant = env.run_coroutine(env.create_tenant("acme"))
    engine = ChaosEngine(env, seed=7)
    engine.add(OneShot(5.0, duration=3.0),
               ApiServerCrash(tenant.control_plane))
    engine.start()
    env.run_for(20.0)
    engine.stop()
    report = engine.report()
"""

from .engine import ChaosEngine, random_plan
from .faults import (
    FAULTS,
    ApiRequestFault,
    ApiServerCrash,
    CrashControlPlane,
    Fault,
    ForcedCompaction,
    KillLeader,
    NetworkPartition,
    RestoreFromSnapshot,
    WatchDrop,
    WorkerCrash,
)
from .schedule import OneShot, Periodic, RandomWindows, Schedule

__all__ = [
    "ApiRequestFault",
    "ApiServerCrash",
    "ChaosEngine",
    "CrashControlPlane",
    "FAULTS",
    "Fault",
    "ForcedCompaction",
    "KillLeader",
    "NetworkPartition",
    "OneShot",
    "Periodic",
    "RandomWindows",
    "RestoreFromSnapshot",
    "Schedule",
    "WatchDrop",
    "WorkerCrash",
    "random_plan",
]
