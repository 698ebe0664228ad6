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
(DSL name → class, legal targets, parameters, builder).  A scenario
file's ``chaos:`` block is the one way to schedule them: each entry
names a fault, a target and a schedule (oneshot, periodic or random
windows), and ``run_scenario`` drives them with a :class:`ChaosEngine`.
``scenarios/smoke/chaos_base.yaml`` is the base mix; run it with
``python -m repro.scenarios run scenarios/smoke/chaos_base.yaml
--report``.
"""

from .engine import ChaosEngine
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
    "RestoreFromSnapshot",
    "WatchDrop",
    "WorkerCrash",
]
