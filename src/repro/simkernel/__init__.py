"""Deterministic discrete-event simulation kernel.

All components of the VirtualCluster reproduction — apiservers, etcd stores,
controllers, kubelets, the resource syncer — execute as cooperating
generator-based processes on one virtual clock.  This keeps 10,000-Pod
stress runs fast and exactly reproducible.
"""

from .accounting import CpuAccount, MemoryAccount
from .errors import (
    EventAlreadyTriggered,
    Interrupt,
    SimError,
    SimulationDeadlock,
    StopSimulation,
)
from .events import Condition, Event, Timeout, all_of, resolved
from .loop import Simulation
from .process import Process
from .resources import Channel, ChannelClosed, Lock

__all__ = [
    "Channel",
    "ChannelClosed",
    "Condition",
    "CpuAccount",
    "Event",
    "EventAlreadyTriggered",
    "Interrupt",
    "Lock",
    "MemoryAccount",
    "Process",
    "SimError",
    "Simulation",
    "SimulationDeadlock",
    "StopSimulation",
    "Timeout",
    "all_of",
    "resolved",
]
