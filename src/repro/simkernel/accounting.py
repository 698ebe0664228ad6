"""CPU-time and memory accounting for simulated components.

The paper reports the syncer's accumulated CPU time (Fig. 10 top) and peak
resident set size (Fig. 10 bottom).  Real processes don't exist in the
simulation, so components explicitly charge CPU seconds for the work they
model and report memory for the state they hold (informer caches, queues).
"""

from collections import defaultdict


class CpuAccount:
    """Accumulates CPU seconds charged by one logical process."""

    def __init__(self, name):
        self.name = name
        self.seconds = 0.0
        self.by_activity = defaultdict(float)

    def charge(self, seconds, activity="work"):
        if seconds < 0:
            raise ValueError("negative CPU charge")
        self.seconds += seconds
        self.by_activity[activity] += seconds


class MemoryAccount:
    """Tracks current and peak bytes held by one logical process.

    Components register *meters* — zero-argument callables returning their
    current byte usage — and :meth:`snapshot` sums them.  This mirrors how
    the syncer's RSS is dominated by its informer caches plus queues.
    """

    def __init__(self, name):
        self.name = name
        self._meters = {}
        self.peak = 0
        self.current = 0
        self.timeline = []

    def register_meter(self, name, fn):
        self._meters[name] = fn

    def snapshot(self, now):
        total = 0
        for fn in self._meters.values():
            total += fn()
        self.current = total
        if total > self.peak:
            self.peak = total
        self.timeline.append((now, total))
        return total


class Accounting:
    """Registry of CPU and memory accounts for a simulation."""

    def __init__(self, sim):
        self.sim = sim
        self.cpu = {}
        self.memory = {}

    def cpu_account(self, name):
        if name not in self.cpu:
            self.cpu[name] = CpuAccount(name)
        return self.cpu[name]

    def memory_account(self, name):
        if name not in self.memory:
            self.memory[name] = MemoryAccount(name)
        return self.memory[name]
