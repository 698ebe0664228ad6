"""CPU-time and memory accounting for simulated components.

The paper reports the syncer's accumulated CPU time (Fig. 10 top) and peak
resident set size (Fig. 10 bottom).  Real processes don't exist in the
simulation, so components explicitly charge CPU seconds for the work they
model and report memory for the state they hold (informer caches, queues).
"""


class CpuAccount:
    """Accumulates CPU seconds charged by one logical process."""

    def __init__(self):
        self.seconds = 0.0

    def charge(self, seconds):
        if seconds < 0:
            raise ValueError("negative CPU charge")
        self.seconds += seconds


class MemoryAccount:
    """Tracks the peak bytes held by one logical process.

    Components register *meters* — zero-argument callables returning their
    current byte usage — and :meth:`snapshot` sums them.  This mirrors how
    the syncer's RSS is dominated by its informer caches plus queues.
    """

    def __init__(self):
        self._meters = {}
        self.peak = 0

    def register_meter(self, name, fn):
        self._meters[name] = fn

    def snapshot(self):
        total = 0
        for fn in self._meters.values():
            total += fn()
        if total > self.peak:
            self.peak = total
        return total
