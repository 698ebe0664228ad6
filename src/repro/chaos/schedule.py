"""Fault schedules: *when* a fault fires and for how long.

A schedule yields ``(start_delay, duration)`` windows relative to the
moment the previous window closed.  The engine walks the windows on the
simulation clock, activating the fault for each window, so schedule
composition is pure data — no schedule ever touches the system under
test directly.

``RandomWindows`` draws from a :class:`random.Random` seeded from the
chaos seed, never from wall clock, so runs replay identically.
"""


class Schedule:
    """Base class; subclasses generate ``(delay, duration)`` windows."""

    def windows(self, rng):
        """Yield ``(delay_before_start, active_duration)`` tuples.

        ``rng`` is the engine's dedicated ``random.Random``; schedules
        must draw all randomness from it (determinism per seed).
        """
        raise NotImplementedError

    def describe(self):
        return type(self).__name__


class OneShot(Schedule):
    """Fire once at ``at`` (absolute engine start offset) for ``duration``."""

    def __init__(self, at, duration=0.0):
        self.at = at
        self.duration = duration

    def windows(self, rng):
        yield (self.at, self.duration)

    def describe(self):
        return f"one-shot@{self.at:g}s/{self.duration:g}s"


class Periodic(Schedule):
    """Fire every ``period`` seconds for ``duration``, ``count`` times.

    The first window opens after ``offset + period``; with ``count=None``
    it repeats until the engine stops.
    """

    def __init__(self, period, duration=0.0, count=None, offset=0.0):
        self.period = period
        self.duration = duration
        self.count = count
        self.offset = offset

    def windows(self, rng):
        first = True
        fired = 0
        while self.count is None or fired < self.count:
            delay = self.period + (self.offset if first else 0.0)
            first = False
            fired += 1
            yield (delay, self.duration)

    def describe(self):
        count = "inf" if self.count is None else str(self.count)
        return f"periodic/{self.period:g}s x{count}/{self.duration:g}s"


class RandomWindows(Schedule):
    """Windows with exponentially distributed gaps and uniform durations.

    The classic chaos-monkey shape: mean time between faults
    ``mean_gap``, each fault active for a duration drawn uniformly from
    ``duration_range``.  All draws come from the engine RNG.
    """

    min_gap = 0.1

    def __init__(self, mean_gap, duration_range=(0.5, 3.0), count=None):
        self.mean_gap = mean_gap
        self.duration_range = duration_range
        self.count = count

    def windows(self, rng):
        fired = 0
        low, high = self.duration_range
        while self.count is None or fired < self.count:
            fired += 1
            gap = max(self.min_gap, rng.expovariate(1.0 / self.mean_gap))
            duration = rng.uniform(low, high)
            yield (gap, duration)

    def describe(self):
        count = "inf" if self.count is None else str(self.count)
        low, high = self.duration_range
        return (f"random/gap~exp({self.mean_gap:g}s) "
                f"dur~U[{low:g},{high:g}]s x{count}")
