"""Traffic shapes: declarative rate curves compiled to action plans.

A shape is pure data describing *when* one workload's Pods arrive.
Continuous shapes (``constant``, ``diurnal``, ``flash-crowd``) define a
rate function ``rate(t)`` in Pods/second over a window; arrival times
are generated by integrating the rate curve — the k-th Pod lands where
the cumulative expected arrivals crosses k — so the realized arrival
count always matches the integral of the declared rates to within one
Pod per workload (a property the Hypothesis suite pins).  Discrete
shapes (``burst``, ``sequential``, ``rolling-upgrade``) compile
directly to action plans.

All shapes are deterministic per scenario seed: optional jitter draws
come from the workload-derived ``random.Random`` the compiler passes
in, never from global randomness, and generation happens before the
simulation starts so it cannot interleave with component RNG draws.

Each shape's parameters are one field table (:mod:`repro.chaos.spec`): the
rows give type, default and bounds, and the shared spec base builds the
constructor, loading, dumping and the single-field checks from them.
A shape class keeps only its curve and its cross-field rules (peak at
least base, the spike fits its duration, a rolling upgrade's batch and
first wave).
"""

import math

from repro.chaos.spec import INT, NUMBER, Field, Spec

from .errors import ScenarioError

#: Integration step for rate curves, in simulated seconds.  Small
#: enough that a 20 Pods/s flash peak quantizes invisibly; arrival
#: counts stay within one Pod of the exact integral per workload.
INTEGRATION_STEP = 0.005


def _integrate_arrivals(rate_fn, duration, rng=None, jitter=0.0):
    """Arrival times over ``[0, duration]`` for a rate curve.

    Midpoint-rule integration; each unit crossing of the cumulative
    integral emits one arrival at the end of the step it crossed in
    (optionally jittered by uniform ``[-jitter, +jitter]``).
    """
    times = []
    steps = int(math.ceil(duration / INTEGRATION_STEP))
    acc = 0.0
    for step in range(steps):
        t0 = step * INTEGRATION_STEP
        width = min(INTEGRATION_STEP, duration - t0)
        rate = rate_fn(t0 + width / 2.0)
        if rate < 0:
            raise ScenarioError(
                f"rate curve went negative at t={t0:.3f}s ({rate:g}); "
                "check base_rate/peak_rate")
        acc += rate * width
        while acc >= 1.0:
            acc -= 1.0
            arrival = t0 + width
            if jitter and rng is not None:
                arrival += rng.uniform(-jitter, jitter)
            times.append(min(max(arrival, 0.0), duration))
    return times


class Shape(Spec):
    """Base shape: ``kind`` is the YAML ``type``, ``fields`` the table.

    A shape implements ``window()``, the (start-relative) seconds of
    load it emits, and ``compile(rng, jitter=0.0)``, which returns
    ``(actions, concurrent)``: ``actions`` is a list of ``(time, op,
    index)`` tuples relative to the workload start; ``concurrent``
    selects fire-and-forget submission (bursts) vs. ack-ordered
    submission.
    """

    kind = None

    def to_dict(self):
        return {"type": self.kind, **super().to_dict()}

    @classmethod
    def from_dict(cls, data, where):
        """Parse one ``shape:`` mapping.  On ``Shape`` itself, dispatch on
        ``type`` (unknown types get an actionable list); on a subclass,
        load the remaining keys against its table."""
        if not isinstance(data, dict):
            raise ScenarioError(
                f"{where}: shape must be a mapping with a 'type' key, got "
                f"{type(data).__name__}")
        if cls is Shape:
            kind = data.get("type")
            if kind is None:
                raise ScenarioError(
                    f"{where}: shape needs a 'type' key "
                    f"(one of: {', '.join(sorted(SHAPES))})")
            if kind not in SHAPES:
                raise ScenarioError(
                    f"{where}: unknown shape type {kind!r} "
                    f"(valid types: {', '.join(sorted(SHAPES))})")
            return SHAPES[kind].from_dict(data, where)
        return super().from_dict(
            {key: value for key, value in data.items() if key != "type"},
            where)


def _check_peak(shape, where):
    if shape.peak_rate < shape.base_rate:
        raise ScenarioError(
            f"{where}: peak_rate ({shape.peak_rate!r}) must be >= "
            f"base_rate ({shape.base_rate!r})")


class ConstantShape(Shape):
    """A fixed arrival rate for ``duration`` seconds."""

    kind = "constant"
    fields = (Field("rate", NUMBER, ge=0), Field("duration", NUMBER, ge=0))

    def rate_at(self, t):
        return self.rate if 0.0 <= t <= self.duration else 0.0

    def window(self):
        return self.duration

    def compile(self, rng, jitter=0.0):
        times = _integrate_arrivals(self.rate_at, self.duration, rng=rng,
                                    jitter=jitter)
        return [(t, "create", i) for i, t in enumerate(times)], False


class DiurnalShape(Shape):
    """A day/night sinusoid: base + (peak-base) * (1-cos(2πt/period))/2.

    The rate starts at ``base_rate`` (midnight), crests at ``peak_rate``
    half a period in, and returns to base — the diurnal traffic curve
    every consumer service sees, compressed to simulation scale.
    """

    kind = "diurnal"
    fields = (Field("base_rate", NUMBER, ge=0),
              Field("peak_rate", NUMBER, ge=0),
              Field("period", NUMBER, gt=0), Field("duration", NUMBER, ge=0))

    def check(self, where):
        _check_peak(self, where)

    def rate_at(self, t):
        if not 0.0 <= t <= self.duration:
            return 0.0
        swing = (self.peak_rate - self.base_rate) / 2.0
        return self.base_rate + swing * (
            1.0 - math.cos(2.0 * math.pi * t / self.period))

    def window(self):
        return self.duration

    def compile(self, rng, jitter=0.0):
        times = _integrate_arrivals(self.rate_at, self.duration, rng=rng,
                                    jitter=jitter)
        return [(t, "create", i) for i, t in enumerate(times)], False


class FlashCrowdShape(Shape):
    """Steady base load with one spike: ramp to peak, hold, ramp down."""

    kind = "flash-crowd"
    fields = tuple(Field(name, NUMBER, ge=0) for name in (
        "base_rate", "peak_rate", "at", "ramp", "hold", "duration"))

    def check(self, where):
        _check_peak(self, where)
        if self.at + 2 * self.ramp + self.hold > self.duration:
            raise ScenarioError(
                f"{where}: the spike (at + 2*ramp + hold = "
                f"{self.at + 2 * self.ramp + self.hold:g}s) does not fit "
                f"in duration ({self.duration:g}s)")

    def rate_at(self, t):
        if not 0.0 <= t <= self.duration:
            return 0.0
        spike_start = self.at
        peak_start = self.at + self.ramp
        peak_end = peak_start + self.hold
        spike_end = peak_end + self.ramp
        if t < spike_start or t >= spike_end:
            return self.base_rate
        if t < peak_start:
            frac = (t - spike_start) / self.ramp if self.ramp else 1.0
        elif t < peak_end:
            frac = 1.0
        else:
            frac = (spike_end - t) / self.ramp if self.ramp else 1.0
        return self.base_rate + (self.peak_rate - self.base_rate) * frac

    def window(self):
        return self.duration

    def compile(self, rng, jitter=0.0):
        times = _integrate_arrivals(self.rate_at, self.duration, rng=rng,
                                    jitter=jitter)
        return [(t, "create", i) for i, t in enumerate(times)], False


class BurstShape(Shape):
    """``count`` Pods all submitted concurrently at ``at`` (greedy tenant)."""

    kind = "burst"
    fields = (Field("count", INT, ge=1), Field("at", NUMBER, 0.0, ge=0))

    def window(self):
        return self.at

    def compile(self, rng, jitter=0.0):
        return [(self.at, "create", i) for i in range(self.count)], True


class SequentialShape(Shape):
    """Closed loop: create, wait for the ack, think, create the next.

    The paper's "regular user" in the fairness experiment; ``think``
    seconds pass between an ack and the next submission.
    """

    kind = "sequential"
    fields = (Field("count", INT, ge=1), Field("think", NUMBER, 0.0, ge=0))

    def window(self):
        return self.count * self.think

    def compile(self, rng, jitter=0.0):
        # Closed-loop shapes have no precomputable times; the runner
        # maps them to TenantLoadPattern(mode="sequential").
        return None, False


class RollingUpgradeShape(Shape):
    """Deploy a fleet, then roll it: periodic waves of delete + recreate.

    ``count`` Pods come up at ``startup_rate``; starting at
    ``first_wave``, every ``interval`` seconds one wave replaces
    ``batch`` Pods (round-robin over the fleet) with the next revision —
    the churn pattern of a platform continuously shipping releases.
    """

    kind = "rolling-upgrade"
    fields = (Field("count", INT, ge=1), Field("startup_rate", NUMBER, gt=0),
              Field("batch", INT, ge=1), Field("interval", NUMBER, gt=0),
              Field("waves", INT, ge=0), Field("first_wave", NUMBER, ge=0))

    def check(self, where):
        if self.batch > self.count:
            raise ScenarioError(
                f"{where}.batch: must be <= count ({self.count}), got "
                f"{self.batch!r}")
        startup_end = self.count / self.startup_rate
        if self.waves and self.first_wave < startup_end:
            raise ScenarioError(
                f"{where}: first_wave ({self.first_wave:g}s) starts "
                f"before the fleet finishes deploying "
                f"(count/startup_rate = {startup_end:g}s)")

    def window(self):
        return self.first_wave + self.waves * self.interval

    def compile(self, rng, jitter=0.0):
        actions = [((i + 1) / self.startup_rate, "create", i)
                   for i in range(self.count)]
        cursor = 0
        for wave in range(self.waves):
            at = self.first_wave + wave * self.interval
            for _ in range(self.batch):
                actions.append((at, "replace", cursor % self.count))
                cursor += 1
        return actions, False


SHAPES = {
    shape.kind: shape
    for shape in (ConstantShape, DiurnalShape, FlashCrowdShape, BurstShape,
                  SequentialShape, RollingUpgradeShape)
}

#: Shapes with a continuous rate curve (integral properties apply).
CONTINUOUS_SHAPES = ("constant", "diurnal", "flash-crowd")
