"""Prometheus-style in-process metrics registry.

One :class:`MetricsRegistry` per simulation holds *families* of labeled
instruments — :class:`Counter`, :class:`Gauge`, :class:`Histogram` — the
way a Prometheus client library does:

- a family is identified by name and declares its label names up front;
- ``family.labels(tenant="acme")`` resolves (and memoizes) one *child*
  per label-value combination, so hot paths pay a dict lookup once and a
  float add per event afterwards;
- snapshots are deterministic: families sort by name, children by label
  values, and the only timestamp is the simulation clock — two same-seed
  runs export byte-identical snapshots.

The registry has a cheap no-op mode (``enabled=False``): every factory
returns a shared do-nothing family, so instrumented components don't
branch at each call site.

This module is dependency-free (the clock is an injected callable), so
the simulation kernel can own a registry without a layering cycle.
"""

from bisect import bisect_left

# Default upper bounds (seconds) spanning the sub-millisecond request
# path up to the multi-second Pod pipeline tails the paper reports.
DEFAULT_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
                   0.5, 1.0, 2.5, 5.0, 10.0, 20.0, 30.0, 60.0)

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount=1.0):
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0: {amount}")
        self.value += amount


class Gauge:
    """A value that can go up, down, or be computed at snapshot time."""

    __slots__ = ("value", "_fn")

    def __init__(self):
        self.value = 0.0
        self._fn = None

    def set(self, value):
        self.value = float(value)

    def inc(self, amount=1.0):
        self.value += amount

    def dec(self, amount=1.0):
        self.value -= amount

    def set_function(self, fn):
        """Evaluate ``fn()`` lazily at snapshot time (zero hot-path cost)."""
        self._fn = fn

    def read(self):
        if self._fn is not None:
            return float(self._fn())
        return self.value


class Histogram:
    """Fixed-bucket histogram (cumulative counts, sum, total count)."""

    __slots__ = ("bounds", "counts", "count", "sum")

    def __init__(self, bounds):
        self.bounds = tuple(sorted(bounds))
        # counts[i] observations <= bounds[i]; counts[-1] is +inf overflow.
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value):
        self.count += 1
        self.sum += value
        self.counts[bisect_left(self.bounds, value)] += 1

    def cumulative(self):
        """Cumulative counts per bucket (Prometheus ``le`` semantics)."""
        out = []
        running = 0
        for count in self.counts:
            running += count
            out.append(running)
        return out


_CHILD_TYPES = {COUNTER: Counter, GAUGE: Gauge, HISTOGRAM: Histogram}


class Family:
    """All children of one named metric, keyed by label values."""

    __slots__ = ("name", "kind", "help", "label_names", "_children",
                 "_buckets", "_default")

    def __init__(self, name, kind, help="", labels=(), buckets=None):
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(labels)
        self._children = {}
        self._buckets = tuple(buckets) if buckets else DEFAULT_BUCKETS
        self._default = None

    def labels(self, **labelset):
        """The child for this label-value combination (memoized).

        Keyword order does not matter: values are keyed in declared
        label-name order, so ``labels(a=1, b=2)`` and ``labels(b=2, a=1)``
        resolve to the same child.
        """
        try:
            key = tuple(str(labelset[name]) for name in self.label_names)
        except KeyError as exc:
            raise ValueError(
                f"{self.name}: missing label {exc.args[0]!r} "
                f"(declared: {self.label_names})") from exc
        if len(labelset) != len(self.label_names):
            extra = set(labelset) - set(self.label_names)
            raise ValueError(f"{self.name}: unknown labels {sorted(extra)}")
        child = self._children.get(key)
        if child is None:
            if self.kind == HISTOGRAM:
                child = Histogram(self._buckets)
            else:
                child = _CHILD_TYPES[self.kind]()
            self._children[key] = child
        return child

    # Label-less convenience: the family acts as its own single child.

    def _solo(self):
        if self.label_names:
            raise ValueError(
                f"{self.name} declares labels {self.label_names}; "
                "use .labels(...)")
        if self._default is None:
            self._default = self.labels()
        return self._default

    def inc(self, amount=1.0):
        self._solo().inc(amount)

    def set(self, value):
        self._solo().set(value)

    def dec(self, amount=1.0):
        self._solo().dec(amount)

    def set_function(self, fn):
        self._solo().set_function(fn)

    def observe(self, value):
        self._solo().observe(value)

    def children(self):
        """(label_values_tuple, child) pairs sorted by label values."""
        return sorted(self._children.items())

    def total(self):
        """Sum of all children's values (counters/gauges) or counts."""
        if self.kind == HISTOGRAM:
            return sum(child.count for child in self._children.values())
        if self.kind == GAUGE:
            return sum(child.read() for child in self._children.values())
        return sum(child.value for child in self._children.values())


class ChildCache(dict):
    """Children bound once per label value: ``cache[value]`` calls
    ``resolve(value)`` (typically a ``family.labels(...)``) on first use
    and is a plain dict hit afterwards, so a hot path whose only varying
    label is ``value`` pays no keyword packing or key building."""

    __slots__ = ("_resolve",)

    def __init__(self, resolve):
        super().__init__()
        self._resolve = resolve

    def __missing__(self, value):
        child = self[value] = self._resolve(value)
        return child


class _NoopChild:
    """Shared do-nothing instrument for disabled registries."""

    __slots__ = ()

    def inc(self, amount=1.0):
        pass

    def set(self, value):
        pass

    def dec(self, amount=1.0):
        pass

    def set_function(self, fn):
        pass

    def observe(self, value):
        pass

    def labels(self, **labelset):
        return self

    def children(self):
        return []

    def total(self):
        return 0.0

    # Histogram-reader compatibility so report code needn't branch.
    value = 0.0
    count = 0
    sum = 0.0


NOOP = _NoopChild()


class MetricsRegistry:
    """Named metric families with deterministic snapshots.

    ``clock`` supplies the snapshot timestamp — wire it to ``sim.now`` so
    exports are stamped in simulated (deterministic) time, never wall
    time.
    """

    def __init__(self, clock=None, enabled=True):
        self.clock = clock or (lambda: 0.0)
        self.enabled = enabled
        self._families = {}

    # ------------------------------------------------------------------
    # Factories (idempotent per name)
    # ------------------------------------------------------------------

    def _family(self, name, kind, help, labels, buckets=None):
        if not self.enabled:
            return NOOP
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}")
            if family.label_names != tuple(labels):
                raise ValueError(
                    f"metric {name!r} label mismatch: "
                    f"{family.label_names} vs {tuple(labels)}")
            return family
        family = Family(name, kind, help=help, labels=labels,
                        buckets=buckets)
        self._families[name] = family
        return family

    def counter(self, name, help="", labels=()):
        return self._family(name, COUNTER, help, labels)

    def gauge(self, name, help="", labels=()):
        return self._family(name, GAUGE, help, labels)

    def histogram(self, name, help="", labels=(), buckets=None):
        return self._family(name, HISTOGRAM, help, labels, buckets=buckets)

    def get(self, name):
        """The family registered under ``name``, or None."""
        return self._families.get(name)

    def families(self):
        """Families sorted by name (the canonical iteration order)."""
        return [self._families[name] for name in sorted(self._families)]

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------

    def snapshot(self):
        """A plain-dict, JSON-serializable, deterministic export.

        Families sort by name and children by label values; gauges with
        a registered function are evaluated here.
        """
        out = {"time": float(self.clock()), "families": []}
        for family in self.families():
            entry = {
                "name": family.name,
                "kind": family.kind,
                "help": family.help,
                "labels": list(family.label_names),
                "series": [],
            }
            for values, child in family.children():
                series = {"labels": dict(zip(family.label_names, values))}
                if family.kind == COUNTER:
                    series["value"] = child.value
                elif family.kind == GAUGE:
                    series["value"] = child.read()
                else:
                    series["count"] = child.count
                    series["sum"] = child.sum
                    series["buckets"] = [
                        {"le": bound, "count": cumulative}
                        for bound, cumulative in zip(
                            list(child.bounds) + ["+Inf"],
                            child.cumulative())
                    ]
                entry["series"].append(series)
            out["families"].append(entry)
        return out
