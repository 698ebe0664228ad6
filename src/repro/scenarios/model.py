"""The typed scenario model: what a scenario *is*, independent of YAML.

A :class:`Scenario` composes four orthogonal axes plus bookkeeping:

- **tenants** — names, fair-queue weights, and per-tenant workload
  templates (a named traffic :mod:`shape <repro.scenarios.shapes>` in a
  namespace);
- **topology** — node pools of virtual-kubelet nodes, optionally behind
  an edge uplink (:class:`~repro.network.NetworkLink` latency/jitter/
  loss) and optionally *elastic* (nodes stage their joins over the run,
  the JIRIAF virtual-kubelet-pool pattern);
- **chaos** — an overlay of `repro.chaos` faults on declarative
  schedules;
- **expectations** — convergence plus telemetry floors the run must
  meet, and the recorded **golden** digest the conformance gate replays
  against.

Everything validates eagerly with YAML-path-prefixed messages, and
``from_dict(to_dict(s)) == s`` holds exactly (the round-trip property
test pins it).  Builders: the classes double as the typed Python API —
``Scenario(name=..., tenants=[TenantSpec(...)], ...)`` — so programmatic
scenario construction and YAML loading share one validation path.
"""

import re

from repro.chaos.faults import FAULTS

from .errors import ScenarioError
from .shapes import SequentialShape, shape_from_dict

_NAME_RE = re.compile(r"^[a-z0-9]([a-z0-9-]*[a-z0-9])?$")

#: Admission tiers a tenant may declare (DESIGN.md §15).  ``system`` is
#: reserved for infrastructure credentials and is not assignable here.
TENANT_TIERS = ("platinum", "standard", "free")

SCHEDULE_TYPES = ("oneshot", "periodic", "random")


def _check_name(value, where):
    if not isinstance(value, str) or not _NAME_RE.match(value):
        raise ScenarioError(
            f"{where}: {value!r} is not a valid name (lowercase "
            f"alphanumerics and '-', starting and ending alphanumeric)")
    return value


def _check_keys(data, where, allowed):
    if not isinstance(data, dict):
        raise ScenarioError(
            f"{where}: expected a mapping, got {type(data).__name__}")
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ScenarioError(
            f"{where}: unknown key(s) {', '.join(map(repr, unknown))} "
            f"(valid keys: {', '.join(sorted(allowed))})")


def _number(data, key, where, default=None, minimum=None, required=False):
    if key not in data or data[key] is None:
        if required:
            raise ScenarioError(f"{where}: missing required key {key!r}")
        return default
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(
            f"{where}.{key}: expected a number, got {value!r}")
    if minimum is not None and value < minimum:
        raise ScenarioError(
            f"{where}.{key}: must be >= {minimum}, got {value!r}")
    return value


def _integer(data, key, where, default=None, minimum=None, required=False):
    """Like :func:`_number`, but ``2.7`` is an error, not a silent 2."""
    value = _number(data, key, where, default, minimum, required)
    if value is not None and not isinstance(value, int):
        raise ScenarioError(
            f"{where}.{key}: expected an integer, got {value!r}")
    return value


def _boolean(data, key, where, default):
    """``true``/``false`` only: a quoted ``"no"`` is truthy in Python."""
    value = data.get(key, default)
    if not isinstance(value, bool):
        raise ScenarioError(
            f"{where}.{key}: expected true or false, got {value!r}")
    return value


class _Spec:
    """Shared dataclass-ish plumbing: equality and repr over ``fields``."""

    fields = ()

    def __eq__(self, other):
        return (type(other) is type(self)
                and all(getattr(self, f) == getattr(other, f)
                        for f in self.fields))

    def __repr__(self):
        params = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.fields)
        return f"{type(self).__name__}({params})"


# ----------------------------------------------------------------------
# Topology
# ----------------------------------------------------------------------


class LinkSpec(_Spec):
    """An edge-site uplink profile (maps onto NetworkLink)."""

    fields = ("latency", "jitter", "loss")

    def __init__(self, latency=0.0, jitter=0.0, loss=0.0):
        self.latency = float(latency)
        self.jitter = float(jitter)
        self.loss = float(loss)

    def validate(self, where):
        if self.latency < 0 or self.jitter < 0:
            raise ScenarioError(
                f"{where}: latency/jitter must be >= 0 seconds")
        if not 0.0 <= self.loss < 0.2:
            raise ScenarioError(
                f"{where}: loss must be in [0, 0.2), got {self.loss!r} — "
                f"beyond ~20% the client's retry budget (4 retries) can "
                f"no longer mask drops and components crash rather than "
                f"degrade")

    def to_dict(self):
        return {"latency": self.latency, "jitter": self.jitter,
                "loss": self.loss}

    @classmethod
    def from_dict(cls, data, where):
        _check_keys(data, where, cls.fields)
        spec = cls(latency=_number(data, "latency", where, 0.0),
                   jitter=_number(data, "jitter", where, 0.0),
                   loss=_number(data, "loss", where, 0.0))
        spec.validate(where)
        return spec


class ElasticSpec(_Spec):
    """Staged joins: ``initial`` nodes at bootstrap, the rest every
    ``interval`` seconds (elastic virtual-kubelet pools, JIRIAF-style)."""

    fields = ("initial", "interval")

    def __init__(self, initial=1, interval=5.0):
        self.initial = int(initial)
        self.interval = float(interval)

    def validate(self, where, pool_nodes):
        if not 0 <= self.initial <= pool_nodes:
            raise ScenarioError(
                f"{where}.initial: must be in [0, nodes={pool_nodes}], "
                f"got {self.initial!r}")
        if self.interval <= 0:
            raise ScenarioError(
                f"{where}.interval: must be > 0 seconds, got "
                f"{self.interval!r}")

    def to_dict(self):
        return {"initial": self.initial, "interval": self.interval}

    @classmethod
    def from_dict(cls, data, where):
        _check_keys(data, where, cls.fields)
        return cls(initial=_integer(data, "initial", where, 1, minimum=0),
                   interval=_number(data, "interval", where, 5.0))


class PoolSpec(_Spec):
    """One pool of virtual-kubelet nodes, optionally edge / elastic."""

    fields = ("name", "nodes", "link", "elastic")

    def __init__(self, name, nodes, link=None, elastic=None):
        self.name = name
        self.nodes = int(nodes)
        self.link = link
        self.elastic = elastic

    def validate(self, where):
        _check_name(self.name, f"{where}.name")
        if self.nodes < 1:
            raise ScenarioError(
                f"{where}.nodes: must be >= 1, got {self.nodes!r}")
        if self.link is not None:
            self.link.validate(f"{where}.link")
        if self.elastic is not None:
            self.elastic.validate(f"{where}.elastic", self.nodes)

    def to_dict(self):
        out = {"name": self.name, "nodes": self.nodes}
        if self.link is not None:
            out["link"] = self.link.to_dict()
        if self.elastic is not None:
            out["elastic"] = self.elastic.to_dict()
        return out

    @classmethod
    def from_dict(cls, data, where):
        _check_keys(data, where, cls.fields)
        if "name" not in data:
            raise ScenarioError(f"{where}: pool needs a 'name'")
        link = (LinkSpec.from_dict(data["link"], f"{where}.link")
                if data.get("link") is not None else None)
        elastic = (ElasticSpec.from_dict(data["elastic"], f"{where}.elastic")
                   if data.get("elastic") is not None else None)
        return cls(name=data["name"],
                   nodes=_integer(data, "nodes", where, required=True),
                   link=link, elastic=elastic)


class TopologySpec(_Spec):
    fields = ("pools",)

    def __init__(self, pools=()):
        self.pools = list(pools)

    def validate(self, where):
        if not self.pools:
            raise ScenarioError(
                f"{where}.pools: at least one node pool is required "
                f"(pods need somewhere to run)")
        seen = {}
        for index, pool in enumerate(self.pools):
            pool.validate(f"{where}.pools[{index}]")
            if pool.name in seen:
                raise ScenarioError(
                    f"{where}.pools[{index}]: duplicate pool name "
                    f"{pool.name!r} (already declared at pools"
                    f"[{seen[pool.name]}])")
            seen[pool.name] = index

    def total_nodes(self):
        return sum(pool.nodes for pool in self.pools)

    def to_dict(self):
        return {"pools": [pool.to_dict() for pool in self.pools]}

    @classmethod
    def from_dict(cls, data, where):
        _check_keys(data, where, cls.fields)
        pools = data.get("pools") or []
        if not isinstance(pools, list):
            raise ScenarioError(f"{where}.pools: expected a list")
        return cls(pools=[PoolSpec.from_dict(p, f"{where}.pools[{i}]")
                          for i, p in enumerate(pools)])


# ----------------------------------------------------------------------
# Tenants & workloads
# ----------------------------------------------------------------------


class WorkloadSpec(_Spec):
    """One named workload template inside a tenant."""

    fields = ("name", "shape", "namespace", "start", "jitter")

    def __init__(self, name, shape, namespace="default", start=0.0,
                 jitter=0.0):
        self.name = name
        self.shape = shape
        self.namespace = namespace
        self.start = float(start)
        self.jitter = float(jitter)

    def validate(self, where, horizon):
        _check_name(self.name, f"{where}.name")
        _check_name(self.namespace, f"{where}.namespace")
        if self.start < 0 or self.jitter < 0:
            raise ScenarioError(
                f"{where}: start/jitter must be >= 0 seconds")
        self.shape.validate(f"{where}.shape")
        end = self.start + self.shape.window()
        if end > horizon:
            raise ScenarioError(
                f"{where}: workload runs until t={end:g}s but the "
                f"scenario horizon is {horizon:g}s — extend 'horizon' "
                f"or shrink the shape")

    def to_dict(self):
        out = {"name": self.name, "shape": self.shape.to_dict()}
        if self.namespace != "default":
            out["namespace"] = self.namespace
        if self.start:
            out["start"] = self.start
        if self.jitter:
            out["jitter"] = self.jitter
        return out

    @classmethod
    def from_dict(cls, data, where):
        _check_keys(data, where, cls.fields)
        if "name" not in data:
            raise ScenarioError(f"{where}: workload needs a 'name'")
        if "shape" not in data:
            raise ScenarioError(
                f"{where}: workload needs a 'shape' mapping "
                f"(e.g. {{type: constant, rate: 2, duration: 20}})")
        return cls(name=data["name"],
                   shape=shape_from_dict(data["shape"], f"{where}.shape"),
                   namespace=data.get("namespace", "default"),
                   start=_number(data, "start", where, 0.0, minimum=0),
                   jitter=_number(data, "jitter", where, 0.0, minimum=0))


class TenantSpec(_Spec):
    fields = ("name", "weight", "tier", "workloads")

    def __init__(self, name, weight=1, tier=None, workloads=()):
        self.name = name
        self.weight = int(weight)
        self.tier = tier
        self.workloads = list(workloads)

    def validate(self, where, horizon):
        _check_name(self.name, f"{where}.name")
        if self.weight < 1:
            raise ScenarioError(
                f"{where}.weight: must be >= 1, got {self.weight!r}")
        if self.tier is not None and self.tier not in TENANT_TIERS:
            raise ScenarioError(
                f"{where}.tier: unknown tier {self.tier!r} "
                f"(valid: {', '.join(TENANT_TIERS)})")
        seen = {}
        for index, workload in enumerate(self.workloads):
            workload.validate(f"{where}.workloads[{index}]", horizon)
            if workload.name in seen:
                raise ScenarioError(
                    f"{where}.workloads[{index}]: duplicate workload "
                    f"name {workload.name!r} (already declared at "
                    f"workloads[{seen[workload.name]}])")
            seen[workload.name] = index

    def to_dict(self):
        out = {"name": self.name}
        if self.weight != 1:
            out["weight"] = self.weight
        if self.tier is not None:
            out["tier"] = self.tier
        if self.workloads:
            out["workloads"] = [w.to_dict() for w in self.workloads]
        return out

    @classmethod
    def from_dict(cls, data, where):
        _check_keys(data, where, cls.fields)
        if "name" not in data:
            raise ScenarioError(f"{where}: tenant needs a 'name'")
        workloads = data.get("workloads") or []
        if not isinstance(workloads, list):
            raise ScenarioError(f"{where}.workloads: expected a list")
        return cls(
            name=data["name"],
            weight=_integer(data, "weight", where, 1),
            tier=data.get("tier"),
            workloads=[WorkloadSpec.from_dict(w, f"{where}.workloads[{i}]")
                       for i, w in enumerate(workloads)])


# ----------------------------------------------------------------------
# Chaos overlay
# ----------------------------------------------------------------------


class ScheduleSpec(_Spec):
    """When a chaos fault fires: oneshot, periodic, or random windows."""

    fields = ("type", "at", "duration", "period", "count", "offset",
              "mean_gap", "duration_range")

    def __init__(self, type, at=None, duration=0.0, period=None, count=None,
                 offset=0.0, mean_gap=None, duration_range=None):
        self.type = type
        self.at = at
        self.duration = float(duration)
        self.period = period
        self.count = count
        self.offset = float(offset)
        self.mean_gap = mean_gap
        self.duration_range = (
            list(duration_range)
            if isinstance(duration_range, (list, tuple)) else duration_range)

    def validate(self, where):
        if self.type not in SCHEDULE_TYPES:
            raise ScenarioError(
                f"{where}.type: unknown schedule type {self.type!r} "
                f"(valid: {', '.join(SCHEDULE_TYPES)})")
        if self.duration < 0:
            raise ScenarioError(
                f"{where}.duration: must be >= 0, got {self.duration!r}")
        if self.count is not None and (
                isinstance(self.count, bool)
                or not isinstance(self.count, int)):
            raise ScenarioError(
                f"{where}.count: expected an integer, got {self.count!r}")
        if self.type == "oneshot":
            if self.at is None or self.at < 0:
                raise ScenarioError(
                    f"{where}: oneshot needs 'at' >= 0 seconds, got "
                    f"{self.at!r}")
        elif self.type == "periodic":
            if self.period is None or self.period <= 0:
                raise ScenarioError(
                    f"{where}: periodic needs 'period' > 0 seconds, got "
                    f"{self.period!r}")
            if self.count is None or self.count < 1:
                raise ScenarioError(
                    f"{where}: periodic needs 'count' >= 1 "
                    f"(unbounded chaos cannot be digest-gated), got "
                    f"{self.count!r}")
        elif self.type == "random":
            if self.mean_gap is None or self.mean_gap <= 0:
                raise ScenarioError(
                    f"{where}: random needs 'mean_gap' > 0 seconds, got "
                    f"{self.mean_gap!r}")
            if self.count is None or self.count < 1:
                raise ScenarioError(
                    f"{where}: random needs 'count' >= 1, got "
                    f"{self.count!r}")
            span = self.duration_range
            if span is not None and not (
                    isinstance(span, list) and len(span) == 2
                    and all(isinstance(v, (int, float))
                            and not isinstance(v, bool) for v in span)
                    and 0 <= span[0] <= span[1]):
                raise ScenarioError(
                    f"{where}.duration_range: expected two numbers "
                    f"[lo, hi] with 0 <= lo <= hi, got {span!r}")

    def windows(self):
        """Statically known ``[start, end)`` windows (for overlap checks).

        Random schedules return ``None`` — their windows depend on the
        engine RNG, so overlap cannot be checked statically.
        """
        if self.type == "oneshot":
            return [(self.at, self.at + self.duration)]
        if self.type == "periodic":
            # Mirrors repro.chaos.schedule.Periodic: first window opens
            # after offset + period, the k-th after k periods.
            out = []
            for k in range(self.count):
                start = self.offset + (k + 1) * self.period + \
                    k * self.duration
                out.append((start, start + self.duration))
            return out
        return None

    def to_dict(self):
        out = {"type": self.type}
        if self.at is not None:
            out["at"] = self.at
        if self.duration:
            out["duration"] = self.duration
        if self.period is not None:
            out["period"] = self.period
        if self.count is not None:
            out["count"] = self.count
        if self.offset:
            out["offset"] = self.offset
        if self.mean_gap is not None:
            out["mean_gap"] = self.mean_gap
        if self.duration_range is not None:
            out["duration_range"] = list(self.duration_range)
        return out

    @classmethod
    def from_dict(cls, data, where):
        _check_keys(data, where, cls.fields)
        if "type" not in data:
            raise ScenarioError(
                f"{where}: schedule needs a 'type' "
                f"(one of: {', '.join(SCHEDULE_TYPES)})")
        spec = cls(type=data["type"],
                   at=_number(data, "at", where),
                   duration=_number(data, "duration", where, 0.0),
                   period=_number(data, "period", where),
                   count=_number(data, "count", where),
                   offset=_number(data, "offset", where, 0.0),
                   mean_gap=_number(data, "mean_gap", where),
                   duration_range=data.get("duration_range"))
        spec.validate(where)
        return spec


class ChaosSpec(_Spec):
    """One fault on one schedule against one target."""

    fields = ("fault", "target", "schedule", "params")

    def __init__(self, fault, target, schedule, params=None):
        self.fault = fault
        self.target = target
        self.schedule = schedule
        self.params = dict(params or {})

    def validate(self, where, tenant_names, control):
        kind = FAULTS.get(self.fault)
        if kind is None:
            raise ScenarioError(
                f"{where}.fault: unknown fault {self.fault!r} "
                f"(valid faults: {', '.join(sorted(FAULTS))})")
        targets = kind.targets
        if self.target in ("super", "syncer"):
            if self.target not in targets:
                raise ScenarioError(
                    f"{where}.target: fault {self.fault!r} cannot target "
                    f"{self.target!r} (allowed: "
                    f"{', '.join(targets)})")
        elif "tenant" in targets:
            if self.target not in tenant_names:
                raise ScenarioError(
                    f"{where}.target: {self.target!r} is not a declared "
                    f"tenant (declared: {', '.join(sorted(tenant_names))}"
                    f"{', or super' if 'super' in targets else ''})")
        else:
            raise ScenarioError(
                f"{where}.target: fault {self.fault!r} targets "
                f"{'/'.join(targets)}, got {self.target!r}")
        unknown = sorted(set(self.params) - set(kind.params))
        if unknown:
            raise ScenarioError(
                f"{where}.params: unknown parameter(s) "
                f"{', '.join(map(repr, unknown))} for fault "
                f"{self.fault!r} (valid: "
                f"{', '.join(kind.params) or 'none'})")
        if kind.requires is not None:
            needed, satisfied = kind.requires
            if not satisfied(control):
                raise ScenarioError(
                    f"{where}.fault: {self.fault!r} needs {needed}")
        self.schedule.validate(f"{where}.schedule")

    def to_dict(self):
        out = {"fault": self.fault, "target": self.target,
               "schedule": self.schedule.to_dict()}
        if self.params:
            out["params"] = dict(self.params)
        return out

    @classmethod
    def from_dict(cls, data, where):
        _check_keys(data, where, cls.fields)
        for key in ("fault", "target", "schedule"):
            if key not in data:
                raise ScenarioError(f"{where}: chaos entry needs {key!r}")
        params = data.get("params") or {}
        if not isinstance(params, dict):
            raise ScenarioError(
                f"{where}.params: expected a mapping, got {params!r}")
        return cls(fault=data["fault"], target=data["target"],
                   schedule=ScheduleSpec.from_dict(data["schedule"],
                                                   f"{where}.schedule"),
                   params=params)


def _check_chaos_overlaps(entries, where):
    """Reject statically overlapping windows of the same fault+target.

    Two windows of the *same* fault against the *same* target that
    overlap in time would double-inject (the second ``inject`` fires
    while the first window is still open) and the paired ``restore``
    calls then race — a classic scenario-authoring mistake, so it is a
    validation error, not a runtime surprise.
    """
    by_key = {}
    for index, entry in enumerate(entries):
        windows = entry.schedule.windows()
        if windows is None:
            continue
        key = (entry.fault, entry.target)
        for window in windows:
            by_key.setdefault(key, []).append((window, index))
    for (fault, target), windows in sorted(by_key.items()):
        ordered = sorted(windows)
        for ((s1, e1), i1), ((s2, e2), i2) in zip(ordered, ordered[1:]):
            # Half-open [s, e): instantaneous windows never overlap.
            if s2 < e1 and s1 < e2 and e1 > s1:
                raise ScenarioError(
                    f"{where}[{i1}] and {where}[{i2}]: overlapping "
                    f"windows for fault {fault!r} on target {target!r} "
                    f"([{s1:g}, {e1:g}) vs [{s2:g}, {e2:g})) — stagger "
                    f"the schedules or merge them into one entry")


# ----------------------------------------------------------------------
# Expectations & golden
# ----------------------------------------------------------------------


class TelemetryExpect(_Spec):
    """A floor/ceiling on one metric family's total at end of run."""

    fields = ("metric", "min", "max")

    def __init__(self, metric, min=None, max=None):
        self.metric = metric
        self.min = min
        self.max = max

    def validate(self, where):
        if not self.metric or not isinstance(self.metric, str):
            raise ScenarioError(f"{where}: 'metric' must be a family name")
        if self.min is None and self.max is None:
            raise ScenarioError(
                f"{where}: expectation on {self.metric!r} needs 'min' "
                f"and/or 'max'")

    def to_dict(self):
        out = {"metric": self.metric}
        if self.min is not None:
            out["min"] = self.min
        if self.max is not None:
            out["max"] = self.max
        return out

    @classmethod
    def from_dict(cls, data, where):
        _check_keys(data, where, cls.fields)
        spec = cls(metric=data.get("metric"),
                   min=_number(data, "min", where),
                   max=_number(data, "max", where))
        spec.validate(where)
        return spec


class ExpectSpec(_Spec):
    fields = ("converged", "min_pods_created", "telemetry")

    def __init__(self, converged=True, min_pods_created=0, telemetry=()):
        self.converged = bool(converged)
        self.min_pods_created = int(min_pods_created)
        self.telemetry = list(telemetry)

    def validate(self, where):
        if self.min_pods_created < 0:
            raise ScenarioError(
                f"{where}.min_pods_created: must be >= 0")
        for index, expect in enumerate(self.telemetry):
            expect.validate(f"{where}.telemetry[{index}]")

    def to_dict(self):
        out = {"converged": self.converged}
        if self.min_pods_created:
            out["min_pods_created"] = self.min_pods_created
        if self.telemetry:
            out["telemetry"] = [t.to_dict() for t in self.telemetry]
        return out

    @classmethod
    def from_dict(cls, data, where):
        _check_keys(data, where, cls.fields)
        telemetry = data.get("telemetry") or []
        if not isinstance(telemetry, list):
            raise ScenarioError(f"{where}.telemetry: expected a list")
        return cls(
            converged=_boolean(data, "converged", where, True),
            min_pods_created=_integer(data, "min_pods_created", where, 0,
                                      minimum=0),
            telemetry=[TelemetryExpect.from_dict(t,
                                                 f"{where}.telemetry[{i}]")
                       for i, t in enumerate(telemetry)])


class GoldenSpec(_Spec):
    """The recorded reference: converged-state store-event digest."""

    fields = ("digest", "store_events", "sim_time")

    def __init__(self, digest, store_events, sim_time=0.0):
        self.digest = digest
        self.store_events = int(store_events)
        self.sim_time = float(sim_time)

    def validate(self, where):
        if (not isinstance(self.digest, str)
                or not re.fullmatch(r"[0-9a-f]{64}", self.digest)):
            raise ScenarioError(
                f"{where}.digest: expected a sha256 hex digest, got "
                f"{self.digest!r} (run 'python -m repro.scenarios "
                f"record' to produce one)")
        if self.store_events < 1:
            raise ScenarioError(
                f"{where}.store_events: must be >= 1")

    def to_dict(self):
        return {"digest": self.digest, "store_events": self.store_events,
                "sim_time": self.sim_time}

    @classmethod
    def from_dict(cls, data, where):
        _check_keys(data, where, cls.fields)
        for key in ("digest", "store_events"):
            if key not in data:
                raise ScenarioError(f"{where}: golden needs {key!r}")
        spec = cls(digest=data["digest"],
                   store_events=_integer(data, "store_events", where,
                                         required=True),
                   sim_time=_number(data, "sim_time", where, 0.0))
        spec.validate(where)
        return spec


# ----------------------------------------------------------------------
# Control-plane knobs
# ----------------------------------------------------------------------


class ControlSpec(_Spec):
    """How the env under test is configured (syncer sizing etc.).

    ``apf`` turns on APF admission control on the super apiserver
    (tenant tiers, shuffle-shard queues, 429 + Retry-After shedding);
    ``scale_to_zero`` turns on the idle swapper, with
    ``idle_threshold`` overriding how long a tenant control plane must
    see no user traffic before it is paged out (DESIGN.md §15).
    ``syncer_replicas`` > 1 runs the syncer as a leader-elected HA group
    (DESIGN.md §10); ``store_replicas`` > 1 replicates every
    control-plane store and ``store_wal`` puts a write-ahead log under
    a single one (DESIGN.md §13).  All default off, so scenarios that
    do not name them run the exact seed stack and keep their digests.
    """

    fields = ("scan_interval", "dws_workers", "uws_workers",
              "fair_queuing", "optimized", "apf", "scale_to_zero",
              "idle_threshold", "syncer_replicas", "store_replicas",
              "store_wal")

    def __init__(self, scan_interval=5.0, dws_workers=4, uws_workers=4,
                 fair_queuing=True, optimized=True, apf=False,
                 scale_to_zero=False, idle_threshold=None,
                 syncer_replicas=1, store_replicas=1, store_wal=False):
        self.scan_interval = float(scan_interval)
        self.dws_workers = int(dws_workers)
        self.uws_workers = int(uws_workers)
        self.fair_queuing = bool(fair_queuing)
        self.optimized = bool(optimized)
        self.apf = bool(apf)
        self.scale_to_zero = bool(scale_to_zero)
        self.idle_threshold = (float(idle_threshold)
                               if idle_threshold is not None else None)
        self.syncer_replicas = int(syncer_replicas)
        self.store_replicas = int(store_replicas)
        self.store_wal = bool(store_wal)

    def validate(self, where):
        if self.scan_interval <= 0:
            raise ScenarioError(
                f"{where}.scan_interval: must be > 0 seconds")
        if self.dws_workers < 1 or self.uws_workers < 1:
            raise ScenarioError(
                f"{where}: dws_workers/uws_workers must be >= 1")
        if self.syncer_replicas < 1 or self.store_replicas < 1:
            raise ScenarioError(
                f"{where}: syncer_replicas/store_replicas must be >= 1")
        if self.idle_threshold is not None:
            if self.idle_threshold <= 0:
                raise ScenarioError(
                    f"{where}.idle_threshold: must be > 0 seconds")
            if not self.scale_to_zero:
                raise ScenarioError(
                    f"{where}.idle_threshold: only meaningful with "
                    f"scale_to_zero: true")

    def to_dict(self):
        out = {"scan_interval": self.scan_interval,
               "dws_workers": self.dws_workers,
               "uws_workers": self.uws_workers,
               "fair_queuing": self.fair_queuing,
               "optimized": self.optimized}
        if self.apf:
            out["apf"] = True
        if self.scale_to_zero:
            out["scale_to_zero"] = True
        if self.idle_threshold is not None:
            out["idle_threshold"] = self.idle_threshold
        if self.syncer_replicas != 1:
            out["syncer_replicas"] = self.syncer_replicas
        if self.store_replicas != 1:
            out["store_replicas"] = self.store_replicas
        if self.store_wal:
            out["store_wal"] = True
        return out

    @classmethod
    def from_dict(cls, data, where):
        _check_keys(data, where, cls.fields)
        spec = cls(
            scan_interval=_number(data, "scan_interval", where, 5.0),
            dws_workers=_integer(data, "dws_workers", where, 4),
            uws_workers=_integer(data, "uws_workers", where, 4),
            fair_queuing=_boolean(data, "fair_queuing", where, True),
            optimized=_boolean(data, "optimized", where, True),
            apf=_boolean(data, "apf", where, False),
            scale_to_zero=_boolean(data, "scale_to_zero", where, False),
            idle_threshold=_number(data, "idle_threshold", where),
            syncer_replicas=_integer(data, "syncer_replicas", where, 1),
            store_replicas=_integer(data, "store_replicas", where, 1),
            store_wal=_boolean(data, "store_wal", where, False))
        spec.validate(where)
        return spec


# ----------------------------------------------------------------------
# The scenario
# ----------------------------------------------------------------------


class Scenario(_Spec):
    fields = ("name", "description", "seed", "horizon",
              "convergence_timeout", "tier1", "race_check", "control",
              "topology", "tenants", "chaos", "expect", "golden")

    def __init__(self, name, description="", seed=0, horizon=40.0,
                 convergence_timeout=180.0, tier1=False, race_check=False,
                 control=None, topology=None, tenants=(), chaos=(),
                 expect=None, golden=None):
        self.name = name
        self.description = description
        self.seed = int(seed)
        self.horizon = float(horizon)
        self.convergence_timeout = float(convergence_timeout)
        self.tier1 = bool(tier1)
        self.race_check = bool(race_check)
        self.control = control or ControlSpec()
        self.topology = topology or TopologySpec()
        self.tenants = list(tenants)
        self.chaos = list(chaos)
        self.expect = expect or ExpectSpec()
        self.golden = golden

    def validate(self):
        _check_name(self.name, "name")
        if self.horizon <= 0:
            raise ScenarioError(
                f"horizon: must be > 0 seconds, got {self.horizon!r}")
        if self.convergence_timeout <= 0:
            raise ScenarioError("convergence_timeout: must be > 0 seconds")
        self.control.validate("control")
        self.topology.validate("topology")
        if not self.tenants:
            raise ScenarioError(
                "tenants: at least one tenant is required")
        seen = {}
        for index, tenant in enumerate(self.tenants):
            tenant.validate(f"tenants[{index}]", self.horizon)
            if tenant.name in seen:
                raise ScenarioError(
                    f"tenants[{index}]: duplicate tenant name "
                    f"{tenant.name!r} (already declared at tenants"
                    f"[{seen[tenant.name]}]) — tenant names key control "
                    f"planes and fair-queue weights, so they must be "
                    f"unique")
            seen[tenant.name] = index
        tenant_names = set(seen)
        for index, entry in enumerate(self.chaos):
            entry.validate(f"chaos[{index}]", tenant_names, self.control)
        _check_chaos_overlaps(self.chaos, "chaos")
        self.expect.validate("expect")
        if self.golden is not None:
            self.golden.validate("golden")
        return self

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def workload_count(self):
        return sum(len(t.workloads) for t in self.tenants)

    def has_open_loop_load(self):
        return any(not isinstance(w.shape, SequentialShape)
                   for t in self.tenants for w in t.workloads)

    def to_dict(self):
        out = {"name": self.name}
        if self.description:
            out["description"] = self.description
        out["seed"] = self.seed
        out["horizon"] = self.horizon
        if self.convergence_timeout != 180.0:
            out["convergence_timeout"] = self.convergence_timeout
        if self.tier1:
            out["tier1"] = True
        if self.race_check:
            out["race_check"] = True
        out["control"] = self.control.to_dict()
        out["topology"] = self.topology.to_dict()
        out["tenants"] = [t.to_dict() for t in self.tenants]
        if self.chaos:
            out["chaos"] = [c.to_dict() for c in self.chaos]
        out["expect"] = self.expect.to_dict()
        if self.golden is not None:
            out["golden"] = self.golden.to_dict()
        return out

    @classmethod
    def from_dict(cls, data, where="scenario"):
        _check_keys(data, where, cls.fields)
        if "name" not in data:
            raise ScenarioError(f"{where}: scenario needs a 'name'")
        tenants = data.get("tenants") or []
        chaos = data.get("chaos") or []
        if not isinstance(tenants, list):
            raise ScenarioError("tenants: expected a list")
        if not isinstance(chaos, list):
            raise ScenarioError("chaos: expected a list")
        scenario = cls(
            name=data["name"],
            description=data.get("description", ""),
            seed=_integer(data, "seed", where, 0),
            horizon=_number(data, "horizon", where, 40.0),
            convergence_timeout=_number(data, "convergence_timeout", where,
                                        180.0),
            tier1=_boolean(data, "tier1", where, False),
            race_check=_boolean(data, "race_check", where, False),
            control=(ControlSpec.from_dict(data["control"], "control")
                     if data.get("control") is not None else None),
            topology=(TopologySpec.from_dict(data["topology"], "topology")
                      if data.get("topology") is not None else None),
            tenants=[TenantSpec.from_dict(t, f"tenants[{i}]")
                     for i, t in enumerate(tenants)],
            chaos=[ChaosSpec.from_dict(c, f"chaos[{i}]")
                   for i, c in enumerate(chaos)],
            expect=(ExpectSpec.from_dict(data["expect"], "expect")
                    if data.get("expect") is not None else None),
            golden=(GoldenSpec.from_dict(data["golden"], "golden")
                    if data.get("golden") is not None else None))
        return scenario.validate()
