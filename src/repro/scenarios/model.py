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

Each class declares its fields once, as a table of rows (name, type,
default or required, bounds or choices) read by the shared spec base
(:mod:`repro.chaos.spec`).  The table gives the constructor (``Scenario(
name=..., tenants=[TenantSpec(...)], ...)``, so programmatic
construction and YAML loading share one validation path), ``from_dict``
with YAML-path-prefixed errors, ``to_dict`` (``from_dict(to_dict(s)) ==
s`` holds exactly; the round-trip property test pins it) and every
single-field check.  A class's ``check`` holds only the rules that
involve more than one field: schedule type against its parameters,
elastic pool size, duplicate names, workloads within the horizon, and
each chaos entry's target, required deployment and typed parameters.
"""

from repro.apiserver.apf import TENANT_TIERS
from repro.chaos.faults import FAULTS
from repro.chaos.spec import (
    BOOL,
    CHOICE,
    INT,
    MAPPING,
    NAME,
    NUMBER,
    PAIR,
    SPEC,
    SPECS,
    STR,
    Field,
    Spec,
    load,
)

from .errors import ScenarioError
from .shapes import SequentialShape, Shape

SCHEDULE_TYPES = ("oneshot", "periodic", "random")


def _check_unique(items, where, what, why=""):
    seen = {}
    for index, item in enumerate(items):
        if item.name in seen:
            raise ScenarioError(
                f"{where}[{index}]: duplicate {what} name {item.name!r} "
                f"(already declared at {where.rpartition('.')[2]}"
                f"[{seen[item.name]}]){why}")
        seen[item.name] = index


# ----------------------------------------------------------------------
# Topology
# ----------------------------------------------------------------------


class LinkSpec(Spec):
    """An edge-site uplink profile (maps onto NetworkLink)."""

    fields = (
        Field("latency", NUMBER, 0.0, ge=0),
        Field("jitter", NUMBER, 0.0, ge=0),
        Field("loss", NUMBER, 0.0, ge=0, lt=0.2,
              hint="beyond ~20% the client's retry budget (4 retries) can "
                   "no longer mask drops and components crash rather "
                   "than degrade"),
    )


class ElasticSpec(Spec):
    """Staged joins: ``initial`` nodes at bootstrap, the rest every
    ``interval`` seconds (elastic virtual-kubelet pools, JIRIAF-style)."""

    fields = (Field("initial", INT, 1, ge=0),
              Field("interval", NUMBER, 5.0, gt=0))


class PoolSpec(Spec):
    """One pool of virtual-kubelet nodes, optionally edge / elastic."""

    fields = (
        Field("name", NAME),
        Field("nodes", INT, ge=1),
        Field("link", SPEC, None, spec=LinkSpec),
        Field("elastic", SPEC, None, spec=ElasticSpec),
    )

    def check(self, where):
        if self.elastic is not None and self.elastic.initial > self.nodes:
            raise ScenarioError(
                f"{where}.elastic.initial: must be <= nodes "
                f"({self.nodes}), got {self.elastic.initial!r}")


class TopologySpec(Spec):
    fields = (Field("pools", SPECS, (), spec=PoolSpec, ge=1,
                    hint="at least one node pool is required (pods need "
                         "somewhere to run)"),)

    def check(self, where):
        _check_unique(self.pools, f"{where}.pools", "pool")

    def total_nodes(self):
        return sum(pool.nodes for pool in self.pools)


# ----------------------------------------------------------------------
# Tenants & workloads
# ----------------------------------------------------------------------


class WorkloadSpec(Spec):
    """One named workload template inside a tenant."""

    fields = (
        Field("name", NAME),
        Field("shape", SPEC, spec=Shape),
        Field("namespace", NAME, "default"),
        Field("start", NUMBER, 0.0, ge=0),
        Field("jitter", NUMBER, 0.0, ge=0),
    )


class TenantSpec(Spec):
    fields = (
        Field("name", NAME),
        Field("weight", INT, 1, ge=1),
        Field("tier", CHOICE, None, choices=TENANT_TIERS),
        Field("workloads", SPECS, (), spec=WorkloadSpec),
    )

    def check(self, where):
        _check_unique(self.workloads, f"{where}.workloads", "workload")


# ----------------------------------------------------------------------
# Chaos overlay
# ----------------------------------------------------------------------


class ScheduleSpec(Spec):
    """When a chaos fault fires: oneshot, periodic, or random windows."""

    fields = (
        Field("type", CHOICE, choices=SCHEDULE_TYPES),
        Field("at", NUMBER, None, ge=0),
        Field("duration", NUMBER, 0.0, ge=0),
        Field("period", NUMBER, None, gt=0),
        Field("count", INT, None, ge=1),
        Field("offset", NUMBER, 0.0),
        Field("mean_gap", NUMBER, None, gt=0),
        Field("duration_range", PAIR, None),
    )

    #: The parameters each schedule type needs.
    NEEDS = {"oneshot": ("at",),
             "periodic": ("period", "count"),
             "random": ("mean_gap", "count")}

    def check(self, where):
        for key in self.NEEDS[self.type]:
            if getattr(self, key) is None:
                why = (" (unbounded chaos cannot be digest-gated)"
                       if key == "count" else "")
                raise ScenarioError(
                    f"{where}: a {self.type} schedule needs {key!r}{why}")
        span = self.duration_range
        if span is not None and not 0 <= span[0] <= span[1]:
            raise ScenarioError(
                f"{where}.duration_range: expected two numbers [lo, hi] "
                f"with 0 <= lo <= hi, got {span!r}")

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


class ChaosSpec(Spec):
    """One fault on one schedule against one target.

    ``params`` is kept as written; it is checked against the fault's
    parameter table (``FAULTS[fault].params``), and the fault is built
    from the typed, defaulted values that table yields.
    """

    fields = (
        Field("fault", CHOICE, choices=FAULTS),
        Field("target", STR),
        Field("schedule", SPEC, spec=ScheduleSpec),
        Field("params", MAPPING, {}),
    )

    def check(self, where):
        load(FAULTS[self.fault].params.values(), self.params,
             f"{where}.params")

    def check_deployment(self, where, tenant_names, control):
        """The rules that need the rest of the scenario: the target is
        legal for the fault, and the deployment has what it requires."""
        kind = FAULTS[self.fault]
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
        if kind.requires is not None:
            needed, satisfied = kind.requires
            if not satisfied(control):
                raise ScenarioError(
                    f"{where}.fault: {self.fault!r} needs {needed}")


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


class TelemetryExpect(Spec):
    """A floor/ceiling on one metric family's total at end of run."""

    fields = (
        Field("metric", STR, pattern=r"[a-zA-Z_:][a-zA-Z0-9_:]*",
              hint="name a metric family, e.g. scheduler_binds_total"),
        Field("min", NUMBER, None),
        Field("max", NUMBER, None),
    )

    def check(self, where):
        if self.min is None and self.max is None:
            raise ScenarioError(
                f"{where}: expectation on {self.metric!r} needs 'min' "
                f"and/or 'max'")


class ExpectSpec(Spec):
    fields = (
        Field("converged", BOOL, True),
        Field("min_pods_created", INT, 0, ge=0),
        Field("telemetry", SPECS, (), spec=TelemetryExpect),
    )


class GoldenSpec(Spec):
    """The recorded reference: converged-state store-event digest."""

    fields = (
        Field("digest", STR, pattern=r"[0-9a-f]{64}",
              hint="a golden digest is the sha256 hex that 'python -m "
                   "repro.scenarios record' writes"),
        Field("store_events", INT, ge=1),
        Field("sim_time", NUMBER, 0.0),
    )


# ----------------------------------------------------------------------
# Control-plane knobs
# ----------------------------------------------------------------------


class ControlSpec(Spec):
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

    fields = (
        Field("scan_interval", NUMBER, 5.0, gt=0),
        Field("dws_workers", INT, 4, ge=1),
        Field("uws_workers", INT, 4, ge=1),
        Field("fair_queuing", BOOL, True),
        Field("optimized", BOOL, True),
        Field("apf", BOOL, False),
        Field("scale_to_zero", BOOL, False),
        Field("idle_threshold", NUMBER, None, gt=0),
        Field("syncer_replicas", INT, 1, ge=1),
        Field("store_replicas", INT, 1, ge=1),
        Field("store_wal", BOOL, False),
    )

    def check(self, where):
        if self.idle_threshold is not None and not self.scale_to_zero:
            raise ScenarioError(
                f"{where}.idle_threshold: only meaningful with "
                f"scale_to_zero: true")


# ----------------------------------------------------------------------
# The scenario
# ----------------------------------------------------------------------


class Scenario(Spec):
    fields = (
        Field("name", NAME),
        Field("description", STR, ""),
        Field("seed", INT, 0),
        Field("horizon", NUMBER, 40.0, gt=0),
        Field("convergence_timeout", NUMBER, 180.0, gt=0),
        Field("tier1", BOOL, False),
        Field("race_check", BOOL, False),
        Field("control", SPEC, ControlSpec, spec=ControlSpec),
        Field("topology", SPEC, TopologySpec, spec=TopologySpec),
        Field("tenants", SPECS, (), spec=TenantSpec, ge=1,
              hint="at least one tenant is required"),
        Field("chaos", SPECS, (), spec=ChaosSpec),
        Field("expect", SPEC, ExpectSpec, spec=ExpectSpec),
        Field("golden", SPEC, None, spec=GoldenSpec),
    )

    def check(self, where):
        _check_unique(
            self.tenants, "tenants", "tenant",
            " — tenant names key control planes and fair-queue weights, "
            "so they must be unique")
        for index, tenant in enumerate(self.tenants):
            for number, workload in enumerate(tenant.workloads):
                end = workload.start + workload.shape.window()
                if end > self.horizon:
                    raise ScenarioError(
                        f"tenants[{index}].workloads[{number}]: workload "
                        f"runs until t={end:g}s but the scenario horizon "
                        f"is {self.horizon:g}s — extend 'horizon' or "
                        f"shrink the shape")
        tenant_names = {tenant.name for tenant in self.tenants}
        for index, entry in enumerate(self.chaos):
            entry.check_deployment(f"chaos[{index}]", tenant_names,
                                   self.control)
        _check_chaos_overlaps(self.chaos, "chaos")

    @classmethod
    def from_dict(cls, data, where="scenario"):
        """``where`` names the document in a not-a-mapping error; field
        paths start at the document root (``tenants[0].name``)."""
        if not isinstance(data, dict):
            raise ScenarioError(f"{where}: expected a mapping, got {data!r}")
        return super().from_dict(data, "")

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def workload_count(self):
        return sum(len(t.workloads) for t in self.tenants)

    def has_open_loop_load(self):
        return any(not isinstance(w.shape, SequentialShape)
                   for t in self.tenants for w in t.workloads)
