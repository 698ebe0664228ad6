"""Compile a :class:`Scenario` onto the simulator and run it.

The pipeline has two halves with a sharp boundary:

1. **Compilation is pure.**  :func:`compile_load` turns every workload's
   shape into an action plan *before* any simulation exists, drawing
   jitter from a per-workload ``random.Random`` whose seed derives from
   ``(scenario.seed, tenant, workload)`` via crc32 of the canonical
   names (stable across runs and processes — never ``hash()``).  Two
   calls with the same scenario produce identical plans.
2. **Execution is seeded.**  :func:`run_scenario` builds the familiar
   recorded stack — ``Simulation(seed)`` → :class:`ReplayRecorder` →
   :class:`VirtualClusterEnv` — then
   lays the scenario onto it: node pools (with shared
   :class:`~repro.network.NetworkLink` uplinks and elastic staged
   joins), tenants, the chaos overlay, and finally the compiled load.
   The run advances to the horizon, waits for convergence on a fixed
   polling grid, and captures the converged-state digest.

Because every RNG in the stack is derived from the scenario seed and
every wait lands on the deterministic simulation clock, the digest is a
pure function of the scenario — which is what lets the corpus pin
golden digests at all.
"""

import random
import zlib
from functools import partial

from repro.analysis.bisect import ReplayRecorder, first_divergence
from repro.apiserver.errors import ApiError
from repro.chaos.engine import ChaosEngine, check_convergence, stored_pods
from repro.chaos.faults import FAULTS
from repro.config import DEFAULT_CONFIG
from repro.core.env import VirtualClusterEnv
from repro.network import NetworkLink
from repro.objects import make_namespace
from repro.simkernel import Simulation
from repro.workloads import LoadGenerator, TenantLoadPattern, TimedActions

from .errors import GoldenMismatch, ScenarioError
from .model import GoldenSpec

# Schedule seeds a ``schedule_check: true`` scenario is replayed under
# by :func:`verify_scenario`, after its golden replays.
SCHEDULE_SEEDS = 3


def derive_seed(base, *parts):
    """A child seed from the scenario seed and canonical name parts.

    crc32 over the utf-8 of the joined parts (D006-canonical — never
    ``hash()``, which is salted per process), mixed with the base seed.
    """
    return (int(base) + zlib.crc32(":".join(parts).encode("utf-8"))) \
        & 0xFFFFFFFF


# ----------------------------------------------------------------------
# Pure compilation
# ----------------------------------------------------------------------


class CompiledWorkload:
    """One workload's executable plan plus its launch offset."""

    def __init__(self, tenant, workload, plan, start=0.0):
        self.tenant = tenant
        self.workload = workload
        self.plan = plan
        self.start = start


def compile_load(scenario):
    """Compile every workload to a plan.  Pure; deterministic per seed.

    A ``control.direct`` run loads each tenant's ``default`` namespace
    into the super namespace named after the tenant.
    """
    compiled = []
    for tenant in scenario.tenants:
        for workload in tenant.workloads:
            namespace = (tenant.name if scenario.control.direct
                         else workload.namespace)
            rng = random.Random(
                derive_seed(scenario.seed, "load", tenant.name,
                            workload.name))
            actions, concurrent = workload.shape.compile(
                rng, jitter=workload.jitter)
            if actions is None:
                # Closed-loop (sequential): no precomputable times.
                shape = workload.shape
                plan = TenantLoadPattern(
                    count=shape.count, mode="sequential", think=shape.think,
                    namespace=namespace,
                    name_prefix=workload.name)
                compiled.append(CompiledWorkload(
                    tenant.name, workload.name, plan, start=workload.start))
            else:
                shifted = sorted(
                    ((workload.start + when, op, index)
                     for when, op, index in actions),
                    key=lambda action: action[0])
                plan = TimedActions(
                    shifted, namespace=namespace,
                    name_prefix=workload.name, concurrent=concurrent,
                    labels={"app": workload.name,
                            "scenario": scenario.name})
                compiled.append(CompiledWorkload(
                    tenant.name, workload.name, plan))
    return compiled


def scenario_config(control):
    """ControlSpec → the deployment's config: the only mapping from a
    scenario's ``control`` block to how the env is built."""
    syncer = {"scan_interval": control.scan_interval,
              "dws_workers": control.dws_workers,
              "uws_workers": control.uws_workers,
              "fair_queuing": control.fair_queuing,
              "replicas": control.syncer_replicas}
    if control.optimized:
        # The §9 hot-path optimizations (sharded dispatch, batched
        # downward writes) — the configuration every corpus scenario runs.
        syncer.update(dispatch_shards=2, downward_batch_max=8)
    swapper = {"enabled": control.scale_to_zero}
    if control.idle_threshold is not None:
        # Keep the poll cadence proportional so short thresholds are
        # actually observed within a scenario horizon.
        swapper.update(idle_threshold=control.idle_threshold,
                       check_interval=max(0.5, control.idle_threshold / 5.0))
    return DEFAULT_CONFIG.with_overrides(
        syncer=syncer, swapper=swapper, apf={"enabled": control.apf},
        storage={"replicas": control.store_replicas,
                 "wal_enabled": control.store_wal})


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


class ScenarioResult:
    """Everything one run produced: digest, counters, verdicts."""

    def __init__(self, scenario, env, recorder, converged,
                 convergence_detail, pods_created, load_errors, telemetry,
                 failures, chaos_report=None):
        self.scenario = scenario
        #: The live objects the run built, for post-run inspection: the
        #: env (telemetry registry, syncer) and the store-event recorder
        #: (what ``bisect`` diffs).
        self.env = env
        self.recorder = recorder
        self.digest = recorder.final_digest
        self.store_events = len(recorder.digests)
        self.sim_time = env.sim.now
        self.converged = converged
        self.convergence_detail = convergence_detail
        self.pods_created = pods_created
        self.load_errors = load_errors
        self.telemetry = telemetry
        self.failures = failures
        self.chaos_report = chaos_report

    @property
    def ok(self):
        return not self.failures

    def to_dict(self):
        return {
            "scenario": self.scenario.name,
            "digest": self.digest,
            "store_events": self.store_events,
            "sim_time": round(self.sim_time, 6),
            "converged": self.converged,
            "pods_created": self.pods_created,
            "load_errors": self.load_errors,
            "telemetry": self.telemetry,
            "chaos": self.chaos_report,
            "failures": list(self.failures),
            "ok": self.ok,
        }


def run_scenario(scenario, schedule=None):
    """Build, run, and judge one scenario.  Returns a ScenarioResult.

    ``schedule`` is the kernel's same-timestamp tie-break
    (``Simulation(schedule=...)``): ``None`` is the FIFO order the
    goldens were recorded under, an int seeds a permutation.
    Expectation violations land in ``result.failures`` (the golden
    digest is *not* checked here — see :func:`verify_scenario`).
    """
    scenario.validate()
    compiled = compile_load(scenario)

    sim = Simulation(seed=scenario.seed, schedule=schedule)
    recorder = ReplayRecorder(sim)
    env = VirtualClusterEnv(seed=scenario.seed,
                            config=scenario_config(scenario.control), sim=sim)
    env.bootstrap()

    # -- topology: node pools, uplinks, elastic staged joins ------------
    for pool in scenario.topology.pools:
        link = None
        if pool.link is not None:
            link = NetworkLink(
                sim, latency=pool.link.latency, jitter=pool.link.jitter,
                loss=pool.link.loss,
                seed=derive_seed(scenario.seed, "link", pool.name),
                name=f"{scenario.name}/{pool.name}")
        initial = pool.elastic.initial if pool.elastic else pool.nodes
        for index in range(initial):
            env.run_coroutine(
                env.add_virtual_node(f"{pool.name}-{index:03d}", link=link),
                name=f"add-node-{pool.name}-{index}")
        if pool.elastic is not None and initial < pool.nodes:
            sim.spawn(_staged_joins(env, pool, link, initial),
                      name=f"pool-join-{pool.name}")

    # -- tenants and their extra namespaces -----------------------------
    # A direct run creates no tenant control plane: each tenant is a
    # super namespace loaded through its own super admin client.
    handles, clients = {}, {}
    for tenant in scenario.tenants:
        if scenario.control.direct:
            clients[tenant.name] = env.super_admin_client()
            env.run_coroutine(
                clients[tenant.name].create(make_namespace(tenant.name)),
                name=f"ns-{tenant.name}")
            continue
        handles[tenant.name] = env.run_coroutine(
            env.create_tenant(tenant.name, weight=tenant.weight,
                              tier=tenant.tier),
            name=f"create-{tenant.name}")
        clients[tenant.name] = handles[tenant.name].client
    for tenant in scenario.tenants:
        for namespace in sorted({w.namespace for w in tenant.workloads
                                 if w.namespace != "default"}):
            env.run_coroutine(
                _ensure_namespace(handles[tenant.name], namespace),
                name=f"ns-{tenant.name}-{namespace}")

    # -- chaos overlay ---------------------------------------------------
    engine = ChaosEngine(env, seed=derive_seed(scenario.seed, "chaos"),
                         name=f"chaos-{scenario.name}")
    for entry in scenario.chaos:
        engine.add(entry.schedule,
                   FAULTS[entry.fault].build(env, handles, entry.target,
                                             entry.params))
    engine.start()

    # -- load ------------------------------------------------------------
    generator = LoadGenerator(sim)
    finished = []
    for index, job in enumerate(compiled):
        sim.spawn(_drive_job(sim, generator, clients[job.tenant], job,
                             finished),
                  name=f"load-{job.tenant}-{job.workload}")

    env.run_for(scenario.horizon)
    engine.stop()
    env.run_until(lambda: len(finished) >= len(compiled),
                  timeout=scenario.convergence_timeout, poll=0.25)

    # -- convergence + digest capture ------------------------------------
    if scenario.control.direct:
        check = partial(_direct_convergence, env,
                        {tenant.name for tenant in scenario.tenants},
                        generator.submitted)
    else:
        check = partial(check_convergence, env)
    try:
        env.run_until(lambda: check()[0],
                      timeout=scenario.convergence_timeout, poll=0.5)
    except TimeoutError:
        pass
    converged, detail = check()

    telemetry = {}
    for expect in scenario.expect.telemetry:
        family = sim.telemetry.registry.get(expect.metric)
        telemetry[expect.metric] = family.total() if family else 0.0

    failures = _judge(scenario, converged, detail, generator, telemetry)
    return ScenarioResult(
        scenario=scenario, env=env, recorder=recorder,
        converged=converged, convergence_detail=detail,
        pods_created=generator.submitted, load_errors=generator.errors,
        telemetry=telemetry, failures=failures,
        chaos_report=engine.report() if scenario.chaos else None)


def _staged_joins(env, pool, link, initial):
    """Coroutine: the remaining pool nodes join one per interval."""
    for index in range(initial, pool.nodes):
        yield env.sim.timeout(pool.elastic.interval)
        yield from env.add_virtual_node(f"{pool.name}-{index:03d}",
                                        link=link)


def _ensure_namespace(handle, namespace):
    try:
        yield from handle.create_namespace(namespace)
    except ApiError:
        pass  # already there


def _drive_job(sim, generator, client, job, finished):
    try:
        if job.start > 0:
            yield sim.timeout(job.start)
        if isinstance(job.plan, TimedActions):
            yield from generator.run_timed(client, job.plan)
        else:
            yield from generator.run_tenant_load(client, job.plan)
    finally:
        finished.append(job.workload)


def _direct_convergence(env, namespaces, created):
    """:func:`check_convergence` for a direct run: every Pod the load
    created is Ready in the super store."""
    ready, pending = 0, []
    for key, (meta, is_ready) in stored_pods(env.super_cluster.api):
        if meta.get("namespace") not in namespaces:
            continue
        if is_ready:
            ready += 1
        else:
            pending.append((meta["namespace"], key, "not ready"))
    return not pending and ready >= created, {
        "missing": pending, "orphaned": [], "open_circuits": [],
        "queues": {}}


def _judge(scenario, converged, detail, generator, telemetry):
    """Evaluate the declared expectations; return failure strings."""
    failures = []
    expect = scenario.expect
    if expect.converged and not converged:
        problems = []
        for key in ("missing", "orphaned", "open_circuits"):
            if detail.get(key):
                problems.append(f"{key}={len(detail[key])}")
        queues = detail.get("queues") or {}
        for key, depth in sorted(queues.items()):
            if depth:
                problems.append(f"{key}={depth}")
        failures.append(
            "did not converge within "
            f"{scenario.convergence_timeout:g}s ({', '.join(problems)})")
    if generator.submitted < expect.min_pods_created:
        failures.append(
            f"created {generator.submitted} pods, expected at least "
            f"{expect.min_pods_created}")
    for bound in expect.telemetry:
        total = telemetry.get(bound.metric, 0.0)
        if bound.min is not None and total < bound.min:
            failures.append(
                f"telemetry {bound.metric}={total:g} below expected "
                f"minimum {bound.min:g}")
        if bound.max is not None and total > bound.max:
            failures.append(
                f"telemetry {bound.metric}={total:g} above expected "
                f"maximum {bound.max:g}")
    return failures


# ----------------------------------------------------------------------
# Golden record / verify
# ----------------------------------------------------------------------


def record_scenario(scenario):
    """Run once and stamp ``scenario.golden`` from the result.

    Raises :class:`ScenarioError` if the run fails its own declared
    expectations — a golden digest for a broken scenario is worthless.
    """
    result = run_scenario(scenario)
    if not result.ok:
        raise ScenarioError(
            f"refusing to record {scenario.name!r}: the run fails its "
            f"own expectations: {'; '.join(result.failures)}")
    scenario.golden = GoldenSpec(digest=result.digest,
                                 store_events=result.store_events,
                                 sim_time=round(result.sim_time, 6))
    return result


def schedule_seeds(scenario):
    """The :data:`SCHEDULE_SEEDS` schedule seeds the schedule check
    replays ``scenario`` under, derived from its seed."""
    return [derive_seed(scenario.seed, "schedule", str(index))
            for index in range(SCHEDULE_SEEDS)]


def verify_scenario(scenario, runs=2):
    """Replay ``runs`` times against the recorded golden, then run the
    schedule check if the scenario asks for it.

    Every replay must reproduce the golden digest exactly (else
    :class:`GoldenMismatch`) and meet the scenario's expectations (else
    :class:`ScenarioError`).  When a replay differs from an *earlier
    replay of the same call* — nondeterminism, not drift — the mismatch
    carries the bisected first divergent store event and its owning
    component.  A ``schedule_check: true`` scenario is then run once per
    :func:`schedule_seeds` seed; each run must meet the expectations
    (convergence, Pod floor, telemetry bounds) but not the digest, which
    a different schedule legitimately changes.  A failure names its
    schedule seed.  Returns the golden replays' results.
    """
    if scenario.golden is None:
        raise ScenarioError(
            f"scenario {scenario.name!r} has no golden block; run "
            f"'python -m repro.scenarios record' first")
    results = []
    for _run in range(runs):
        result = run_scenario(scenario)
        if result.digest != scenario.golden.digest:
            raise GoldenMismatch(
                scenario.name, scenario.golden.digest, result.digest,
                expected_events=scenario.golden.store_events,
                actual_events=result.store_events,
                divergence=(first_divergence(results[0].recorder,
                                             result.recorder)
                            if results else None))
        if not result.ok:
            raise ScenarioError(
                f"scenario {scenario.name!r} failed expectations: "
                f"{'; '.join(result.failures)}")
        results.append(result)
    if scenario.schedule_check:
        for schedule in schedule_seeds(scenario):
            result = run_scenario(scenario, schedule=schedule)
            if not result.ok:
                raise ScenarioError(
                    f"scenario {scenario.name!r} failed expectations "
                    f"under schedule {schedule} (reproduce with "
                    f"'python -m repro.scenarios run FILE --schedule "
                    f"{schedule}', localize with 'python -m "
                    f"repro.analysis bisect FILE --schedule {schedule}'): "
                    f"{'; '.join(result.failures)}")
    return results
