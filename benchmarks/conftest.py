"""Shared benchmark infrastructure: the paper's §IV runs as scenarios.

Every run is a :class:`~repro.scenarios.Scenario` at the paper's
parameters (§IV: up to 10,000 Pods from up to 100 tenants at 1,000
Pods/s in aggregate, onto 100 virtual-kubelet nodes, through a syncer
with 20 downward and 100 upward workers and a 60 s scan), run through
``run_scenario``.  Each workload starts 1 s after its tenant is up, the
time the informers take to settle.

Runs are memoized per session by scenario, so Fig. 7/8/9/10 and
Table I share the same simulations.  The memo keeps a
:class:`~repro.workloads.StressResult` read from the finished run's env
(the syncer's trace store and resource meters for a VirtualCluster run,
the super Pods' Ready conditions for a ``direct`` one), not the env
itself; a benchmark that probes a live deployment calls
:func:`live_run`.
"""

from repro.objects import Pod
from repro.scenarios import (
    BurstShape,
    ConstantShape,
    ControlSpec,
    PoolSpec,
    Scenario,
    SequentialShape,
    TenantSpec,
    TopologySpec,
    WorkloadSpec,
    dumps,
    run_scenario,
)
from repro.workloads import StressResult, even_split

PODS_SWEEP = [1250, 2500, 5000, 10000]
TENANTS = 100
TENANTS_SMALL = 20
TENANTS_SWEEP = [1, 20, 50, 100]
NODES = 100
#: Aggregate submission rate, Pods per simulated second.
RATE = 1000.0
#: Fig. 11: 10 greedy tenants bursting 900 Pods each, 40 regular tenants
#: creating 10 Pods one after another.
GREEDY = (10, 900)
REGULAR = (40, 10)
#: Seconds between a tenant coming up and its load starting.
SETTLE = 1.0
#: The syncer of the paper's evaluation: serialized dispatch, one write
#: per object.
PAPER_CONTROL = {"optimized": False, "dws_workers": 20, "uws_workers": 100,
                 "scan_interval": 60.0}

_run_cache = {}


def _scenario(name, tenants, horizon, nodes=NODES, seed=0, **control):
    return Scenario(
        name=name, seed=seed, horizon=horizon, convergence_timeout=1800.0,
        control=ControlSpec(**{**PAPER_CONTROL, **control}),
        topology=TopologySpec(pools=[PoolSpec(name="vk-node",
                                              nodes=nodes)]),
        tenants=tenants)


def paper_scenario(num_pods, num_tenants, seed=0, **control):
    """``num_pods`` Pods split evenly over ``num_tenants`` tenants, each
    submitting at its share of :data:`RATE`.  ``control`` overrides
    :data:`PAPER_CONTROL`; ``direct=True`` is the paper's baseline."""
    rate = RATE / num_tenants
    tenants = [
        TenantSpec(name=f"tenant-{index:03d}", workloads=[WorkloadSpec(
            name=f"p{index:03d}", start=SETTLE,
            # Half a Pod of slack: the shape integrates its rate in
            # floating point and must emit exactly ``count`` Pods.
            shape=ConstantShape(rate=rate, duration=(count + 0.5) / rate))])
        for index, count in enumerate(even_split(num_pods, num_tenants))]
    horizon = SETTLE + max(tenant.workloads[0].shape.duration
                           for tenant in tenants)
    return _scenario(f"paper-{num_pods}-{num_tenants}", tenants, horizon,
                     seed=seed, **control)


def fairness_scenario(fair, seed=0):
    """Fig. 11: :data:`GREEDY` bursts against :data:`REGULAR` users."""
    (greedy, burst), (regular, count) = GREEDY, REGULAR
    tenants = [
        TenantSpec(name=f"greedy-{index:03d}", workloads=[WorkloadSpec(
            name=f"g{index:03d}", start=SETTLE,
            shape=BurstShape(count=burst))])
        for index in range(greedy)]
    tenants += [
        TenantSpec(name=f"regular-{index:03d}", workloads=[WorkloadSpec(
            name=f"r{index:03d}", start=SETTLE,
            shape=SequentialShape(count=count))])
        for index in range(regular)]
    return _scenario("fairness", tenants, SETTLE + 1.0, seed=seed,
                     fair_queuing=fair)


def live_run(scenario):
    """Run ``scenario`` now (not memoized); the result keeps its env."""
    result = run_scenario(scenario)
    assert result.ok, f"{scenario.name}: {'; '.join(result.failures)}"
    return result


def summary(scenario):
    """The memoized :class:`StressResult` of one run of ``scenario``."""
    key = dumps(scenario)
    if key not in _run_cache:
        _run_cache[key] = _summarize(live_run(scenario))
    return _run_cache[key]


def _summarize(result):
    env, scenario = result.env, result.scenario
    if scenario.control.direct:
        traces = None
        lifetimes = _ready_lifetimes(
            env, {tenant.name for tenant in scenario.tenants})
        mode = "baseline"
    else:
        traces = env.syncer.trace_store
        lifetimes = [(trace.created, trace.uws_done)
                     for trace in traces.completed()]
        mode = "virtualcluster"
    start = min(created for created, _ready in lifetimes)
    duration = max(ready for _created, ready in lifetimes) - start
    return StressResult(
        mode=mode, num_pods=result.pods_created,
        num_tenants=len(scenario.tenants),
        creation_times=[ready - created for created, ready in lifetimes],
        duration=duration, throughput=result.pods_created / duration,
        phase_means=traces and traces.mean_phase_breakdown(),
        phase_buckets=traces and traces.phase_bucket_counts(),
        per_tenant_mean=traces and traces.mean_creation_time_by_tenant(),
        cpu_seconds=env.syncer.cpu.seconds,
        peak_memory_bytes=env.syncer.mem.peak,
        syncer_stats=env.syncer.stats(),
        telemetry=env.sim.telemetry.snapshot(),
        kernel_stats=env.sim.kernel_stats())


def _ready_lifetimes(env, namespaces):
    """(created, Ready) per super Pod in ``namespaces``, from the
    Pods' Ready conditions in the super store."""
    raw_items, _revision = env.super_cluster.api.store.list_prefix(
        "/registry/pods/")
    lifetimes = []
    for _key, value, _rev in raw_items:
        pod = Pod.from_dict(value)
        if pod.metadata.namespace in namespaces:
            ready = pod.status.get_condition("Ready")
            lifetimes.append((pod.metadata.creation_timestamp,
                              ready.last_transition_time))
    return lifetimes


def vc_run(num_pods, num_tenants, **control):
    return summary(paper_scenario(num_pods, num_tenants, **control))


def baseline_run(num_pods, num_tenants):
    return summary(paper_scenario(num_pods, num_tenants, direct=True))


def fairness_run(fair):
    return summary(fairness_scenario(fair))


def is_greedy(tenant_key):
    return tenant_key.split("/")[-1].startswith("greedy-")


def registry_family(result, name):
    """The named metric family from a StressResult's telemetry snapshot."""
    for family in result.telemetry["families"]:
        if family["name"] == name:
            return family
    raise AssertionError(
        f"metric family {name!r} missing from telemetry snapshot")


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1,
                              warmup_rounds=0)
