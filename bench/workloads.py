"""The five workloads.  Each is a class with three phases the child
process times separately:

``setup()``   build the environment (not timed as work; reported as
              part of ``setup_s``);
``run()``     the timed phase: first submitted operation to the
              convergence check passing;
``finish()``  untimed: check outputs, gather simulated statistics.

All inputs derive from ``seed``: the environment's RNG, the per-tenant
share of the load, and the pacing jitter.  The program under test only
ever sees the generated inputs.

Load model: every submitter (tenant, or namespace in ``super_direct``)
is one sequential client — create, wait for the server's ack, sleep
``1/rate`` (± jitter) — so the aggregate is open-loop only as long as
acks are fast; the per-submitter rate is stated in ``spec.SIZES``.
"""

import random
from dataclasses import replace

from repro.config import DEFAULT_CONFIG
from repro.core import VirtualClusterEnv
from repro.objects import make_namespace
from repro.scenarios import Scenario, load_scenario
from repro.scenarios import runner as scenario_runner
from repro.workloads import LoadGenerator, TenantLoadPattern, even_split

from .spec import CORPUS

SIM_TIMEOUT = 600.0      # simulated seconds before a run is called failed
PACING_JITTER = 0.25     # fraction of the pacing interval, drawn per Pod


def seeded_split(rng, total, parts):
    """Near-even split of ``total`` with seed-dependent skew: each part
    hands up to a quarter of its share to a random other part."""
    counts = even_split(total, parts)
    for giver in range(parts):
        taker = rng.randrange(parts)
        moved = rng.randint(0, counts[giver] // 4)
        counts[giver] -= moved
        counts[taker] += moved
    return counts


class Outcome:
    """What ``finish()`` hands back to the child process."""

    def __init__(self, pods, attempted, failed, problems, lifetimes,
                 sim_load_s=None, extra=None):
        self.pods = pods                      # Pods the load submitted
        self.attempted = attempted
        self.failed = failed
        self.problems = problems              # human-readable failures
        # (created, Ready) in sim s for every Pod that became Ready.
        self.creation_times = [ready - created
                               for created, ready in lifetimes]
        # Sim s from the first create to the last Ready.
        self.sim_load_s = (_span(lifetimes) if sim_load_s is None
                           else sim_load_s)
        self.extra = extra or {}


def _span(lifetimes):
    if not lifetimes:
        return 0.0
    return (max(ready for _created, ready in lifetimes)
            - min(created for created, _ready in lifetimes))


def _trace_lifetimes(env):
    """(created, Ready-in-tenant-view) per Pod, from the syncer's traces."""
    return [(trace.created, trace.uws_done)
            for trace in env.syncer.trace_store.completed()]


def _create_tenants(env, prefix, count):
    """``count`` tenants, one after another; returns their handles."""
    def create():
        tenants = []
        for index in range(count):
            tenant = yield from env.create_tenant(f"{prefix}-{index:03d}")
            tenants.append(tenant)
        return tenants

    return env.run_coroutine(create(), name="create-tenants")


def _run_until(env, predicate, poll):
    """``env.run_until`` that reports a sim timeout instead of raising:
    the Pods still missing are counted as failures by ``finish()``."""
    try:
        env.run_until(predicate, timeout=SIM_TIMEOUT, poll=poll)
    except TimeoutError:
        return False
    return True


class _Workload:
    def __init__(self, seed, size):
        self.seed = seed
        self.size = size
        self.rng = random.Random(seed)
        self.envs = []          # every environment the workload built
        self.dispatched = 0     # kernel dispatches inside run()


# ----------------------------------------------------------------------
# The three paced-creation workloads
# ----------------------------------------------------------------------


class _PacedCreation(_Workload):
    """``pods`` Pods from ``tenants`` submitters at ``rate`` Pods/s."""

    config = None

    def setup(self):
        size = self.size
        self.env = VirtualClusterEnv(seed=self.seed, config=self.config,
                                     num_virtual_nodes=size["nodes"])
        self.envs.append(self.env)
        self.env.bootstrap()
        self.submitters = self._make_submitters(size["tenants"])
        self.counts = seeded_split(self.rng, size["pods"], size["tenants"])
        interval = size["tenants"] / size["rate"]
        self.jobs = [
            (client,
             TenantLoadPattern(count, mode="paced",
                               rate=size["rate"] / size["tenants"],
                               namespace=namespace,
                               jitter=PACING_JITTER * interval,
                               name_prefix=f"p{index:03d}"))
            for index, ((client, namespace), count)
            in enumerate(zip(self.submitters, self.counts))
        ]

    def run(self):
        env, sim = self.env, self.env.sim
        before = sim.kernel_stats()["dispatched"]
        self.generator = LoadGenerator(sim)
        env.run_coroutine(self.generator.run_all(self.jobs), name="loadgen")
        self.converged = _run_until(env, self._all_ready, poll=0.1)
        self.dispatched = sim.kernel_stats()["dispatched"] - before

    def finish(self):
        pods = self.size["pods"]
        ready = self.env.run_coroutine(self._count_ready(), name="check")
        problems = []
        if not self.converged:
            problems.append(f"not converged within {SIM_TIMEOUT:g} sim s")
        if self.generator.errors:
            problems.append(f"{self.generator.errors} create errors")
        if ready < pods:
            problems.append(f"{pods - ready} of {pods} Pods not Ready "
                            "in the submitter's view")
        return Outcome(
            pods=pods, attempted=pods,
            failed=min(pods, (pods - ready) + self.generator.errors),
            problems=problems, lifetimes=self._lifetimes(),
            extra={"tenants": len(
                self.env.tenant_operator.control_planes)})

    def _count_ready(self):
        """Coroutine: Pods Ready as each submitter's own client lists
        them — the submitter's view, not the syncer's caches."""
        ready = 0
        for client, namespace in self.submitters:
            pods, _revision = yield from client.list(
                "pods", namespace=namespace)
            ready += sum(1 for pod in pods if pod.status.is_ready)
        return ready


class VcStress(_PacedCreation):
    """The paper's Fig. 7-10 pipeline: Pods created in tenant control
    planes, synced down, scheduled, acked by virtual kubelets, synced
    back up."""

    def _make_submitters(self, count):
        tenants = _create_tenants(self.env, "tenant", count)
        self.env.run_for(1.0)    # let informers settle
        return [(tenant.client, "default") for tenant in tenants]

    def _all_ready(self):
        return (self.env.syncer.trace_store.completed_count
                >= self.size["pods"])

    def _lifetimes(self):
        return _trace_lifetimes(self.env)


class VcHotpathWal(VcStress):
    """The same pipeline with every hot-path switch on: sharded fair
    queue, batched downward writes (multi-op txn), a fast scheduler so
    the syncer is the bottleneck, and a WAL under every store."""

    config = DEFAULT_CONFIG.with_overrides(
        syncer=replace(DEFAULT_CONFIG.syncer, dispatch_shards=4,
                       downward_batch_max=8),
        scheduler=replace(DEFAULT_CONFIG.scheduler, service_time=0.0002),
        storage=replace(DEFAULT_CONFIG.storage, wal_enabled=True))


class SuperDirect(_PacedCreation):
    """The same load straight into the super cluster: no tenant control
    planes, nothing for the syncer to reconcile."""

    def _make_submitters(self, count):
        env = self.env
        admin = env.super_admin_client()
        namespaces = [f"load-{index:03d}" for index in range(count)]

        def make_namespaces():
            for namespace in namespaces:
                yield from admin.create(make_namespace(namespace))

        env.run_coroutine(make_namespaces(), name="make-namespaces")
        self._pods = env.syncer.super_informer("pods").cache
        return [(env.super_admin_client(), namespace)
                for namespace in namespaces]

    def _load_pods(self):
        return [pod for pod in self._pods.items()
                if (pod.metadata.namespace or "").startswith("load-")]

    def _all_ready(self):
        ready = sum(1 for pod in self._load_pods() if pod.status.is_ready)
        return ready >= self.size["pods"]

    def _lifetimes(self):
        pairs = []
        for pod in self._load_pods():
            condition = pod.status.get_condition("Ready")
            if condition is not None and condition.status == "True":
                pairs.append((pod.metadata.creation_timestamp,
                              condition.last_transition_time))
        return pairs


# ----------------------------------------------------------------------
# Tenant churn
# ----------------------------------------------------------------------


class TenantChurn(_Workload):
    """Fixed per-tenant cost: provision many tenants, a small burst in
    each, an idle window, then tear every tenant down."""

    def setup(self):
        self.env = VirtualClusterEnv(seed=self.seed,
                                     num_virtual_nodes=self.size["nodes"])
        self.envs.append(self.env)
        self.env.bootstrap()
        total = self.size["tenants"] * self.size["pods_per_tenant"]
        self.counts = seeded_split(self.rng, total, self.size["tenants"])

    def run(self):
        env, sim, size = self.env, self.env.sim, self.size
        before = sim.kernel_stats()["dispatched"]
        tenants = _create_tenants(env, "churn", size["tenants"])
        self.provisioned = len(env.tenant_operator.control_planes)

        self.generator = LoadGenerator(sim)
        jobs = [(tenant.client,
                 TenantLoadPattern(count, mode="burst",
                                   name_prefix=f"c{index:03d}"))
                for index, (tenant, count)
                in enumerate(zip(tenants, self.counts))]
        total = sum(self.counts)
        env.run_coroutine(self.generator.run_all(jobs), name="loadgen")
        traces = env.syncer.trace_store
        self.converged = _run_until(
            env, lambda: traces.completed_count >= total, poll=0.1)
        # Ready in each tenant's own view, read while the tenants exist.
        self.ready = env.run_coroutine(self._count_ready(tenants),
                                       name="check")
        self.lifetimes = _trace_lifetimes(env)

        idle_from = sim.kernel_stats()["dispatched"]
        env.run_for(size["idle"])
        self.idle_events = sim.kernel_stats()["dispatched"] - idle_from

        def delete_tenants():
            for tenant in tenants:
                yield from env.delete_tenant(tenant)

        env.run_coroutine(delete_tenants(), name="delete-tenants")
        env.run_for(size["drain"])
        self.dispatched = sim.kernel_stats()["dispatched"] - before

    @staticmethod
    def _count_ready(tenants):
        ready = 0
        for tenant in tenants:
            pods, _revision = yield from tenant.list_pods()
            ready += sum(1 for pod in pods if pod.status.is_ready)
        return ready

    def finish(self):
        env, size = self.env, self.size
        pods = sum(self.counts)
        problems = []
        if not self.converged:
            problems.append(f"not converged within {SIM_TIMEOUT:g} sim s")
        if self.generator.errors:
            problems.append(f"{self.generator.errors} create errors")
        if self.ready < pods:
            problems.append(f"{pods - self.ready} of {pods} Pods not Ready "
                            "in the tenant's view")
        leftover = max(len(env.tenant_operator.control_planes),
                       len(env.tenants), env.syncer.stats()["tenants"])
        if leftover:
            problems.append(f"{leftover} tenants still registered after "
                            "teardown")
        return Outcome(
            pods=pods, attempted=pods + size["tenants"],
            failed=min(pods, (pods - self.ready) + self.generator.errors)
            + leftover,
            problems=problems, lifetimes=self.lifetimes,
            extra={"tenants": self.provisioned,
                   "idle_events": self.idle_events,
                   "idle_tenant_sim_s": size["tenants"] * size["idle"]})


# ----------------------------------------------------------------------
# Scenario corpus
# ----------------------------------------------------------------------


def seeded_scenario(rng, seed):
    """A scenario the corpus does not hold, drawn from the seed: four
    tenants of seed-drawn weight sharing 10 Pods/s in seed-drawn
    proportions, on a pool behind a slow, jittery, lossless uplink, so
    its Pods land in the latency tail.  It is what makes this workload's
    input depend on the seed; having no golden, it is judged on its
    expectations alone."""
    weights = [rng.uniform(1.0, 4.0) for _ in range(4)]
    tenants = [
        {"name": f"seeded-{index}", "weight": rng.randint(1, 3),
         "workloads": [{"name": "load", "shape": {
             # 10 Pods/s in total, so every seed submits ~100 Pods.
             "type": "constant", "duration": 10.0,
             "rate": round(10.0 * weight / sum(weights), 3)}}]}
        for index, weight in enumerate(weights)]
    return Scenario.from_dict({
        "name": "seeded",
        "description": "Generated from the benchmark seed.",
        "seed": seed, "horizon": 15.0,
        "topology": {"pools": [{
            "name": "edge", "nodes": 4,
            "link": {"latency": 0.8, "jitter": 0.1, "loss": 0.0}}]},
        "tenants": tenants,
        "expect": {"converged": True, "min_pods_created": 90},
    }, where="bench seeded scenario")


class ScenarioCorpus(_Workload):
    """Every corpus scenario once, at its recorded seed, each checked
    against its golden digest; then one scenario generated from the
    benchmark seed."""

    def setup(self):
        paths = sorted(CORPUS.glob("*.yaml"))
        if self.size["scenarios"] is not None:
            paths = paths[:self.size["scenarios"]]
        self.scenarios = [load_scenario(path) for path in paths]
        self.scenarios.append(seeded_scenario(self.rng, self.seed))

    def run(self):
        envs = self.envs

        class RecordingEnv(VirtualClusterEnv):
            """``run_scenario`` returns no handle on the environment it
            builds; this only remembers the instances so their public
            stats can be read afterwards."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                envs.append(self)

        original = scenario_runner.VirtualClusterEnv
        scenario_runner.VirtualClusterEnv = RecordingEnv
        try:
            self.results = [scenario_runner.run_scenario(scenario)
                            for scenario in self.scenarios]
        finally:
            scenario_runner.VirtualClusterEnv = original
        self.dispatched = sum(env.sim.kernel_stats()["dispatched"]
                              for env in self.envs)

    def finish(self):
        problems = []
        failed = load_errors = pods = 0
        for scenario, result in zip(self.scenarios, self.results):
            pods += result.pods_created
            load_errors += result.load_errors
            reasons = list(result.failures)
            if (scenario.golden is not None
                    and result.digest != scenario.golden.digest):
                reasons.append("digest differs from golden")
            if reasons:
                failed += 1
                problems.append(f"{scenario.name}: {'; '.join(reasons)}")
        lifetimes = [_trace_lifetimes(env) for env in self.envs]
        return Outcome(
            pods=pods, attempted=pods + len(self.scenarios),
            failed=failed + load_errors, problems=problems,
            lifetimes=[pair for pairs in lifetimes for pair in pairs],
            sim_load_s=sum(_span(pairs) for pairs in lifetimes),
            extra={"tenants": sum(len(s.tenants) for s in self.scenarios),
                   "digests": {s.name: r.digest for s, r
                               in zip(self.scenarios, self.results)}})


WORKLOADS = {
    "vc_stress": VcStress,
    "super_direct": SuperDirect,
    "vc_hotpath_wal": VcHotpathWal,
    "tenant_churn": TenantChurn,
    "scenario_corpus": ScenarioCorpus,
}
