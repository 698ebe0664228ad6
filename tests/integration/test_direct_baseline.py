"""``control.direct``: the paper's baseline as a scenario.

The load goes straight into the super cluster, one super namespace per
tenant, and the run has converged once every Pod it created is Ready
in the super store.
"""

from repro.objects import Pod
from repro.scenarios import (
    ConstantShape,
    ControlSpec,
    PoolSpec,
    Scenario,
    TenantSpec,
    TopologySpec,
    WorkloadSpec,
    run_scenario,
)

PODS_PER_TENANT = 10


def _direct(convergence_timeout=60.0):
    return Scenario(
        name="direct", seed=3, horizon=3.5,
        convergence_timeout=convergence_timeout,
        control=ControlSpec(direct=True),
        topology=TopologySpec(pools=[PoolSpec(name="vk-node", nodes=2)]),
        tenants=[TenantSpec(name=name, workloads=[WorkloadSpec(
            name="web", start=1.0,
            shape=ConstantShape(rate=5.0,
                                duration=(PODS_PER_TENANT + 0.5) / 5.0))])
            for name in ("acme", "beta")])


def _super_pods(env):
    raw_items, _revision = env.super_cluster.api.store.list_prefix(
        "/registry/pods/")
    return [Pod.from_dict(value) for _key, value, _rev in raw_items]


def test_direct_run_creates_no_tenant_control_plane():
    result = run_scenario(_direct())
    assert result.ok, result.failures
    env = result.env
    assert env.tenants == {}
    vcs, _revision = env.super_cluster.api.store.list_prefix(
        "/registry/virtualclusters/")
    assert vcs == []
    pods = _super_pods(env)
    assert result.pods_created == 2 * PODS_PER_TENANT
    assert sorted({pod.metadata.namespace for pod in pods}) == [
        "acme", "beta"]
    assert len(pods) == result.pods_created
    # Converged means Ready in the super store, and not before.
    assert all(pod.status.is_ready for pod in pods)
    assert result.sim_time >= max(
        pod.status.get_condition("Ready").last_transition_time
        for pod in pods)
    # No tenant Pod ever reached the syncer's trace store.
    assert len(env.syncer.trace_store) == 0


def test_direct_run_is_not_converged_before_its_pods_are_ready():
    result = run_scenario(_direct(convergence_timeout=0.01))
    assert not result.converged
    pending = result.convergence_detail["missing"]
    assert pending and all(why == "not ready" for _ns, _key, why in pending)
    assert "did not converge" in result.failures[0]
