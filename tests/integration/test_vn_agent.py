"""vn-agent proxy: tenant logs/exec via the vNode (paper §III-B(3)).

Uses a real node (runc + Kata runtimes) so there is an actual kubelet
holding containers to stream logs from.
"""

import pytest

from repro.apiserver import Credential, NotFound, Unauthorized
from repro.config import DEFAULT_CONFIG
from repro.core import VirtualClusterEnv


@pytest.fixture
def real_env():
    environment = VirtualClusterEnv(
        num_real_nodes=2,
        config=DEFAULT_CONFIG.with_overrides(syncer={"scan_interval": 30.0}))
    environment.bootstrap(settle=3.0)
    return environment


@pytest.fixture
def real_tenant(real_env):
    return real_env.run_coroutine(real_env.create_tenant("acme"))


class TestVnAgentProxy:
    def test_tenant_logs_via_vn_agent(self, real_env, real_tenant):
        real_env.run_coroutine(real_tenant.create_pod("logger"))
        real_env.run_until_pods_ready(real_tenant, ["default/logger"],
                                      timeout=120)
        lines = real_env.run_coroutine(real_tenant.logs("logger"))
        assert any("started" in line for line in lines)

    def test_tenant_exec_via_vn_agent(self, real_env, real_tenant):
        real_env.run_coroutine(real_tenant.create_pod("shell"))
        real_env.run_until_pods_ready(real_tenant, ["default/shell"],
                                      timeout=120)
        output = real_env.run_coroutine(
            real_tenant.exec("shell", ["echo", "hi"]))
        assert "exec(echo hi)" in output

    def test_unknown_certificate_rejected(self, real_env, real_tenant):
        real_env.run_coroutine(real_tenant.create_pod("guarded"))
        real_env.run_until_pods_ready(real_tenant, ["default/guarded"],
                                      timeout=120)
        pod = real_env.run_coroutine(real_tenant.get_pod("guarded"))
        agent = real_env.vn_agents[pod.spec.node_name]
        impostor = Credential("impostor")

        def attempt():
            return (yield from agent.logs(impostor, "default", "guarded"))

        with pytest.raises(Unauthorized):
            real_env.run_coroutine(attempt())

    def test_namespace_translation_is_tenant_scoped(self, real_env):
        """Two tenants, same pod name: each tenant's cert maps to its own
        prefixed super namespace, so logs never cross tenants."""
        tenant_a = real_env.run_coroutine(real_env.create_tenant("alpha"))
        tenant_b = real_env.run_coroutine(real_env.create_tenant("beta"))
        real_env.run_coroutine(tenant_a.create_pod("same-name"))
        real_env.run_until_pods_ready(tenant_a, ["default/same-name"],
                                      timeout=120)
        # Tenant B never created the pod; its translated namespace has no
        # such pod, so the vn-agent refuses.
        pod = real_env.run_coroutine(tenant_a.get_pod("same-name"))
        agent = real_env.vn_agents[pod.spec.node_name]

        def cross_tenant_attempt():
            return (yield from agent.logs(tenant_b.credential, "default",
                                          "same-name"))

        with pytest.raises(NotFound):
            real_env.run_coroutine(cross_tenant_attempt())
        assert agent.requests_rejected >= 1

    def test_proxy_counts_requests(self, real_env, real_tenant):
        real_env.run_coroutine(real_tenant.create_pod("counted"))
        real_env.run_until_pods_ready(real_tenant, ["default/counted"],
                                      timeout=120)
        pod = real_env.run_coroutine(real_tenant.get_pod("counted"))
        agent = real_env.vn_agents[pod.spec.node_name]
        before = agent.requests_proxied
        real_env.run_coroutine(real_tenant.logs("counted"))
        assert agent.requests_proxied == before + 1
