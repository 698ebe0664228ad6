"""Data-plane integration: Kata pods + enhanced kubeproxy + cluster-IP
services over a VPC (paper §III-B(4)-(5), evaluated in §IV-E)."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.core import VirtualClusterEnv
from repro.core.crd import super_namespace
from repro.network import ConnectivityChecker
from repro.objects import make_service


@pytest.fixture
def dp_env():
    environment = VirtualClusterEnv(
        num_real_nodes=1,
        config=DEFAULT_CONFIG.with_overrides(syncer={"scan_interval": 30.0}))
    environment.bootstrap(settle=3.0)
    return environment


def _ready_kata_pod(env, tenant, name, labels=None):
    env.run_coroutine(tenant.create_pod(name, runtime_class="kata",
                                        labels=labels or {}))
    env.run_until_pods_ready(tenant, [f"default/{name}"], timeout=180)
    return env.run_coroutine(tenant.get_pod(name))


class TestKataDataPlane:
    def test_kata_pod_ip_is_vpc_address(self, dp_env):
        tenant = dp_env.run_coroutine(dp_env.create_tenant("acme"))
        pod = _ready_kata_pod(dp_env, tenant, "kata-pod")
        assert dp_env.vpc.reachable(pod.status.pod_ip)

    def test_cluster_ip_service_reachable_from_kata_guest(self, dp_env):
        """The headline data-plane scenario: a client pod in a Kata guest
        reaches a cluster-IP service whose backend is another Kata pod,
        with all traffic inside the VPC."""
        tenant = dp_env.run_coroutine(dp_env.create_tenant("acme"))
        backend = _ready_kata_pod(dp_env, tenant, "backend",
                                  labels={"app": "backend"})
        client = _ready_kata_pod(dp_env, tenant, "client")

        admin = dp_env.super_admin_client()
        super_ns = super_namespace(tenant.vc, "default")
        service = make_service("backend-svc", namespace=super_ns,
                               selector={"app": "backend"}, port=80,
                               target_port=80)
        service = dp_env.run_coroutine(admin.create(service))
        dp_env.run_for(8)  # endpoints controller + rule push

        node_name = client.spec.node_name
        kubelet = dp_env.real_kubelets[node_name]
        client_sandbox = kubelet.sandbox_for(super_ns, "client")
        checker = ConnectivityChecker(dp_env.vpc)
        resolved = checker.resolve(client_sandbox.network_stack,
                                   service.spec.cluster_ip, 80)
        assert resolved is not None
        assert resolved[0] == backend.status.pod_ip

    def test_stock_rules_alone_would_not_reach(self, dp_env):
        """Counterfactual: host-only rules leave the guest dark."""
        tenant = dp_env.run_coroutine(dp_env.create_tenant("acme"))
        client = _ready_kata_pod(dp_env, tenant, "client")
        node_name = client.spec.node_name
        kubelet = dp_env.real_kubelets[node_name]
        super_ns = super_namespace(tenant.vc, "default")
        sandbox = kubelet.sandbox_for(super_ns, "client")

        host_stack = dp_env.kube_proxies[node_name].host_stack
        host_stack.iptables.replace_service("10.111.0.1", 80,
                                            [("172.16.0.99", 80)])
        checker = ConnectivityChecker(dp_env.vpc)
        assert not checker.can_reach(sandbox.network_stack,
                                     "10.111.0.1", 80)

    def test_workload_waits_for_rule_injection(self, dp_env):
        """The init-container gate: rules are in place before Ready."""
        admin = dp_env.super_admin_client()
        for index in range(10):
            dp_env.run_coroutine(admin.create(make_service(
                f"pre-{index}", namespace="default",
                selector={"x": "y"}, port=1000 + index)))
        dp_env.run_for(3)

        tenant = dp_env.run_coroutine(dp_env.create_tenant("acme"))
        pod = _ready_kata_pod(dp_env, tenant, "gated")
        kubelet = dp_env.real_kubelets[pod.spec.node_name]
        super_ns = super_namespace(tenant.vc, "default")
        sandbox = kubelet.sandbox_for(super_ns, "gated")
        agent = sandbox.extra["agent"]
        assert agent.rules_ready
        assert sandbox.network_stack.iptables.rule_count() >= 10

    def test_rule_injection_latency_measured(self, dp_env):
        admin = dp_env.super_admin_client()
        for index in range(20):
            dp_env.run_coroutine(admin.create(make_service(
                f"svc-{index}", namespace="default",
                selector={"x": "y"}, port=2000 + index)))
        dp_env.run_for(3)
        tenant = dp_env.run_coroutine(dp_env.create_tenant("acme"))
        pod = _ready_kata_pod(dp_env, tenant, "measured")
        proxy = dp_env.kube_proxies[pod.spec.node_name]
        assert proxy.injection_count >= 1
        # 20 rules at ~5.5 ms each plus gRPC: order 0.1-0.2 s.
        assert 0.05 < proxy.mean_injection_latency < 1.0

    def test_deleted_kata_pod_leaves_the_proxy(self, dp_env):
        """The kubelet's teardown tells the enhanced proxy that the guest
        stopped: scans and rule pushes no longer call its VM."""
        tenant = dp_env.run_coroutine(dp_env.create_tenant("acme"))
        first = _ready_kata_pod(dp_env, tenant, "first")
        _ready_kata_pod(dp_env, tenant, "second")
        proxy = dp_env.kube_proxies[first.spec.node_name]
        assert proxy.connected_guests == 2
        dp_env.run_coroutine(tenant.client.delete("pods", "first",
                                                  namespace="default"))
        dp_env.run_for(10)
        dp_env.run_coroutine(proxy.scan_all_guests())
        assert proxy.connected_guests == 1
