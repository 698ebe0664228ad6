"""Unit tests for the standard and enhanced kubeproxy."""

import pytest

from repro.apiserver import ADMIN, APIServer
from repro.clientgo import Client, InformerFactory
from repro.config import DEFAULT_CONFIG
from repro.kubelet.runtimes.kata import KataRuntime
from repro.kubeproxy import EnhancedKubeProxy, KubeProxy
from repro.network import ConnectivityChecker, NetworkStack, Vpc
from repro.objects import make_namespace, make_pod, make_service
from repro.simkernel import Simulation


class _ProxyHarness:
    def __init__(self, enhanced=False):
        self.sim = Simulation()
        self.api = APIServer(self.sim, "super")
        self.client = Client(self.sim, self.api, ADMIN, qps=100000,
                             burst=100000)
        self.host_stack = NetworkStack("host")
        self.vpc = Vpc("vpc")
        informers = InformerFactory(self.sim, self.client)
        cls = EnhancedKubeProxy if enhanced else KubeProxy
        self.proxy = cls(self.sim, "n1", informers, self.host_stack,
                         DEFAULT_CONFIG)
        self.run(self.client.create(make_namespace("default")))
        informers.start_all()
        self.proxy.start()
        self.settle(0.5)

    def run(self, coroutine):
        return self.sim.run(until=self.sim.process(coroutine))

    def settle(self, seconds=2.0):
        self.sim.run(until=self.sim.now + seconds)

    def create_ready_backend(self, name, ip, labels):
        def flow():
            pod = make_pod(name, labels=labels, node_name="n1")
            created = (yield from self.client.create(pod)).copy()
            created.status.pod_ip = ip
            created.status.phase = "Running"
            created.status.set_condition("Ready", "True", now=self.sim.now)
            yield from self.client.update_status(created)

        self.run(flow())

    def create_endpoints(self, service_name, ips, port=80):
        from repro.objects import Endpoints, EndpointSubset
        from repro.objects.service import EndpointAddress, EndpointPort

        endpoints = Endpoints()
        endpoints.metadata.name = service_name
        endpoints.metadata.namespace = "default"
        endpoints.subsets = [EndpointSubset(
            addresses=[EndpointAddress(ip=ip) for ip in ips],
            ports=[EndpointPort(name="main", port=port)])]
        self.run(self.client.create(endpoints))


class TestStandardKubeProxy:
    def test_programs_host_iptables_for_service(self):
        harness = _ProxyHarness()
        service = self.make_service_with_endpoints(harness)
        harness.settle(2)
        translated = harness.host_stack.iptables.translate(
            service.spec.cluster_ip, 80)
        assert translated == ("172.16.0.5", 8080)

    @staticmethod
    def make_service_with_endpoints(harness):
        service = harness.run(harness.client.create(
            make_service("svc", selector={"app": "w"}, port=80,
                         target_port=8080)))
        harness.create_endpoints("svc", ["172.16.0.5"], port=8080)
        return service

    def test_service_removal_cleans_rules(self):
        harness = _ProxyHarness()
        service = self.make_service_with_endpoints(harness)
        harness.settle(2)
        harness.run(harness.client.delete("services", "svc",
                                          namespace="default"))
        harness.run(harness.client.delete("endpoints", "svc",
                                          namespace="default"))
        harness.settle(2)
        assert harness.host_stack.iptables.translate(
            service.spec.cluster_ip, 80) is None

    def test_host_rules_do_not_help_vpc_guests(self):
        """The breakage motivating the enhanced proxy (paper §III-B(4))."""
        harness = _ProxyHarness()
        service = self.make_service_with_endpoints(harness)
        harness.settle(2)
        guest = NetworkStack("guest")
        harness.vpc.attach(guest)
        harness.vpc.attach(NetworkStack("backend"), ip="172.16.0.5")
        checker = ConnectivityChecker(harness.vpc)
        assert not checker.can_reach(guest, service.spec.cluster_ip, 80)


class TestEnhancedKubeProxy:
    def _boot_kata_sandbox(self, harness):
        runtime = KataRuntime(harness.sim, DEFAULT_CONFIG, harness.vpc)

        def boot():
            sandbox = yield from runtime.run_pod_sandbox(
                make_pod("kp", node_name="n1", runtime_class="kata"))
            return sandbox, sandbox.extra["agent"]

        return harness.run(boot())

    def test_injects_rules_into_guest(self):
        harness = _ProxyHarness(enhanced=True)
        service = TestStandardKubeProxy.make_service_with_endpoints(harness)
        harness.settle(2)
        sandbox, agent = self._boot_kata_sandbox(harness)
        harness.proxy.on_sandbox_started(sandbox, agent)
        harness.settle(2)
        assert agent.rules_ready
        assert sandbox.network_stack.iptables.translate(
            service.spec.cluster_ip, 80) == ("172.16.0.5", 8080)
        assert harness.proxy.injection_count == 1

    def test_guest_cluster_ip_connectivity_restored(self):
        harness = _ProxyHarness(enhanced=True)
        service = TestStandardKubeProxy.make_service_with_endpoints(harness)
        harness.vpc.attach(NetworkStack("backend"), ip="172.16.0.5")
        harness.settle(2)
        sandbox, agent = self._boot_kata_sandbox(harness)
        harness.proxy.on_sandbox_started(sandbox, agent)
        harness.settle(2)
        checker = ConnectivityChecker(harness.vpc)
        assert checker.resolve(sandbox.network_stack,
                               service.spec.cluster_ip, 80) == \
            ("172.16.0.5", 8080)

    def test_new_service_pushed_to_existing_guests(self):
        harness = _ProxyHarness(enhanced=True)
        sandbox, agent = self._boot_kata_sandbox(harness)
        harness.proxy.on_sandbox_started(sandbox, agent)
        harness.settle(1)
        service = TestStandardKubeProxy.make_service_with_endpoints(harness)
        harness.settle(3)
        assert sandbox.network_stack.iptables.translate(
            service.spec.cluster_ip, 80) is not None

    def test_periodic_scan_repairs_tampered_guest(self):
        harness = _ProxyHarness(enhanced=True)
        service = TestStandardKubeProxy.make_service_with_endpoints(harness)
        harness.settle(2)
        sandbox, agent = self._boot_kata_sandbox(harness)
        harness.proxy.on_sandbox_started(sandbox, agent)
        harness.settle(2)
        # Tamper: drop the rule inside the guest.
        sandbox.network_stack.iptables.flush()
        assert sandbox.network_stack.iptables.translate(
            service.spec.cluster_ip, 80) is None
        harness.settle(5)  # at least one reconcile interval
        assert sandbox.network_stack.iptables.translate(
            service.spec.cluster_ip, 80) is not None
        assert harness.proxy.scan_count >= 1

    def test_injection_latency_tracked(self):
        harness = _ProxyHarness(enhanced=True)
        for index in range(5):
            service = make_service(f"svc-{index}", selector={"a": "b"},
                                   port=80 + index)
            harness.run(harness.client.create(service))
        harness.settle(2)
        sandbox, agent = self._boot_kata_sandbox(harness)
        harness.proxy.on_sandbox_started(sandbox, agent)
        harness.settle(2)
        assert harness.proxy.mean_injection_latency > 0
        assert agent.rules_applied >= 5
