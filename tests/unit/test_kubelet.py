"""Unit tests for the kubelet, runtimes, and virtual kubelet."""

import pytest

from repro.apiserver import ADMIN, APIServer
from repro.clientgo import Client, InformerFactory
from repro.config import DEFAULT_CONFIG
from repro.kubelet import Kubelet
from repro.kubelet.runtimes.kata import KataRuntime
from repro.kubelet.runtimes.runc import RuncRuntime
from repro.network import NetworkStack, Vpc
from repro.objects import make_namespace, make_node, make_pod
from repro.simkernel import Simulation
from repro.virtualkubelet import MockProvider, VirtualKubelet


class _NodeHarness:
    def __init__(self, use_kata=False):
        self.sim = Simulation()
        self.api = APIServer(self.sim, "super")
        self.client = Client(self.sim, self.api, ADMIN, qps=100000,
                             burst=100000)
        self.vpc = Vpc("vpc")
        host_stack = NetworkStack("host-n1")
        node = make_node("n1", internal_ip="192.168.1.10")
        informers = InformerFactory(self.sim, self.client)
        ip_counter = iter(range(1, 250))
        runtimes = {
            None: RuncRuntime(self.sim, DEFAULT_CONFIG, host_stack,
                              lambda: f"10.1.0.{next(ip_counter)}"),
            "kata": KataRuntime(self.sim, DEFAULT_CONFIG, self.vpc),
        }
        self.kubelet = Kubelet(self.sim, node, self.client, DEFAULT_CONFIG,
                               runtimes, informers)
        self.run(self.client.create(make_namespace("default")))
        self.run(self.kubelet.start())
        self.settle(0.5)

    def run(self, coroutine):
        return self.sim.run(until=self.sim.process(coroutine))

    def settle(self, seconds=3.0):
        self.sim.run(until=self.sim.now + seconds)

    def get_pod(self, name):
        return self.run(self.client.get("pods", name, namespace="default"))


@pytest.fixture
def harness():
    return _NodeHarness()


class TestKubeletLifecycle:
    def test_node_registered(self, harness):
        node = harness.run(harness.client.get("nodes", "n1"))
        assert node.status.is_ready

    def test_bound_pod_becomes_running_and_ready(self, harness):
        harness.run(harness.client.create(make_pod("p", node_name="n1")))
        harness.settle(3)
        pod = harness.get_pod("p")
        assert pod.status.phase == "Running"
        assert pod.status.is_ready
        assert pod.status.pod_ip
        assert pod.status.host_ip == "192.168.1.10"
        assert pod.status.container_statuses[0].ready

    def test_unbound_pod_ignored(self, harness):
        harness.run(harness.client.create(make_pod("floating")))
        harness.settle(2)
        assert harness.get_pod("floating").status.phase == "Pending"

    def test_other_nodes_pod_ignored(self, harness):
        harness.run(harness.client.create(make_pod("other",
                                                   node_name="n2")))
        harness.settle(2)
        assert harness.get_pod("other").status.phase == "Pending"

    def test_init_containers_run_before_workload(self, harness):
        from repro.objects import Container

        pod = make_pod("with-init", node_name="n1")
        pod.spec.init_containers = [Container(name="setup", image="busybox")]
        harness.run(harness.client.create(pod))
        harness.settle(5)
        fresh = harness.get_pod("with-init")
        assert fresh.status.is_ready
        init_condition = fresh.status.get_condition("Initialized")
        assert init_condition.status == "True"

    def test_pod_deletion_tears_down_containers(self, harness):
        harness.run(harness.client.create(make_pod("p", node_name="n1")))
        harness.settle(3)
        harness.run(harness.client.delete("pods", "p",
                                          namespace="default"))
        harness.settle(2)
        assert harness.kubelet.pods_stopped == 1
        assert harness.kubelet.sandbox_for("default", "p") is None

    def test_heartbeats_refresh_node_condition(self, harness):
        harness.settle(5)
        node = harness.run(harness.client.get("nodes", "n1"))
        beat = node.status.get_condition("Ready").last_heartbeat_time
        assert beat is not None and beat > 1.0


class TestKubeletServer:
    def test_logs(self, harness):
        harness.run(harness.client.create(make_pod("p", node_name="n1")))
        harness.settle(3)
        lines = harness.kubelet.get_logs("default", "p")
        assert any("started" in line for line in lines)

    def test_logs_unknown_pod(self, harness):
        from repro.apiserver import NotFound

        with pytest.raises(NotFound):
            harness.kubelet.get_logs("default", "ghost")

    def test_exec(self, harness):
        harness.run(harness.client.create(make_pod("p", node_name="n1")))
        harness.settle(3)
        output = harness.run(
            harness.kubelet.exec_in_pod("default", "p", ["ls", "/"]))
        assert "exec(ls /)" in output


class TestKataRuntime:
    def test_kata_pod_gets_guest_stack_and_eni(self):
        harness = _NodeHarness()
        pod = make_pod("kp", node_name="n1", runtime_class="kata")
        harness.run(harness.client.create(pod))
        harness.settle(6)
        fresh = harness.get_pod("kp")
        assert fresh.status.is_ready
        sandbox = harness.kubelet.sandbox_for("default", "kp")
        assert sandbox.runtime == "kata"
        assert harness.vpc.reachable(sandbox.ip)
        assert sandbox.network_stack.name.startswith("guest-")

    def test_kata_slower_than_runc(self):
        harness = _NodeHarness()
        harness.run(harness.client.create(make_pod("rc", node_name="n1")))
        harness.settle(6)
        runc_ready = harness.get_pod("rc").status.get_condition(
            "Ready").last_transition_time

        pod = make_pod("kp", node_name="n1", runtime_class="kata")
        start = harness.sim.now
        harness.run(harness.client.create(pod))
        harness.settle(8)
        kata_ready = harness.get_pod("kp").status.get_condition(
            "Ready").last_transition_time
        assert (kata_ready - start) > runc_ready  # VM boot cost

    def test_kata_agent_applies_rules(self):
        sim = Simulation()
        vpc = Vpc("v")
        runtime = KataRuntime(sim, DEFAULT_CONFIG, vpc)

        def flow():
            sandbox = yield from runtime.run_pod_sandbox(
                make_pod("p", node_name="n1"))
            agent = sandbox.extra["agent"]
            yield from agent.apply_routing_rules({
                "rules": [("10.96.0.1", 80, [("172.16.0.9", 8080)])],
                "final": True,
            })
            return sandbox, agent

        sandbox, agent = sim.run(until=sim.process(flow()))
        assert agent.rules_ready
        assert sandbox.network_stack.iptables.translate(
            "10.96.0.1", 80) == ("172.16.0.9", 8080)


class TestVirtualKubelet:
    def test_instant_ready(self):
        sim = Simulation()
        api = APIServer(sim, "super")
        client = Client(sim, api, ADMIN, qps=100000, burst=100000)
        informers = InformerFactory(sim, client)
        vk = VirtualKubelet(sim, "vk-1", client, DEFAULT_CONFIG, informers)

        def setup():
            yield from client.create(make_namespace("default"))
            yield from vk.start()

        sim.run(until=sim.process(setup()))
        sim.run(until=sim.now + 0.5)

        def create():
            yield from client.create(make_pod("p", node_name="vk-1"))

        sim.run(until=sim.process(create()))
        sim.run(until=sim.now + 2)

        def fetch():
            return (yield from client.get("pods", "p",
                                          namespace="default"))

        pod = sim.run(until=sim.process(fetch()))
        assert pod.status.phase == "Running"
        assert pod.status.is_ready
        assert vk.pods_acked == 1

    def test_mock_provider_interface(self):
        sim = Simulation()
        provider = MockProvider(sim, "vk-1")
        pod = provider.create_pod(make_pod("p"))
        assert pod.status.is_ready
        assert pod.status.phase == "Running"
        assert provider.create_pod(make_pod("q")).status.pod_ip != \
            pod.status.pod_ip
        assert provider.capacity()["cpu"] == "96"
