"""vNode semantics (paper Fig. 6): one vNode per physical node, so node
scheduling constraints remain visible to the tenant — unlike virtual
kubelet, which collapses everything onto one synthetic node object."""

from repro.core.vn_agent import VN_AGENT_PORT
from repro.objects import make_pod, with_anti_affinity


class TestVNodeLifecycle:
    def test_vnode_appears_when_pod_binds(self, env, tenant):
        nodes, _rv = env.run_coroutine(tenant.client.list("nodes"))
        assert nodes == []  # no pods yet -> no vNodes
        env.run_coroutine(tenant.create_pod("web"))
        env.run_until_pods_ready(tenant, ["default/web"], timeout=60)
        nodes, _rv = env.run_coroutine(tenant.client.list("nodes"))
        assert len(nodes) == 1

    def test_vnode_removed_when_last_pod_gone(self, env, tenant):
        env.run_coroutine(tenant.create_pod("only"))
        env.run_until_pods_ready(tenant, ["default/only"], timeout=60)
        env.run_coroutine(
            tenant.client.delete("pods", "only", namespace="default"))

        def no_vnodes():
            nodes, _rv = env.run_coroutine(tenant.client.list("nodes"))
            return nodes == []

        env.run_until(no_vnodes, timeout=30)

    def test_vnode_survives_while_other_pod_bound(self, env, tenant):
        def create_two():
            yield from tenant.create_pod("a")
            yield from tenant.create_pod("b")

        env.run_coroutine(create_two())
        env.run_until_pods_ready(tenant, ["default/a", "default/b"],
                                 timeout=60)
        pod_a = env.run_coroutine(tenant.get_pod("a"))
        pod_b = env.run_coroutine(tenant.get_pod("b"))
        if pod_a.spec.node_name != pod_b.spec.node_name:
            return  # scheduler spread them; nothing shared to test
        env.run_coroutine(
            tenant.client.delete("pods", "a", namespace="default"))
        env.run_for(5)
        nodes, _rv = env.run_coroutine(tenant.client.list("nodes"))
        assert pod_b.spec.node_name in {node.name for node in nodes}

    def test_vnode_mirrors_physical_node_identity(self, env, tenant):
        env.run_coroutine(tenant.create_pod("web"))
        env.run_until_pods_ready(tenant, ["default/web"], timeout=60)
        pod = env.run_coroutine(tenant.get_pod("web"))
        vnode = env.run_coroutine(
            tenant.client.get("nodes", pod.spec.node_name))
        admin = env.super_admin_client()
        physical = env.run_coroutine(
            admin.get("nodes", pod.spec.node_name))
        assert vnode.name == physical.name
        assert vnode.status.capacity == physical.status.capacity
        # The vNode points at the vn-agent port, not the kubelet port.
        port = vnode.status.daemon_endpoints["kubeletEndpoint"]["Port"]
        assert port == VN_AGENT_PORT

    def test_heartbeats_reach_vnodes(self, env, tenant):
        env.syncer.vnodes.heartbeat_interval = 2.0
        env.run_coroutine(tenant.create_pod("web"))
        env.run_until_pods_ready(tenant, ["default/web"], timeout=60)
        env.run_for(6)
        assert env.syncer.vnodes.heartbeats_sent >= 1
        pod = env.run_coroutine(tenant.get_pod("web"))
        vnode = env.run_coroutine(
            tenant.client.get("nodes", pod.spec.node_name))
        ready = vnode.status.get_condition("Ready")
        assert ready is not None and ready.last_heartbeat_time is not None


class TestFig6AntiAffinity:
    def test_anti_affine_pods_visibly_on_distinct_vnodes(self, env, tenant):
        """Fig. 6(a): the tenant can *observe* that the anti-affinity
        constraint held, because the two pods are bound to two different
        vNodes that each map to a real physical node."""
        pod_a = make_pod("pod-a", labels={"app": "critical"})
        pod_b = with_anti_affinity(
            make_pod("pod-b", labels={"app": "critical"}),
            "app", "critical")

        def create():
            yield from tenant.client.create(pod_a)
            yield from tenant.client.create(pod_b)

        env.run_coroutine(create())
        env.run_until_pods_ready(tenant, ["default/pod-a", "default/pod-b"],
                                 timeout=60)
        bound_a = env.run_coroutine(tenant.get_pod("pod-a"))
        bound_b = env.run_coroutine(tenant.get_pod("pod-b"))
        assert bound_a.spec.node_name != bound_b.spec.node_name
        nodes, _rv = env.run_coroutine(tenant.client.list("nodes"))
        names = {node.name for node in nodes}
        assert {bound_a.spec.node_name, bound_b.spec.node_name} <= names

    def test_virtual_kubelet_contrast_single_node_view(self):
        """Fig. 6(b): with a plain virtual kubelet both pods land on the
        same synthetic node object, so the constraint is invisible."""
        from repro.apiserver import ADMIN, APIServer
        from repro.clientgo import Client, InformerFactory
        from repro.config import DEFAULT_CONFIG
        from repro.objects import make_namespace
        from repro.simkernel import Simulation
        from repro.virtualkubelet import VirtualKubelet

        sim = Simulation()
        api = APIServer(sim, "vk-only")
        client = Client(sim, api, ADMIN, qps=100000, burst=100000)
        informers = InformerFactory(sim, client)
        vk = VirtualKubelet(sim, "the-one-vk", client, DEFAULT_CONFIG,
                            informers)

        def setup():
            yield from client.create(make_namespace("default"))
            yield from vk.start()
            # Both pods are force-bound to the single vk node — there is
            # no second node object for anti-affinity to separate them.
            yield from client.create(make_pod("pod-a",
                                              node_name="the-one-vk"))
            yield from client.create(make_pod("pod-b",
                                              node_name="the-one-vk"))

        sim.run(until=sim.process(setup()))
        sim.run(until=sim.now + 3)

        def fetch():
            items, _rv = yield from client.list("pods",
                                                namespace="default")
            return items

        pods = sim.run(until=sim.process(fetch()))
        assert {pod.spec.node_name for pod in pods} == {"the-one-vk"}
