#!/usr/bin/env python
"""Fig. 6 in action: vNodes preserve scheduling semantics.

A tenant deploys two replicas of a critical service with a required
inter-Pod anti-affinity rule (never co-locate).  With VirtualCluster's
one-to-one vNode mapping the tenant can *verify* the rule held; the
script also shows the virtual-kubelet contrast where everything collapses
onto a single synthetic node.

Run with:  python examples/anti_affinity.py
"""

from repro.core import VirtualClusterEnv
from repro.objects import (
    Affinity,
    NodeAffinity,
    Taint,
    Toleration,
    make_pod,
    parse_selector,
    with_anti_affinity,
)
from repro.objects.pod import NodeSelectorRequirement, NodeSelectorTerm


def main():
    env = VirtualClusterEnv(num_virtual_nodes=4)
    env.bootstrap()
    tenant = env.run_coroutine(env.create_tenant("acme"))
    print(f"[{env.sim.now:6.2f}s] tenant {tenant.name!r} ready")

    # Two replicas that must not share a host.
    for name in ("critical-a", "critical-b"):
        pod = with_anti_affinity(
            make_pod(name, labels={"app": "critical"}),
            "app", "critical")
        env.run_coroutine(tenant.client.create(pod))
    env.run_until_pods_ready(
        tenant, ["default/critical-a", "default/critical-b"], timeout=60)

    pod_a = env.run_coroutine(tenant.get_pod("critical-a"))
    pod_b = env.run_coroutine(tenant.get_pod("critical-b"))
    print(f"[{env.sim.now:6.2f}s] critical-a -> vNode "
          f"{pod_a.spec.node_name}")
    print(f"[{env.sim.now:6.2f}s] critical-b -> vNode "
          f"{pod_b.spec.node_name}")
    assert pod_a.spec.node_name != pod_b.spec.node_name
    print("anti-affinity visibly enforced: two distinct vNodes, each "
          "backed by a distinct physical node")

    # A dedicated node: the operator labels and taints one the critical
    # Pods left free; only a Pod that tolerates the taint and asks for
    # the label by node affinity lands there, and the tenant sees where.
    admin = env.super_admin_client()
    used = {pod_a.spec.node_name, pod_b.spec.node_name}
    dedicated = next(vk.node_name for vk in env.virtual_kubelets
                     if vk.node_name not in used)

    def dedicate():
        node = yield from admin.get("nodes", dedicated)
        meta = node.metadata.replace(
            labels={**node.metadata.labels, "accelerator": "gpu"})
        spec = node.spec.replace(taints=[
            Taint(key="dedicated", value="gpu", effect="NoSchedule")])
        yield from admin.update(node.replace(metadata=meta, spec=spec))

    env.run_coroutine(dedicate())
    env.run_for(1.0)    # the scheduler's node informer sees the taint
    trainer = make_pod("trainer", labels={"app": "trainer"})
    trainer.spec.tolerations = [Toleration(key="dedicated", value="gpu",
                                           effect="NoSchedule")]
    trainer.spec.affinity = Affinity(node_affinity=NodeAffinity(
        required_terms=[NodeSelectorTerm(match_expressions=[
            NodeSelectorRequirement(key="accelerator", operator="In",
                                    values=["gpu"])])]))
    env.run_coroutine(tenant.client.create(trainer))
    env.run_until_pods_ready(tenant, ["default/trainer"], timeout=60)
    trainer = env.run_coroutine(tenant.get_pod("trainer"))
    print(f"[{env.sim.now:6.2f}s] trainer (tolerates dedicated=gpu, "
          f"requires accelerator=gpu) -> vNode {trainer.spec.node_name}")
    assert trainer.spec.node_name == dedicated

    # The tenant filters its Pods with a kubectl-style selector string.
    critical, _rv = env.run_coroutine(tenant.client.list(
        "pods", namespace="default",
        label_selector=parse_selector("app,app!=trainer")))
    print(f"pods matching 'app,app!=trainer': "
          f"{sorted(pod.name for pod in critical)}")
    assert sorted(pod.name for pod in critical) == ["critical-a",
                                                    "critical-b"]

    # The operator retires the dedicated node once the trainer is gone:
    # its virtual kubelet stops, the node object is deleted, and the
    # scheduler drops it from its view.
    env.run_coroutine(tenant.client.delete("pods", "trainer",
                                           namespace="default"))
    env.run_for(2.0)
    next(vk for vk in env.virtual_kubelets
         if vk.node_name == dedicated).stop()
    env.run_coroutine(admin.delete("nodes", dedicated))
    env.run_for(1.0)
    schedulable = [info.node.metadata.name for info
                   in env.super_cluster.scheduler.snapshot.infos()]
    assert dedicated not in schedulable
    print(f"[{env.sim.now:6.2f}s] retired {dedicated}: the scheduler now "
          f"places Pods on {len(schedulable)} nodes")

    # The tenant's node view: exactly the physical nodes it occupies.
    nodes, _rv = env.run_coroutine(tenant.client.list("nodes"))
    print(f"tenant node list: {[node.name for node in nodes]}")

    # Contrast (Fig. 6(b)): a virtual-kubelet-style provider shows one
    # synthetic node, so the constraint cannot be observed.
    print("\n--- virtual-kubelet contrast ---")
    from repro.apiserver import ADMIN, APIServer
    from repro.clientgo import Client, InformerFactory
    from repro.config import DEFAULT_CONFIG
    from repro.objects import make_namespace
    from repro.simkernel import Simulation
    from repro.virtualkubelet import VirtualKubelet

    sim = Simulation()
    api = APIServer(sim, "vk-cluster")
    client = Client(sim, api, ADMIN, qps=100000, burst=100000)
    vk = VirtualKubelet(sim, "virtual-kubelet", client, DEFAULT_CONFIG,
                        InformerFactory(sim, client))

    def setup():
        yield from client.create(make_namespace("default"))
        yield from vk.start()
        yield from client.create(make_pod("critical-a",
                                          node_name="virtual-kubelet"))
        yield from client.create(make_pod("critical-b",
                                          node_name="virtual-kubelet"))

    sim.run(until=sim.process(setup()))
    sim.run(until=sim.now + 3)

    def fetch():
        items, _rv = yield from client.list("pods", namespace="default")
        return items

    pods = sim.run(until=sim.process(fetch()))
    for pod in pods:
        print(f"{pod.name} -> node {pod.spec.node_name} "
              f"({pod.status.phase})")
    print("both replicas report the same node object: whether the "
          "constraint held on real hardware is invisible to the user")


if __name__ == "__main__":
    main()
