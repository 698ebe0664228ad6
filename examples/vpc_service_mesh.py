#!/usr/bin/env python
"""Data-plane walkthrough: cluster-IP services over a VPC with Kata.

Demonstrates the exact breakage and fix from paper §III-B(4):

1. Kata pods attach to the tenant VPC through ENIs -- their traffic
   bypasses the host network stack entirely;
2. the *stock* kubeproxy programs only host iptables, so a cluster-IP
   lookup from inside a guest fails;
3. the *enhanced* kubeproxy pushes the routing rules over gRPC into each
   guest's iptables, and the service works.

Run with:  python examples/vpc_service_mesh.py
"""

from repro.core import VirtualClusterEnv
from repro.core.crd import super_namespace
from repro.network import ConnectivityChecker
from repro.objects import make_service


def main():
    env = VirtualClusterEnv(num_real_nodes=1)
    env.bootstrap(settle=3.0)
    node_name = next(iter(env.real_kubelets))
    print(f"[{env.sim.now:6.2f}s] one real node ({node_name}) with runc + "
          f"kata runtimes, enhanced kubeproxy, vn-agent")

    tenant = env.run_coroutine(env.create_tenant("acme"))

    # A backend and a client, both Kata sandboxes in the tenant VPC.
    for name, labels in (("backend", {"app": "backend"}), ("client", {})):
        env.run_coroutine(tenant.create_pod(name, runtime_class="kata",
                                            labels=labels))
    env.run_until_pods_ready(tenant, ["default/backend", "default/client"],
                             timeout=300)
    backend = env.run_coroutine(tenant.get_pod("backend"))
    client = env.run_coroutine(tenant.get_pod("client"))
    print(f"[{env.sim.now:6.2f}s] backend guest ip {backend.status.pod_ip}, "
          f"client guest ip {client.status.pod_ip} (both VPC addresses)")

    # A cluster-IP service in the super cluster selecting the backend.
    admin = env.super_admin_client()
    sns = super_namespace(tenant.vc, "default")
    service = env.run_coroutine(admin.create(make_service(
        "backend-svc", namespace=sns, selector={"app": "backend"},
        port=80)))
    env.run_for(8)  # endpoints controller + proxy push
    print(f"[{env.sim.now:6.2f}s] service backend-svc cluster IP "
          f"{service.spec.cluster_ip}")

    kubelet = env.real_kubelets[node_name]
    guest = kubelet.sandbox_for(sns, "client").network_stack
    host = env.kube_proxies[node_name].host_stack
    checker = ConnectivityChecker(env.vpc)

    # The stock path: rules only in the host iptables.
    host_rule = host.iptables.translate(service.spec.cluster_ip, 80)
    print(f"host iptables DNAT:  {service.spec.cluster_ip}:80 -> "
          f"{host_rule}")
    print("but guest traffic bypasses the host stack (VPC/ENI), so "
          "resolution must happen in the *guest* iptables:")

    resolved = checker.resolve(guest, service.spec.cluster_ip, 80)
    print(f"guest resolution:    {service.spec.cluster_ip}:80 -> "
          f"{resolved}")
    assert resolved is not None and resolved[0] == backend.status.pod_ip
    print("cluster-IP service works from inside the Kata guest "
          "(rules injected by the enhanced kubeproxy over gRPC)")

    # Show what WOULD have happened with only host rules.
    guest.iptables.flush()
    broken = checker.resolve(guest, service.spec.cluster_ip, 80)
    print(f"\nwith guest rules removed (stock kubeproxy world): "
          f"{service.spec.cluster_ip}:80 -> {broken}")
    assert not checker.can_reach(guest, service.spec.cluster_ip, 80)

    # The periodic reconcile loop repairs the tampered guest.
    proxy = env.kube_proxies[node_name]
    env.run_coroutine(proxy.scan_all_guests())
    repaired = checker.resolve(guest, service.spec.cluster_ip, 80)
    print(f"after the proxy's periodic scan: "
          f"{service.spec.cluster_ip}:80 -> {repaired}")
    assert repaired is not None
    print(f"(scan of {proxy.connected_guests} guests took "
          f"{proxy.last_scan_duration * 1000:.0f} ms)")

    # Logs and exec still flow through the vn-agent, tenant-authenticated
    # (paper §III-B(3)): the tenant names its own Pod, the vn-agent maps
    # it to the super namespace and asks the node's kubelet.
    lines = env.run_coroutine(tenant.logs("client"))
    print(f"\nkubectl logs via vn-agent: {lines[-1]!r}")
    output = env.run_coroutine(tenant.exec("client", ["cat", "/etc/hosts"]))
    print(f"kubectl exec via vn-agent: {output!r}")
    assert "exec(cat /etc/hosts)" in output

    # Deleting the service withdraws its rules: the host's at the next
    # proxy sync, each guest's at the next scan.
    env.run_coroutine(admin.delete("services", "backend-svc", namespace=sns))
    env.run_for(8)
    env.run_coroutine(proxy.scan_all_guests())
    backend_guest = kubelet.sandbox_for(sns, "backend").network_stack
    for stack in (host, guest, backend_guest):
        assert stack.iptables.translate(service.spec.cluster_ip, 80) is None
    print(f"\n[{env.sim.now:6.2f}s] deleted backend-svc: its rules are gone "
          f"from the host and from both guests")

    # Deleting the tenant Pod tears down its super copy on the node: the
    # kubelet stops the container and the guest VM, whose ENI leaves the
    # VPC.
    env.run_coroutine(tenant.client.delete("pods", "client",
                                           namespace="default"))
    env.run_until(lambda: kubelet.pods_stopped == 1, timeout=60)
    assert kubelet.sandbox_for(sns, "client") is None
    assert not env.vpc.reachable(client.status.pod_ip)
    print(f"[{env.sim.now:6.2f}s] deleted client: its guest VM is stopped "
          f"and {client.status.pod_ip} has left the VPC")


if __name__ == "__main__":
    main()
