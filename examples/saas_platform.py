#!/usr/bin/env python
"""A multi-tenant SaaS platform on VirtualCluster.

The paper's target use case (§I): a cloud container service where each
customer gets what looks like a full Kubernetes cluster — free to create
namespaces, install CRDs, and run Deployments — while all workloads share
one pool of physical nodes.

Three customers onboard; each deploys a small web stack (a Deployment, a
Service, config); one scales up; one churns; the platform operator
observes consolidated utilization on the super cluster.

Run with:  python examples/saas_platform.py
"""

from repro.core import VirtualClusterEnv
from repro.core.crd import super_namespace
from repro.objects import (
    ConfigMap,
    Deployment,
    LabelSelector,
    StorageClass,
    make_pod,
)


def deploy_web_stack(env, tenant, replicas=2):
    """What a customer's CI pipeline would apply."""
    env.run_coroutine(tenant.create_namespace("app"))

    config = ConfigMap()
    config.metadata.name = "app-settings"
    config.metadata.namespace = "app"
    config.data = {"theme": tenant.name, "replicas": str(replicas)}
    env.run_coroutine(tenant.client.create(config))

    deployment = Deployment()
    deployment.metadata.name = "web"
    deployment.metadata.namespace = "app"
    deployment.spec.replicas = replicas
    deployment.spec.selector = LabelSelector(match_labels={"app": "web"})
    deployment.spec.template.metadata.labels = {"app": "web"}
    deployment.spec.template.spec = make_pod("t", cpu="250m",
                                             memory="128Mi").spec
    env.run_coroutine(tenant.client.create(deployment))

    env.run_coroutine(tenant.create_service(
        "web", namespace="app", selector={"app": "web"}, port=80))


def wait_for_ready(env, tenant, expected):
    def ready():
        pods, _rv = env.run_coroutine(tenant.client.list(
            "pods", namespace="app"))
        return sum(1 for pod in pods if pod.status.is_ready) >= expected

    env.run_until(ready, timeout=300)


def main():
    env = VirtualClusterEnv(num_virtual_nodes=10)
    env.bootstrap()
    print(f"[{env.sim.now:7.2f}s] platform up: 10 shared nodes")

    customers = {}
    for name in ("acme", "globex", "initech"):
        customers[name] = env.run_coroutine(env.create_tenant(name))
        print(f"[{env.sim.now:7.2f}s] onboarded customer {name!r}")

    # The operator publishes a storage class; the syncer broadcasts it
    # into every customer's cluster, then keeps the copies current.
    admin = env.super_admin_client()
    storage_class = StorageClass()
    storage_class.metadata.name = "fast-ssd"
    storage_class.provisioner = "csi.platform.example"
    storage_class.parameters = {"iops": "3000"}
    env.run_coroutine(admin.create(storage_class))

    def customers_see(iops):
        for tenant in customers.values():
            classes, _rv = env.run_coroutine(
                tenant.client.list("storageclasses"))
            if [(c.name, c.parameters.get("iops")) for c in classes] != \
                    [("fast-ssd", iops)]:
                return False
        return True

    env.run_until(lambda: customers_see("3000"), timeout=60)

    def raise_iops():
        current = yield from admin.get("storageclasses", "fast-ssd")
        yield from admin.update(current.replace(parameters={"iops": "6000"}))

    env.run_coroutine(raise_iops())
    env.run_until(lambda: customers_see("6000"), timeout=60)
    print(f"[{env.sim.now:7.2f}s] storage class fast-ssd (iops 6000) "
          f"visible in all {len(customers)} customer clusters")

    for name, tenant in customers.items():
        deploy_web_stack(env, tenant, replicas=2)
    for name, tenant in customers.items():
        wait_for_ready(env, tenant, 2)
        print(f"[{env.sim.now:7.2f}s] {name}: web stack ready (2 replicas)")

    # acme scales to 5 replicas.
    acme = customers["acme"]

    def scale_up():
        deployment = yield from acme.client.get("deployments", "web",
                                                namespace="app")
        yield from acme.client.update(deployment.replace(
            spec=deployment.spec.replace(replicas=5)))

    env.run_coroutine(scale_up())
    wait_for_ready(env, acme, 5)
    print(f"[{env.sim.now:7.2f}s] acme scaled web to 5 replicas")

    # acme moves its Service to port 8080 and retunes its config; the
    # syncer updates both super copies in place (same object, same
    # super cluster IP).
    def retune():
        service = yield from acme.client.get("services", "web",
                                             namespace="app")
        port = service.spec.ports[0].replace(port=8080)
        yield from acme.client.update(
            service.replace(spec=service.spec.replace(ports=[port])))
        config = yield from acme.client.get("configmaps", "app-settings",
                                            namespace="app")
        yield from acme.client.update(
            config.replace(data={**config.data, "replicas": "5"}))

    sns = super_namespace(acme.vc, "app")

    def super_copy(plural, name):
        return env.run_coroutine(admin.get(plural, name, namespace=sns))

    cluster_ip = super_copy("services", "web").spec.cluster_ip
    env.run_coroutine(retune())
    env.run_until(lambda: (
        super_copy("services", "web").spec.ports[0].port == 8080
        and super_copy("configmaps", "app-settings").data["replicas"] == "5"),
        timeout=60)
    assert super_copy("services", "web").spec.cluster_ip == cluster_ip
    print(f"[{env.sim.now:7.2f}s] acme's service edit reached the super "
          f"cluster in place (port 8080, cluster IP {cluster_ip} kept)")

    # globex deletes its stack (namespace deletion sweeps everything).
    globex = customers["globex"]
    env.run_coroutine(globex.client.delete("namespaces", "app"))

    def globex_empty():
        namespaces, _rv = env.run_coroutine(globex.client.list("namespaces"))
        return "app" not in {namespace.name for namespace in namespaces}

    env.run_until(globex_empty, timeout=120)
    print(f"[{env.sim.now:7.2f}s] globex tore down its app namespace")

    # Platform view: consolidated utilization on the shared nodes.
    pods, _rv = env.run_coroutine(admin.list("pods", namespace=None))
    running = [pod for pod in pods if pod.status.phase == "Running"]
    by_node = {}
    for pod in running:
        by_node.setdefault(pod.spec.node_name, []).append(pod)
    print(f"[{env.sim.now:7.2f}s] operator view: {len(running)} tenant "
          f"pods packed onto {len(by_node)} of 10 nodes")
    for node, node_pods in sorted(by_node.items()):
        owners = sorted({pod.metadata.namespace.split("-")[0]
                         for pod in node_pods})
        print(f"    {node}: {len(node_pods)} pods from {owners}")

    # Each customer still sees only its own world.
    for name, tenant in customers.items():
        namespaces, _rv = env.run_coroutine(tenant.client.list("namespaces"))
        print(f"[{env.sim.now:7.2f}s] {name} sees namespaces: "
              f"{sorted(ns.name for ns in namespaces)}")


if __name__ == "__main__":
    main()
