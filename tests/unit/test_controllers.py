"""Unit tests for the built-in controllers."""

import pytest

from repro.apiserver import ADMIN, APIServer, NotFound
from repro.clientgo import Client, InformerFactory
from repro.controllers import ControllerManager
from repro.objects import (
    Deployment,
    LabelSelector,
    ReplicaSet,
    make_namespace,
    make_pod,
    make_service,
)
from repro.simkernel import Simulation


class _Cluster:
    def __init__(self, enable_workloads=True):
        self.sim = Simulation()
        self.api = APIServer(self.sim, "cp")
        self.client = Client(self.sim, self.api, ADMIN, qps=100000,
                             burst=100000)
        factory = InformerFactory(self.sim, self.client)
        self.manager = ControllerManager(self.sim, self.client, factory,
                                         enable_workloads=enable_workloads)
        self.manager.start()
        self.run(self.client.create(make_namespace("default")))
        self.settle()

    def run(self, coroutine):
        return self.sim.run(until=self.sim.process(coroutine))

    def settle(self, seconds=2.0):
        self.sim.run(until=self.sim.now + seconds)

    def list(self, plural, namespace="default"):
        items, _rv = self.run(self.client.list(plural, namespace=namespace))
        return items


@pytest.fixture
def cluster():
    return _Cluster()


class TestEndpointsController:
    def test_endpoints_follow_ready_pods(self, cluster):
        cluster.run(cluster.client.create(
            make_service("svc", selector={"app": "web"}, port=80)))
        pod = make_pod("p", labels={"app": "web"})
        pod.status.pod_ip = "10.0.0.5"
        pod.status.phase = "Running"
        pod.status.set_condition("Ready", "True")

        def create_ready_pod():
            created = yield from cluster.client.create(pod)
            created.status = pod.status
            yield from cluster.client.update_status(created)

        cluster.run(create_ready_pod())
        cluster.settle()
        endpoints = cluster.run(cluster.client.get("endpoints", "svc",
                                                   namespace="default"))
        assert endpoints.ready_ips() == ["10.0.0.5"]

    def test_not_ready_pods_in_not_ready_addresses(self, cluster):
        cluster.run(cluster.client.create(
            make_service("svc", selector={"app": "web"})))

        def create_pod():
            pod = make_pod("p", labels={"app": "web"})
            created = yield from cluster.client.create(pod)
            created.status.pod_ip = "10.0.0.6"
            yield from cluster.client.update_status(created)

        cluster.run(create_pod())
        cluster.settle()
        endpoints = cluster.run(cluster.client.get("endpoints", "svc",
                                                   namespace="default"))
        assert endpoints.ready_ips() == []
        assert endpoints.subsets[0].not_ready_addresses[0].ip == "10.0.0.6"

    def test_service_deletion_removes_endpoints(self, cluster):
        cluster.run(cluster.client.create(
            make_service("svc", selector={"app": "web"})))
        cluster.settle()
        cluster.run(cluster.client.delete("services", "svc",
                                          namespace="default"))
        cluster.settle()
        with pytest.raises(NotFound):
            cluster.run(cluster.client.get("endpoints", "svc",
                                           namespace="default"))


class TestNamespaceController:
    def test_terminating_namespace_is_swept_and_removed(self, cluster):
        cluster.run(cluster.client.create(make_namespace("doomed")))
        cluster.run(cluster.client.create(make_pod("p",
                                                   namespace="doomed")))
        cluster.run(cluster.client.delete("namespaces", "doomed"))
        cluster.settle(5)
        with pytest.raises(NotFound):
            cluster.run(cluster.client.get("namespaces", "doomed"))
        items, _rv = cluster.run(cluster.client.list("pods",
                                                     namespace="doomed"))
        assert items == []


def _make_replicaset(name="rs", replicas=3):
    rs = ReplicaSet()
    rs.metadata.name = name
    rs.metadata.namespace = "default"
    rs.spec.replicas = replicas
    rs.spec.selector = LabelSelector(match_labels={"app": name})
    rs.spec.template.metadata.labels = {"app": name}
    pod_template = make_pod("template")
    rs.spec.template.spec = pod_template.spec
    return rs


class TestReplicaSetController:
    def test_scales_up_to_desired(self, cluster):
        cluster.run(cluster.client.create(_make_replicaset(replicas=3)))
        cluster.settle(3)
        pods = cluster.list("pods")
        assert len(pods) == 3
        assert all(p.metadata.owner_references[0].kind == "ReplicaSet"
                   for p in pods)

    def test_scales_down(self, cluster):
        cluster.run(cluster.client.create(_make_replicaset(replicas=3)))
        cluster.settle(3)

        def scale():
            rs = yield from cluster.client.get("replicasets", "rs",
                                               namespace="default")
            yield from cluster.client.update(
                rs.replace(spec=rs.spec.replace(replicas=1)))

        cluster.run(scale())
        cluster.settle(3)
        assert len(cluster.list("pods")) == 1

    def test_replaces_deleted_pod(self, cluster):
        cluster.run(cluster.client.create(_make_replicaset(replicas=2)))
        cluster.settle(3)
        victim = cluster.list("pods")[0]
        cluster.run(cluster.client.delete("pods", victim.name,
                                          namespace="default"))
        cluster.settle(3)
        assert len(cluster.list("pods")) == 2

    def test_status_reflects_observed_state(self, cluster):
        cluster.run(cluster.client.create(_make_replicaset(replicas=2)))
        cluster.settle(3)
        rs = cluster.run(cluster.client.get("replicasets", "rs",
                                            namespace="default"))
        assert rs.status.replicas == 2


class TestDeploymentController:
    def test_deployment_creates_replicaset_and_pods(self, cluster):
        deployment = Deployment()
        deployment.metadata.name = "web"
        deployment.metadata.namespace = "default"
        deployment.spec.replicas = 2
        deployment.spec.selector = LabelSelector(match_labels={"app": "web"})
        deployment.spec.template.metadata.labels = {"app": "web"}
        deployment.spec.template.spec = make_pod("t").spec
        cluster.run(cluster.client.create(deployment))
        cluster.settle(4)
        replicasets = cluster.list("replicasets")
        assert len(replicasets) == 1
        assert replicasets[0].name.startswith("web-")
        assert len(cluster.list("pods")) == 2


class TestGarbageCollector:
    def test_orphaned_pods_deleted(self, cluster):
        cluster.run(cluster.client.create(_make_replicaset(replicas=2)))
        cluster.settle(3)
        assert len(cluster.list("pods")) == 2
        cluster.run(cluster.client.delete("replicasets", "rs",
                                          namespace="default"))
        cluster.settle(4)
        assert cluster.list("pods") == []
