"""Focused unit tests for admission plugins."""

import pytest

from repro.apiserver import ADMIN, APIServer, Forbidden, Invalid
from repro.apiserver.admission import (
    AdmissionRequest,
    ClusterIPAllocator,
    NamespaceLifecycle,
    PodDefaults,
)
from repro.objects import (
    Quantity,
    ResourceQuota,
    make_namespace,
    make_pod,
    make_service,
)
from repro.simkernel import Simulation


@pytest.fixture
def api():
    return APIServer(Simulation(), "api")


def run(api, coroutine):
    return api.sim.run(until=api.sim.process(coroutine))


class TestClusterIPAllocator:
    def test_sequential_unique_ips(self):
        allocator = ClusterIPAllocator()
        ips = set()
        for index in range(300):  # spans the /24 rollover
            service = make_service(f"svc-{index}")
            request = AdmissionRequest("create", "services", service)
            allocator.admit(request, None)
            assert service.spec.cluster_ip not in ips
            ips.add(service.spec.cluster_ip)

    def test_explicit_ip_reserved(self):
        allocator = ClusterIPAllocator()
        service = make_service("pinned")
        service.spec.cluster_ip = "10.96.0.77"
        allocator.admit(AdmissionRequest("create", "services", service),
                        None)
        clash = make_service("clash")
        clash.spec.cluster_ip = "10.96.0.77"
        with pytest.raises(Invalid):
            allocator.admit(AdmissionRequest("create", "services", clash),
                            None)

    def test_release_allows_reuse(self):
        allocator = ClusterIPAllocator()
        service = make_service("s")
        allocator.admit(AdmissionRequest("create", "services", service),
                        None)
        ip = service.spec.cluster_ip
        allocator.release(ip)
        again = make_service("s2")
        again.spec.cluster_ip = ip
        allocator.admit(AdmissionRequest("create", "services", again), None)

    def test_non_service_ignored(self):
        allocator = ClusterIPAllocator()
        pod = make_pod("p")
        allocator.admit(AdmissionRequest("create", "pods", pod), None)
        # No crash, no mutation.


class TestPodDefaults:
    def test_defaults_applied(self):
        pod = make_pod("p")
        pod.spec.scheduler_name = None
        pod.spec.service_account_name = None
        PodDefaults().admit(AdmissionRequest("create", "pods", pod), None)
        assert pod.spec.scheduler_name == "default-scheduler"
        assert pod.spec.service_account_name == "default"

    def test_update_not_redefaulted(self):
        pod = make_pod("p")
        pod.spec.scheduler_name = None
        PodDefaults().admit(AdmissionRequest("update", "pods", pod), None)
        assert pod.spec.scheduler_name is None


class TestNamespaceLifecycleViaServer:
    def test_cluster_scoped_objects_unaffected(self, api):
        # Creating a namespace itself must not require a namespace.
        run(api, api.create(ADMIN, make_namespace("fresh")))

    def test_updates_in_terminating_namespace_allowed(self, api):
        """Only *creates* are blocked in terminating namespaces — updates
        (e.g. removing finalizers) must go through or nothing could ever
        finish terminating."""
        run(api, api.create(ADMIN, make_namespace("zombie")))
        pod = make_pod("p", namespace="zombie")
        pod.metadata.finalizers = ["guard"]
        run(api, api.create(ADMIN, pod))
        run(api, api.delete(ADMIN, "namespaces", "zombie"))
        run(api, api.delete(ADMIN, "pods", "p", namespace="zombie"))
        fresh = run(api, api.get(ADMIN, "pods", "p",
                                 namespace="zombie")).copy()
        fresh.metadata.finalizers = []
        run(api, api.update(ADMIN, fresh))  # allowed; removes the pod
        with pytest.raises(Forbidden):
            run(api, api.create(ADMIN, make_pod("new", namespace="zombie")))


class TestQuotaEnforcerViaServer:
    def _quota(self, namespace, pods):
        quota = ResourceQuota()
        quota.metadata.name = "q"
        quota.metadata.namespace = namespace
        quota.spec.hard = {"pods": Quantity.parse(pods)}
        return quota

    def test_quotas_in_two_namespaces_are_enforced_apart(self, api):
        """Each create reads its own namespace's quotas and Pods only
        (a namespaced range read), with the same admit/deny decisions —
        including for a namespace whose name prefixes another's."""
        for namespace, limit in (("team", "1"), ("team-b", "2")):
            run(api, api.create(ADMIN, make_namespace(namespace)))
            run(api, api.create(ADMIN, self._quota(namespace, limit)))
        run(api, api.create(ADMIN, make_namespace("free")))
        run(api, api.create(ADMIN, make_pod("a", namespace="team")))
        run(api, api.create(ADMIN, make_pod("a", namespace="team-b")))
        run(api, api.create(ADMIN, make_pod("b", namespace="team-b")))
        for index in range(3):      # no quota: never limited
            run(api, api.create(ADMIN, make_pod(f"p{index}",
                                                namespace="free")))
        with pytest.raises(Forbidden):
            run(api, api.create(ADMIN, make_pod("b", namespace="team")))
        with pytest.raises(Forbidden):
            run(api, api.create(ADMIN, make_pod("c", namespace="team-b")))

    def test_reader_ranges_over_one_namespace(self, api):
        for namespace in ("team", "team-b"):
            run(api, api.create(ADMIN, make_namespace(namespace)))
            run(api, api.create(ADMIN, make_pod("p", namespace=namespace)))
        assert [pod.key for pod in api.reader.read_all(
            "pods", namespace="team")] == ["team/p"]
        assert len(api.reader.read_all("pods")) == 2
