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
from repro.objects.meta import same_spec
from repro.simkernel import Simulation


@pytest.fixture
def api():
    return APIServer(Simulation(), "api")


def run(api, coroutine):
    return api.sim.run(until=api.sim.process(coroutine))


def _admitted(plugin, obj, plural="services"):
    """What ``plugin`` leaves as the request's object on a create."""
    request = AdmissionRequest("create", plural, obj)
    plugin.admit(request, None)
    return request.obj


class TestClusterIPAllocator:
    def test_sequential_unique_ips(self):
        allocator = ClusterIPAllocator()
        ips = set()
        for index in range(300):  # spans the /24 rollover
            service = _admitted(allocator, make_service(f"svc-{index}"))
            assert service.spec.cluster_ip not in ips
            ips.add(service.spec.cluster_ip)

    def test_allocation_replaces_the_spec(self):
        """The caller's spec is the stored snapshot's child: the plugin
        derives a new one rather than writing into it."""
        service = make_service("s")
        admitted = _admitted(ClusterIPAllocator(), service)
        assert admitted.spec.cluster_ip and service.spec.cluster_ip is None
        assert admitted.metadata is service.metadata

    def test_explicit_ip_reserved(self):
        allocator = ClusterIPAllocator()
        service = make_service("pinned")
        service.spec.cluster_ip = "10.96.0.77"
        _admitted(allocator, service)
        clash = make_service("clash")
        clash.spec.cluster_ip = "10.96.0.77"
        with pytest.raises(Invalid):
            _admitted(allocator, clash)

    def test_release_allows_reuse(self):
        allocator = ClusterIPAllocator()
        service = _admitted(allocator, make_service("s"))
        allocator.release(service)
        again = make_service("s2")
        again.spec.cluster_ip = service.spec.cluster_ip
        _admitted(allocator, again)

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
        admitted = _admitted(PodDefaults(), pod, plural="pods")
        assert admitted.spec.scheduler_name == "default-scheduler"
        assert admitted.spec.service_account_name == "default"
        assert pod.spec.scheduler_name is None

    def test_update_not_redefaulted(self):
        pod = make_pod("p")
        pod.spec.scheduler_name = None
        PodDefaults().admit(AdmissionRequest("update", "pods", pod), None)
        assert pod.spec.scheduler_name is None


class TestSpecWires:
    def test_typed_specs_compare_field_by_field(self):
        """Update validation and the generation bump compare typed specs:
        a shared child by identity, a changed field by value, ignored
        wire keys aside."""
        old = make_pod("p")
        new = old.replace(spec=old.spec.replace(node_name="n1"))
        assert not same_spec(old, new)
        assert same_spec(old, new, ignore=("nodeName",))
        assert same_spec(old, old.replace(spec=old.spec.copy()))
        assert not same_spec(old, old.replace(spec=old.spec.replace(
            containers=[])))

    def test_absent_and_empty_collections_are_equal_on_the_wire(self):
        old = make_pod("p")
        assert same_spec(old, old.replace(spec=old.spec.replace(
            tolerations=None, volumes=[])))

    def test_an_unchanged_spec_is_not_encoded(self, monkeypatch):
        from repro.objects import PodSpec

        def no_encode(self):
            raise AssertionError("encoded")

        old = make_pod("p")
        new = old.replace(spec=old.spec.copy())
        monkeypatch.setattr(PodSpec, "to_dict", no_encode)
        assert same_spec(old, new)
        assert not same_spec(old, new.replace(spec=new.spec.replace(
            priority=5)))


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
