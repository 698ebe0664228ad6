"""Unit tests for the apiserver: CRUD semantics, admission, auth, watch."""

import pytest

from repro.apiserver import (
    ADMIN,
    AlreadyExists,
    APIServer,
    BadRequest,
    Conflict,
    Credential,
    Forbidden,
    Invalid,
    NotFound,
    Unauthorized,
)
from repro.config import DEFAULT_CONFIG, ApfTier
from repro.core.controlplane import SuperCluster
from repro.objects import (
    ClusterRole,
    ClusterRoleBinding,
    PolicyRule,
    Quantity,
    ResourceQuota,
    RoleRef,
    RoleSubject,
    make_namespace,
    make_pod,
    make_service,
)
from repro.objects.base import FrozenError, SerdeMismatch
from repro.simkernel import Simulation


@pytest.fixture
def sim():
    return Simulation()


@pytest.fixture
def api(sim):
    return APIServer(sim, "test-api")


def run(sim, coroutine):
    return sim.run(until=sim.process(coroutine))


def setup_namespace(sim, api, name="default"):
    run(sim, api.create(ADMIN, make_namespace(name)))


class TestCreate:
    def test_create_sets_metadata(self, sim, api):
        setup_namespace(sim, api)
        pod = run(sim, api.create(ADMIN, make_pod("p")))
        assert pod.metadata.uid
        assert pod.metadata.creation_timestamp is not None
        assert pod.metadata.resource_version
        assert pod.metadata.generation == 1

    def test_created_object_must_be_in_decoded_form(self, sim, api):
        """The stored snapshot is the caller's object, so under the guard
        a create refuses one that decoding its encoding would change: a
        ``None`` over a default, a dict standing in for a typed child."""
        setup_namespace(sim, api)
        pod = make_pod("p")
        pod.status = None
        with pytest.raises(SerdeMismatch):
            run(sim, api.create(ADMIN, pod))
        pod = make_pod("q")
        pod.spec.containers = [pod.spec.containers[0].to_dict()]
        with pytest.raises(SerdeMismatch):
            run(sim, api.create(ADMIN, pod))

    def test_create_duplicate_fails(self, sim, api):
        setup_namespace(sim, api)
        run(sim, api.create(ADMIN, make_pod("p")))
        with pytest.raises(AlreadyExists):
            run(sim, api.create(ADMIN, make_pod("p")))

    def test_create_in_missing_namespace_rejected(self, sim, api):
        with pytest.raises(Forbidden):
            run(sim, api.create(ADMIN, make_pod("p", namespace="nope")))

    def test_create_in_terminating_namespace_rejected(self, sim, api):
        setup_namespace(sim, api, "doomed")
        run(sim, api.delete(ADMIN, "namespaces", "doomed"))
        with pytest.raises(Forbidden):
            run(sim, api.create(ADMIN, make_pod("p", namespace="doomed")))

    def test_generate_name(self, sim, api):
        setup_namespace(sim, api)
        pod = make_pod("ignored")
        pod.metadata.name = None
        pod.metadata.generate_name = "web-"
        created = run(sim, api.create(ADMIN, pod))
        assert created.metadata.name.startswith("web-")
        assert len(created.metadata.name) == len("web-") + 5

    def test_invalid_name_rejected(self, sim, api):
        setup_namespace(sim, api)
        with pytest.raises(Invalid):
            run(sim, api.create(ADMIN, make_pod("Bad_Name!")))

    def test_pod_without_containers_rejected(self, sim, api):
        setup_namespace(sim, api)
        pod = make_pod("p")
        pod.spec.containers = []
        with pytest.raises(Invalid):
            run(sim, api.create(ADMIN, pod))

    def test_service_gets_cluster_ip(self, sim, api):
        setup_namespace(sim, api)
        service = run(sim, api.create(ADMIN, make_service("svc")))
        assert service.spec.cluster_ip.startswith("10.96.")

    def test_headless_service_keeps_none_ip(self, sim, api):
        setup_namespace(sim, api)
        service = make_service("svc")
        service.spec.cluster_ip = "None"
        created = run(sim, api.create(ADMIN, service))
        assert created.spec.cluster_ip == "None"

    def test_cluster_scoped_with_namespace_rejected(self, sim, api):
        namespace = make_namespace("x")
        namespace.metadata.namespace = "oops"
        with pytest.raises(Invalid):
            run(sim, api.create(ADMIN, namespace))


class TestGetListUpdate:
    def test_get_returns_shared_frozen_snapshot(self, sim, api):
        """Every read of one revision is the same object, and the guard
        makes editing it an error; ``copy()`` is the private object."""
        setup_namespace(sim, api)
        created = run(sim, api.create(ADMIN, make_pod("p")))
        before = api.decodes
        a = run(sim, api.get(ADMIN, "pods", "p", namespace="default"))
        b = run(sim, api.get(ADMIN, "pods", "p", namespace="default"))
        listed, _rv = run(sim, api.list(ADMIN, "pods", namespace="default"))
        assert a is b is created and len(listed) == 1 and listed[0] is a
        # The record holds the snapshot create returned: nothing decodes.
        assert api.decodes == before
        with pytest.raises(FrozenError):
            a.status.phase = "Hacked"
        with pytest.raises(FrozenError):
            a.metadata.labels["x"] = "y"
        mine = a.copy()
        mine.status.phase = "Hacked"
        assert b.status.phase == "Pending"

    def test_get_missing(self, sim, api):
        with pytest.raises(NotFound):
            run(sim, api.get(ADMIN, "pods", "nope", namespace="default"))

    def test_unknown_resource(self, sim, api):
        with pytest.raises(NotFound):
            run(sim, api.get(ADMIN, "flurbs", "x", namespace="default"))

    def test_list_with_label_selector(self, sim, api):
        from repro.objects import parse_selector

        setup_namespace(sim, api)
        run(sim, api.create(ADMIN, make_pod("a", labels={"app": "web"})))
        run(sim, api.create(ADMIN, make_pod("b", labels={"app": "db"})))
        run(sim, api.create(ADMIN, make_pod("unlabelled")))
        before = api.decodes
        items, _rv = run(sim, api.list(ADMIN, "pods", namespace="default",
                                       label_selector=parse_selector(
                                           "app=web")))
        assert [p.name for p in items] == ["a"]
        # Selected on the stored snapshots: nothing was decoded.
        assert api.decodes == before
        items, _rv = run(sim, api.list(ADMIN, "pods", namespace="default",
                                       label_selector=parse_selector(
                                           "app!=web")))
        assert [p.name for p in items] == ["b", "unlabelled"]

    def test_list_with_field_selector(self, sim, api):
        setup_namespace(sim, api)
        run(sim, api.create(ADMIN, make_pod("a", node_name="n1")))
        run(sim, api.create(ADMIN, make_pod("b")))
        before = api.decodes
        items, _rv = run(sim, api.list(
            ADMIN, "pods", namespace="default",
            field_selector={"spec.nodeName": "n1"}))
        assert [p.name for p in items] == ["a"]
        assert api.decodes == before

    def test_update_with_stale_rv_conflicts(self, sim, api):
        setup_namespace(sim, api)
        pod = run(sim, api.create(ADMIN, make_pod("p"))).copy()
        stale = pod.copy()
        pod.metadata.labels["x"] = "1"
        run(sim, api.update(ADMIN, pod))
        stale.metadata.labels["x"] = "2"
        with pytest.raises(Conflict):
            run(sim, api.update(ADMIN, stale))

    def test_update_status_only_touches_status(self, sim, api):
        setup_namespace(sim, api)
        pod = run(sim, api.create(ADMIN, make_pod("p")))
        mutation = pod.copy()
        mutation.status.phase = "Running"
        mutation.metadata.labels["sneaky"] = "yes"
        run(sim, api.update(ADMIN, mutation, subresource="status"))
        fresh = run(sim, api.get(ADMIN, "pods", "p", namespace="default"))
        assert fresh.status.phase == "Running"
        assert "sneaky" not in (fresh.metadata.labels or {})

    def test_pod_spec_immutable(self, sim, api):
        setup_namespace(sim, api)
        pod = run(sim, api.create(ADMIN, make_pod("p"))).copy()
        pod.spec.containers[0].image = "other:latest"
        with pytest.raises(Invalid):
            run(sim, api.update(ADMIN, pod))

    def test_pod_bind_is_admitted_and_bumps_generation(self, sim, api):
        setup_namespace(sim, api)
        pod = run(sim, api.create(ADMIN, make_pod("p")))
        bound = run(sim, api.update(ADMIN, pod.replace(
            spec=pod.spec.replace(node_name="n1"))))
        assert bound.spec.node_name == "n1"
        assert bound.metadata.generation == 2

    def test_generation_bumps_on_spec_change(self, sim, api):
        setup_namespace(sim, api)
        service = run(sim, api.create(ADMIN, make_service("svc"))).copy()
        service.spec.ports[0].port = 9090
        updated = run(sim, api.update(ADMIN, service))
        assert updated.metadata.generation == 2


class TestDelete:
    def test_delete_removes(self, sim, api):
        setup_namespace(sim, api)
        run(sim, api.create(ADMIN, make_pod("p")))
        run(sim, api.delete(ADMIN, "pods", "p", namespace="default"))
        with pytest.raises(NotFound):
            run(sim, api.get(ADMIN, "pods", "p", namespace="default"))

    def test_delete_with_finalizer_marks_only(self, sim, api):
        setup_namespace(sim, api)
        pod = make_pod("p")
        pod.metadata.finalizers = ["example.com/guard"]
        run(sim, api.create(ADMIN, pod))
        deleted = run(sim, api.delete(ADMIN, "pods", "p",
                                      namespace="default"))
        assert deleted.metadata.deletion_timestamp is not None
        # Still present until the finalizer is removed.
        fresh = run(sim, api.get(ADMIN, "pods", "p", namespace="default"))
        run(sim, api.update(ADMIN, fresh.replace(
            metadata=fresh.metadata.replace(finalizers=[]))))
        with pytest.raises(NotFound):
            run(sim, api.get(ADMIN, "pods", "p", namespace="default"))

    def test_deleted_service_releases_its_cluster_ip(self, sim, api):
        """A Service created with an explicit clusterIP, deleted and
        created again with the same IP: the delete let the IP go."""
        setup_namespace(sim, api)

        def pinned():
            service = make_service("svc")
            service.spec.cluster_ip = "10.96.0.77"
            return service

        run(sim, api.create(ADMIN, pinned()))
        with pytest.raises(Invalid):
            run(sim, api.create(ADMIN, pinned().replace(
                metadata=pinned().metadata.replace(name="clash"))))
        run(sim, api.delete(ADMIN, "services", "svc", namespace="default"))
        again = run(sim, api.create(ADMIN, pinned()))
        assert again.spec.cluster_ip == "10.96.0.77"

    def test_namespace_delete_enters_terminating(self, sim, api):
        setup_namespace(sim, api, "doomed")
        namespace = run(sim, api.delete(ADMIN, "namespaces", "doomed"))
        assert namespace.status.phase == "Terminating"


class TestAuth:
    def test_unknown_credential_rejected(self, sim, api):
        stranger = Credential("stranger")
        with pytest.raises(Unauthorized):
            run(sim, api.get(stranger, "pods", "p", namespace="default"))

    def test_rbac_objects_are_stored_but_not_enforced(self, sim, api):
        """There is no authorizer: Role/ClusterRole(+Binding) are plain
        API objects, and an authenticated user needs no binding."""
        user = api.authenticator.register(Credential("alice"))
        setup_namespace(sim, api)
        role = ClusterRole()
        role.metadata.name = "pod-reader"
        role.rules = [PolicyRule(verbs=["get", "list"],
                                 resources=["pods"])]
        run(sim, api.create(ADMIN, role))
        binding = ClusterRoleBinding()
        binding.metadata.name = "alice-reads"
        binding.subjects = [RoleSubject(kind="User", name="alice")]
        binding.role_ref = RoleRef(kind="ClusterRole", name="pod-reader")
        run(sim, api.create(ADMIN, binding))
        stored = run(sim, api.get(ADMIN, "clusterroles", "pod-reader"))
        assert stored.rules[0].verbs == ["get", "list"]
        created = run(sim, api.create(user, make_pod("p")))
        assert created.metadata.uid


class TestQuota:
    def test_quota_blocks_over_limit(self, sim, api):
        setup_namespace(sim, api)
        quota = ResourceQuota()
        quota.metadata.name = "q"
        quota.metadata.namespace = "default"
        quota.spec.hard = {"pods": Quantity.parse("2")}
        run(sim, api.create(ADMIN, quota))
        run(sim, api.create(ADMIN, make_pod("a")))
        run(sim, api.create(ADMIN, make_pod("b")))
        with pytest.raises(Forbidden):
            run(sim, api.create(ADMIN, make_pod("c")))


class TestWatch:
    def test_watch_delivers_typed_events(self, sim, api):
        setup_namespace(sim, api)
        stream = api.watch(ADMIN, "pods", namespace="default")
        events = []

        def consumer():
            for _ in range(2):
                kind, obj = yield from stream.next()
                events.append((kind, obj.name))

        def producer():
            yield from api.create(ADMIN, make_pod("p"))
            pod = yield from api.get(ADMIN, "pods", "p",
                                     namespace="default")
            yield from api.update(
                ADMIN, pod.replace(status=pod.status.replace(phase="Running")),
                subresource="status")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert events == [("ADDED", "p"), ("MODIFIED", "p")]

    def test_watch_field_selector_server_side(self, sim, api):
        setup_namespace(sim, api)
        stream = api.watch(ADMIN, "pods", namespace="default",
                           field_selector={"spec.nodeName": "n1"})
        run(sim, api.create(ADMIN, make_pod("a", node_name="n1")))
        run(sim, api.create(ADMIN, make_pod("b", node_name="n2")))
        assert len(stream._watch.channel) == 1

    def test_field_selector_watch_is_hinted_and_others_are_not_asked(
            self, sim, api):
        setup_namespace(sim, api)
        kubelets = [api.watch(ADMIN, "pods",
                              field_selector={"spec.nodeName": f"n{i}"})
                    for i in range(5)]
        unbound = api.watch(ADMIN, "pods",
                            field_selector={"spec.nodeName": None})
        not_n1 = api.watch(ADMIN, "pods",
                           field_selector={"spec.nodeName!": "n1"})
        assert kubelets[1]._watch.hint == ("spec.nodeName", "n1")
        assert unbound._watch.hint == ("spec.nodeName", None)
        assert not_n1._watch.hint is None
        before = api.store.stats()["watch_evals"]
        run(sim, api.create(ADMIN, make_pod("a", node_name="n1")))
        run(sim, api.create(ADMIN, make_pod("b")))
        # Each write asks its one hinted taker and the un-hinted watch.
        assert api.store.stats()["watch_evals"] - before == 4
        assert [len(k._watch.channel) for k in kubelets] == [0, 1, 0, 0, 0]
        assert len(unbound._watch.channel) == 1
        assert len(not_n1._watch.channel) == 1

    def test_crash_closes_watches(self, sim, api):
        setup_namespace(sim, api)
        stream = api.watch(ADMIN, "pods", namespace="default")
        api.crash()
        assert stream._watch.channel.closed
        from repro.apiserver import ServerUnavailable

        with pytest.raises(ServerUnavailable):
            run(sim, api.get(ADMIN, "pods", "p", namespace="default"))
        api.recover()


class TestBinding:
    def test_bind_pod(self, sim, api):
        setup_namespace(sim, api)
        run(sim, api.create(ADMIN, make_pod("p")))
        bound = run(sim, api.bind_pod(ADMIN, "p", "default", "node-1"))
        assert bound.spec.node_name == "node-1"

    def test_double_bind_conflicts(self, sim, api):
        setup_namespace(sim, api)
        run(sim, api.create(ADMIN, make_pod("p")))
        run(sim, api.bind_pod(ADMIN, "p", "default", "node-1"))
        with pytest.raises(Conflict):
            run(sim, api.bind_pod(ADMIN, "p", "default", "node-2"))


class TestCrd:
    def test_register_crd_enables_dynamic_resource(self, sim, api):
        from repro.objects import CustomResourceDefinition

        crd = CustomResourceDefinition()
        crd.metadata.name = "widgets.example.com"
        crd.spec.group = "example.com"
        crd.spec.names.kind = "Widget"
        crd.spec.names.plural = "widgets"
        crd.spec.versions = ["v1"]
        run(sim, api.create(ADMIN, crd))
        widget_type = api.registry.register_crd(crd)
        setup_namespace(sim, api)
        widget = widget_type()
        widget.metadata.name = "w1"
        widget.metadata.namespace = "default"
        widget.spec = {"size": 3}
        created = run(sim, api.create(ADMIN, widget))
        assert created.spec["size"] == 3
        items, _rv = run(sim, api.list(ADMIN, "widgets",
                                       namespace="default"))
        assert len(items) == 1


class TestAdmission:
    """APF is the apiserver's one admission path: without it nothing
    caps concurrency, with it the level's seats do."""

    @staticmethod
    def finish_times(sim, coroutines):
        done = []

        def request(coroutine):
            yield from coroutine
            done.append(sim.now)

        for index, coroutine in enumerate(coroutines):
            sim.spawn(request(coroutine), name=f"request-{index}")
        return done

    def test_default_apiserver_has_no_concurrency_cap(self, sim, api):
        setup_namespace(sim, api)
        run(sim, api.create(ADMIN, make_pod("p")))
        start = sim.now
        done = self.finish_times(sim, [
            api.get(ADMIN, "pods", "p", namespace="default")
            for _ in range(500)])
        sim.run()
        cost = (api.config.apiserver.request_overhead
                + api.config.apiserver.etcd_read)
        assert done == pytest.approx([start + cost] * 500)

    def test_apf_seats_bind_on_a_super_apiserver(self, sim):
        # Fig. 1's "shared" arm: one 24-seat level, a single FIFO queue.
        level = ApfTier("standard", shares=1, queues=1, hand_size=1,
                        queue_limit=1000, queue_wait=600.0)
        config = DEFAULT_CONFIG.with_overrides(
            apf={"enabled": True, "total_seats": 24, "tiers": (level,)})
        api = SuperCluster(sim, config).api
        tenant = api.authenticator.register(Credential("tenant-a"))
        start = sim.now
        done = self.finish_times(sim, [api.list(tenant, "pods")
                                       for _ in range(25)])
        sim.run(until=start + 0.001)
        assert api.apf.total_in_use == 24
        assert api.apf.levels["standard"].waiting == 1
        sim.run()
        cost = (config.apiserver.request_overhead
                + config.apiserver.list_base)
        # The 25th took the first freed seat and then paid its own way.
        assert done == pytest.approx([start + cost] * 24
                                     + [start + 2 * cost])
