"""Serialization, deep copy, and equality of API objects."""

import pytest

from repro.objects import (
    Container,
    Endpoints,
    EndpointSubset,
    Namespace,
    Pod,
    Quantity,
    Service,
    make_node,
    make_pod,
    make_service,
    with_anti_affinity,
)
from repro.objects.base import (
    EMPTY_DICT,
    EMPTY_LIST,
    FrozenError,
    fast_deep_copy,
    set_freeze_guard,
)
from repro.objects.service import EndpointAddress


class TestWireFormat:
    def test_pod_has_type_meta(self):
        data = make_pod("p").to_dict()
        assert data["apiVersion"] == "v1"
        assert data["kind"] == "Pod"

    def test_camel_case_wire_names(self):
        pod = make_pod("p", cpu="500m")
        data = pod.to_dict()
        assert "nodeSelector" not in data["spec"]  # empty omitted
        assert data["spec"]["serviceAccountName"] == "default"
        assert data["spec"]["containers"][0]["resources"]["requests"][
            "cpu"] == "500m"

    def test_empty_collections_omitted(self):
        data = make_pod("p").to_dict()
        assert "tolerations" not in data["spec"]
        assert "labels" not in data["metadata"]

    def test_round_trip_pod(self):
        pod = make_pod("web", namespace="prod", labels={"app": "web"},
                       cpu="250m", memory="128Mi")
        pod.spec.node_selector = {"disk": "ssd"}
        again = Pod.from_dict(pod.to_dict())
        assert again == pod
        assert again.spec.containers[0].resources.requests["cpu"] == \
            Quantity.parse("250m")

    def test_round_trip_service(self):
        service = make_service("svc", selector={"app": "web"}, port=8080)
        again = Service.from_dict(service.to_dict())
        assert again == service
        assert again.spec.ports[0].port == 8080

    def test_round_trip_node(self):
        node = make_node("n1", cpu="96", memory="328Gi")
        again = type(node).from_dict(node.to_dict())
        assert again == node
        assert again.status.allocatable["cpu"] == Quantity.parse("96")

    def test_round_trip_endpoints(self):
        endpoints = Endpoints()
        endpoints.metadata.name = "svc"
        endpoints.metadata.namespace = "default"
        endpoints.subsets = [EndpointSubset(
            addresses=[EndpointAddress(ip="10.0.0.1", node_name="n1")])]
        again = Endpoints.from_dict(endpoints.to_dict())
        assert again.ready_ips() == ["10.0.0.1"]

    def test_unknown_wire_keys_ignored(self):
        data = make_pod("p").to_dict()
        data["spec"]["futureField"] = {"x": 1}
        pod = Pod.from_dict(data)
        assert pod.name == "p"

    def test_anti_affinity_round_trip(self):
        pod = with_anti_affinity(make_pod("a"), "app", "web")
        again = Pod.from_dict(pod.to_dict())
        terms = again.spec.affinity.pod_anti_affinity.required_terms
        assert terms[0].label_selector.matches({"app": "web"})
        assert terms[0].topology_key == "kubernetes.io/hostname"


class TestCopy:
    def test_copy_is_deep(self):
        pod = make_pod("p", labels={"app": "web"})
        clone = pod.copy()
        clone.metadata.labels["app"] = "changed"
        clone.spec.containers[0].image = "other"
        assert pod.metadata.labels["app"] == "web"
        assert pod.spec.containers[0].image != "other"

    def test_copy_untyped_payload_is_deep(self):
        namespace = Namespace()
        namespace.metadata.name = "ns"
        clone = namespace.copy()
        clone.spec.finalizers.append("extra")
        assert namespace.spec.finalizers == ["kubernetes"]

    def test_from_dict_does_not_alias_input(self):
        data = make_pod("p").to_dict()
        data["metadata"]["annotations"] = {"k": "v"}
        pod = Pod.from_dict(data)
        pod.metadata.annotations["k"] = "mutated"
        assert data["metadata"]["annotations"]["k"] == "v"


class TestSharedEmpties:
    """A decoded object's absent collections are one shared immutable
    empty — with the freeze guard off too, which is how ``bench``, the
    examples and ``scenarios run`` execute."""

    @pytest.fixture(autouse=True)
    def guard_off(self):
        previous = set_freeze_guard(False)
        yield
        set_freeze_guard(previous)

    def test_absent_collections_of_a_decoded_object_raise(self):
        pod = Pod.from_dict(make_pod("p").to_dict())
        assert pod.metadata.labels is EMPTY_DICT
        assert pod.spec.tolerations is EMPTY_LIST
        with pytest.raises(FrozenError):
            pod.metadata.labels["app"] = "web"
        with pytest.raises(FrozenError):
            pod.spec.tolerations.append(None)
        with pytest.raises(FrozenError):
            pod.spec.containers[0].command.extend(["sh"])
        assert EMPTY_LIST == [] and EMPTY_DICT == {}

    def test_constructed_and_copied_objects_take_appends(self):
        decoded = Pod.from_dict(make_pod("p").to_dict())
        for pod in (Pod(), make_pod("p"), decoded.copy()):
            pod.metadata.finalizers.append("f")
            pod.metadata.labels["app"] = "web"
            pod.spec.tolerations.append(None)
            assert pod.metadata.finalizers == ["f"]
            assert pod.metadata.labels == {"app": "web"}
        assert decoded.metadata.finalizers == []

    def test_replace_shares_children(self):
        pod = Pod.from_dict(make_pod("p", labels={"app": "web"}).to_dict())
        status = Pod().status
        replaced = pod.replace(status=status)
        assert replaced.status is status
        assert replaced.spec is pod.spec
        assert replaced.metadata is pod.metadata
        assert replaced.spec.tolerations is EMPTY_LIST


class TestEquality:
    def test_equal_objects(self):
        assert make_pod("p") == make_pod("p")

    def test_unequal_objects(self):
        assert make_pod("p") != make_pod("q")

    def test_cross_type_not_equal(self):
        assert make_pod("p") != make_service("p")

    def test_status_affects_equality(self):
        a = make_pod("p")
        b = make_pod("p")
        b.status.phase = "Running"
        assert a != b


class TestHelpers:
    def test_key_namespaced(self):
        assert make_pod("p", namespace="ns").key == "ns/p"

    def test_key_cluster_scoped(self):
        assert make_node("n1").key == "n1"

    def test_unknown_constructor_field_rejected(self):
        import pytest

        with pytest.raises(TypeError):
            Container(name="c", image="i", bogus=True)

    def test_fast_deep_copy(self):
        value = {"a": [1, {"b": 2}], "c": "s"}
        clone = fast_deep_copy(value)
        clone["a"][1]["b"] = 99
        assert value["a"][1]["b"] == 2

    def test_pod_total_requests(self):
        pod = make_pod("p", cpu="500m", memory="128Mi")
        pod.spec.containers.append(
            Container(name="side", image="img"))
        pod.spec.containers[1].resources.requests["cpu"] = \
            Quantity.parse("250m")
        totals = pod.spec.total_requests()
        assert totals["cpu"] == Quantity.parse("750m")
        assert totals["memory"] == Quantity.parse("128Mi")

    def test_init_container_requests_use_max(self):
        pod = make_pod("p", cpu="200m")
        init = Container(name="init", image="img")
        init.resources.requests["cpu"] = Quantity.parse("1")
        pod.spec.init_containers.append(init)
        assert pod.spec.total_requests()["cpu"] == Quantity.parse("1")

    def test_pod_conditions(self):
        pod = make_pod("p")
        assert pod.status.set_condition("Ready", "True", now=1.0)
        assert pod.status.is_ready
        changed = pod.status.set_condition("Ready", "True", now=2.0)
        assert not changed
        pod.status.set_condition("Ready", "False", now=3.0)
        assert not pod.status.is_ready
        condition = pod.status.get_condition("Ready")
        assert condition.last_transition_time == 3.0
