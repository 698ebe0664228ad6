"""Property-based serde round-trips for randomly generated API objects."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.crd import VirtualCluster, make_virtual_cluster
from repro.core.syncer.conversion import tenant_origin, to_super
from repro.objects import (
    BUILTIN_TYPES,
    Container,
    Namespace,
    Pod,
    Quantity,
    Service,
    make_namespace,
    make_node,
    make_pod,
    make_service,
)
from repro.objects.base import (
    EMPTY_DICT,
    EMPTY_LIST,
    FrozenDict,
    FrozenError,
    FrozenList,
    Serializable,
    fields_equal,
    freeze,
    wire_equal,
)
from repro.objects.crd import make_custom_type
from repro.objects.meta import stored_wire
from repro.objects.selectors import get_field
from repro.objects.pod import ContainerPort

names = st.from_regex(r"[a-z][a-z0-9-]{0,20}[a-z0-9]", fullmatch=True)
namespaces = st.sampled_from(["default", "prod", "team-a"])
label_dicts = st.dictionaries(
    st.sampled_from(["app", "tier", "env", "ver"]),
    st.from_regex(r"[a-z0-9]{1,10}", fullmatch=True),
    max_size=4,
)
cpu_values = st.sampled_from(["100m", "250m", "1", "2", "1500m"])
memory_values = st.sampled_from(["64Mi", "128Mi", "1Gi", "512Mi"])


@st.composite
def pods(draw):
    pod = make_pod(draw(names), namespace=draw(namespaces),
                   labels=draw(label_dicts),
                   cpu=draw(cpu_values), memory=draw(memory_values))
    if draw(st.booleans()):
        pod.spec.node_selector = draw(label_dicts)
    if draw(st.booleans()):
        pod.spec.node_name = draw(names)
    if draw(st.booleans()):
        pod.status.phase = draw(st.sampled_from(
            ["Pending", "Running", "Succeeded", "Failed"]))
        pod.status.pod_ip = "10.0.0.1"
    return pod


@st.composite
def services(draw):
    return make_service(draw(names), namespace=draw(namespaces),
                        selector=draw(label_dicts),
                        port=draw(st.integers(1, 65535)))


@given(pods())
@settings(max_examples=200)
def test_pod_round_trip(pod):
    assert Pod.from_dict(pod.to_dict()) == pod


@given(pods())
@settings(max_examples=100)
def test_pod_copy_equals_original(pod):
    clone = pod.copy()
    assert clone == pod
    clone.metadata.labels["mutant"] = "x"
    assert clone != pod or "mutant" in (pod.metadata.labels or {})
    # Deep copy: mutation must not reach the original.
    assert "mutant" not in (pod.metadata.labels or {}) or \
        pod.metadata.labels is clone.metadata.labels


@given(services())
@settings(max_examples=100)
def test_service_round_trip(service):
    assert Service.from_dict(service.to_dict()) == service


@given(pods())
@settings(max_examples=100)
def test_double_round_trip_stable(pod):
    once = Pod.from_dict(pod.to_dict())
    twice = Pod.from_dict(once.to_dict())
    assert once.to_dict() == twice.to_dict()


@given(pods())
@settings(max_examples=100)
def test_requests_survive_round_trip_exactly(pod):
    again = Pod.from_dict(pod.to_dict())
    for original, restored in zip(pod.spec.containers,
                                  again.spec.containers):
        for name, quantity in original.resources.requests.items():
            assert restored.resources.requests[name] == \
                Quantity.parse(quantity)


@given(pods())
@settings(max_examples=100)
def test_to_super_round_trips_origin(pod):
    vc = make_virtual_cluster("acme")
    vc.metadata.uid = "uid-777"
    translated = to_super(pod, vc)
    origin = tenant_origin(translated)
    assert origin == (vc.key, pod.metadata.namespace, pod.metadata.name)
    # Translation is itself serializable.
    assert Pod.from_dict(translated.to_dict()) == translated


# ----------------------------------------------------------------------
# The object-plane contract, for every registered type: freeze() makes
# every mutation raise, replace() is a shallow copy-on-write, copy() is
# fully private, and to_dict() never aliases the object.
# ----------------------------------------------------------------------

REGISTERED_TYPES = (*BUILTIN_TYPES, VirtualCluster,
                    make_custom_type("example.com/v1", "Widget", "widgets"))

_scalars = st.one_of(st.text("abc", max_size=3), st.integers(-9, 9),
                     st.booleans())
_json = st.recursive(
    _scalars | st.none(),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(
        st.text("xyz", min_size=1, max_size=2), children, max_size=3),
    max_leaves=6)
_json_containers = _json.filter(lambda value: isinstance(value, (dict, list)))
_quantities = st.sampled_from(["100m", "2", "64Mi", "1Gi"]).map(
    Quantity.parse)


def _field_values(field, depth):
    if field.type is None:
        # Untyped: a scalar, or (where the field is not itself a
        # container) a JSON payload such as a probe or a target ref.
        item = _scalars | _json_containers
    elif issubclass(field.type, Serializable):
        item = (instances(field.type, depth + 1) if depth < 3
                else st.builds(field.type))
    else:
        item = _quantities
    if field.container == "list":
        return st.lists(item, max_size=3)
    if field.container == "map":
        return st.dictionaries(st.text("klm", min_size=1, max_size=2), item,
                               max_size=3)
    return item


@st.composite
def instances(draw, cls, depth=0):
    """An instance of ``cls`` with a drawn subset of its fields set to
    drawn values (typed fields recursively), the rest at defaults."""
    obj = cls()
    for field in cls._field_index().values():
        if draw(st.booleans()):
            setattr(obj, field.py_name, draw(_field_values(field, depth)))
    return obj


any_registered = st.sampled_from(REGISTERED_TYPES).flatmap(instances)


def _nodes(value, out):
    """Every typed node, dict and list reachable from ``value``."""
    if isinstance(value, Serializable):
        out.append(value)
        for name in type(value)._field_index():
            _nodes(getattr(value, name), out)
    elif isinstance(value, dict):
        out.append(value)
        for item in value.values():
            _nodes(item, out)
    elif isinstance(value, list):
        out.append(value)
        for item in value:
            _nodes(item, out)
    return out


def _ids(value):
    return {id(node) for node in _nodes(value, [])}


_DICT_MUTATIONS = (
    lambda d: d.__setitem__("k", 1), lambda d: d.update(k=1),
    lambda d: d.pop("k", None), lambda d: d.setdefault("k", 1),
    lambda d: d.clear(), lambda d: d.__delitem__("k"), lambda d: d.popitem())
_LIST_MUTATIONS = (
    lambda l: l.append(1), lambda l: l.extend([1]), lambda l: l.insert(0, 1),
    lambda l: l.pop(), lambda l: l.remove(1), lambda l: l.clear(),
    lambda l: l.sort(), lambda l: l.reverse(),
    lambda l: l.__setitem__(0, 1), lambda l: l.__iadd__([1]))


def _draw_mutation(data, node):
    if isinstance(node, Serializable):
        name = data.draw(st.sampled_from(sorted(type(node)._field_index())))
        if data.draw(st.booleans()):
            return lambda: setattr(node, name, None)
        return lambda: delattr(node, name)
    table = _DICT_MUTATIONS if isinstance(node, dict) else _LIST_MUTATIONS
    mutate = data.draw(st.sampled_from(table))
    return lambda: mutate(node)


@given(any_registered, st.data())
@settings(max_examples=150, deadline=None)
def test_frozen_objects_raise_on_any_mutation(obj, data):
    before = obj.to_dict()
    assert freeze(obj) is obj
    nodes = _nodes(obj, [])
    node = nodes[data.draw(st.integers(0, len(nodes) - 1))]
    with pytest.raises(FrozenError):
        _draw_mutation(data, node)()
    assert obj.to_dict() == before


@given(any_registered, st.data())
@settings(max_examples=150, deadline=None)
def test_replace_is_shallow_copy_on_write(obj, data):
    other = data.draw(instances(type(obj)))
    fields = sorted(type(obj)._field_index())
    changes = {name: getattr(other, name)
               for name in data.draw(st.sets(st.sampled_from(fields)))}
    if data.draw(st.booleans()):
        freeze(obj)
    before = obj.to_dict()
    replaced = obj.replace(**changes)
    assert type(replaced) is type(obj) and replaced is not obj
    assert obj.to_dict() == before
    for name in fields:     # new shell, same children
        expected = changes[name] if name in changes else getattr(obj, name)
        assert getattr(replaced, name) is expected
    reference = obj.copy()
    for name, value in changes.items():
        setattr(reference, name, value)
    assert replaced.to_dict() == reference.to_dict()
    replaced.metadata = None    # the shell itself is never frozen
    with pytest.raises(TypeError):
        obj.replace(no_such_field=1)


def _assert_private_and_mutable(clone, source):
    """``clone`` shares no typed node, dict or list with ``source`` (nor
    the shared empties), and every one of them takes a mutation."""
    shared = _ids(source) | {id(EMPTY_LIST), id(EMPTY_DICT)}
    assert not _ids(clone) & shared
    for node in _nodes(clone, []):
        if isinstance(node, Serializable):
            for name in type(node)._field_index():
                setattr(node, name, getattr(node, name))
        elif isinstance(node, dict):
            node["probe"] = 1
        else:
            node.append(None)


@given(any_registered)
@settings(max_examples=150, deadline=None)
def test_copy_of_frozen_object_is_private_and_mutable(obj):
    freeze(obj)
    clone = obj.copy()
    assert clone.to_dict() == obj.to_dict()
    _assert_private_and_mutable(clone, obj)


_THAWED = {FrozenList: list, FrozenDict: dict}


def _shape(value):
    """The type of every node and leaf reachable from ``value`` (a frozen
    container counted as the plain one it stands for)."""
    kind = _THAWED.get(type(value), type(value))
    if isinstance(value, Serializable):
        return kind, tuple((name, _shape(getattr(value, name)))
                           for name in type(value)._field_index())
    if isinstance(value, dict):
        return kind, tuple((key, _shape(item)) for key, item in value.items())
    if isinstance(value, list):
        return kind, tuple(_shape(item) for item in value)
    return kind


def _assert_copy_is_wire_round_trip(obj):
    before = obj.to_dict()
    clone = obj.copy()
    reference = type(obj).from_dict(before)
    assert type(clone) is type(obj)
    assert clone.to_dict() == reference.to_dict()
    assert _shape(clone) == _shape(reference)
    assert obj.to_dict() == before
    _assert_private_and_mutable(clone, obj)


@given(any_registered, st.data())
@settings(max_examples=200, deadline=None)
def test_copy_is_the_wire_round_trip(obj, data):
    """The generated direct ``copy()`` returns what
    ``from_dict(to_dict())`` returns, field for field and type for type
    — whatever is None, cleared, shared, decoded or frozen in the
    source — but always as a private, mutable object."""
    for node in _nodes(obj, []):
        if isinstance(node, Serializable):
            fields = sorted(type(node)._field_index())
            for name in data.draw(st.sets(st.sampled_from(fields),
                                          max_size=2)):
                setattr(node, name, None)
    if data.draw(st.booleans()):
        obj = type(obj).from_dict(obj.to_dict())    # holds shared empties
    if data.draw(st.booleans()):
        freeze(obj)
    _assert_copy_is_wire_round_trip(obj)


def _cleared_finalizers():
    namespace = Namespace()
    namespace.spec.finalizers = []
    return namespace


def _untyped_payloads():
    pod = make_pod("p", cpu="100m")
    pod.spec.containers[0].liveness_probe = {"httpGet": {"port": [8080]}}
    pod.spec.containers[0].args = [{"nested": ["x"]}, "y", None]
    pod.metadata.annotations = {"a": "b"}
    return pod


def _none_over_defaults():
    pod = make_pod("p", cpu="100m")
    pod.spec.service_account_name = None
    pod.spec.tolerations = None
    pod.status = None
    pod.spec.containers[0].ports = [ContainerPort(protocol=None), None]
    pod.spec.containers[0].resources = None
    return pod


def _quantity_maps():
    node = make_node("n1", cpu="96", memory="328Gi")
    node.status.capacity["ephemeral"] = "10Gi"     # a string, not a Quantity
    return node


def _stand_ins():
    pod = make_pod("p")
    pod.spec.containers.append({"name": "raw", "image": "img"})
    return pod


@pytest.mark.parametrize("build", [
    _cleared_finalizers, _untyped_payloads, _none_over_defaults,
    _quantity_maps, _stand_ins, lambda: Container(name="c"),
    lambda: Pod.from_dict(make_pod("p").to_dict()),
], ids=["cleared-finalizers", "untyped-payloads", "none-over-defaults",
        "quantity-maps", "dict-for-typed-child", "constructed", "decoded"])
def test_copy_is_the_wire_round_trip_on_edge_cases(build):
    _assert_copy_is_wire_round_trip(build())
    _assert_copy_is_wire_round_trip(freeze(build()))


@given(any_registered, st.booleans())
@settings(max_examples=150, deadline=None)
def test_to_dict_shares_no_container_with_the_object(obj, frozen):
    if frozen:
        freeze(obj)
    wire = obj.to_dict()
    assert not _ids(wire) & _ids(obj)
    assert all(type(node) in (dict, list) for node in _nodes(wire, []))
    stored = freeze(wire)       # what the store holds under the guard
    decoded = type(obj).from_dict(stored)
    assert not _ids(decoded) & _ids(stored)
    assert decoded.to_dict() == wire


# ----------------------------------------------------------------------
# Typed values read in wire terms: the memoized char count is the length
# of the encoding, a typed comparison agrees with comparing encodings,
# and a wire path read off a typed object gives what its encoding holds
# there — for derived objects of every registered type, whose children
# (and their counts) are shared with their base.
# ----------------------------------------------------------------------


def _derive(data, base, depth=0):
    """A ``replace()`` of ``base`` (children it keeps are shared) with
    some fields drawn afresh and some typed children derived in turn."""
    changes = {}
    for name, field in type(base)._field_index().items():
        choice = data.draw(st.integers(0, 3))
        child = getattr(base, name)
        if choice == 1:
            changes[name] = data.draw(_field_values(field, depth + 1))
        elif choice == 2 and isinstance(child, Serializable) and depth < 3:
            changes[name] = _derive(data, child, depth + 1)
        elif choice == 3:
            changes[name] = None
    return base.replace(**changes)


def _wire_paths(wire, prefix=""):
    """Every dotted path into ``wire``'s nested dicts, plus one absent."""
    yield f"{prefix}absent"
    for key, value in wire.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _wire_paths(value, f"{prefix}{key}.")


@given(any_registered, st.data())
@settings(max_examples=200, deadline=None)
def test_typed_reads_match_the_encoding(obj, data):
    cls = type(obj)
    base = cls.from_dict(obj.to_dict()) if data.draw(st.booleans()) else obj
    if data.draw(st.booleans()):
        freeze(base)
    assert base.wire_chars() == len(str(base.to_dict()))
    derived = _derive(data, base)
    wire, derived_wire = base.to_dict(), derived.to_dict()
    assert derived.wire_chars() == len(str(derived_wire))
    assert fields_equal(base, derived) == (wire == derived_wire)
    assert wire_equal(base, derived) == (wire == derived_wire)
    ignore = data.draw(st.sets(st.sampled_from(sorted(
        field.json_name for field in cls._field_index().values()))))
    assert fields_equal(base, derived, ignore) == (
        {key: value for key, value in wire.items() if key not in ignore}
        == {key: value for key, value in derived_wire.items()
            if key not in ignore})
    for path in _wire_paths(derived_wire):
        assert get_field(derived, path) == get_field(derived_wire, path), \
            path


def _check_record(api, record, deleted=False):
    """The record's snapshot is the full decode of its wire dict,
    stamped with its revision, type for type."""
    snapshot = (api._deleted if deleted else api._decode)(Pod, record)
    full = Pod.from_dict(stored_wire(record.value))
    full.metadata.resource_version = str(record.mod_revision)
    assert repr(snapshot.to_dict()) == repr(full.to_dict())
    assert _shape(snapshot) == _shape(full)


_WRITES = ("status", "bind", "label", "finalize", "unfinalize", "noop",
           "delete")


@given(pods(), st.lists(st.sampled_from(_WRITES), min_size=1, max_size=10))
@settings(max_examples=80, deadline=None)
def test_write_chains_store_what_full_serde_stores(pod, writes):
    """Status, bind, label, finalizer and delete writes through the
    apiserver: every stored value is byte for byte ``to_dict()`` of the
    object written, and every snapshot — a DELETE event's included — is
    the full decode of its value."""
    from repro.apiserver import ADMIN, APIServer
    from repro.simkernel import Simulation

    sim = Simulation()
    api = APIServer(sim, "chains")

    def run(coroutine):
        return sim.run(until=sim.process(coroutine))

    namespace, name = pod.metadata.namespace, pod.metadata.name
    run(api.create(ADMIN, make_namespace(namespace)))
    key = f"/registry/pods/{namespace}/{name}"
    events = api.store.watch("/registry/pods/").channel
    run(api.create(ADMIN, pod))
    for index, write in enumerate(writes):
        current = api.reader.read("pods", namespace, name)
        meta = current.metadata
        subresource = None
        if write == "status":
            obj = current.replace(status=current.status.replace(
                phase="Running", pod_ip=f"10.0.0.{index}"))
            subresource = "status"
        elif write == "bind":
            if current.spec.node_name:
                continue
            obj = current.replace(spec=current.spec.replace(node_name="n1"))
        elif write == "label":
            obj = current.replace(metadata=meta.replace(
                labels={**meta.labels, "write": str(index)}))
        elif write == "finalize":
            obj = current.replace(metadata=meta.replace(
                finalizers=[*meta.finalizers, f"f{index}"]))
        elif write == "unfinalize":
            obj = current.replace(metadata=meta.replace(
                finalizers=meta.finalizers[1:]))
        elif write == "noop":
            obj = current
        else:
            run(api.delete(ADMIN, "pods", name, namespace=namespace))
            if api.store.try_get_stored(key) is None:
                break
            continue
        written = run(api.update(ADMIN, obj, subresource=subresource))
        record = api.store.try_get_stored(key)
        if record is None:      # the last finalizer went: deleted
            break
        expected = written.replace(metadata=written.metadata.replace(
            resource_version=None)).to_dict()
        assert record.value is written
        assert json.dumps(stored_wire(record.value)) == json.dumps(expected)
        _check_record(api, record)
    while len(events):
        event = events.get().value
        _check_record(api, event.stored, deleted=event.type == "DELETE")
