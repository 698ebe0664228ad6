"""Tier-1 guard: per-Pod work on the super cluster must not grow with
the number of nodes (and so of ``spec.nodeName`` watchers), nor with the
number of readers of an object.

Exact counts only — no clock is read — so a reintroduced O(nodes) loop
in watch fan-out or in the scheduler's resource arithmetic, or a
per-reader decode or copy on the object plane, fails here on any
machine, however loaded.
"""

import gc
import sys

import pytest

from repro.core import VirtualClusterEnv
from repro.objects import Pod, Quantity, make_namespace, make_pod
from repro.objects.base import (
    EMPTY_DICT,
    EMPTY_LIST,
    fast_deep_copy,
    set_freeze_guard,
)
from repro.simkernel import Simulation
from repro.storage import EtcdStore
from tests.conftest import api_types

PODS = 30


def _submit_and_wait(env, admin):
    """Create PODS Pods in namespace ``load`` straight in the super
    cluster and run until the syncer's cache shows them all Ready."""
    pods = env.syncer.super_informer("pods").cache

    def submit():
        for index in range(PODS):
            yield from admin.create(make_pod(
                f"p{index:02d}", namespace="load", cpu="100m",
                memory="64Mi"))

    def all_ready():
        return sum(1 for pod in pods.items()
                   if pod.metadata.namespace == "load"
                   and pod.status.is_ready) == PODS

    env.run_coroutine(submit())
    assert env.run_until(all_ready, timeout=60.0)


def _drive(nodes):
    """The same direct-to-super load against ``nodes`` virtual kubelets;
    returns the counts accumulated while the Pods were in flight."""
    env = VirtualClusterEnv(seed=11, num_virtual_nodes=nodes)
    env.bootstrap()
    admin = env.super_admin_client()
    env.run_coroutine(admin.create(make_namespace("load")))
    env.run_for(1.0)
    store = env.super_cluster.api.store
    scheduler = env.super_cluster.scheduler
    before = dict(store.stats(), cycles=scheduler.cycles,
                  filters=scheduler.filter_evaluations,
                  ready=env.sim.kernel_stats()["ready_at_yield"])
    parses = []
    original = Quantity.parse.__func__

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Quantity, "parse", classmethod(
            lambda cls, text: parses.append(1) or original(cls, text)))
        _submit_and_wait(env, admin)
    after = store.stats()
    assert scheduler.scheduled_count >= PODS
    return {
        "watch_evals": after["watch_evals"] - before["watch_evals"],
        "watch_deliveries": (after["watch_deliveries"]
                             - before["watch_deliveries"]),
        "parses": len(parses),
        "cycles": scheduler.cycles - before["cycles"],
        "filters": scheduler.filter_evaluations - before["filters"],
        "ready_at_yield": (env.sim.kernel_stats()["ready_at_yield"]
                           - before["ready"]),
    }


@pytest.fixture(scope="module")
def counts():
    return {nodes: _drive(nodes) for nodes in (10, 40)}


def test_watch_fanout_asks_only_likely_takers(counts):
    for nodes, count in counts.items():
        assert count["watch_deliveries"] > 0
        assert count["watch_evals"] <= 2 * count["watch_deliveries"], nodes


def test_watch_work_is_independent_of_node_count(counts):
    """40 kubelets each watching ``spec.nodeName`` cost a write no more
    than 10 do: each event still has one kubelet to go to."""
    assert counts[10]["watch_evals"] == counts[40]["watch_evals"]
    assert counts[10]["watch_deliveries"] == counts[40]["watch_deliveries"]


def test_quantity_parsing_is_independent_of_node_count(counts):
    assert counts[10]["cycles"] == counts[40]["cycles"] == PODS
    # What remains is one total_requests() per cycle and per assignment
    # (serde decodes wire strings through from_serialized's intern table).
    assert counts[10]["parses"] == counts[40]["parses"] > 0


def test_healthy_nodes_cost_one_filter_evaluation_each(counts):
    for nodes, count in counts.items():
        assert count["filters"] == nodes * PODS


# A result that was ready when asked for (an uncontended acquire, a get
# from a non-empty queue) is resolved and resumes its process inline; a
# plain event yielded after it triggered still costs a zero-delay
# dispatch.  12.4 such dispatches per Pod on a 1,000-Pod tenant run
# before the primitives returned resolved results; 0 after.
READY_AT_YIELD_PER_POD_BOUND = 0.1


def test_ready_results_cost_no_dispatch(counts):
    """Direct to the super cluster and through a tenant and the syncer,
    almost no yield waits for a result that was already there."""
    env, tenant = _tenant_env()
    before = env.sim.kernel_stats()["ready_at_yield"]
    _sync_tenant_pods(env, tenant)
    runs = {"tenant": env.sim.kernel_stats()["ready_at_yield"] - before}
    runs.update((f"super-{nodes}", count["ready_at_yield"])
                for nodes, count in counts.items())
    for run, ready in runs.items():
        assert ready <= READY_AT_YIELD_PER_POD_BOUND * PODS, (run, ready)


# ----------------------------------------------------------------------
# Object plane: one decode per revision however many readers there are,
# no copy in the store, and few deep copies per synced Pod.
# ----------------------------------------------------------------------


def _drive_watchers(extra):
    """The direct-to-super load with ``extra`` more Pod watch streams
    open and consumed; returns decode counts for the time in flight."""
    env = VirtualClusterEnv(seed=11, num_virtual_nodes=10)
    env.bootstrap()
    admin = env.super_admin_client()
    env.run_coroutine(admin.create(make_namespace("load")))
    api = env.super_cluster.api
    seen = [[] for _ in range(extra)]

    def consume(stream, into):
        while True:
            _kind, pod = yield from stream.next()
            into.append(pod)

    for into in seen:
        env.sim.spawn(consume(admin.watch("pods", namespace="load"), into),
                      name="extra-watcher")
    env.run_for(1.0)
    decoded = []
    original = Pod.from_dict.__func__

    before = api.decodes
    # Counted with the guard off, as a production run is: under it a
    # create also checks its object against a decode of its encoding.
    was_on = set_freeze_guard(False)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Pod, "from_dict", classmethod(
                lambda cls, data: decoded.append(1) or original(cls, data)))
            _submit_and_wait(env, admin)
            env.run_for(1.0)    # let every stream drain
    finally:
        set_freeze_guard(was_on)
    return {"from_dict": len(decoded), "decodes": api.decodes - before,
            "seen": seen, "cache": env.syncer.super_informer("pods").cache}


@pytest.fixture(scope="module")
def watcher_counts():
    return {extra: _drive_watchers(extra) for extra in (1, 4)}


def test_decodes_are_independent_of_watcher_count(watcher_counts):
    """Five Pod watchers cost no more decodes than two — none: the store
    holds the snapshot each write made, and every stream, informer cache
    and ``get`` shares it."""
    one, four = watcher_counts[1], watcher_counts[4]
    assert one["decodes"] == four["decodes"] == 0
    assert one["from_dict"] == four["from_dict"] == 0
    streams = four["seen"]
    assert all(len(stream) == len(streams[0]) > PODS for stream in streams)
    for events in zip(*streams):        # the same object on every stream
        assert all(pod is events[0] for pod in events)
    last = {pod.key: pod for pod in streams[0]}
    for key, pod in last.items():       # ... and in the informer cache
        assert four["cache"].get(key) is pod


def test_store_never_deep_copies():
    """create/update/get/list/watch/snapshot/restore hand the one dict
    around: ``fast_deep_copy`` is never entered from the storage layer."""
    store = EtcdStore(Simulation(), name="no-copies")
    entered = []
    target = fast_deep_copy.__code__

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code is target:
            entered.append(frame.f_back.f_globals["__name__"])

    sys.setprofile(profile)
    try:
        watch = store.watch("/registry/pods/")
        wire = make_pod("p", cpu="100m").to_dict()
        for index in range(3):
            store.create(f"/registry/pods/ns/p{index}", wire)
        store.update("/registry/pods/ns/p0", wire)
        store.get("/registry/pods/ns/p0")
        store.try_get("/registry/pods/ns/p1")
        store.list_prefix("/registry/pods/")
        store.delete("/registry/pods/ns/p2")
        store.watch("/registry/pods/", from_revision=2)
        snapshot = store.snapshot()
        store.restore(snapshot)
        assert len(watch.channel) == 5
    finally:
        sys.setprofile(None)
    # The serde's own thaw of a frozen wire is not the store's.
    assert [name for name in entered
            if name.startswith("repro.storage")] == []


def test_create_neither_copies_nor_decodes(copy_calls):
    """A create stores a shell of the caller's object, with a metadata
    shell of its own, and returns that snapshot: no ``copy()``, no
    ``from_dict``, and the caller's metadata is left as it was."""
    from repro.apiserver import ADMIN, APIServer

    sim = Simulation()
    api = APIServer(sim, "api")

    def run(coroutine):
        return sim.run(until=sim.process(coroutine))

    run(api.create(ADMIN, make_namespace("default")))
    decoded = []
    original = Pod.from_dict.__func__
    pod = make_pod("p", cpu="100m")
    del copy_calls[:]
    was_on = set_freeze_guard(False)    # as above
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Pod, "from_dict", classmethod(
                lambda cls, data: decoded.append(1) or original(cls, data)))
            created = run(api.create(ADMIN, pod))
            got = run(api.get(ADMIN, "pods", "p", namespace="default"))
    finally:
        set_freeze_guard(was_on)
    assert copy_calls == [] and decoded == []
    record = api.store.get_stored("/registry/pods/default/p")
    assert got is created is record.value
    assert created.metadata.resource_version == str(record.mod_revision)
    assert created.spec is pod.spec and created.metadata is not pod.metadata
    assert pod.metadata.uid is None and pod.metadata.resource_version is None


def test_written_records_hold_no_wire_dict():
    """After a tenant's Pods are synced, no record in the super or the
    tenant store holds a dict: each revision is kept once, typed."""
    env, tenant = _tenant_env()
    _sync_tenant_pods(env, tenant)
    stores = (env.super_cluster.api.store, tenant.control_plane.api.store)
    values = [stored.value for store in stores
              for stored in store._data.values()]
    assert len(values) > 2 * PODS
    assert not [value for value in values if isinstance(value, dict)]


def test_deep_copies_per_synced_pod_stay_small(copy_calls):
    """A Pod synced through one tenant (create, downward, schedule,
    bind, ack, upward) costs at most 10 top-level ``copy()`` calls, all
    layers and API types."""
    env, tenant = _tenant_env()
    del copy_calls[:]
    _sync_tenant_pods(env, tenant)
    assert 0 < len(copy_calls) <= 10 * PODS, len(copy_calls) / PODS


# ----------------------------------------------------------------------
# Lean objects: slotted types, one shared empty per absent collection,
# and what a synced Pod leaves on the heap.
# ----------------------------------------------------------------------

# GC-tracked objects a synced Pod leaves live (decoded snapshots,
# caches, live store records) in the tenant run below, with the freeze
# guard on: 322.8 per Pod with a materialized ``__dict__`` per API
# object and a fresh list per absent list field of every decode; 167.5
# with slotted types and shared empties; 165.7 → 106.5 once the store
# stopped keeping every superseded revision in its watch history; 83.6
# → 64.1 once each revision was kept once, as the typed snapshot, with
# no wire dict beside it (bound: that plus ~15 %).  Any one regression
# alone crosses it: instance dicts cost +37, an empty list per absent
# field +113, the kept history +59 and a kept wire dict +14 objects per
# Pod.
RETAINED_PER_POD_BOUND = 74


def _tenant_env():
    env = VirtualClusterEnv(seed=11, num_virtual_nodes=4)
    env.bootstrap()
    tenant = env.run_coroutine(env.create_tenant("solo"))
    env.run_for(1.0)
    return env, tenant


def _sync_tenant_pods(env, tenant):
    for index in range(PODS):
        env.run_coroutine(tenant.create_pod(f"p{index:02d}"))
    env.run_until_pods_ready(
        tenant, [f"default/p{index:02d}" for index in range(PODS)],
        timeout=120.0)


def test_no_api_object_has_an_instance_dict():
    for cls in api_types():
        assert not hasattr(cls(), "__dict__"), cls.__name__


def test_decoded_absent_collections_are_the_shared_empties():
    pod = Pod.from_dict(make_pod("p", cpu="100m").to_dict())
    container = pod.spec.containers[0]
    assert pod.metadata.labels is EMPTY_DICT
    assert pod.metadata.finalizers is EMPTY_LIST
    assert pod.spec.tolerations is EMPTY_LIST
    assert pod.spec.volumes is EMPTY_LIST
    assert pod.spec.node_selector is EMPTY_DICT
    assert container.command is EMPTY_LIST
    assert container.env is EMPTY_LIST
    assert container.ports is EMPTY_LIST
    assert container.resources.limits is EMPTY_DICT
    assert pod.status.conditions is EMPTY_LIST
    assert EMPTY_LIST == [] and EMPTY_DICT == {}


def _tracked_objects():
    # Twice: the first pass over an earlier test's dead deployment only
    # finalizes its suspended generators; the second frees the cycle.
    gc.collect()
    gc.collect()
    return len(gc.get_objects())


def test_retained_objects_per_synced_pod_stay_bounded():
    env, tenant = _tenant_env()
    before = _tracked_objects()
    _sync_tenant_pods(env, tenant)
    retained = (_tracked_objects() - before) / PODS
    assert 0 < retained <= RETAINED_PER_POD_BOUND, retained


def test_store_history_keeps_no_earlier_instant():
    """Once the Pods are synced and no list is in flight, the super
    store's watch history holds only events of the latest write's
    instant: superseded revisions do not accumulate with writes."""
    env, tenant = _tenant_env()
    store = env.super_cluster.api.store
    written_at = {}

    class Clock:
        closed = False

        def try_put(self, event):
            written_at[event.revision] = env.sim.now

        def close(self):
            self.closed = True

    store.watch("/", channel_factory=Clock)
    _sync_tenant_pods(env, tenant)
    assert store.stats()["holds"] == 0
    latest = written_at[store.revision]
    assert store._history
    assert {written_at[event.revision] for event in store._history} == {
        latest}
    assert store.stats()["compacted_revision"] == min(
        revision for revision, at in written_at.items() if at == latest) - 1


# ----------------------------------------------------------------------
# Structural sharing: a status write encodes no spec, no write decodes
# a Pod's spec, and the memory meter sizes a snapshot without encoding
# it.  Counted with the freeze guard off, as a production run is: under
# the guard the meter is also checked against the encode, which calls it.
# ----------------------------------------------------------------------


def _drive_serde():
    """The direct-to-super load; returns serde counts for the time the
    Pods were in flight."""
    from repro.apiserver.server import APIServer
    from repro.clientgo import cache as cache_module
    from repro.objects import PodSpec

    env = VirtualClusterEnv(seed=11, num_virtual_nodes=10)
    env.bootstrap()
    admin = env.super_admin_client()
    env.run_coroutine(admin.create(make_namespace("load")))
    env.run_for(1.0)
    counts = dict.fromkeys(("status_writes", "status_spec_encodes",
                            "full_updates", "full_update_spec_encodes",
                            "spec_decodes", "meter_calls",
                            "meter_snapshots", "meter_encodes"), 0)
    inside = set()

    def tracking(name, original):
        def wrapper(*args, **kwargs):
            inside.add(name)
            try:
                return original(*args, **kwargs)
            finally:
                inside.discard(name)
        return wrapper

    update_core = APIServer._update_core
    wire_chars = cache_module.wire_chars
    to_dict = {cls: cls.to_dict for cls in (Pod, PodSpec)}
    spec_from_dict = PodSpec.from_dict.__func__

    def counting_update_core(self, credential, obj, subresource=None):
        if subresource == "status" and isinstance(obj, Pod):
            counts["status_writes"] += 1
            return tracking("status", update_core)(
                self, credential, obj, subresource=subresource)
        if isinstance(obj, Pod):
            counts["full_updates"] += 1
            return tracking("full", update_core)(
                self, credential, obj, subresource=subresource)
        return update_core(self, credential, obj, subresource=subresource)

    def counting_wire_chars(obj):
        if isinstance(obj, Pod):
            counts["meter_calls"] += 1
            # An apiserver snapshot carries its revision.
            counts["meter_snapshots"] += (
                obj.metadata.resource_version is not None)
        return tracking("meter", wire_chars)(obj)

    def counting_to_dict(cls):
        def wrapper(self):
            if cls is PodSpec and "status" in inside:
                counts["status_spec_encodes"] += 1
            if cls is PodSpec and "full" in inside:
                counts["full_update_spec_encodes"] += 1
            if cls is Pod and "meter" in inside:
                counts["meter_encodes"] += 1
            return to_dict[cls](self)
        return wrapper

    def counting_spec_from_dict(cls, data):
        counts["spec_decodes"] += 1
        return spec_from_dict(cls, data)

    was_on = set_freeze_guard(False)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(APIServer, "_update_core", counting_update_core)
            patch.setattr(cache_module, "wire_chars", counting_wire_chars)
            for cls in to_dict:
                patch.setattr(cls, "to_dict", counting_to_dict(cls))
            patch.setattr(PodSpec, "from_dict",
                          classmethod(counting_spec_from_dict))
            _submit_and_wait(env, admin)
    finally:
        set_freeze_guard(was_on)
    return counts


@pytest.fixture(scope="module")
def serde_counts():
    return _drive_serde()


def test_status_writes_encode_no_spec(serde_counts):
    assert serde_counts["status_writes"] >= PODS
    assert serde_counts["status_spec_encodes"] == 0


def test_full_updates_encode_the_new_spec_once(serde_counts):
    """A bind (a full Pod update) encodes no spec at all: the generation
    bump and update validation compare typed specs.  One encode per
    update when they compared wire forms, two before they shared it."""
    assert serde_counts["full_updates"] >= PODS
    assert serde_counts["full_update_spec_encodes"] == 0


def test_pod_spec_decoded_once_per_pod_per_store(serde_counts):
    """Create, bind and status revisions of a Pod share the spec the
    creator wrote: no revision decodes one (one per Pod per store when
    the store held wire dicts)."""
    assert serde_counts["spec_decodes"] == 0


def test_meter_sizes_snapshots_without_encoding(serde_counts):
    assert serde_counts["meter_snapshots"] == serde_counts["meter_calls"] > 0
    assert serde_counts["meter_encodes"] == 0
