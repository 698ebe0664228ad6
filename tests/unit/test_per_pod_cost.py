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
from repro.objects.base import EMPTY_DICT, EMPTY_LIST, fast_deep_copy
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
                  filters=scheduler.filter_evaluations)
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
    # What remains is serde (two requests per Pod decode) and one
    # total_requests() per cycle and per assignment.
    assert counts[10]["parses"] == counts[40]["parses"] > 0


def test_healthy_nodes_cost_one_filter_evaluation_each(counts):
    for nodes, count in counts.items():
        assert count["filters"] == nodes * PODS


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
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Pod, "from_dict", classmethod(
            lambda cls, data: decoded.append(1) or original(cls, data)))
        _submit_and_wait(env, admin)
        env.run_for(1.0)    # let every stream drain
    return {"from_dict": len(decoded), "decodes": api.decodes - before,
            "seen": seen, "cache": env.syncer.super_informer("pods").cache}


@pytest.fixture(scope="module")
def watcher_counts():
    return {extra: _drive_watchers(extra) for extra in (1, 4)}


def test_decodes_are_independent_of_watcher_count(watcher_counts):
    """Five Pod watchers cost no more decodes than two: every stream,
    informer cache and ``get`` shares one snapshot per revision."""
    one, four = watcher_counts[1], watcher_counts[4]
    assert one["decodes"] == four["decodes"] > 0
    assert one["from_dict"] == four["from_dict"] > 0
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
        replay = store.events_since(2)
        snapshot = store.snapshot()
        store.dump()
        store.restore(snapshot, replay=replay)
        assert len(watch.channel) == 5
    finally:
        sys.setprofile(None)
    # The serde's own thaw of a frozen wire is not the store's.
    assert [name for name in entered
            if name.startswith("repro.storage")] == []


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

# GC-tracked objects a synced Pod leaves live (store history, decoded
# snapshots, caches, watch events) in the tenant run below, with the
# freeze guard on: 322.8 per Pod with a materialized ``__dict__`` per
# API object and a fresh list per absent list field of every decode;
# 167.5 with slotted types and shared empties (168.4 when the types'
# ``copy()`` is first compiled inside the run).  Either one coming back
# alone crosses the bound: 204.5 with materialized instance dicts,
# 280.8 with an empty list per absent field.
RETAINED_PER_POD_BOUND = 185


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
