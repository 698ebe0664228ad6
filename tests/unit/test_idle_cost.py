"""Tier-1 guard: an idle tenant control plane costs nothing.

Exact counts only — no clock is read — so a poll reintroduced into a
tenant's controllers, or a memory meter that goes back to re-summing
every cache, fails here on any machine, however loaded.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clientgo import InformerFactory
from repro.clientgo.cache import estimate_object_bytes
from repro.clientgo.reflector import ADDED, DELETED, MODIFIED
from repro.config import DEFAULT_CONFIG
from repro.core import TenantControlPlane
from repro.objects import make_pod
from repro.simkernel import Simulation

IDLE_SIM_S = 60.0


def test_idle_tenant_control_plane_dispatches_no_event():
    """Every controller of a synced, idle tenant control plane waits on
    an event; none wakes on a timer (the garbage collector used to scan
    every 0.5 sim-s: 120 dispatches here)."""
    sim = Simulation()
    plane = TenantControlPlane(sim, "idle", DEFAULT_CONFIG)
    plane.start()
    factory = plane.controller_manager.informer_factory
    sim.run(until=sim.process(factory.wait_for_sync()))
    assert len(factory.informers) > 1
    before = sim.kernel_stats()["dispatched"]
    sim.run(until=sim.now + IDLE_SIM_S)
    assert sim.kernel_stats()["dispatched"] - before == 0
    plane.stop()


# ----------------------------------------------------------------------
# The running byte total an informer factory keeps for memory meters.
# ----------------------------------------------------------------------

SIZE_FACTOR, SIZE_OVERHEAD = 3.0, 100
INFORMERS = [("pods", None), ("pods", {"spec.nodeName": "n1"}),
             ("configmaps", None)]
NAMES = [f"obj-{index}" for index in range(5)]

obj_st = st.builds(
    lambda name, labels: make_pod(name, namespace="ns-a", labels=labels),
    st.sampled_from(NAMES),
    st.dictionaries(st.sampled_from(["app", "tier"]),
                    st.text("abcdef", max_size=12), max_size=2))
informer_st = st.integers(0, len(INFORMERS) - 1)
operation_st = st.one_of(
    st.tuples(st.sampled_from(["added", "modified", "deleted", "upsert"]),
              informer_st, obj_st),
    st.tuples(st.just("cache_delete"), informer_st,
              st.sampled_from([f"ns-a/{name}" for name in NAMES])),
    st.tuples(st.sampled_from(["relist", "replace"]), informer_st,
              st.lists(obj_st, max_size=5)),
)


def _apply(informer, op, arg):
    cache = informer.cache
    if op == "added":
        informer.on_event(ADDED, arg)
    elif op == "modified":
        informer.on_event(MODIFIED, arg)
    elif op == "deleted":
        informer.on_event(DELETED, arg)
    elif op == "upsert":
        cache.upsert(arg)
    elif op == "cache_delete":
        cache.delete(arg)
    else:
        # A relist keeps the last object per key.
        objs = list({obj.key: obj for obj in arg}.values())
        if op == "relist":
            informer.on_replace(objs)
        else:
            cache.replace(objs)


@given(st.lists(operation_st, max_size=40))
@settings(max_examples=150, deadline=None)
def test_factory_byte_total_is_the_sum_of_its_caches(operations):
    sim = Simulation()
    factory = InformerFactory(sim, None, size_factor=SIZE_FACTOR,
                              size_overhead=SIZE_OVERHEAD)
    informers = [factory.informer(plural, field_selector=selector)
                 for plural, selector in INFORMERS]
    for op, index, arg in operations:
        _apply(informers[index], op, arg)
        assert factory.total_cache_bytes == sum(
            informer.cache.total_bytes for informer in informers)
    for informer in informers:
        assert informer.cache.total_bytes == sum(
            estimate_object_bytes(obj, SIZE_FACTOR, SIZE_OVERHEAD)
            for obj in informer.cache.items())
