"""Regression: vNode heartbeat broadcast is O(distinct nodes) in cache reads.

The heartbeat loop writes the physical node's conditions into every
tenant's matching vNode each tick.  It used to do one deep-copying
super-node cache lookup per (tenant, node) pair — O(nodes x tenants)
per tick even though every tenant sharing a node needs the *same*
conditions.  The loop reads one shared snapshot per distinct node per
tick and copies nothing; this test pins both so neither the quadratic
lookups nor the copies can quietly come back.
"""

import sys

import pytest

from repro.core import VirtualClusterEnv


@pytest.fixture(scope="module")
def env():
    env = VirtualClusterEnv(num_virtual_nodes=2, scan_interval=600.0)
    env.bootstrap()
    tenants = [env.run_coroutine(env.create_tenant(f"hb-{i}"))
               for i in range(3)]
    keys = [f"default/pod-{i}" for i in range(4)]
    for tenant in tenants:
        for index in range(4):
            env.run_coroutine(tenant.create_pod(f"pod-{index}"))
    for tenant in tenants:
        env.run_until_pods_ready(tenant, keys, timeout=120.0)
    return env


def test_heartbeat_lookups_scale_with_distinct_nodes(env, copy_calls):
    vnodes = env.syncer.vnodes
    bindings = vnodes._bindings
    pairs = sum(len(nodes) for nodes in bindings.values())
    distinct = len({node for nodes in bindings.values() for node in nodes})
    # The regression only shows when tenants share physical nodes.
    assert pairs > distinct, "setup must bind multiple tenants per node"

    node_cache = env.syncer.super_informer("nodes").cache
    # Count the broadcast loop's lookups only: ``get`` is also hit by the
    # reflector delivering the physical nodes' own heartbeat events,
    # which is unrelated to the loop under test.
    counts = {"lookups": 0}
    real_get = node_cache.get

    def from_broadcast_loop(frame):
        return (frame.f_code.co_name == "_heartbeat_loop"
                and frame.f_globals["__name__"] == "repro.core.syncer.vnode")

    def counting_get(key):
        if from_broadcast_loop(sys._getframe(1)):
            counts["lookups"] += 1
        return real_get(key)

    node_cache.get = counting_get
    try:
        sent_before = vnodes.heartbeats_sent
        env.run_for(vnodes.heartbeat_interval * 5)
    finally:
        del node_cache.get
    ticks, remainder = divmod(vnodes.heartbeats_sent - sent_before, pairs)
    assert ticks >= 4
    assert remainder == 0, "every tick heartbeats every (tenant, node) pair"
    assert ("repro.core.syncer.vnode", "_heartbeat_loop") not in copy_calls, \
        "the broadcast shares snapshots"

    lookups = counts["lookups"]
    # One memoized lookup per distinct node per tick — NOT per pair.
    assert lookups == ticks * distinct, (
        f"{lookups} node-cache lookups over {ticks} ticks; expected "
        f"{ticks * distinct} (distinct={distinct}), the old behavior "
        f"would be {ticks * pairs} (pairs={pairs})")


def test_heartbeat_updates_every_tenant_vnode(env):
    """Sharing one super-node snapshot across tenants must still stamp
    every tenant's vNode conditions at the tick's sim time."""
    vnodes = env.syncer.vnodes
    env.run_for(vnodes.heartbeat_interval * 2)
    now = env.sim.now
    checked = 0
    for tenant, nodes in vnodes._bindings.items():
        cache = env.syncer.tenant_informer(tenant, "nodes").cache
        for node_name in nodes:
            vnode = cache.get(node_name)
            assert vnode is not None
            assert vnode.status.conditions, "heartbeat must copy conditions"
            for condition in vnode.status.conditions:
                assert condition.last_heartbeat_time is not None
                assert now - condition.last_heartbeat_time <= (
                    vnodes.heartbeat_interval * 2)
            checked += 1
    assert checked == sum(len(nodes) for nodes in vnodes._bindings.values())
