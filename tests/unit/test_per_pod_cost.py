"""Tier-1 guard: per-Pod work on the super cluster must not grow with
the number of nodes (and so of ``spec.nodeName`` watchers).

Exact counts only — no clock is read — so a reintroduced O(nodes) loop
in watch fan-out or in the scheduler's resource arithmetic fails here on
any machine, however loaded.
"""

import pytest

from repro.core import VirtualClusterEnv
from repro.objects import Quantity, make_namespace, make_pod

PODS = 30


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
    pods = env.syncer.super_informer("pods").cache
    parses = []
    original = Quantity.parse.__func__

    def submit():
        for index in range(PODS):
            yield from admin.create(make_pod(
                f"p{index:02d}", namespace="load", cpu="100m",
                memory="64Mi"))

    def all_ready():
        return sum(1 for pod in pods.items()
                   if pod.metadata.namespace == "load"
                   and pod.status.is_ready) == PODS

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Quantity, "parse", classmethod(
            lambda cls, text: parses.append(1) or original(cls, text)))
        env.run_coroutine(submit())
        assert env.run_until(all_ready, timeout=60.0)
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
