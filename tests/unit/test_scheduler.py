"""Unit tests for scheduler plugins and the sequential scheduling loop."""

import sys

import pytest

from repro.apiserver import ADMIN, APIServer
from repro.clientgo import Client, InformerFactory
from repro.config import DEFAULT_CONFIG
from repro.objects import (
    Pod,
    Taint,
    Toleration,
    make_namespace,
    make_node,
    make_pod,
    with_anti_affinity,
)
from repro.scheduler import Scheduler
from repro.scheduler.plugins import (
    ClusterSnapshot,
    InterPodAffinity,
    NodeResourcesFit,
    NodeSelectorMatch,
    TaintToleration,
)
from repro.simkernel import Simulation


@pytest.fixture
def sim():
    return Simulation()


def snapshot(nodes, pods_by_node=None):
    from repro.objects import Quantity, add_resource_lists

    pods_by_node = pods_by_node or {}
    usage = {}
    for node_name, pods in pods_by_node.items():
        total = {}
        for pod in pods:
            total = add_resource_lists(
                total, add_resource_lists(pod.spec.total_requests(),
                                          {"pods": Quantity.parse(1)}))
        usage[node_name] = total
    return ClusterSnapshot(nodes, pods_by_node, usage)


class TestFilters:
    def test_resources_fit_accepts(self):
        node = make_node("n1", cpu="4")
        pod = make_pod("p", cpu="2")
        assert NodeResourcesFit().filter(pod, node, snapshot([node])) is None

    def test_resources_fit_rejects_overcommit(self):
        node = make_node("n1", cpu="2", pods="10")
        existing = make_pod("e", cpu="1500m", node_name="n1")
        pod = make_pod("p", cpu="1")
        result = NodeResourcesFit().filter(
            pod, node, snapshot([node], {"n1": [existing]}))
        assert result is not None

    def test_pod_count_capacity(self):
        node = make_node("n1", pods="1")
        existing = make_pod("e", node_name="n1")
        pod = make_pod("p")
        result = NodeResourcesFit().filter(
            pod, node, snapshot([node], {"n1": [existing]}))
        assert result is not None

    def test_node_selector(self):
        node = make_node("n1", labels={"disk": "ssd"})
        pod = make_pod("p")
        pod.spec.node_selector = {"disk": "ssd"}
        assert NodeSelectorMatch().filter(pod, node, snapshot([node])) is None
        pod.spec.node_selector = {"disk": "hdd"}
        assert NodeSelectorMatch().filter(pod, node,
                                          snapshot([node])) is not None

    def test_taint_toleration(self):
        node = make_node("n1")
        node.spec.taints = [Taint(key="dedicated", value="infra",
                                  effect="NoSchedule")]
        pod = make_pod("p")
        assert TaintToleration().filter(pod, node,
                                        snapshot([node])) is not None
        pod.spec.tolerations = [Toleration(key="dedicated", value="infra",
                                           effect="NoSchedule")]
        assert TaintToleration().filter(pod, node, snapshot([node])) is None

    def test_exists_toleration_tolerates_any_value(self):
        node = make_node("n1")
        node.spec.taints = [Taint(key="dedicated", value="x",
                                  effect="NoSchedule")]
        pod = make_pod("p")
        pod.spec.tolerations = [Toleration(key="dedicated",
                                           operator="Exists")]
        assert TaintToleration().filter(pod, node, snapshot([node])) is None

    def test_anti_affinity_rejects_conflicting_node(self):
        node = make_node("n1")
        existing = make_pod("a", labels={"app": "web"}, node_name="n1")
        pod = with_anti_affinity(make_pod("b"), "app", "web")
        result = InterPodAffinity().filter(
            pod, node, snapshot([node], {"n1": [existing]}))
        assert result == "anti-affinity conflict"

    def test_anti_affinity_accepts_clean_node(self):
        node = make_node("n2")
        pod = with_anti_affinity(make_pod("b"), "app", "web")
        assert InterPodAffinity().filter(pod, node, snapshot([node])) is None


class _Harness:
    """A tiny super cluster: apiserver + scheduler + N ready nodes."""

    def __init__(self, sim, num_nodes=2, cpu="4"):
        self.sim = sim
        self.api = APIServer(sim, "super")
        self.client = Client(sim, self.api, ADMIN, qps=100000, burst=100000)
        factory = InformerFactory(sim, self.client)
        self.scheduler = Scheduler(sim, self.client, factory,
                                   DEFAULT_CONFIG)
        self.run(self.client.create(make_namespace("default")))
        for index in range(num_nodes):
            self.run(self.client.create(make_node(f"n{index}", cpu=cpu,
                                                  pods="500")))
        factory.start_all()
        self.scheduler.start()
        sim.run(until=sim.now + 0.5)

    def run(self, coroutine):
        return self.sim.run(until=self.sim.process(coroutine))

    def get_pod(self, name):
        return self.run(self.client.get("pods", name, namespace="default"))


class TestSchedulingLoop:
    def test_pod_gets_bound(self, sim):
        harness = _Harness(sim)
        harness.run(harness.client.create(make_pod("p")))
        sim.run(until=sim.now + 2)
        assert harness.get_pod("p").spec.node_name in ("n0", "n1")
        assert harness.scheduler.scheduled_count == 1

    def test_spreading_across_nodes(self, sim):
        harness = _Harness(sim, num_nodes=2)

        def create_pods():
            for i in range(4):
                yield from harness.client.create(make_pod(f"p{i}",
                                                          cpu="500m"))

        harness.run(create_pods())
        sim.run(until=sim.now + 3)
        nodes = {harness.get_pod(f"p{i}").spec.node_name for i in range(4)}
        assert nodes == {"n0", "n1"}

    def test_unschedulable_pod_marked(self, sim):
        harness = _Harness(sim, num_nodes=1, cpu="1")
        harness.run(harness.client.create(make_pod("big", cpu="64")))
        sim.run(until=sim.now + 2)
        pod = harness.get_pod("big")
        assert pod.spec.node_name is None
        condition = pod.status.get_condition("PodScheduled")
        assert condition.status == "False"
        assert condition.reason == "Unschedulable"
        assert harness.scheduler.failed_count >= 1

    def test_unschedulable_pod_retries_when_capacity_appears(self, sim):
        harness = _Harness(sim, num_nodes=1, cpu="1")
        harness.run(harness.client.create(make_pod("big", cpu="8")))
        sim.run(until=sim.now + 2)
        assert harness.get_pod("big").spec.node_name is None
        harness.run(harness.client.create(make_node("big-node", cpu="96",
                                                    pods="500")))
        sim.run(until=sim.now + 3)
        assert harness.get_pod("big").spec.node_name == "big-node"

    def test_anti_affinity_enforced_end_to_end(self, sim):
        harness = _Harness(sim, num_nodes=2)
        pod_a = make_pod("a", labels={"app": "web"})
        pod_b = with_anti_affinity(make_pod("b", labels={"app": "web"}),
                                   "app", "web")
        harness.run(harness.client.create(pod_a))
        sim.run(until=sim.now + 1)
        harness.run(harness.client.create(pod_b))
        sim.run(until=sim.now + 2)
        node_a = harness.get_pod("a").spec.node_name
        node_b = harness.get_pod("b").spec.node_name
        assert node_a and node_b and node_a != node_b

    def test_prebound_pod_not_rescheduled(self, sim):
        harness = _Harness(sim)
        harness.run(harness.client.create(make_pod("manual",
                                                   node_name="n0")))
        sim.run(until=sim.now + 1)
        assert harness.get_pod("manual").spec.node_name == "n0"
        assert harness.scheduler.scheduled_count == 0


class TestSnapshotSurface:
    """What plugin authors and the frozen micro-benchmark rely on."""

    def test_public_constructor_accepts_quantities_and_strings(self):
        from repro.objects import Quantity

        node = make_node("n1", cpu="2", pods="10")
        view = ClusterSnapshot(
            [node], {"n1": [make_pod("e", node_name="n1")]},
            {"n1": {"cpu": "1500m", "pods": Quantity.parse(1)}})
        assert [info.node for info in view.infos()] == [node]
        assert NodeResourcesFit().filter(make_pod("p", cpu="500m"), node,
                                         view) is None
        assert NodeResourcesFit().filter(make_pod("p", cpu="1"), node,
                                         view) == "insufficient resources"

    def test_empty_maps_mean_empty_nodes(self):
        nodes = [make_node(f"n{i}") for i in range(3)]
        view = ClusterSnapshot(nodes, {}, {})
        pod = make_pod("p", cpu="100m", memory="64Mi")
        assert all(NodeResourcesFit().filter(pod, node, view) is None
                   for node in nodes)

    def test_plugin_called_with_a_node_the_snapshot_does_not_hold(self):
        """The parsed capacity is per Node *object*: a newer version of
        the node, or an unknown one, is parsed for the call instead of
        answered from the stale entry."""
        old = make_node("n1", cpu="1")
        view = snapshot([old], {"n1": [make_pod("e", cpu="500m",
                                                node_name="n1")]})
        grown = make_node("n1", cpu="8")
        stranger = make_node("elsewhere", cpu="8")
        pod = make_pod("p", cpu="1")
        fit = NodeResourcesFit()
        assert fit.filter(pod, old, view) == "insufficient resources"
        assert fit.filter(pod, grown, view) is None
        assert fit.filter(pod, stranger, view) is None
        # ... and still sees what is assigned under that name.
        assert fit.filter(make_pod("q", cpu="7800m"), grown, view) \
            == "insufficient resources"

    def test_missing_resource_rejects_zero_cpu_scores_zero(self):
        from repro.scheduler.plugins import LeastAllocated

        node = make_node("n1", cpu="0")
        del node.status.allocatable["memory"]
        view = snapshot([node])
        assert NodeResourcesFit().filter(make_pod("p", memory="1Mi"),
                                         node, view) is not None
        assert NodeResourcesFit().filter(make_pod("p"), node, view) is None
        assert LeastAllocated().score(make_pod("p"), node, view) == 0.0


class TestIncrementalSnapshot:
    def _scheduler(self, sim, nodes=("n0", "n1"), **kwargs):
        client = Client(sim, APIServer(sim, "super"), ADMIN)
        scheduler = Scheduler(sim, client, InformerFactory(sim, client),
                              DEFAULT_CONFIG, **kwargs)
        for name in nodes:
            scheduler._on_node_add(make_node(name, cpu="4", pods="10"))
        return scheduler

    def test_assign_unassign_round_trip_in_milli_units(self, sim):
        view = self._scheduler(sim).snapshot
        pod = make_pod("p", cpu="500m", memory="1Gi", node_name="n0")
        view.assign(pod)
        view.assign(pod)                        # a repeat is a no-op
        info = view._infos["n0"]
        assert info.usage == {"cpu": 500, "memory": 1024 ** 3 * 1000,
                              "pods": 1000}
        moved = make_pod("p", cpu="500m", memory="1Gi", node_name="n1")
        view.assign(moved)
        assert not info.pods and not any(info.usage.values())
        assert list(view._infos["n1"].pods) == ["default/p"]
        view.unassign("default/p")
        view.unassign("default/p")
        assert not any(view._infos["n1"].usage.values())

    def test_pods_outlive_their_node_and_meet_it_again(self, sim):
        scheduler = self._scheduler(sim)
        view = scheduler.snapshot
        view.assign(make_pod("p", cpu="3", node_name="n0"))
        scheduler._on_node_delete(make_node("n0"))
        assert [i.node.metadata.name for i in view.infos()] == ["n1"]
        scheduler._on_node_add(make_node("n0", cpu="4", pods="10"))
        assert [i.node.metadata.name for i in view.infos()] == ["n1", "n0"]
        chosen, reasons = scheduler._select_node(make_pod("q", cpu="2"))
        assert chosen.metadata.name == "n1"
        assert reasons == {"n0": "insufficient resources"}
        view.unassign("default/p")
        scheduler._on_node_delete(make_node("n0"))
        assert set(view._infos) == {"n1"}

    def test_kept_scores_follow_every_change_to_their_node(self, sim):
        scheduler = self._scheduler(sim)
        probe = make_pod("probe", cpu="1")

        def choice():
            return scheduler._select_node(probe)[0].metadata.name

        assert choice() == "n0"                 # tie: first node wins
        scheduler.snapshot.assign(make_pod("a", cpu="1", node_name="n0"))
        assert choice() == "n1"
        scheduler.snapshot.unassign("default/a")
        assert choice() == "n0"
        scheduler._on_node_update(None, make_node("n0", cpu="2", pods="10"))
        scheduler.snapshot.assign(make_pod("b", cpu="1", node_name="n0"))
        scheduler.snapshot.assign(make_pod("c", cpu="1", node_name="n1"))
        assert choice() == "n1"                 # 1/4 used beats 1/2 used

    def test_pod_dependent_scorer_is_asked_every_cycle(self, sim):
        from repro.scheduler.plugins import ScorePlugin

        class PreferNamed(ScorePlugin):
            def score(self, pod, node, snapshot):
                return float(node.metadata.name
                             == pod.metadata.labels.get("want"))

        scheduler = self._scheduler(sim, scorers=[PreferNamed()])
        for want in ("n1", "n0", "n1"):
            pod = make_pod("p", labels={"want": want})
            assert scheduler._select_node(pod)[0].metadata.name == want

    def test_only_filters_that_can_reject_are_evaluated(self, sim):
        scheduler = self._scheduler(sim, nodes=("n0", "n1", "n2"))
        tainted = make_node("n3", cpu="4")
        tainted.spec.taints.append(Taint(key="k", value="v",
                                         effect="NoSchedule"))
        scheduler._on_node_add(tainted)
        down = make_node("n4", cpu="4")
        down.status.set_condition("Ready", "False")
        scheduler._on_node_add(down)

        _node, reasons = scheduler._select_node(make_pod("plain"))
        # Resource fit on all five, readiness on the one that is not
        # ready (rejects first), taints on the one that has some.
        assert (scheduler.cycles, scheduler.filter_evaluations) == (1, 6)
        assert reasons == {"n3": "untolerated taint k",
                           "n4": "node is not ready"}
        picky = with_anti_affinity(make_pod("picky"), "app", "web")
        picky.spec.node_selector = {"kubernetes.io/hostname": "n1"}
        _node, reasons = scheduler._select_node(picky)
        # n4: readiness; n0/n2/n3: fit, selector (rejects, so n3's
        # taints are never reached); n1: fit, selector, anti-affinity.
        assert scheduler.filter_evaluations == 6 + 1 + 3 * 2 + 3
        assert reasons["n0"].startswith("node selector")

    def test_cycle_reads_the_cached_pod_and_never_edits_it(self, sim,
                                                           monkeypatch):
        """No deep copy of the Pod in a cycle: the assumed Pod is a
        ``replace`` shell, the failure write copies only the status."""
        harness = _Harness(sim, num_nodes=1, cpu="1")
        cache = harness.scheduler._pod_informer.cache
        copiers = []   # module of every caller that deep-copies a Pod

        def counting_copy(pod):
            copiers.append(sys._getframe(1).f_globals["__name__"])
            return Pod.from_dict(pod.to_dict())

        monkeypatch.setattr(Pod, "copy", counting_copy)
        harness.run(harness.client.create(make_pod("fits")))
        harness.run(harness.client.create(make_pod("big", cpu="64")))
        originals = {key: cache.get(key) for key in cache.keys()}
        seen = {key: pod.to_dict() for key, pod in originals.items()}
        assert len(seen) == 2 and harness.scheduler.failed_count == 0
        sim.run(until=sim.now + 2)
        assert harness.scheduler.scheduled_count == 1
        assert harness.scheduler.failed_count >= 1
        assert copiers == []    # a create takes no copy, nor a cycle
        for key, pod in originals.items():
            assert pod.to_dict() == seen[key]   # not edited in place
