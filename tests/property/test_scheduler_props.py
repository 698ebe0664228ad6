"""Property-based tests: the scheduler's incremental snapshot versus one
rebuilt from its informer caches, and ``_select_node`` versus a
reference chooser.

The reference is the per-cycle implementation the snapshot replaced —
usage re-summed from the assigned Pods and capacity re-parsed with the
``Quantity`` API for every (Pod, node) pair, every filter run on every
node — and lives only here.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apiserver import ADMIN, APIServer
from repro.clientgo import Client, InformerFactory
from repro.clientgo.reflector import ADDED, DELETED, MODIFIED
from repro.config import DEFAULT_CONFIG
from repro.objects import (
    Container,
    Quantity,
    Taint,
    Toleration,
    add_resource_lists,
    fits_within,
    make_node,
    make_pod,
    with_anti_affinity,
)
from repro.objects.pod import (
    Affinity,
    NodeAffinity,
    NodeSelectorRequirement,
    NodeSelectorTerm,
    PodAffinity,
    PodAffinityTerm,
)
from repro.objects.selectors import LabelSelector
from repro.scheduler import (
    NodeReady,
    NodeSelectorMatch,
    NodeUnschedulable,
    Scheduler,
    TaintToleration,
)
from repro.simkernel import Simulation

NODE_NAMES = [f"n{i}" for i in range(4)]
POD_NAMES = [f"p{i}" for i in range(7)]

# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

node_specs = st.fixed_dictionaries({
    "cpu": st.sampled_from(["0", "2", "4", "4"]),       # "0": zero-CPU
    "memory": st.sampled_from([None, "4Gi", "4Gi"]),     # None: no such
    "pods": st.sampled_from(["1", "3", "10", "10"]),     # resource at all
    "zone": st.sampled_from(["a", "b"]),
    # Mostly healthy, so that several nodes are usually feasible and
    # the choice is decided by scores and the tie-break.
    "taint": st.sampled_from([None, None, None, "NoSchedule",
                              "PreferNoSchedule"]),
    "unschedulable": st.sampled_from([False, False, False, False, True]),
    "ready": st.sampled_from([True, True, True, True, False]),
})
pod_specs = st.fixed_dictionaries({
    "namespace": st.sampled_from(["default", "other"]),
    "app": st.sampled_from(["web", "db"]),
    "cpu": st.sampled_from([None, None, "500m", "1", "3"]),
    "memory": st.sampled_from([None, None, "512Mi", "2Gi"]),
    "init_cpu": st.sampled_from([None, None, "250m", "2"]),  # max, not sum
    "selector": st.sampled_from([None] * 6 + ["a", "b"]),
    "node_affinity": st.sampled_from([None] * 6 + ["a", "b"]),
    "tolerates": st.booleans(),
    "anti": st.sampled_from([None] * 6 + ["web", "db"]),
    "needs": st.sampled_from([None] * 6 + ["web", "db"]),
})
nodes_of = st.sampled_from(NODE_NAMES)
pods_of = st.sampled_from(POD_NAMES)
steps = st.lists(st.one_of(
    st.tuples(st.just("node_put"), nodes_of, node_specs),
    st.tuples(st.just("node_delete"), nodes_of),
    st.tuples(st.just("pod_add"), pods_of, st.none() | nodes_of),
    st.tuples(st.just("pod_move"), pods_of, nodes_of),
    st.tuples(st.just("pod_delete"), pods_of),
    st.tuples(st.just("assume"), pods_of, nodes_of),
    st.tuples(st.just("bind_lands"), pods_of),
    st.tuples(st.just("bind_fails"), pods_of),
), min_size=4, max_size=40)


def build_node(name, spec):
    node = make_node(name, cpu=spec["cpu"], memory=spec["memory"] or "1",
                     pods=spec["pods"], labels={"zone": spec["zone"]})
    if spec["memory"] is None:
        del node.status.allocatable["memory"]
    if spec["taint"]:
        node.spec.taints.append(Taint(key="dedicated", value="x",
                                      effect=spec["taint"]))
    node.spec.unschedulable = spec["unschedulable"]
    if not spec["ready"]:
        node.status.set_condition("Ready", "False", reason="Down")
    return node


def build_pod(name, spec, node_name=None):
    pod = make_pod(name, namespace=spec["namespace"], cpu=spec["cpu"],
                   memory=spec["memory"], labels={"app": spec["app"]},
                   node_name=node_name)
    if spec["init_cpu"]:
        init = Container(name="init", image="busybox")
        init.resources.requests["cpu"] = Quantity.parse(spec["init_cpu"])
        pod.spec.init_containers = [init]
    if spec["selector"]:
        pod.spec.node_selector = {"zone": spec["selector"]}
    if spec["node_affinity"]:
        pod.spec.affinity = Affinity(node_affinity=NodeAffinity(
            required_terms=[NodeSelectorTerm(match_expressions=[
                NodeSelectorRequirement(key="zone", operator="In",
                                        values=[spec["node_affinity"]])])]))
    if spec["tolerates"]:
        pod.spec.tolerations = [Toleration(key="dedicated",
                                           operator="Exists")]
    if spec["anti"]:
        with_anti_affinity(pod, "app", spec["anti"])
    if spec["needs"]:
        if pod.spec.affinity is None:
            pod.spec.affinity = Affinity()
        pod.spec.affinity.pod_affinity = PodAffinity(required_terms=[
            PodAffinityTerm(label_selector=LabelSelector(
                match_labels={"app": spec["needs"]}))])
    return pod


# ----------------------------------------------------------------------
# The reference: rebuilt from the caches, computed with Quantity
# ----------------------------------------------------------------------

def _taken(pod):
    return add_resource_lists(pod.spec.total_requests(),
                              {"pods": Quantity.parse(1)})


def rebuild(scheduler, assumed):
    """(nodes, {node: [pods]}, {node: usage}) as the old per-cycle
    snapshot derived them: cached Pods that carry a node name, plus the
    assumed Pods whose bind has not come back yet."""
    nodes = scheduler._node_informer.cache.items()
    placed = {pod.key: pod for pod in scheduler._pod_informer.cache.items()
              if pod.spec.node_name}
    for key, pod in assumed.items():
        placed.setdefault(key, pod)
    pods_by_node, usage_by_node = {}, {}
    for pod in placed.values():
        name = pod.spec.node_name
        pods_by_node.setdefault(name, []).append(pod)
        usage_by_node[name] = add_resource_lists(
            usage_by_node.get(name, {}), _taken(pod))
    return nodes, pods_by_node, usage_by_node


def _matches_any(term, node_pods, namespace):
    namespaces = term.namespaces or [namespace]
    return any(other.namespace in namespaces
               and term.label_selector.matches(other.metadata.labels)
               for other in node_pods)


def _affinity_terms(pod, attribute):
    block = getattr(pod.spec.affinity, attribute, None)
    return [] if block is None else [
        term for term in block.required_terms
        if term.topology_key == "kubernetes.io/hostname"]


def reference_filters(pod, node, node_pods, used):
    """Every default filter's verdict, in order, none skipped."""
    for plugin in (NodeUnschedulable(), NodeReady()):
        yield plugin.filter(pod, node, None)
    remaining = {name: Quantity.parse(capacity)
                 - used.get(name, Quantity.zero())
                 for name, capacity in node.status.allocatable.items()}
    yield (None if fits_within(_taken(pod), remaining)
           else "insufficient resources")
    for plugin in (NodeSelectorMatch(), TaintToleration()):
        yield plugin.filter(pod, node, None)
    verdict = None
    for term in _affinity_terms(pod, "pod_anti_affinity"):
        if verdict is None and _matches_any(term, node_pods, pod.namespace):
            verdict = "anti-affinity conflict"
    for term in _affinity_terms(pod, "pod_affinity"):
        if verdict is None and not _matches_any(term, node_pods,
                                                pod.namespace):
            verdict = "pod affinity not satisfied"
    yield verdict


def reference_select(pod, nodes, pods_by_node, usage_by_node):
    feasible, reasons = [], {}
    for node in nodes:
        name = node.metadata.name
        verdicts = list(reference_filters(
            pod, node, pods_by_node.get(name, []),
            usage_by_node.get(name, {})))
        rejection = next((v for v in verdicts if v is not None), None)
        if rejection is None:
            feasible.append(node)
        else:
            reasons[name] = rejection
    best = best_score = None
    for node in feasible:
        name = node.metadata.name
        cpu = node.status.allocatable.get("cpu")
        total = Quantity.parse(cpu).milli if cpu else 0
        used = usage_by_node.get(name, {}).get("cpu", Quantity.zero())
        least = 1.0 - (used.milli / total) if total > 0 else 0.0
        score = sum(iter([least, -len(pods_by_node.get(name, []))]))
        if best_score is None or score > best_score:
            best, best_score = node, score
    return best, reasons


# ----------------------------------------------------------------------
# The property
# ----------------------------------------------------------------------

def check_snapshot(scheduler, assumed):
    snapshot = scheduler.snapshot
    nodes, pods_by_node, usage_by_node = rebuild(scheduler, assumed)
    listed = [info.node for info in snapshot.infos()]
    assert len(listed) == len(nodes)
    assert all(ours is theirs for ours, theirs in zip(listed, nodes))
    for info in snapshot.infos():
        assert info.allocatable == {
            name: Quantity.parse(quantity).milli
            for name, quantity in info.node.status.allocatable.items()}
    # Nothing lingers for a node with neither an object nor Pods.
    assert set(snapshot._infos) == (
        {node.metadata.name for node in nodes} | set(pods_by_node))
    for name, info in snapshot._infos.items():
        assert set(info.pods) == {
            pod.key for pod in pods_by_node.get(name, [])}
        assert {r: amount for r, amount in info.usage.items() if amount} \
            == {r: q.milli for r, q in usage_by_node.get(name, {}).items()
                if q.milli}
    return nodes, pods_by_node, usage_by_node


@given(st.fixed_dictionaries({name: pod_specs for name in POD_NAMES}),
       st.lists(node_specs, min_size=3, max_size=len(NODE_NAMES)), steps)
@settings(max_examples=400, deadline=None)
def test_snapshot_and_choice_match_the_rebuilt_reference(specs, cluster,
                                                         sequence):
    sim = Simulation()
    client = Client(sim, APIServer(sim, "super"), ADMIN)
    scheduler = Scheduler(sim, client, InformerFactory(sim, client),
                          DEFAULT_CONFIG)
    node_events = scheduler._node_informer.on_event
    pod_events = scheduler._pod_informer.on_event
    node_cache = scheduler._node_informer.cache
    pod_cache = scheduler._pod_informer.cache
    assumed = {}        # pod key -> assumed copy awaiting its bind

    def key_of(name):
        return f"{specs[name]['namespace']}/{name}"

    sequence = [("node_put", name, spec)
                for name, spec in zip(NODE_NAMES, cluster)] + sequence
    for step in sequence:
        kind, name = step[0], step[1]
        if kind == "node_put":
            node_events(MODIFIED if name in node_cache else ADDED,
                        build_node(name, step[2]))
        elif kind == "node_delete":
            if name in node_cache:
                # Pods bound to it stay bound; it may come back.
                node_events(DELETED, node_cache.get(name))
        elif kind == "pod_add":
            if key_of(name) not in pod_cache:
                pod_events(ADDED, build_pod(name, specs[name], step[2]))
        elif kind == "pod_move":
            if key_of(name) in pod_cache and key_of(name) not in assumed:
                pod_events(MODIFIED, build_pod(name, specs[name], step[2]))
        elif kind == "pod_delete":
            if key_of(name) in pod_cache:
                pod_events(DELETED, pod_cache.get(key_of(name)))
                assumed.pop(key_of(name), None)
        elif kind == "assume":
            pod = pod_cache.get(key_of(name))
            if (pod is not None and not pod.spec.node_name
                    and pod.key not in assumed):
                copy = pod.copy()
                copy.spec.node_name = step[2]
                scheduler.snapshot.assign(copy)
                assumed[pod.key] = copy
        elif kind == "bind_lands":
            copy = assumed.pop(key_of(name), None)
            if copy is not None:
                pod_events(MODIFIED, copy.copy())
        elif kind == "bind_fails":
            if assumed.pop(key_of(name), None) is not None:
                scheduler.snapshot.unassign(key_of(name))
        # After every step (so kept scores and parsed capacity are
        # always warm when the next step invalidates them) one Pod is
        # placed as the reference places it; after the last, all are.
        reference = check_snapshot(scheduler, assumed)
        probes = ([name if name in specs else POD_NAMES[0]]
                  if step is not sequence[-1] else POD_NAMES)
        for probe in probes:
            pod = build_pod(probe, specs[probe])
            chosen, reasons = scheduler._select_node(pod)
            expected, expected_reasons = reference_select(pod, *reference)
            assert chosen is expected
            assert reasons == expected_reasons
            assert list(reasons) == list(expected_reasons)
