"""Scheduling predicates (filters) and priorities (scores).

A trimmed-down scheduler framework: each filter plugin can reject a node
for a pod, each score plugin rates surviving nodes.  Covers the semantics
the paper's experiments rely on — resource fit, node selector/affinity,
taints, and required inter-pod (anti-)affinity, which underpins the vNode
comparison in Fig. 6.

Plugins read the :class:`ClusterSnapshot`, which holds every amount as an
integer in milli-units (the unit :class:`~repro.objects.Quantity` stores),
parsed once per Node object and once per assignment — never per
(Pod, node) pair.
"""

from repro.objects import Quantity

_HARD_TAINT_EFFECTS = ("NoSchedule", "NoExecute")


def pod_requests(pod):
    """What a Pod takes from a node: ``total_requests()`` plus one Pod
    slot, in milli-units."""
    requests = {name: quantity.milli
                for name, quantity in pod.spec.total_requests().items()}
    requests["pods"] = requests.get("pods", 0) + 1000
    return requests


class FilterPlugin:
    name = "filter"

    def filter(self, pod, node, snapshot):
        """Return None to accept the node or a string reason to reject."""
        raise NotImplementedError

    # The scheduler skips :meth:`filter` for a (Pod, node) pair only
    # where one of these says it cannot reject; the answer must follow
    # from the argument alone.

    def may_reject_node(self, node):
        """False when :meth:`filter` accepts this Node for every Pod."""
        return True

    def may_reject_pod(self, pod):
        """False when :meth:`filter` accepts every node for this Pod."""
        return True


class ScorePlugin:
    name = "score"
    # False promises the score is a function of the node's snapshot entry
    # alone, so the scheduler may keep it until that entry changes.
    depends_on_pod = True

    def score(self, pod, node, snapshot):
        """Return a number; higher is better."""
        raise NotImplementedError


class NodeInfo:
    """One node as the scheduler sees it."""

    __slots__ = ("node", "allocatable", "usage", "pods", "filters", "score")

    def __init__(self, node=None):
        self.usage = {}         # resource name -> milli-units assigned
        self.pods = {}          # pod key -> Pod assigned (or assumed)
        self.set_node(node)

    def set_node(self, node):
        """Adopt a (new version of the) Node object; None when Pods are
        assigned to a node the scheduler has no object for."""
        self.node = node
        self.allocatable = {} if node is None else {
            name: Quantity.parse(quantity).milli
            for name, quantity in node.status.allocatable.items()}
        self.filters = None     # scheduler: filters that may reject it
        self.score = None       # scheduler: cached pod-independent score


class ClusterSnapshot:
    """The scheduler's view of nodes and assignments.

    Long-lived: the scheduler updates it from its informer handlers
    (:meth:`set_node` / :meth:`remove_node` / :meth:`assign` /
    :meth:`unassign`) instead of rebuilding it per cycle.  ``nodes``
    iterate in the node informer cache's order — add order, an update
    keeps its place, delete-then-add moves to the end — because the
    first of equally-scored nodes wins.
    """

    def __init__(self, nodes=(), pods_by_node=None, usage_by_node=None):
        self._infos = {}        # node name -> NodeInfo
        self._listed = {}       # the subset with a Node object, in order
        self._assignments = {}  # pod key -> node name
        self._requests_of = (None, None)
        for node in nodes:
            self.set_node(node)
        for name, pods in (pods_by_node or {}).items():
            self._info(name).pods = {pod.key: pod for pod in pods}
        for name, usage in (usage_by_node or {}).items():
            self._info(name).usage = {
                resource: Quantity.parse(quantity).milli
                for resource, quantity in usage.items()}

    def _info(self, name):
        info = self._infos.get(name)
        if info is None:
            info = self._infos[name] = NodeInfo()
        return info

    @property
    def nodes(self):
        return [info.node for info in self._listed.values()]

    def infos(self):
        """Live view of the listed nodes' entries, in ``nodes`` order."""
        return self._listed.values()

    def info(self, node):
        """The entry plugins read for ``node``."""
        info = self._infos.get(node.metadata.name)
        if info is None or info.node is not node:
            # Not the object this snapshot holds (a plugin called
            # directly with its own Node): parse it for this call.
            known, info = info, NodeInfo(node)
            if known is not None:
                info.usage, info.pods = known.usage, known.pods
        return info

    def requests_for(self, pod):
        """:func:`pod_requests`, computed once per Pod object rather
        than once per node it is tried on."""
        if self._requests_of[0] is not pod:
            self._requests_of = (pod, pod_requests(pod))
        return self._requests_of[1]

    # -- maintenance ----------------------------------------------------

    def set_node(self, node):
        name = node.metadata.name
        info = self._info(name)
        info.set_node(node)
        self._listed[name] = info
        return info

    def remove_node(self, name):
        info = self._listed.pop(name, None)
        if info is not None:
            info.set_node(None)
            if not info.pods:
                del self._infos[name]

    def assign(self, pod):
        """Count ``pod`` against ``pod.spec.node_name`` (moving it there
        if it was counted elsewhere; a repeat is a no-op)."""
        key, name = pod.key, pod.spec.node_name
        previous = self._assignments.get(key)
        if previous == name:
            return
        if previous is not None:
            self.unassign(key)
        self._assignments[key] = name
        info = self._info(name)
        info.pods[key] = pod
        self._account(info, pod, 1)

    def unassign(self, pod_key):
        name = self._assignments.pop(pod_key, None)
        if name is None:
            return
        info = self._infos[name]
        self._account(info, info.pods.pop(pod_key), -1)
        if not info.pods and info.node is None:
            del self._infos[name]

    @staticmethod
    def _account(info, pod, sign):
        info.score = None
        usage = info.usage
        for resource, amount in pod_requests(pod).items():
            usage[resource] = usage.get(resource, 0) + sign * amount


class NodeUnschedulable(FilterPlugin):
    name = "NodeUnschedulable"

    def filter(self, pod, node, snapshot):
        if node.spec.unschedulable:
            return "node is unschedulable"
        return None

    def may_reject_node(self, node):
        return bool(node.spec.unschedulable)


class NodeReady(FilterPlugin):
    name = "NodeReady"

    def filter(self, pod, node, snapshot):
        if not node.status.is_ready:
            return "node is not ready"
        return None

    def may_reject_node(self, node):
        return not node.status.is_ready


class NodeResourcesFit(FilterPlugin):
    name = "NodeResourcesFit"

    def filter(self, pod, node, snapshot):
        info = snapshot.info(node)
        allocatable = info.allocatable
        used = info.usage
        for name, amount in snapshot.requests_for(pod).items():
            capacity = allocatable.get(name)
            if capacity is None or amount > capacity - used.get(name, 0):
                return "insufficient resources"
        return None


class NodeSelectorMatch(FilterPlugin):
    name = "NodeSelector"

    def filter(self, pod, node, snapshot):
        labels = node.metadata.labels or {}
        for key, value in (pod.spec.node_selector or {}).items():
            if labels.get(key) != value:
                return f"node selector {key}={value} not satisfied"
        affinity = pod.spec.affinity
        if affinity and affinity.node_affinity:
            if not affinity.node_affinity.matches(labels):
                return "node affinity not satisfied"
        return None

    def may_reject_pod(self, pod):
        affinity = pod.spec.affinity
        return bool(pod.spec.node_selector
                    or (affinity and affinity.node_affinity))


class TaintToleration(FilterPlugin):
    name = "TaintToleration"

    def filter(self, pod, node, snapshot):
        for taint in node.spec.taints:
            if taint.effect not in _HARD_TAINT_EFFECTS:
                continue
            if not any(tol.tolerates(taint) for tol in pod.spec.tolerations):
                return f"untolerated taint {taint.key}"
        return None

    def may_reject_node(self, node):
        return any(taint.effect in _HARD_TAINT_EFFECTS
                   for taint in node.spec.taints)


class InterPodAffinity(FilterPlugin):
    """Required pod affinity and anti-affinity over topology domains.

    Only the hostname topology key is modelled, which matches the
    anti-affinity scenario the paper uses to contrast vNodes with virtual
    kubelet (Fig. 6).
    """

    name = "InterPodAffinity"

    def filter(self, pod, node, snapshot):
        node_pods = snapshot.info(node).pods.values()
        anti = self._terms(pod, anti=True)
        for term in anti:
            if self._any_match(term, node_pods, pod.namespace):
                return "anti-affinity conflict"
        required = self._terms(pod, anti=False)
        for term in required:
            if not self._any_match(term, node_pods, pod.namespace):
                return "pod affinity not satisfied"
        return None

    def may_reject_pod(self, pod):
        return bool(self._terms(pod, anti=True)
                    or self._terms(pod, anti=False))

    def _terms(self, pod, anti):
        affinity = pod.spec.affinity
        if affinity is None:
            return []
        block = affinity.pod_anti_affinity if anti else affinity.pod_affinity
        if block is None:
            return []
        return [term for term in block.required_terms
                if term.topology_key == "kubernetes.io/hostname"]

    def _any_match(self, term, node_pods, namespace):
        namespaces = term.namespaces or [namespace]
        for other in node_pods:
            if other.namespace not in namespaces:
                continue
            if term.label_selector.matches(other.metadata.labels):
                return True
        return False


class LeastAllocated(ScorePlugin):
    """Prefer nodes with the most free CPU fraction (spreads load)."""

    name = "LeastAllocated"
    depends_on_pod = False

    def score(self, pod, node, snapshot):
        info = snapshot.info(node)
        total = info.allocatable.get("cpu")
        if total is None or total <= 0:
            return 0.0
        return 1.0 - (info.usage.get("cpu", 0) / total)


class BalancedPodCount(ScorePlugin):
    """Prefer nodes with fewer pods (tie-breaker for request-less pods)."""

    name = "BalancedPodCount"
    depends_on_pod = False

    def score(self, pod, node, snapshot):
        return -len(snapshot.info(node).pods)


def default_filters():
    return [
        NodeUnschedulable(),
        NodeReady(),
        NodeResourcesFit(),
        NodeSelectorMatch(),
        TaintToleration(),
        InterPodAffinity(),
    ]


def default_scorers():
    return [LeastAllocated(), BalancedPodCount()]
