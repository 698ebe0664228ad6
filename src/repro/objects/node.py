"""Node objects: physical super-cluster nodes and tenant-facing vNodes."""

from .base import Field, Serializable
from .meta import KubeObject
from .pod import Taint
from .quantity import Quantity


class NodeSpec(Serializable):
    FIELDS = (
        Field("taints", type=Taint, container="list", default_factory=list),
        Field("unschedulable", default=False),
        Field("provider_id"),
    )


class NodeCondition(Serializable):
    FIELDS = (
        Field("type"),
        Field("status"),
        Field("reason"),
        Field("last_heartbeat_time"),
        Field("last_transition_time"),
    )


class NodeAddress(Serializable):
    FIELDS = (
        Field("type"),
        Field("address"),
    )


class NodeSystemInfo(Serializable):
    FIELDS = (
        Field("machine_id"),
        Field("kubelet_version", default="v1.18.0"),
        Field("container_runtime_version", default="containerd://1.3"),
        Field("operating_system", default="linux"),
        Field("architecture", default="amd64"),
    )


class NodeStatus(Serializable):
    FIELDS = (
        Field("capacity", type=Quantity, container="map",
              default_factory=dict),
        Field("allocatable", type=Quantity, container="map",
              default_factory=dict),
        Field("conditions", type=NodeCondition, container="list",
              default_factory=list),
        Field("addresses", type=NodeAddress, container="list",
              default_factory=list),
        Field("node_info", type=NodeSystemInfo,
              default_factory=NodeSystemInfo),
        Field("daemon_endpoints", container="map", default_factory=dict),
    )

    def get_condition(self, condition_type):
        for condition in self.conditions:
            if condition.type == condition_type:
                return condition
        return None

    def set_condition(self, condition_type, status, reason=None, now=None):
        existing = self.get_condition(condition_type)
        if existing is None:
            self.conditions.append(NodeCondition(
                type=condition_type, status=status, reason=reason,
                last_heartbeat_time=now, last_transition_time=now,
            ))
            return
        if existing.status != status:
            existing.last_transition_time = now
        existing.status = status
        existing.reason = reason
        existing.last_heartbeat_time = now

    def with_condition(self, condition_type, status, reason=None, now=None):
        """A new status with one condition set, sharing every other
        field with this one (so a heartbeat's revision shares them)."""
        new = self.replace(conditions=[condition.copy()
                                       for condition in self.conditions])
        new.set_condition(condition_type, status, reason=reason, now=now)
        return new

    @property
    def is_ready(self):
        condition = self.get_condition("Ready")
        return condition is not None and condition.status == "True"


class Node(KubeObject):
    KIND = "Node"
    PLURAL = "nodes"
    NAMESPACED = False

    FIELDS = (
        Field("spec", type=NodeSpec, default_factory=NodeSpec),
        Field("status", type=NodeStatus, default_factory=NodeStatus),
    )


# The port a real kubelet serves its API on.
KUBELET_PORT = 10250


def make_node(name, cpu="96", memory="328Gi", pods="1000", labels=None,
              internal_ip=None):
    """Build a ready Node with the paper's bare-metal-like capacity."""
    resources = {
        "cpu": Quantity.parse(cpu),
        "memory": Quantity.parse(memory),
        "pods": Quantity.parse(pods),
    }
    node = Node()
    node.metadata.name = name
    node.metadata.labels = dict(labels or {})
    node.metadata.labels.setdefault("kubernetes.io/hostname", name)
    node.status.capacity = dict(resources)
    node.status.allocatable = dict(resources)
    node.status.set_condition("Ready", "True", reason="KubeletReady")
    if internal_ip:
        node.status.addresses.append(
            NodeAddress(type="InternalIP", address=internal_ip)
        )
    node.status.daemon_endpoints = {"kubeletEndpoint": {"Port": KUBELET_PORT}}
    return node
