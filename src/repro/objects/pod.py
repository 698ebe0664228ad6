"""The Pod object and its (famously large) schema subset.

The paper calls the Pod "arguably the most complicated schema" in
Kubernetes; we implement the parts that the control-plane experiments
exercise: containers and init containers, resource requests, scheduling
constraints (node selector, affinity/anti-affinity, tolerations), runtime
class (to select the Kata sandbox), and the status block with conditions.
"""

from .base import Field, Serializable
from .meta import KubeObject
from .quantity import Quantity, add_resource_lists
from .selectors import LabelSelector


class ContainerPort(Serializable):
    FIELDS = (
        Field("name"),
        Field("container_port"),
        Field("protocol", default="TCP"),
    )


class EnvVar(Serializable):
    FIELDS = (
        Field("name"),
        Field("value"),
        Field("value_from", container="map", default_factory=dict),
    )


class VolumeMount(Serializable):
    FIELDS = (
        Field("name"),
        Field("mount_path"),
        Field("read_only", default=False),
    )


class ResourceRequirements(Serializable):
    """Requests and limits, e.g. ``{"cpu": "500m", "memory": "128Mi"}``."""

    FIELDS = (
        Field("requests", type=Quantity, container="map", default_factory=dict),
        Field("limits", type=Quantity, container="map", default_factory=dict),
    )


class Container(Serializable):
    FIELDS = (
        Field("name"),
        Field("image"),
        Field("command", container="list", default_factory=list),
        Field("args", container="list", default_factory=list),
        Field("env", type=EnvVar, container="list", default_factory=list),
        Field("ports", type=ContainerPort, container="list",
              default_factory=list),
        Field("resources", type=ResourceRequirements,
              default_factory=ResourceRequirements),
        Field("volume_mounts", type=VolumeMount, container="list",
              default_factory=list),
        Field("liveness_probe", container="map", default_factory=dict),
        Field("readiness_probe", container="map", default_factory=dict),
    )


class Toleration(Serializable):
    FIELDS = (
        Field("key"),
        Field("operator", default="Equal"),
        Field("value"),
        Field("effect"),
    )

    def tolerates(self, taint):
        if self.effect and self.effect != taint.effect:
            return False
        if self.operator == "Exists":
            return self.key is None or self.key == taint.key
        return self.key == taint.key and self.value == taint.value


class NodeSelectorRequirement(Serializable):
    FIELDS = (
        Field("key"),
        Field("operator"),
        Field("values", container="list", default_factory=list),
    )

    def matches(self, labels):
        value = labels.get(self.key)
        if self.operator == "In":
            return value in self.values
        if self.operator == "NotIn":
            return value is None or value not in self.values
        if self.operator == "Exists":
            return self.key in labels
        if self.operator == "DoesNotExist":
            return self.key not in labels
        raise ValueError(f"unknown node selector operator {self.operator!r}")


class NodeSelectorTerm(Serializable):
    FIELDS = (
        Field("match_expressions", type=NodeSelectorRequirement,
              container="list", default_factory=list),
    )

    def matches(self, labels):
        return all(req.matches(labels) for req in self.match_expressions)


class NodeAffinity(Serializable):
    """Only the required (hard) node affinity is modelled."""

    FIELDS = (
        Field("required_terms", json_name="requiredDuringSchedulingIgnoredDuringExecution",
              type=NodeSelectorTerm, container="list", default_factory=list),
    )

    def matches(self, labels):
        if not self.required_terms:
            return True
        return any(term.matches(labels) for term in self.required_terms)


class PodAffinityTerm(Serializable):
    FIELDS = (
        Field("label_selector", type=LabelSelector,
              default_factory=LabelSelector),
        Field("topology_key", default="kubernetes.io/hostname"),
        Field("namespaces", container="list", default_factory=list),
    )


class PodAffinity(Serializable):
    FIELDS = (
        Field("required_terms", json_name="requiredDuringSchedulingIgnoredDuringExecution",
              type=PodAffinityTerm, container="list", default_factory=list),
    )


class Affinity(Serializable):
    FIELDS = (
        Field("node_affinity", type=NodeAffinity),
        Field("pod_affinity", type=PodAffinity),
        Field("pod_anti_affinity", type=PodAffinity),
    )


class Volume(Serializable):
    FIELDS = (
        Field("name"),
        Field("secret", container="map", default_factory=dict),
        Field("config_map", container="map", default_factory=dict),
        Field("persistent_volume_claim", container="map",
              default_factory=dict),
        Field("empty_dir", container="map", default_factory=dict),
    )


class PodSpec(Serializable):
    FIELDS = (
        Field("containers", type=Container, container="list",
              default_factory=list),
        Field("init_containers", type=Container, container="list",
              default_factory=list),
        Field("volumes", type=Volume, container="list", default_factory=list),
        Field("node_name"),
        Field("node_selector", container="map", default_factory=dict),
        Field("affinity", type=Affinity),
        Field("tolerations", type=Toleration, container="list",
              default_factory=list),
        Field("service_account_name", default="default"),
        Field("runtime_class_name"),
        Field("scheduler_name", default="default-scheduler"),
        Field("priority", default=0),
        Field("restart_policy", default="Always"),
        Field("termination_grace_period_seconds", default=30),
        Field("hostname"),
        Field("subdomain"),
    )

    def total_requests(self):
        """Sum of container resource requests (init containers use max)."""
        total = {}
        for container in self.containers:
            total = add_resource_lists(total, container.resources.requests)
        for container in self.init_containers:
            for name, quantity in container.resources.requests.items():
                current = total.get(name, Quantity.zero())
                if Quantity.parse(quantity) > current:
                    total[name] = Quantity.parse(quantity)
        return total


class ContainerStatus(Serializable):
    FIELDS = (
        Field("name"),
        Field("ready", default=False),
        Field("restart_count", default=0),
        Field("state", container="map", default_factory=dict),
        Field("image"),
        Field("container_id"),
    )


class PodCondition(Serializable):
    FIELDS = (
        Field("type"),
        Field("status"),
        Field("reason"),
        Field("message"),
        Field("last_transition_time"),
    )


class PodStatus(Serializable):
    FIELDS = (
        Field("phase", default="Pending"),
        Field("conditions", type=PodCondition, container="list",
              default_factory=list),
        Field("host_ip"),
        Field("pod_ip"),
        Field("start_time"),
        Field("reason"),
        Field("message"),
        Field("container_statuses", type=ContainerStatus, container="list",
              default_factory=list),
        Field("init_container_statuses", type=ContainerStatus,
              container="list", default_factory=list),
    )

    def get_condition(self, condition_type):
        for condition in self.conditions:
            if condition.type == condition_type:
                return condition
        return None

    def set_condition(self, condition_type, status, reason=None, message=None,
                      now=None):
        """Upsert a condition; returns True when something changed."""
        existing = self.get_condition(condition_type)
        if existing is None:
            self.conditions.append(PodCondition(
                type=condition_type, status=status, reason=reason,
                message=message, last_transition_time=now,
            ))
            return True
        changed = existing.status != status or existing.reason != reason
        if existing.status != status:
            existing.last_transition_time = now
        existing.status = status
        existing.reason = reason
        existing.message = message
        return changed

    @property
    def is_ready(self):
        condition = self.get_condition("Ready")
        return condition is not None and condition.status == "True"


class Pod(KubeObject):
    KIND = "Pod"
    PLURAL = "pods"

    FIELDS = (
        Field("spec", type=PodSpec, default_factory=PodSpec),
        Field("status", type=PodStatus, default_factory=PodStatus),
    )

    @property
    def is_terminal(self):
        return self.status.phase in ("Succeeded", "Failed")


class Taint(Serializable):
    FIELDS = (
        Field("key"),
        Field("value"),
        Field("effect"),
    )
