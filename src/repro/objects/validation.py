"""Object validation: DNS-1123 names, required fields, spec immutability."""

import re

from .meta import same_spec

_DNS1123_LABEL = re.compile(r"^[a-z0-9]([-a-z0-9]*[a-z0-9])?$")
_DNS1123_SUBDOMAIN = re.compile(
    r"^[a-z0-9]([-a-z0-9]*[a-z0-9])?(\.[a-z0-9]([-a-z0-9]*[a-z0-9])?)*$"
)


class ValidationError(ValueError):
    """A create/update request carried an invalid object."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


def validate_name(name):
    field = "metadata.name"
    if not name:
        raise ValidationError("name is required", field)
    if len(name) > 253:
        raise ValidationError(f"name too long ({len(name)} > 253)", field)
    if not _DNS1123_SUBDOMAIN.match(name):
        raise ValidationError(
            f"invalid name {name!r}: must be a DNS-1123 subdomain", field
        )


def validate_label_value(value):
    if value and len(value) > 63:
        raise ValidationError(f"label value too long: {value!r}",
                              "metadata.labels")


def validate_metadata(obj, namespaced):
    meta = obj.metadata
    if meta.name is None and meta.generate_name is None:
        raise ValidationError("metadata.name or generateName required",
                              "metadata.name")
    if meta.name is not None:
        validate_name(meta.name)
    if namespaced and not meta.namespace:
        raise ValidationError("namespace required for namespaced object",
                              "metadata.namespace")
    if not namespaced and meta.namespace:
        raise ValidationError("namespace set on cluster-scoped object",
                              "metadata.namespace")
    for value in (meta.labels or {}).values():
        validate_label_value(value)


def validate_pod(pod):
    if not pod.spec.containers:
        raise ValidationError("pod must have at least one container",
                              "spec.containers")
    seen = set()
    for container in pod.spec.containers + pod.spec.init_containers:
        if not container.name:
            raise ValidationError("container name required",
                                  "spec.containers[].name")
        if not _DNS1123_LABEL.match(container.name):
            raise ValidationError(
                f"invalid container name {container.name!r}",
                "spec.containers[].name")
        if container.name in seen:
            raise ValidationError(
                f"duplicate container name {container.name!r}",
                "spec.containers[].name")
        seen.add(container.name)
        if not container.image:
            raise ValidationError(
                f"container {container.name!r} has no image",
                "spec.containers[].image")


def validate_pod_update(old_pod, new_pod):
    """Pod specs are mostly immutable; only permitted mutations allowed."""
    # Binding a pod (setting nodeName from empty) is allowed.
    if (old_pod.spec.node_name
            and new_pod.spec.node_name != old_pod.spec.node_name):
        raise ValidationError("pod nodeName may not be changed once set",
                              "spec.nodeName")
    # Tolerations may be appended.
    if not same_spec(old_pod, new_pod, ignore=("nodeName", "tolerations")):
        raise ValidationError("pod spec is immutable after creation", "spec")


def validate_service(service):
    if not service.spec.ports:
        raise ValidationError("service must declare at least one port",
                              "spec.ports")
    for port in service.spec.ports:
        if port.port is None or not (1 <= int(port.port) <= 65535):
            raise ValidationError(f"invalid service port {port.port!r}",
                                  "spec.ports[].port")
