"""Admission control chain.

Plugins run after authorization and before persistence, exactly like the
real apiserver: mutating plugins first (defaulting, clusterIP allocation),
then validating plugins (namespace lifecycle, quota).
"""

from repro.objects import (
    Namespace,
    Pod,
    Quantity,
    Service,
    ValidationError,
    add_resource_lists,
)

from .errors import Forbidden, Invalid


class AdmissionRequest:
    """What a plugin sees for each mutating call."""

    __slots__ = ("verb", "plural", "obj", "old_obj", "namespace", "credential")

    def __init__(self, verb, plural, obj, old_obj=None, namespace=None,
                 credential=None):
        self.verb = verb
        self.plural = plural
        self.obj = obj
        self.old_obj = old_obj
        self.namespace = namespace
        self.credential = credential


class AdmissionPlugin:
    """Base plugin; ``admit`` may mutate ``request.obj`` or raise."""

    name = "plugin"

    def admit(self, request, reader):
        raise NotImplementedError


class NamespaceLifecycle(AdmissionPlugin):
    """Rejects creates in missing or terminating namespaces."""

    name = "NamespaceLifecycle"

    def admit(self, request, reader):
        if request.verb != "create" or not request.namespace:
            return
        namespace = reader.read("namespaces", None, request.namespace)
        if namespace is None:
            raise Forbidden(
                f"namespace {request.namespace!r} not found"
            )
        if isinstance(namespace, Namespace) and namespace.is_terminating:
            raise Forbidden(
                f"namespace {request.namespace!r} is terminating"
            )


class PodDefaults(AdmissionPlugin):
    """Applies Pod defaulting the scheduler and kubelet rely on."""

    name = "PodDefaults"

    def admit(self, request, reader):
        if request.plural != "pods" or request.verb != "create":
            return
        pod = request.obj
        if not isinstance(pod, Pod):
            return
        if not pod.spec.scheduler_name:
            pod.spec.scheduler_name = "default-scheduler"
        if not pod.spec.service_account_name:
            pod.spec.service_account_name = "default"
        for container in pod.spec.containers:
            if container.resources.requests is None:
                container.resources.requests = {}


class ClusterIPAllocator(AdmissionPlugin):
    """Allocates virtual cluster IPs for ClusterIP services."""

    name = "ClusterIPAllocator"

    def __init__(self, cidr_base="10.96", start=1):
        self._cidr_base = cidr_base
        self._next = start
        self._allocated = set()

    def admit(self, request, reader):
        if request.plural != "services" or request.verb != "create":
            return
        service = request.obj
        if not isinstance(service, Service):
            return
        if service.spec.type not in ("ClusterIP", "NodePort", "LoadBalancer"):
            return
        if service.spec.cluster_ip in ("None",):
            return  # headless
        if service.spec.cluster_ip:
            if service.spec.cluster_ip in self._allocated:
                raise Invalid(
                    f"cluster IP {service.spec.cluster_ip} already allocated"
                )
            self._allocated.add(service.spec.cluster_ip)
            return
        while True:
            candidate = self._format_ip(self._next)
            self._next += 1
            if candidate not in self._allocated:
                break
        self._allocated.add(candidate)
        service.spec.cluster_ip = candidate

    def release(self, cluster_ip):
        self._allocated.discard(cluster_ip)

    def _format_ip(self, index):
        high, low = divmod(index, 254)
        return f"{self._cidr_base}.{high % 254}.{low + 1}"


class QuotaEnforcer(AdmissionPlugin):
    """Enforces ResourceQuota hard limits on Pod creation."""

    name = "QuotaEnforcer"

    def admit(self, request, reader):
        if request.plural != "pods" or request.verb != "create":
            return
        pod = request.obj
        # Namespaced range reads: a create must not list the cluster.
        quotas = reader.read_all("resourcequotas",
                                 namespace=request.namespace)
        if not quotas:
            return
        existing_pods = [p for p in reader.read_all(
                             "pods", namespace=request.namespace)
                         if not p.is_terminal]
        usage = {"pods": Quantity.parse(len(existing_pods))}
        for existing in existing_pods:
            usage = add_resource_lists(usage, existing.spec.total_requests())
        usage = add_resource_lists(
            usage, {"pods": Quantity.parse(1), **pod.spec.total_requests()}
        )
        for quota in quotas:
            for name, hard in quota.spec.hard.items():
                used = usage.get(name)
                if used is not None and used > Quantity.parse(hard):
                    raise Forbidden(
                        f"exceeded quota {quota.name!r}: {name} "
                        f"{used} > {hard}"
                    )


class ValidatingObjectSchema(AdmissionPlugin):
    """Runs per-type validation (converted to API ``Invalid`` errors)."""

    name = "ObjectSchema"

    def admit(self, request, reader):
        from repro.objects.validation import (
            validate_pod,
            validate_pod_update,
            validate_service,
        )

        try:
            if request.plural == "pods":
                if request.verb == "create":
                    validate_pod(request.obj)
                elif request.verb == "update" and request.old_obj is not None:
                    validate_pod_update(request.old_obj, request.obj)
            elif request.plural == "services" and request.verb == "create":
                validate_service(request.obj)
        except ValidationError as exc:
            raise Invalid(str(exc)) from exc


def default_admission_chain():
    """The plugin order used by both super and tenant control planes."""
    return [
        PodDefaults(),
        ClusterIPAllocator(),
        NamespaceLifecycle(),
        QuotaEnforcer(),
        ValidatingObjectSchema(),
    ]
