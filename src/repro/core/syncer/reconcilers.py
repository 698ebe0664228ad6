"""Per-resource reconcilers: downward and upward synchronization.

Downward reconcilers populate tenant objects used in Pod provision into
the super cluster; upward reconcilers populate statuses back (paper
§III-C, Fig. 5).  Every reconciler compares states **against the informer
caches** on both sides — never by querying the apiservers directly — and
tolerates the races of the eventual-consistency model (an object may be
gone by the time its event is handled; the periodic scanner remediates
anything that slips through).
"""

from repro.apiserver.errors import (
    AlreadyExists,
    ApiError,
    Conflict,
    NotFound,
    is_retryable,
)
from repro.objects import Namespace

from ..crd import super_namespace
from .conversion import (
    is_managed,
    specs_equivalent,
    super_key_for,
    tenant_key,
    tenant_origin,
    to_super,
    to_super_pod,
)

# The resource types the syncer synchronizes (twelve, as in the paper).
DOWNWARD_TYPES = (
    "namespaces",
    "pods",
    "services",
    "secrets",
    "configmaps",
    "serviceaccounts",
    "persistentvolumeclaims",
    "resourcequotas",
)
UPWARD_TYPES = (
    "pods",          # statuses + vNode binding
    "events",        # super-cluster events for tenant objects
    "endpoints",     # endpoints realized in the super cluster
    "persistentvolumes",
    "storageclasses",
)


class DownwardReconciler:
    """Generic downward reconciler (copy tenant object into super)."""

    plural = None
    obj_type = None

    def __init__(self, syncer):
        self.syncer = syncer
        self.sim = syncer.sim

    # -- helpers -------------------------------------------------------

    def tenant_cache(self, tenant):
        return self.syncer.tenant_informer(tenant, self.plural).cache

    def super_cache(self):
        return self.syncer.super_informer(self.plural).cache

    def translate(self, obj, vc):
        return to_super(obj, vc)

    # -- the reconcile entry point --------------------------------------

    def sync_down(self, tenant, key):
        """Coroutine: converge the super object for tenant object ``key``."""
        registration = self.syncer.tenants.get(tenant)
        if registration is None:
            return
        vc = registration.vc
        tenant_obj = self.tenant_cache(tenant).get(key)
        skey = super_key_for(self.obj_type, vc, key)
        super_obj = self.super_cache().get(skey)

        if tenant_obj is None or tenant_obj.metadata.deletion_timestamp:
            if super_obj is not None and is_managed(super_obj):
                yield from self.delete_super(super_obj)
            return

        if super_obj is None:
            yield from self.create_super(tenant_obj, vc)
            return
        if not is_managed(super_obj):
            return  # never touch objects the syncer does not own
        yield from self.update_super(tenant_obj, super_obj, vc)

    # -- operations (overridable) ----------------------------------------

    def create_super(self, tenant_obj, vc):
        translated = self.translate(tenant_obj, vc)
        if self.obj_type.NAMESPACED:
            yield from self.syncer.ensure_super_namespace(
                vc, tenant_obj.metadata.namespace)
        try:
            yield from self.syncer.super_writer.create(translated)
        except AlreadyExists:
            pass
        except NotFound:
            # Namespace raced away; the scanner will retry.
            self.syncer.metrics_inc("dws_create_race")

    def update_super(self, tenant_obj, super_obj, vc):
        if specs_equivalent(tenant_obj, super_obj):
            if not self._payload_changed(tenant_obj, super_obj):
                return
        translated = self.translate(tenant_obj, vc)
        translated.metadata.resource_version = (
            super_obj.metadata.resource_version)
        translated.metadata.uid = super_obj.metadata.uid
        if hasattr(translated, "spec") and hasattr(translated.spec,
                                                   "node_name"):
            translated.spec = translated.spec.replace(
                node_name=super_obj.spec.node_name)
        if hasattr(translated, "status"):
            translated.status = super_obj.status
        try:
            yield from self.syncer.super_writer.update(translated)
        except (Conflict, NotFound):
            self.syncer.metrics_inc("dws_update_race")

    def delete_super(self, super_obj):
        try:
            yield from self.syncer.super_writer.delete(
                self.plural, super_obj.metadata.name,
                namespace=super_obj.metadata.namespace)
        except NotFound:
            pass

    def _payload_changed(self, tenant_obj, super_obj):
        """Non-spec payloads (secrets' data, configmaps' data, labels)."""
        for attr in ("data", "string_data", "binary_data"):
            if hasattr(tenant_obj, attr):
                if getattr(tenant_obj, attr) != getattr(super_obj, attr, None):
                    return True
        tenant_labels = dict(tenant_obj.metadata.labels or {})
        super_labels = dict(super_obj.metadata.labels or {})
        super_labels.pop("tenancy.x-k8s.io/managed-by", None)
        return tenant_labels != super_labels


class NamespaceDownward(DownwardReconciler):
    plural = "namespaces"

    def __init__(self, syncer):
        super().__init__(syncer)
        from repro.objects import Namespace as NamespaceType

        self.obj_type = NamespaceType

    def sync_down(self, tenant, key):
        registration = self.syncer.tenants.get(tenant)
        if registration is None:
            return
        vc = registration.vc
        tenant_ns = self.tenant_cache(tenant).get(key)
        sname = super_namespace(vc, key)
        super_ns = self.super_cache().get(sname)
        if tenant_ns is None or tenant_ns.is_terminating:
            if super_ns is not None and is_managed(super_ns):
                try:
                    yield from self.syncer.super_writer.delete(
                        "namespaces", sname)
                except NotFound:
                    pass
            return
        if super_ns is None:
            yield from self.syncer.ensure_super_namespace(vc, key)


class PodDownward(DownwardReconciler):
    plural = "pods"

    def __init__(self, syncer):
        super().__init__(syncer)
        from repro.objects import Pod as PodType

        self.obj_type = PodType

    def translate(self, obj, vc):
        return to_super_pod(obj, vc)

    def sync_down(self, tenant, key):
        registration = self.syncer.tenants.get(tenant)
        if registration is None:
            return
        vc = registration.vc
        tenant_pod = self.tenant_cache(tenant).get(key)
        skey = super_key_for(self.obj_type, vc, key)
        super_pod = self.super_cache().get(skey)

        if tenant_pod is None or tenant_pod.metadata.deletion_timestamp:
            if super_pod is not None and is_managed(super_pod):
                yield from self.delete_super(super_pod)
            self.syncer.vnodes.pod_deleted(tenant, key)
            return
        if tenant_pod.is_terminal:
            return
        if super_pod is None:
            yield from self.create_super(tenant_pod, vc)
            self.syncer.trace_store.mark(tenant, key, "dws_done",
                                         self.sim.now)
            return
        if not is_managed(super_pod):
            return
        if not specs_equivalent(tenant_pod, super_pod):
            # Pod specs are immutable apart from syncer-managed fields;
            # a divergent spec means the tenant recreated the pod.
            yield from self.delete_super(super_pod)
            yield from self.create_super(tenant_pod, vc)
        elif self._payload_changed(tenant_pod, super_pod):
            # Labels are mutable in place: the base update keeps the
            # super Pod's node binding and status.
            yield from self.update_super(tenant_pod, super_pod, vc)


class ServiceDownward(DownwardReconciler):
    plural = "services"

    def __init__(self, syncer):
        super().__init__(syncer)
        from repro.objects import Service as ServiceType

        self.obj_type = ServiceType

    def translate(self, obj, vc):
        translated = to_super(obj, vc)
        # The super cluster allocates its own cluster IP; the tenant's
        # allocation is only meaningful inside the tenant control plane.
        translated.spec = translated.spec.replace(cluster_ip=None)
        return translated

    def update_super(self, tenant_obj, super_obj, vc):
        if specs_equivalent(tenant_obj, super_obj,
                            ignore_fields=("nodeName", "clusterIP")):
            return
        translated = self.translate(tenant_obj, vc)
        translated.spec = translated.spec.replace(
            cluster_ip=super_obj.spec.cluster_ip)
        translated.metadata.resource_version = (
            super_obj.metadata.resource_version)
        try:
            yield from self.syncer.super_writer.update(translated)
        except (Conflict, NotFound):
            self.syncer.metrics_inc("dws_update_race")


class GenericDownward(DownwardReconciler):
    """Used for secrets, configmaps, serviceaccounts, PVCs, quotas."""

    def __init__(self, syncer, plural, obj_type):
        super().__init__(syncer)
        self.plural = plural
        self.obj_type = obj_type


class UpwardReconciler:
    """Base for upward reconcilers (super -> tenant)."""

    plural = None

    def __init__(self, syncer):
        self.syncer = syncer
        self.sim = syncer.sim

    def super_cache(self):
        return self.syncer.super_informer(self.plural).cache

    def sync_up(self, tenant, super_key):
        raise NotImplementedError


class PodUpward(UpwardReconciler):
    """Copies super pod statuses back and manages the vNode binding."""

    plural = "pods"

    def sync_up(self, tenant, super_key):
        registration = self.syncer.tenants.get(tenant)
        if registration is None:
            return
        super_pod = self.super_cache().get(super_key)
        if super_pod is None:
            return
        t_key = tenant_key(super_pod)
        if t_key is None:
            return
        tenant_client = registration.client
        tenant_pod = self.syncer.tenant_informer(
            tenant, "pods").cache.get(t_key)
        if tenant_pod is None:
            # Tenant pod vanished while the super pod still exists: the
            # downward path (or scanner) will delete the orphan.
            return

        # 1. Bind the tenant pod to its vNode when the super pod got
        #    scheduled onto a physical node.
        if super_pod.spec.node_name and not tenant_pod.spec.node_name:
            yield from self.syncer.vnodes.ensure_vnode(
                tenant, super_pod.spec.node_name)
            try:
                tenant_pod = yield from tenant_client.bind_pod(
                    tenant_pod.name, tenant_pod.namespace,
                    super_pod.spec.node_name)
            except NotFound:
                return
            except Conflict:
                tenant_pod = self.syncer.tenant_informer(
                    tenant, "pods").cache.get(t_key)
                if tenant_pod is None or not tenant_pod.spec.node_name:
                    # Stale cache: the super pod emits no further events,
                    # so retry explicitly rather than dropping the item.
                    self.syncer.requeue_upward_later(tenant, "pods",
                                                     super_key)
                    return
            self.syncer.vnodes.pod_bound(tenant, t_key,
                                         super_pod.spec.node_name)

        # 2. Copy the status block.
        if tenant_pod.status == super_pod.status:
            return
        became_ready = (super_pod.status.is_ready
                        and not tenant_pod.status.is_ready)
        tenant_pod = tenant_pod.replace(status=super_pod.status)
        try:
            yield from tenant_client.update_status(tenant_pod)
        except NotFound:
            return
        except Conflict:
            self.syncer.metrics_inc("uws_update_race")
            self.syncer.requeue_upward_later(tenant, "pods", super_key)
            return
        if became_ready:
            self.syncer.trace_store.mark(tenant, t_key, "uws_done",
                                         self.sim.now)


class EventUpward(UpwardReconciler):
    """Copies super-cluster Events about tenant objects into the tenant."""

    plural = "events"

    def sync_up(self, tenant, super_key):
        registration = self.syncer.tenants.get(tenant)
        if registration is None:
            return
        event = self.super_cache().get(super_key)
        if event is None:
            return
        origin = self.syncer.resolve_super_namespace(event.namespace)
        if origin is None or origin[0] != tenant:
            return
        translated = event.replace(metadata=event.metadata.replace(
            namespace=origin[1], resource_version=None, uid=None))
        if event.involved_object is not None:
            translated.involved_object = event.involved_object.replace(
                namespace=origin[1])
        try:
            yield from registration.client.create(translated)
        except AlreadyExists:
            pass
        except ApiError as exc:
            self.syncer.metrics_inc("uws_event_drop")
            if is_retryable(exc):
                # An unreachable tenant control plane must surface to the
                # worker (it feeds the circuit breaker); only non-retryable
                # races are best-effort drops.
                raise


class EndpointsUpward(UpwardReconciler):
    """Mirrors super endpoints of synced services into the tenant.

    The tenant's own endpoints controller computes endpoints from tenant
    pods too; the syncer only fills gaps for services whose pods run in
    the super cluster but are not yet reflected (it never fights an
    existing tenant endpoints object with identical subsets).
    """

    plural = "endpoints"

    def sync_up(self, tenant, super_key):
        registration = self.syncer.tenants.get(tenant)
        if registration is None:
            return
        endpoints = self.super_cache().get(super_key)
        if endpoints is None:
            return
        t_key = tenant_key(endpoints)
        if t_key is None:
            return
        tenant_eps = self.syncer.tenant_informer(
            tenant, "endpoints").cache.get(t_key)
        if tenant_eps is None:
            return
        if ([s.to_dict() for s in tenant_eps.subsets]
                == [s.to_dict() for s in endpoints.subsets]):
            return
        # Tenant endpoints controller owns the object; nothing to do when
        # it already converged.  (Kept as an explicit no-op branch so the
        # race is documented.)
        return
        yield  # pragma: no cover - marks this method as a generator


def _payload(obj):
    """What a broadcast copy must match: every field but metadata and
    status (a StorageClass keeps its settings outside any ``spec``)."""
    data = obj.to_dict()
    data.pop("metadata", None)
    data.pop("status", None)
    return data


class ClusterResourceUpward(UpwardReconciler):
    """Broadcasts cluster-scoped resources (PVs, StorageClasses) to all
    tenants so tenants can discover them."""

    def __init__(self, syncer, plural, obj_type):
        super().__init__(syncer)
        self.plural = plural
        self.obj_type = obj_type

    def sync_up(self, tenant, super_key):
        registration = self.syncer.tenants.get(tenant)
        if registration is None:
            return
        obj = self.super_cache().get(super_key)
        tenant_cache = self.syncer.tenant_informer(tenant, self.plural).cache
        if obj is None:
            if super_key in tenant_cache:
                try:
                    yield from registration.client.delete(self.plural,
                                                          super_key)
                except NotFound:
                    pass
            return
        translated = obj.replace(metadata=obj.metadata.replace(
            resource_version=None, uid=None))
        existing = tenant_cache.get(super_key)
        if existing is None:
            try:
                yield from registration.client.create(translated)
            except AlreadyExists:
                pass
        elif _payload(existing) != _payload(translated):
            translated.metadata.resource_version = (
                existing.metadata.resource_version)
            try:
                yield from registration.client.update(translated)
            except (Conflict, NotFound):
                pass
