"""CRD synchronization (paper §V, future work #1).

"The super cluster may offer extended scheduling capabilities by
introducing new CRDs. ... A tenant user cannot use the extended
scheduling capability unless the syncer starts to synchronize the
required CRD from the tenant control plane."

This module adds exactly that: the super-cluster administrator
allowlists a CRD for a tenant; the syncer then

1. registers the dynamic type with the super cluster's apiserver (if a
   compatible registration does not exist yet),
2. watches the tenant's custom objects and synchronizes them downward
   into the tenant's prefixed namespaces with the usual origin
   annotations, and
3. includes them in the periodic scanner's remediation sweep.
"""

from repro.apiserver.errors import BadRequest

from .reconcilers import GenericDownward


class CrdSyncError(BadRequest):
    """The CRD cannot be synchronized (conflicting registration)."""


class CrdSyncManager:
    """Per-tenant registry of synchronized CRD types."""

    def __init__(self, syncer):
        self.syncer = syncer
        # (tenant, plural) -> GenericDownward over the dynamic type
        self._reconcilers = {}
        # plural -> kind, to detect cross-tenant conflicts
        self._registered_kinds = {}

    def enable(self, tenant, crd):
        """Start synchronizing a tenant's CRD downward.

        ``crd`` is the CustomResourceDefinition installed in the tenant
        control plane.  Returns the dynamic type used on the super side.
        """
        registration = self.syncer.tenants.get(tenant)
        if registration is None:
            raise CrdSyncError(f"unknown tenant {tenant!r}")
        plural = crd.spec.names.plural
        kind = crd.spec.names.kind
        if not plural or not kind:
            raise CrdSyncError("CRD has no plural/kind names")
        if (tenant, plural) in self._reconcilers:
            return self._reconcilers[(tenant, plural)].obj_type

        super_registry = self.syncer.super_cluster.api.registry
        if super_registry.has(plural):
            existing_kind = self._registered_kinds.get(plural)
            if existing_kind is not None and existing_kind != kind:
                raise CrdSyncError(
                    f"resource {plural!r} already synchronized with kind "
                    f"{existing_kind!r}; conflicting kind {kind!r}")
            obj_type = super_registry.get(plural)
        else:
            obj_type = super_registry.register_crd(crd)
        self._registered_kinds[plural] = kind

        # Watch the tenant's custom objects and feed the downward queue.
        informer = registration.informers.informer(plural)
        self.syncer._wire_downward_handlers(tenant, plural, informer)
        if self.syncer._started and informer.reflector._process is None:
            informer.start()
        # The reconcilers compare against the super-side cache too.
        super_informer = self.syncer.super_informer(plural)
        if (self.syncer._started
                and super_informer.reflector._process is None):
            super_informer.start()

        reconciler = GenericDownward(self.syncer, plural, obj_type)
        self._reconcilers[(tenant, plural)] = reconciler
        return obj_type

    def reconciler_for(self, tenant, plural):
        return self._reconcilers.get((tenant, plural))

    def plurals_for(self, tenant):
        return sorted(plural for (t, plural) in self._reconcilers
                      if t == tenant)

    def drop_tenant(self, tenant):
        for key in [key for key in self._reconcilers if key[0] == tenant]:
            del self._reconcilers[key]
