"""Object translation between tenant control planes and the super cluster.

Downward-synced objects land in a super-cluster namespace prefixed with
the owner VC's name plus a short hash of its UID (paper §III-B(2)), and
carry annotations recording their tenant origin so upward reconcilers
and the vn-agent can map them back.
"""

from repro.objects.meta import same_spec

from ..crd import super_name, super_namespace

ANNOTATION_VC = "tenancy.x-k8s.io/vc"
ANNOTATION_TENANT_NAMESPACE = "tenancy.x-k8s.io/tenant-namespace"
ANNOTATION_TENANT_NAME = "tenancy.x-k8s.io/tenant-name"
ANNOTATION_TENANT_UID = "tenancy.x-k8s.io/tenant-uid"
LABEL_MANAGED_BY = "tenancy.x-k8s.io/managed-by"
MANAGED_BY_VALUE = "vc-syncer"

# Secondary-index names registered on the syncer's super-cluster caches
# (see clientgo.cache.ObjectCache.add_index).
INDEX_TENANT = "tenant"
INDEX_NODE = "node"


def tenant_index(obj):
    """Index synced super objects by their owner VC key."""
    annotations = obj.metadata.annotations or {}
    vc_key = annotations.get(ANNOTATION_VC)
    return (vc_key,) if vc_key else ()


def node_index(obj):
    """Index pods by the node they are bound to."""
    node_name = getattr(getattr(obj, "spec", None), "node_name", None)
    return (node_name,) if node_name else ()


def to_super(obj, vc):
    """Translate a tenant object into its super-cluster representation.

    Copy-on-write: the result is a new object with metadata of its own;
    every other field (spec, status, data, ...) is *the same* value as
    ``obj``'s — typically a shared snapshot's — so a caller that changes
    one replaces it (``translated.spec = translated.spec.replace(...)``)
    rather than editing it.
    """
    meta = obj.metadata
    tenant_namespace = meta.namespace
    namespaced = type(obj).NAMESPACED
    return obj.replace(metadata=meta.replace(
        namespace=(super_namespace(vc, tenant_namespace) if namespaced
                   else tenant_namespace),
        name=meta.name if namespaced else super_name(vc, meta.name),
        uid=None, resource_version=None, creation_timestamp=None,
        owner_references=[],
        labels={**(meta.labels or {}), LABEL_MANAGED_BY: MANAGED_BY_VALUE},
        annotations={
            **(meta.annotations or {}),
            ANNOTATION_VC: vc.key,
            ANNOTATION_TENANT_NAMESPACE: tenant_namespace or "",
            ANNOTATION_TENANT_NAME: meta.name,
            ANNOTATION_TENANT_UID: meta.uid or "",
        }))


def to_super_pod(pod, vc):
    """Pods additionally drop the tenant binding — the super scheduler
    binds the super pod to a physical node."""
    translated = to_super(pod, vc)
    translated.spec = pod.spec.replace(node_name=None)
    translated.status = type(pod.status)()
    return translated


def tenant_origin(super_obj):
    """Return (vc_key, tenant_namespace, tenant_name) or None."""
    annotations = super_obj.metadata.annotations or {}
    vc_key = annotations.get(ANNOTATION_VC)
    if not vc_key:
        return None
    return (
        vc_key,
        annotations.get(ANNOTATION_TENANT_NAMESPACE) or None,
        annotations.get(ANNOTATION_TENANT_NAME),
    )


def tenant_key(super_obj):
    """The tenant-side ``namespace/name`` key of a synced super object."""
    origin = tenant_origin(super_obj)
    if origin is None:
        return None
    _vc, namespace, name = origin
    return f"{namespace}/{name}" if namespace else name


def is_managed(super_obj):
    labels = super_obj.metadata.labels or {}
    return labels.get(LABEL_MANAGED_BY) == MANAGED_BY_VALUE


def super_key_for(obj_type, vc, tenant_obj_key):
    """Map a tenant object key to the super-cluster key."""
    if "/" in tenant_obj_key:
        namespace, name = tenant_obj_key.split("/", 1)
        return f"{super_namespace(vc, namespace)}/{name}"
    if obj_type.NAMESPACED:
        raise ValueError(f"namespaced key without namespace: {tenant_obj_key}")
    return super_name(vc, tenant_obj_key)


def specs_equivalent(tenant_obj, super_obj, ignore_fields=("nodeName",)):
    """Compare tenant vs super specs, ignoring syncer-managed fields."""
    return same_spec(tenant_obj, super_obj, ignore=ignore_fields)
