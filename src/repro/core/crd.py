"""The VirtualCluster (VC) custom resource.

Managed by the super-cluster administrator; one VC object describes one
tenant control plane (apiserver version, provisioning mode, resources).
The tenant operator reconciles these objects (paper §III-B(1)).
"""

import hashlib

from repro.objects.base import Field, Serializable
from repro.objects.meta import KubeObject


class VirtualClusterSpec(Serializable):
    FIELDS = (
        Field("apiserver_version", default="v1.18"),
        Field("mode", default="local"),  # "local" or "cloud"
        Field("cloud_provider"),          # e.g. "ack", "eks" in cloud mode
        Field("etcd_dedicated", default=True),
        Field("resources", container="map",
              default_factory=lambda: {"cpu": "2", "memory": "4Gi"}),
        Field("tenant_weight", default=1),
        Field("paused", default=False),
    )


class VirtualClusterStatus(Serializable):
    FIELDS = (
        Field("phase", default="Pending"),
        Field("reason"),
        Field("message"),
        Field("kubeconfig_secret"),
        Field("cert_hash"),
        Field("control_plane_endpoint"),
        Field("conditions", container="list", default_factory=list),
    )


class VirtualCluster(KubeObject):
    API_VERSION = "tenancy.x-k8s.io/v1alpha1"
    KIND = "VirtualCluster"
    PLURAL = "virtualclusters"
    NAMESPACED = True

    FIELDS = (
        Field("spec", type=VirtualClusterSpec,
              default_factory=VirtualClusterSpec),
        Field("status", type=VirtualClusterStatus,
              default_factory=VirtualClusterStatus),
    )

    @property
    def is_running(self):
        return self.status.phase == "Running"


def short_uid_hash(uid):
    """Six-hex-character hash of an object UID (namespace prefix part).

    Requires a ``str``: hashing ``str()`` of a non-string would embed
    its default repr — a memory address — making the derived namespace
    prefix differ across processes (linter rule D006).
    """
    if not isinstance(uid, str):
        raise TypeError(
            f"short_uid_hash needs the UID as str, "
            f"got {type(uid).__name__}")
    return hashlib.sha256(uid.encode()).hexdigest()[:6]


# DNS-1123 subdomain limit enforced by apiserver validation.
NAME_LIMIT = 253


def fit_name(name):
    """Truncate an over-long composed name to the DNS limit, injectively.

    Prefixing a tenant name with the per-VC prefix can push it past 253
    characters.  The fitted name keeps a recognizable head and appends a
    hash of the full name, so two distinct long names never collide.
    Reverse mapping never parses the name — it reads the tenant-origin
    annotations — so the truncation is lossless for round-trips.
    """
    if len(name) <= NAME_LIMIT:
        return name
    digest = hashlib.sha256(name.encode()).hexdigest()[:10]
    return f"{name[:NAME_LIMIT - 11]}-{digest}"


def cluster_prefix(vc):
    """The per-VC namespace prefix: ``<name>-<uidhash>`` (paper §III-B(2))."""
    return f"{vc.name}-{short_uid_hash(vc.uid)}"


def super_namespace(vc, tenant_namespace):
    """Map a tenant namespace to its super-cluster namespace."""
    return fit_name(f"{cluster_prefix(vc)}-{tenant_namespace}")


def super_name(vc, name):
    """Map a cluster-scoped tenant object name to its super-cluster name."""
    return fit_name(f"{cluster_prefix(vc)}-{name}")


def make_virtual_cluster(name, namespace="vc-manager", weight=1,
                         mode="local"):
    vc = VirtualCluster()
    vc.metadata.name = name
    vc.metadata.namespace = namespace
    vc.spec.tenant_weight = weight
    vc.spec.mode = mode
    return vc
