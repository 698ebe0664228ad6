"""Kubernetes-compatible object model.

All API types used by the VirtualCluster reproduction: Pods, Services,
Nodes, Namespaces, Secrets, ConfigMaps, Endpoints, Events, RBAC objects,
workload objects, CRDs — with wire-format (de)serialization, deep copy,
validation, label/field selectors, and resource quantities.
"""

from .base import Field, Serializable
from .config import ConfigMap, Secret
from .coordination import Lease, LeaseSpec
from .crd import CustomResourceDefinition, make_custom_type
from .factory import make_pod, make_service, with_anti_affinity
from .meta import (
    KubeObject,
    ObjectMeta,
    ObjectReference,
    OwnerReference,
    generate_uid,
    split_key,
)
from .misc import (
    ClusterRole,
    ClusterRoleBinding,
    Event,
    PersistentVolume,
    PersistentVolumeClaim,
    PolicyRule,
    ResourceQuota,
    Role,
    RoleBinding,
    RoleRef,
    RoleSubject,
    ServiceAccount,
    StorageClass,
)
from .namespace import Namespace, make_namespace
from .node import Node, NodeAddress, NodeCondition, make_node
from .pod import (
    Affinity,
    Container,
    NodeAffinity,
    Pod,
    PodAffinity,
    PodAffinityTerm,
    PodCondition,
    PodSpec,
    PodStatus,
    ResourceRequirements,
    Taint,
    Toleration,
)
from .quantity import InvalidQuantity, Quantity, add_resource_lists, fits_within
from .selectors import (
    LabelSelector,
    LabelSelectorRequirement,
    match_fields,
    match_label_dict,
    parse_selector,
)
from .service import Endpoints, EndpointSubset, Service, ServicePort
from .validation import ValidationError, validate_metadata, validate_pod
from .workloads import Deployment, PodTemplateSpec, ReplicaSet

BUILTIN_TYPES = (
    Pod,
    Service,
    Endpoints,
    Namespace,
    Node,
    Secret,
    ConfigMap,
    Event,
    ServiceAccount,
    PersistentVolume,
    PersistentVolumeClaim,
    ResourceQuota,
    Role,
    ClusterRole,
    RoleBinding,
    ClusterRoleBinding,
    CustomResourceDefinition,
    StorageClass,
    Deployment,
    ReplicaSet,
    Lease,
)

__all__ = [name for name in dir() if not name.startswith("_")]
