"""Remaining built-in object types: events, service accounts, volumes, RBAC."""

from .base import Field, Serializable
from .meta import KubeObject, ObjectReference
from .quantity import Quantity


class Event(KubeObject):
    KIND = "Event"
    PLURAL = "events"

    FIELDS = (
        Field("involved_object", type=ObjectReference,
              default_factory=ObjectReference),
        Field("reason"),
        Field("message"),
        Field("type", default="Normal"),
        Field("count", default=1),
        Field("first_timestamp"),
        Field("last_timestamp"),
        Field("source", container="map", default_factory=dict),
    )


class ServiceAccount(KubeObject):
    KIND = "ServiceAccount"
    PLURAL = "serviceaccounts"

    FIELDS = (
        Field("secrets", container="list", default_factory=list),
        Field("automount_service_account_token", default=True),
    )


class PersistentVolumeClaim(KubeObject):
    KIND = "PersistentVolumeClaim"
    PLURAL = "persistentvolumeclaims"

    FIELDS = (
        Field("spec", container="map", default_factory=dict),
        Field("status", container="map", default_factory=dict),
    )

    @property
    def phase(self):
        return (self.status or {}).get("phase", "Pending")


class PersistentVolume(KubeObject):
    KIND = "PersistentVolume"
    PLURAL = "persistentvolumes"
    NAMESPACED = False

    FIELDS = (
        Field("spec", container="map", default_factory=dict),
        Field("status", container="map", default_factory=dict),
    )


class ResourceQuotaSpec(Serializable):
    FIELDS = (
        Field("hard", type=Quantity, container="map", default_factory=dict),
    )


class ResourceQuotaStatus(Serializable):
    FIELDS = (
        Field("hard", type=Quantity, container="map", default_factory=dict),
        Field("used", type=Quantity, container="map", default_factory=dict),
    )


class ResourceQuota(KubeObject):
    KIND = "ResourceQuota"
    PLURAL = "resourcequotas"

    FIELDS = (
        Field("spec", type=ResourceQuotaSpec,
              default_factory=ResourceQuotaSpec),
        Field("status", type=ResourceQuotaStatus,
              default_factory=ResourceQuotaStatus),
    )


class StorageClass(KubeObject):
    API_VERSION = "storage.k8s.io/v1"
    KIND = "StorageClass"
    PLURAL = "storageclasses"
    NAMESPACED = False

    FIELDS = (
        Field("provisioner"),
        Field("parameters", container="map", default_factory=dict),
        Field("reclaim_policy", default="Delete"),
        Field("volume_binding_mode", default="Immediate"),
    )


class PolicyRule(Serializable):
    FIELDS = (
        Field("verbs", container="list", default_factory=list),
        Field("resources", container="list", default_factory=list),
        Field("api_groups", container="list", default_factory=list),
        Field("resource_names", container="list", default_factory=list),
    )


class Role(KubeObject):
    KIND = "Role"
    PLURAL = "roles"

    FIELDS = (
        Field("rules", type=PolicyRule, container="list",
              default_factory=list),
    )


class ClusterRole(KubeObject):
    KIND = "ClusterRole"
    PLURAL = "clusterroles"
    NAMESPACED = False

    FIELDS = (
        Field("rules", type=PolicyRule, container="list",
              default_factory=list),
    )


class RoleSubject(Serializable):
    FIELDS = (
        Field("kind"),
        Field("name"),
        Field("namespace"),
    )


class RoleRef(Serializable):
    FIELDS = (
        Field("kind"),
        Field("name"),
    )


class RoleBinding(KubeObject):
    KIND = "RoleBinding"
    PLURAL = "rolebindings"

    FIELDS = (
        Field("subjects", type=RoleSubject, container="list",
              default_factory=list),
        Field("role_ref", type=RoleRef, default_factory=RoleRef),
    )


class ClusterRoleBinding(KubeObject):
    KIND = "ClusterRoleBinding"
    PLURAL = "clusterrolebindings"
    NAMESPACED = False

    FIELDS = (
        Field("subjects", type=RoleSubject, container="list",
              default_factory=list),
        Field("role_ref", type=RoleRef, default_factory=RoleRef),
    )
