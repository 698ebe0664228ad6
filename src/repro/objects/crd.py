"""Custom resource definitions and dynamically-typed custom objects.

Tenants install CRDs in their own control planes (one of the paper's
motivating capabilities); the apiserver registers a dynamic resource type
for each established CRD.
"""

from .base import Field, Serializable
from .meta import KubeObject


class CRDNames(Serializable):
    FIELDS = (
        Field("kind"),
        Field("plural"),
        Field("singular"),
        Field("short_names", container="list", default_factory=list),
    )


class CRDSpec(Serializable):
    FIELDS = (
        Field("group"),
        Field("names", type=CRDNames, default_factory=CRDNames),
        Field("scope", default="Namespaced"),
        Field("versions", container="list", default_factory=list),
    )


class CRDStatus(Serializable):
    FIELDS = (
        Field("accepted_names", type=CRDNames, default_factory=CRDNames),
        Field("conditions", container="list", default_factory=list),
    )


class CustomResourceDefinition(KubeObject):
    API_VERSION = "apiextensions.k8s.io/v1"
    KIND = "CustomResourceDefinition"
    PLURAL = "customresourcedefinitions"
    NAMESPACED = False

    FIELDS = (
        Field("spec", type=CRDSpec, default_factory=CRDSpec),
        Field("status", type=CRDStatus, default_factory=CRDStatus),
    )


def make_custom_type(api_version, kind, plural, namespaced=True):
    """Create a KubeObject subclass for a CRD-defined resource."""

    class CustomObject(KubeObject):
        API_VERSION = api_version
        KIND = kind
        PLURAL = plural
        NAMESPACED = namespaced

        FIELDS = (
            Field("spec", container="map", default_factory=dict),
            Field("status", container="map", default_factory=dict),
        )

    CustomObject.__name__ = kind
    CustomObject.__qualname__ = kind
    return CustomObject
