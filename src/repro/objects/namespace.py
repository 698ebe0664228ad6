"""Namespace objects with the finalize/terminate lifecycle."""

from .base import Field, Serializable
from .meta import KubeObject


class NamespaceSpec(Serializable):
    FIELDS = (
        Field("finalizers", container="list",
              default_factory=lambda: ["kubernetes"]),
    )


class NamespaceStatus(Serializable):
    FIELDS = (
        Field("phase", default="Active"),
    )


class Namespace(KubeObject):
    KIND = "Namespace"
    PLURAL = "namespaces"
    NAMESPACED = False

    FIELDS = (
        Field("spec", type=NamespaceSpec, default_factory=NamespaceSpec),
        Field("status", type=NamespaceStatus, default_factory=NamespaceStatus),
    )

    @property
    def is_terminating(self):
        return (self.metadata.deletion_timestamp is not None
                or self.status.phase == "Terminating")


def make_namespace(name):
    namespace = Namespace()
    namespace.metadata.name = name
    namespace.metadata.labels = {}
    return namespace
