"""Object metadata and the common base class for all API objects."""

import itertools

from .base import Field, Serializable


def generate_uid(sim):
    """Generate a unique object UID from ``sim``'s own counter.

    The counter hangs off the Simulation, so two same-seed runs assign
    identical UIDs; a process-global one would depend on how many
    objects were ever created in the interpreter, which the replay
    bisector flags as a divergence.
    """
    counter = getattr(sim, "_uid_serials", None)
    if counter is None:
        counter = itertools.count(1)
        sim._uid_serials = counter
    return f"uid-{next(counter):08x}"


class OwnerReference(Serializable):
    """Reference from a dependent object to its owner (drives GC)."""

    FIELDS = (
        Field("api_version"),
        Field("kind"),
        Field("name"),
        Field("uid"),
        Field("controller", default=False),
        Field("block_owner_deletion", default=False),
    )


class ObjectMeta(Serializable):
    """Standard Kubernetes object metadata."""

    FIELDS = (
        Field("name"),
        Field("generate_name"),
        Field("namespace"),
        Field("uid"),
        Field("resource_version"),
        Field("generation", default=0),
        Field("creation_timestamp"),
        Field("deletion_timestamp"),
        Field("labels", container="map", default_factory=dict),
        Field("annotations", container="map", default_factory=dict),
        Field("finalizers", container="list", default_factory=list),
        Field("owner_references", type=OwnerReference, container="list",
              default_factory=list),
    )


class KubeObject(Serializable):
    """Base class for all API objects (Pod, Service, ...).

    Subclasses set the class attributes ``API_VERSION``, ``KIND``,
    ``PLURAL`` and ``NAMESPACED``, which the apiserver registry uses to
    route requests.
    """

    API_VERSION = "v1"
    KIND = "Object"
    PLURAL = "objects"
    NAMESPACED = True

    FIELDS = (
        Field("metadata", type=ObjectMeta, default_factory=ObjectMeta),
    )

    @classmethod
    def _wire_header(cls):
        return (("apiVersion", cls.API_VERSION), ("kind", cls.KIND))

    @property
    def name(self):
        return self.metadata.name

    @property
    def namespace(self):
        return self.metadata.namespace

    @property
    def uid(self):
        return self.metadata.uid

    @property
    def key(self):
        """``namespace/name`` for namespaced objects, ``name`` otherwise."""
        if self.NAMESPACED and self.metadata.namespace:
            return f"{self.metadata.namespace}/{self.metadata.name}"
        return self.metadata.name or ""

    def __repr__(self):
        return f"<{self.KIND} {self.key!r} rv={self.metadata.resource_version}>"


class ObjectReference(Serializable):
    """Loose reference to another object (used by Events, bindings)."""

    FIELDS = (
        Field("api_version"),
        Field("kind"),
        Field("namespace"),
        Field("name"),
        Field("uid"),
        Field("field_path"),
    )


def split_key(key):
    """Split a ``namespace/name`` cache key; returns (namespace, name)."""
    if "/" in key:
        namespace, name = key.split("/", 1)
        return namespace, name
    return None, key
