"""Object metadata and the common base class for all API objects."""

import itertools

from .base import (
    Field,
    SerdeMismatch,
    Serializable,
    _dump,
    fields_equal,
    freeze_guard_on,
)


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


def stored_wire(value):
    """The wire dict of a stored value, where bytes leave the model (a
    log record, the replay digest, a raw read): a dict as it is, and an
    apiserver snapshot encoded without the resourceVersion stamped on
    it, which the stored revision carries instead.  Popping the key
    leaves every other key in ``to_dict`` order."""
    if isinstance(value, dict):
        return value
    wire = value.to_dict()
    meta = wire.get("metadata")
    if meta is not None:
        meta.pop("resourceVersion", None)
    return wire


def wire_chars(obj):
    """``len(str(obj.to_dict()))``, the Fig. 10 meter's size of a
    cached object, counted without the encode and memoized on each
    object, so revisions recount only the children they replaced.
    Under the freeze guard the count is checked against the encode."""
    chars = obj.wire_chars()
    if freeze_guard_on() and chars != len(str(obj.to_dict())):
        raise SerdeMismatch(f"wire size of {obj!r} is not {chars}: "
                            f"{obj.to_dict()!r}")
    return chars


def same_spec(old, new, ignore=()):
    """Whether two objects' specs have equal wire forms, the top-level
    wire keys in ``ignore`` aside.  A spec paired with itself, or with
    no spec (which matches anything), is equal; two typed specs compare
    field by field, a shared child by identity."""
    old_spec = getattr(old, "spec", None)
    new_spec = getattr(new, "spec", None)
    if old_spec is new_spec or old_spec is None or new_spec is None:
        return True
    if type(old_spec) is type(new_spec) and isinstance(old_spec,
                                                       Serializable):
        return fields_equal(old_spec, new_spec, ignore)
    old_wire, new_wire = _dump(old_spec), _dump(new_spec)
    for key in ignore:
        old_wire.pop(key, None)
        new_wire.pop(key, None)
    return old_wire == new_wire


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
