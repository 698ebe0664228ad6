"""Object metadata and the common base class for all API objects."""

import itertools

from .base import (
    EMPTY_DICT,
    Field,
    Serializable,
    check_serde,
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
    # ``_wire``: the stored wire dict an apiserver snapshot was decoded
    # from (set by the apiserver only; see :func:`wire_chars`).  No
    # other object has it: ``replace``/``copy``/``from_dict`` leave it
    # unset.
    __slots__ = ("metadata", "_wire")

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


# ``'resourceVersion': '<rv>', `` less the ``<rv>``: what the stamped
# resourceVersion adds to ``str(to_dict())`` of a snapshot whose wire
# dict was stored without one (its metadata always holds a name too).
_STAMPED_RV_CHARS = len(str({"resourceVersion": "", "x": 0})) - len(
    str({"x": 0}))


def wire_chars(obj):
    """``len(str(obj.to_dict()))``, without the encode for an apiserver
    snapshot: its stored wire dict plus the resourceVersion stamped on
    it at decode.  Under the freeze guard the shortcut is checked
    against the encode."""
    wire = getattr(obj, "_wire", None)
    if wire is None:
        return len(str(obj.to_dict()))
    rv = obj.metadata.resource_version
    chars = len(str(wire)) + _STAMPED_RV_CHARS + len(rv)
    if freeze_guard_on():
        check_serde("wire size", f"{obj.key!r} at revision {rv}",
                    chars, len(str(obj.to_dict())))
    return chars


def same_spec(old, new, ignore=()):
    """Whether two objects' specs have equal wire forms, the top-level
    wire keys in ``ignore`` aside (see :func:`spec_wires`)."""
    return same_wires(spec_wires(old, new), ignore)


def spec_wires(old, new):
    """The wire forms of two objects' specs, as a pair to compare with
    :func:`same_wires`.  A snapshot's spec is read off its stored wire
    dict, and the other spec is encoded against it (so children the two
    share are not re-encoded, and compare by identity).  A spec paired
    with itself, or with no spec (which matches anything), is not
    encoded: both sides are then the one shared empty dict."""
    old_spec = getattr(old, "spec", None)
    new_spec = getattr(new, "spec", None)
    if old_spec is new_spec or old_spec is None or new_spec is None:
        return EMPTY_DICT, EMPTY_DICT
    old_wire = _stored_spec(old)
    new_wire = _stored_spec(new)
    if old_wire is None:
        old_wire = _spec_wire(old_spec, new_spec, new_wire)
    if new_wire is None:
        new_wire = _spec_wire(new_spec, old_spec, old_wire)
    return old_wire, new_wire


def same_wires(wires, ignore=()):
    """Whether a :func:`spec_wires` pair is equal, the top-level keys in
    ``ignore`` aside."""
    old_wire, new_wire = wires
    if old_wire is new_wire:
        return True
    if ignore:
        old_wire = {key: value for key, value in old_wire.items()
                    if key not in ignore}
        new_wire = {key: value for key, value in new_wire.items()
                    if key not in ignore}
    return old_wire == new_wire


def _stored_spec(obj):
    """The spec subtree of an apiserver snapshot's wire dict, else None."""
    wire = getattr(obj, "_wire", None)
    return None if wire is None else wire.get("spec")


def _spec_wire(spec, other, other_wire):
    """``spec``'s wire form, encoded against ``other`` where that is a
    spec of the same type whose wire form ``other_wire`` is known."""
    if not isinstance(spec, Serializable):
        return dict(spec)
    if other_wire is None or type(other) is not type(spec):
        return spec.to_dict()
    wire = spec.to_dict_against(other, other_wire)
    if freeze_guard_on():
        # Compared, never stored: equality is what must hold (a
        # snapshot's wire replayed from a log has sorted keys).
        check_serde("shared spec encode", type(spec).__name__,
                    wire, spec.to_dict())
    return wire


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
