"""Resource type registry: routes plural resource names to object types.

Each control plane (super cluster or tenant) owns a registry.  CRDs
installed at runtime register additional dynamic types, which is how a
tenant extends *its own* apiserver without touching anyone else's.
"""

from repro.objects import BUILTIN_TYPES
from repro.objects.crd import make_custom_type

from .errors import BadRequest, NotFound


class ResourceRegistry:
    """Maps plural resource names (e.g. ``pods``) to API types."""

    def __init__(self):
        self._by_plural = {}
        for obj_type in BUILTIN_TYPES:
            self.register(obj_type)

    def register(self, obj_type):
        if obj_type.PLURAL in self._by_plural:
            raise BadRequest(f"resource {obj_type.PLURAL!r} already registered")
        self._by_plural[obj_type.PLURAL] = obj_type

    def register_crd(self, crd):
        """Register the dynamic type described by an established CRD."""
        names = crd.spec.names
        version = crd.spec.versions[0] if crd.spec.versions else "v1"
        if isinstance(version, dict):
            version = version.get("name", "v1")
        api_version = f"{crd.spec.group}/{version}"
        obj_type = make_custom_type(
            api_version, names.kind, names.plural,
            namespaced=(crd.spec.scope == "Namespaced"),
        )
        self.register(obj_type)
        return obj_type

    def get(self, plural):
        obj_type = self._by_plural.get(plural)
        if obj_type is None:
            raise NotFound(f"the server could not find resource {plural!r}")
        return obj_type

    def has(self, plural):
        return plural in self._by_plural
